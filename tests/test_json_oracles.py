"""The one JSON writer, games.json_text, against the standard library it
replaced (tests/oracles.py): on any document it writes the bytes of
json.dumps(..., indent=2) after the float rounding pass, and the game and
function files it writes are the indented dumps of their documents."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingame import games
from lingame.boxworld import load_function, serialize_function
from lingame.games import (chsh_game, json_text, load_game, mermin_ghz3_game,
                           serialize_game)

from oracles import oracle_round_floats

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

_TEXT = (st.text(max_size=8)
         | st.sampled_from(["", "é", " ", "\x00\x1f\x7f", '"\\/',
                            "\ud800", "\U0001f600", "Z3xZ3"]))
_SCALARS = (st.none() | st.booleans()
            | st.integers(-2**80, 2**80)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.floats(allow_nan=False).map(np.float64)
            | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-300,
                               1e300, 5e-324, 0.1 + 0.2, 123456789.987654321])
            | _TEXT
            | st.lists(st.integers(-2**70, 2**70), max_size=6))
_DOCS = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=5)
                  | st.lists(kids, max_size=5).map(tuple)
                  | st.dictionaries(_TEXT, kids, max_size=5)),
    max_leaves=40)


@SETTINGS
@given(_DOCS, st.booleans())
def test_writer_matches_the_rounded_indented_dump(doc, sort_keys):
    assert json_text(doc, sort_keys) == json.dumps(
        oracle_round_floats(doc), sort_keys=sort_keys, indent=2)


@pytest.mark.parametrize("doc", [[np.int64(1)], [object()], {"a": {1, 2}},
                                 b"bytes"])
def test_writer_rejects_what_the_rounding_pass_rejects(doc):
    with pytest.raises(TypeError):
        oracle_round_floats(doc)
    with pytest.raises(TypeError):
        json_text(doc)


@pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 0}}, {(1, 2): "x"}])
def test_writer_takes_string_keys_only(doc):
    with pytest.raises(TypeError, match="keys must be strings"):
        json_text(doc, sort_keys=True)


CHSH_GRID = [(n, d) for n in (2, 3, 4) for d in (2, 3, 4, 5) if d**n <= 625]


@pytest.mark.parametrize("game", [
    *(chsh_game(n, d) for n, d in CHSH_GRID),
    mermin_ghz3_game(), load_game(FIXTURES / "chsh22.game"),
    load_game(FIXTURES / "ghz3.game")],
    ids=[*(f"chsh({n},{d})" for n, d in CHSH_GRID), "mermin_ghz3",
         "chsh22.game", "ghz3.game"])
def test_game_files_are_the_indented_dump(game):
    # serialize_game pins every game_hash
    assert serialize_game(game) == json.dumps(
        games._game_document(game), indent=2) + "\n"


def test_function_files_are_the_indented_dump():
    table = load_function(FIXTURES / "xyz.function")
    assert serialize_function(table) == json.dumps(
        {"d": table.d, "arities": list(table.arities),
         "table": list(table.values)}, indent=2) + "\n"
