"""The one JSON writer, games.json_text, against the standard library it
replaced (tests/oracles.py): on any document it writes the bytes of
json.dumps(..., indent=2) after the float rounding pass, a records table
given by columns as the dump of its rows' dicts, and the game and function
files it writes are the indented dumps of their documents, a game's
probabilities written as the texts of their Fractions."""

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingame import games
from lingame.algebra import AbelianGroup
from lingame.boxworld import load_function
from lingame.games import (Records, chsh_game, game_hash, json_text, load_game,
                           make_game, mermin_ghz3_game, serialize_game)

from oracles import (oracle_fraction_game_document, oracle_game_document,
                     oracle_round_floats, serialize_function)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

_TEXT = (st.text(max_size=8)
         | st.sampled_from(["", "é", " ", "\x00\x1f\x7f", '"\\/',
                            "\ud800", "\U0001f600", "Z3xZ3", "%s", "50%"]))
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


# (dtype, ints) of an integer column: object arrays hold ints beyond int64
_INT_KINDS = st.sampled_from([
    (np.int64, st.integers(-2**63, 2**63 - 1)),
    (np.uint8, st.integers(0, 255)),
    (object, st.integers(-2**80, 2**80))])


@st.composite
def records(draw):
    """(Records, the list of dicts it stands for): 0 to 4 rows, 1 to 4
    columns, each an int, a list of 0 to 4 ints or a string per row."""
    rows = draw(st.integers(0, 4))
    keys = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    columns, dicts = {}, [{} for _ in range(rows)]
    for key in keys:
        kind = draw(st.sampled_from(["int", "list", "str"]))
        if kind == "str":
            values = draw(st.lists(_TEXT, min_size=rows, max_size=rows))
            columns[key] = values
        else:
            dtype, ints = draw(_INT_KINDS)
            shape = ((rows,) if kind == "int"
                     else (rows, draw(st.integers(0, 4))))
            flat = draw(st.lists(ints, min_size=math.prod(shape),
                                 max_size=math.prod(shape)))
            column = np.empty(len(flat), dtype=dtype)
            column[:] = flat
            columns[key] = column.reshape(shape)
            values = columns[key].tolist()
        for row, value in zip(dicts, values):
            row[key] = value
    return Records(columns), dicts


@st.composite
def placed_records(draw):
    """(document, its json.dumps-ready copy): a records table at top
    level or nested up to two levels in dicts and lists beside other
    values."""
    doc, plain = draw(records())
    for _ in range(draw(st.integers(0, 2))):
        sibling = draw(_DOCS)
        if draw(st.booleans()):
            key, other = draw(st.lists(_TEXT, min_size=2, max_size=2,
                                       unique=True))
            doc, plain = ({key: doc, other: sibling},
                          {key: plain, other: oracle_round_floats(sibling)})
        else:
            doc, plain = [sibling, doc], [oracle_round_floats(sibling), plain]
    return doc, plain


@SETTINGS
@given(placed_records(), st.booleans())
def test_records_are_written_as_the_dump_of_their_rows(placed, sort_keys):
    doc, plain = placed
    assert json_text(doc, sort_keys) == json.dumps(plain, sort_keys=sort_keys,
                                                   indent=2)


@pytest.mark.parametrize("columns, error", [
    ({"a": np.array([True, False])}, TypeError),
    ({"a": np.array([1.0, 2.0])}, TypeError),
    ({"a": np.array([[0.5]])}, TypeError),
    ({"a": np.array([1, True], dtype=object)}, TypeError),
    ({"a": np.array([1, np.int64(2)], dtype=object)}, TypeError),
    ({"a": ["x", 5]}, TypeError),
    ({1: np.arange(2)}, TypeError),
    ({"a": np.arange(2), "b": np.arange(3)}, ValueError),
    ({"a": np.zeros((2, 1), dtype=int), "b": ["x"]}, ValueError),
    ({"a": np.zeros((2, 2, 2), dtype=int)}, ValueError),
    ({"a": np.array(3)}, ValueError),
    ({}, ValueError),
], ids=["bool", "float", "float_2d", "object_bool", "object_numpy_int",
        "non_string", "int_key", "unequal", "unequal_strings", "3d", "0d",
        "no_columns"])
def test_records_reject_other_columns(columns, error):
    with pytest.raises(error):
        Records(columns)


def _zero_weight_game():
    z3 = AbelianGroup((3,))
    return make_game(z3, (2, 3), [(v,) for v in (2, 0, 1, 1, 2, 0)],
                     distribution=[Fraction(1, 4), 0, Fraction(1, 6),
                                   Fraction(5, 12), 0, Fraction(1, 6)])


def _den_2_80_game(group, f_index):
    """A non-uniform game whose weights are Python ints beyond int64."""
    den = 2**80
    weights = [5, den - 17, 0, 3, 1, 0, 2, 6]
    return make_game(group, (2, 2, 2), [group.element(i) for i in f_index],
                     distribution=[Fraction(w, den) for w in weights])


CHSH_GRID = [(n, d) for n in (2, 3, 4) for d in (2, 3, 4, 5) if d**n <= 625]
# game_hash of each game at the commit before its tables were written from
# columns, when json.dumps wrote one dict per question
PINNED_HASHES = {
    "chsh22.game": "1a471cad95aecaa375ac7ac6358cc7640892e36b9eb0e66f34acccd656802280",
    "ghz3.game": "aeddc8a993ea8fc8bb2753a02ed8a006379632f3e666973e6f5d9533aee823f6",
    "chsh(3,4)": "d804b2b608a1290d0829037d4a28e6d6c2baf6393fa35a3ed2a99a777335d579",
    "zero_weights": "cb414661a85c441a482cbc3af2645703d80da9c2e2684fe4b3eebf378b88161d",
    "den_2^80_z3": "5160dbdabd19bbdbefe97fc223c6b922e14355b3c425839b7cb33753f1be0c24",
    "den_2^80_z2xz2": "a29211c02a5e6552f9bc38b17dce7830281ecd6bb04df751b59828a6c5439149",
}
GAMES = {
    **{f"chsh({n},{d})": chsh_game(n, d) for n, d in CHSH_GRID},
    "mermin_ghz3": mermin_ghz3_game(),
    "chsh22.game": load_game(FIXTURES / "chsh22.game"),
    "ghz3.game": load_game(FIXTURES / "ghz3.game"),
    "zero_weights": _zero_weight_game(),
    "den_2^80_z3": _den_2_80_game(AbelianGroup((3,)),
                                  (1, 0, 0, 0, 0, 0, 0, 0)),
    "den_2^80_z2xz2": _den_2_80_game(AbelianGroup((2, 2)),
                                     (1, 0, 3, 0, 3, 3, 0, 3)),
}


@pytest.mark.parametrize("game", GAMES.values(), ids=GAMES.keys())
def test_game_files_are_the_indented_dump(game):
    # serialize_game pins every game_hash; its tables are written from
    # columns, the oracle's one dict per question
    assert serialize_game(game) == json.dumps(
        oracle_game_document(game), indent=2) + "\n"
    document = games._game_document(game)
    assert isinstance(document["predicate"]["table"], Records)


def _fraction_text(game):
    return json_text(oracle_fraction_game_document(game)) + "\n"


@pytest.mark.parametrize("game", [*GAMES.values(), load_game(
    FIXTURES / "random3.game")], ids=[*GAMES, "random3.game"])
def test_probabilities_are_written_as_their_fractions(game):
    assert serialize_game(game) == _fraction_text(game)


@st.composite
def _distributed_games(draw):
    """A game of 2 or 3 players over Z2, Z3, Z5 or Z2 x Z2 with a uniform,
    support or table distribution; table weights reach 2^70, so some
    games keep Python-int weights."""
    group = AbelianGroup(draw(st.sampled_from(((2,), (3,), (5,), (2, 2)))))
    questions = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    grid = [tuple(x) for x in np.ndindex(*questions)]
    predicate = [group.element(i) for i in draw(st.lists(
        st.integers(0, group.size - 1), min_size=len(grid),
        max_size=len(grid)))]
    kind = draw(st.sampled_from(["uniform", "support", "table"]))
    if kind == "uniform":
        distribution = "uniform"
    elif kind == "support":
        distribution = {"support": draw(st.lists(
            st.sampled_from(grid), min_size=1, unique=True))}
    else:
        top = 2**draw(st.sampled_from((3, 20, 70)))
        weights = draw(st.lists(st.integers(0, top), min_size=len(grid),
                                max_size=len(grid)).filter(any))
        distribution = [Fraction(w, sum(weights)) for w in weights]
    return make_game(group, questions, predicate, distribution=distribution)


@SETTINGS
@given(_distributed_games())
def test_probabilities_are_written_as_their_fractions_property(game):
    assert serialize_game(game) == _fraction_text(game)


@pytest.mark.parametrize("name", PINNED_HASHES)
def test_game_hashes_are_pinned(name):
    game = GAMES[name]
    assert game_hash(game) == PINNED_HASHES[name]
    assert game_hash(game) == hashlib.sha256(
        (json.dumps(oracle_game_document(game), indent=2) + "\n").encode()
    ).hexdigest()


def test_function_files_are_the_indented_dump():
    table = load_function(FIXTURES / "xyz.function")
    assert serialize_function(table) == json.dumps(
        {"d": table.d, "arities": list(table.arities),
         "table": list(table.values)}, indent=2) + "\n"
