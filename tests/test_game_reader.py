"""The game-file reader against the reader it replaced.

``parse_game_file`` reads each table entry once and turns its question
tuple into a grid position.  ``oracles.oracle_parse_game_file`` keeps the
reader that held question tuples as dict keys, sent its distribution
through ``make_game``'s weights and sorted its predicate into grid order.
Both must build games that are ``==``, with equal ``game_hash``, and
refuse a bad document with the same message."""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lingame.errors import GameFormatError
from lingame.games import game_hash, mermin_ghz3_game, parse_game_file

from oracles import oracle_parse_game_file

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (the "group" entry, the cyclic orders of its group, its builtin chsh size)
GROUPS = {
    **{f"Z{d}": ({"cyclic": [d]}, (d,), d if d in (2, 3, 5, 7) else None)
       for d in range(2, 8)},
    "Z2xZ2": ({"cyclic": [2, 2]}, (2, 2), None),
    "GF(4)": ({"field": {"p": 2, "r": 2}}, (2, 2), 4),
}
# Denominators whose lcm over a few entries passes 2^53, and 2^63.
BIG_DENOMINATORS = (2**31 - 1, 2**61 - 1, 10**18 + 9)


def _outcome(reader, text):
    """The game ``reader`` builds from ``text``, or its GameFormatError's
    message."""
    try:
        return reader(text)
    except GameFormatError as e:
        return f"GameFormatError: {e}"


def assert_readers_agree(text):
    new, old = _outcome(parse_game_file, text), _outcome(oracle_parse_game_file, text)
    assert new == old
    if not isinstance(new, str):
        assert game_hash(new) == game_hash(old)
    return new


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.game")))
def test_fixtures_read_as_the_oracle_reads_them(name):
    game = assert_readers_agree((FIXTURES / name).read_text())
    assert not isinstance(game, str)


def _entry(x, key, value):
    return {"x": list(x), key: value}


def _probability_text(p):
    return p.numerator if p.denominator == 1 else f"{p.numerator}/{p.denominator}"


def _element(orders, index):
    """The element of index ``index``: an int for one cyclic factor (or a
    one-entry list), else a residue list."""
    residues = []
    for d in reversed(orders):
        index, r = divmod(index, d)
        residues.append(r)
    return residues[::-1] if len(orders) > 1 else residues[0]


@st.composite
def game_documents(draw):
    """A game document: Z2-Z7, Z2xZ2 or GF(4); a uniform, support or
    table distribution, the table's denominators drawn small or with an
    lcm past 2^53; a table or builtin predicate; entries in drawn order.
    Some documents are spoiled in one drawn way."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    group, orders, chsh = GROUPS[name]
    players = draw(st.integers(2, 3))
    builtin = None
    if chsh and chsh ** players <= 64 and draw(st.booleans()):
        builtin, questions = "chsh", [chsh] * players
    elif name == "Z3" and players == 3 and draw(st.integers(0, 3)) == 0:
        builtin, questions = "ghz3", [3, 3, 3]
    else:
        questions = draw(st.lists(st.integers(1, 3), min_size=players,
                                  max_size=players))
    grid = list(itertools.product(*map(range, questions)))
    size = math.prod(orders)

    form = draw(st.sampled_from(("uniform", "support", "table")))
    if form == "uniform":
        dist = "uniform"
    elif form == "support":
        support = draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
        dist = {"support": [list(x) for x in support]}
    else:
        rows = draw(st.lists(st.sampled_from(grid), min_size=1, unique=True))
        if draw(st.booleans()):
            weights = draw(st.lists(st.integers(0, 9), min_size=len(rows),
                                    max_size=len(rows)).filter(any))
            probs = [Fraction(w, sum(weights)) for w in weights]
        else:  # each p below 1/len(rows), the last one closing the sum
            dens = draw(st.lists(st.sampled_from(
                (len(rows) + 1, len(rows) + 2) + BIG_DENOMINATORS),
                min_size=len(rows) - 1, max_size=len(rows) - 1))
            probs = [Fraction(1, d) for d in dens]
            probs.append(1 - sum(probs))
        dist = {"table": [_entry(x, "p", _probability_text(p))
                          for x, p in zip(rows, probs)]}

    if builtin:
        pred = {"builtin": builtin}
    else:
        values = draw(st.lists(st.integers(0, size - 1), min_size=len(grid),
                               max_size=len(grid)))
        entries = [_entry(x, "f", _element(orders, v)) for x, v in zip(grid, values)]
        pred = {"table": draw(st.permutations(entries))}

    doc = {"players": players, "questions": questions,
           "group": group, "distribution": dist, "predicate": pred}
    spoil = draw(st.sampled_from((None, None, None, "duplicate", "drop",
                                  "bool", "range")))
    tables = [t["table"] for t in (dist, pred)
              if isinstance(t, dict) and "table" in t]
    if spoil and tables:
        table = draw(st.sampled_from(tables))
        i = draw(st.integers(0, len(table) - 1))
        if spoil == "duplicate":
            table.append(dict(table[i]))
        elif spoil == "drop":  # a missing input, or probability
            del table[i]
        else:
            first = True if spoil == "bool" else questions[0]
            table[i] = dict(table[i], x=[first] + table[i]["x"][1:])
    return json.dumps(doc, indent=draw(st.sampled_from((None, 2))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(game_documents())
def test_documents_read_as_the_oracle_reads_them(text):
    assert_readers_agree(text)


def test_builtin_ghz3_is_the_ghz3_game():
    """The ghz3 builtin reads the shared, read-only GHZ3 predicate."""
    reference = mermin_ghz3_game()
    doc = {"players": 3, "questions": [3, 3, 3], "group": {"cyclic": [3]},
           "distribution": {"support": [list(x) for x in reference.support()]},
           "predicate": {"builtin": "ghz3"}}
    game = parse_game_file(json.dumps(doc))
    assert game == reference
    assert game.predicate_indices() is reference.predicate_indices()
    assert not game.predicate_indices().flags.writeable


@pytest.mark.parametrize("dens", [(2**31 - 1, 2**31 + 11), (2**61 - 1, 3),
                                  (10**18 + 9, 2**61 - 1)],
                         ids=["int64-weights", "big-den", "past-int64"])
def test_denominator_lcm_past_2_53(dens):
    """lcm of the denominators past 2^53, the weights' sum below 2^63
    (int64 weights) or past it (Python ints): the game is the oracle's."""
    probs = [Fraction(1, d) for d in dens]
    probs.append(1 - sum(probs))
    doc = {"players": 2, "questions": [3, 3], "group": {"cyclic": [3]},
           "distribution": {"table": [
               _entry(x, "p", _probability_text(p))
               for x, p in zip([(0, 0), (1, 1), (0, 1)], probs)]},
           "predicate": {"builtin": "chsh"}}
    game = assert_readers_agree(json.dumps(doc))
    assert game.den == math.lcm(*dens) > 2**53
    assert game.distribution[1] == probs[-1]
