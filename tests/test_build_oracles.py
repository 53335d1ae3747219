"""The array game builder against the per-question builder it replaced
(tests/oracles.py): make_game on every predicate and distribution form,
equality and hashing, the chsh and GHZ3 gathers, and deterministic
behaviors."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingame.algebra import AbelianGroup, FiniteField
from lingame.games import (DeterministicStrategy, chsh_game, make_game,
                           mermin_ghz3_game)
from oracles import (oracle_chsh_predicate, oracle_deterministic_table,
                     oracle_make_game)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
FIELDS = [FiniteField(2, 2), FiniteField(2, 3), FiniteField(3, 2)]
GROUPS = ([(AbelianGroup(orders), None) for orders in ((2,), (3,), (4,), (2, 3))]
          + [(field.additive_group(), field) for field in FIELDS])


def _same_data(game, old):
    assert np.array_equal(game.grid, old.grid)
    assert np.array_equal(game.residues, old.residues)
    assert game.weights.dtype == old.weights.dtype
    assert game.weights.tolist() == old.weights.tolist()
    assert game.den == old.den
    assert game.distribution == old.distribution
    assert game.predicate == old.predicate
    assert all(type(p) is Fraction for p in game.distribution)
    assert all(type(v) is int for a in game.predicate for v in a)


@st.composite
def specs(draw):
    """(group, questions, predicate, distribution, field) in every form
    make_game takes; weights up to 2^62 give denominators past 2^53."""
    group, field = draw(st.sampled_from(GROUPS))
    n = draw(st.sampled_from((2, 3)))
    questions = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    grid = list(itertools.product(*map(range, questions)))
    values = [group.element(i) for i in draw(st.lists(
        st.integers(0, group.size - 1), min_size=len(grid), max_size=len(grid)))]
    if len(group.orders) == 1 and draw(st.booleans()):
        values = [a[0] for a in values]
    table = dict(zip(grid, values))
    predicate = draw(st.sampled_from((lambda x: table[x], table, values)))

    kind = draw(st.sampled_from(("uniform", "support", "table", "list")))
    if kind == "uniform":
        distribution = "uniform"
    elif kind == "support":
        distribution = {"support": draw(st.lists(st.sampled_from(grid),
                                                 min_size=1, unique=True))}
    else:
        weights = draw(st.lists(st.integers(0, 3) | st.integers(0, 2**62),
                                min_size=len(grid), max_size=len(grid))
                       .filter(lambda w: sum(w) > 0))
        total = sum(weights)
        as_str = draw(st.booleans())
        probs = [f"{w}/{total}" if as_str else Fraction(w, total) for w in weights]
        distribution = (dict((x, p) for x, p, w in zip(grid, probs, weights) if w)
                        if kind == "table" else probs)
    return group, questions, predicate, distribution, field


@SETTINGS
@given(specs())
def test_make_game_matches_per_question_builder(spec):
    group, questions, predicate, distribution, field = spec
    game = make_game(group, questions, predicate, distribution, field=field)
    old = oracle_make_game(group, questions, predicate, distribution)
    _same_data(game, old)
    # The same data as plain lists builds an equal game with an equal
    # hash; the field is not compared.
    same = make_game(group, questions, list(old.predicate), list(old.distribution))
    assert same == game and hash(same) == hash(game)
    # One predicate value moved to the next element makes a different game.
    moved = list(old.predicate)
    moved[0] = group.element((group.index(moved[0]) + 1) % group.size)
    assert make_game(group, questions, moved, list(old.distribution)) != game


@pytest.mark.parametrize("players, p, r", [
    (2, 2, 1), (3, 3, 1), (4, 3, 1), (3, 5, 1), (5, 2, 1), (2, 7, 1),
    (2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 3, 2)])
def test_chsh_game_matches_per_question_builder(players, p, r):
    field = FiniteField(p, r)
    old = oracle_make_game(field.additive_group(), (field.size,) * players,
                           oracle_chsh_predicate(field))
    _same_data(chsh_game(players, field.size), old)


def test_ghz3_game_matches_per_question_builder():
    support = [x for x in itertools.product(range(3), repeat=3)
               if sum(x) % 3 == 0]
    old = oracle_make_game(AbelianGroup((3,)), (3, 3, 3),
                           lambda x: ((x[0] * x[1] * x[2]) % 3,),
                           {"support": support})
    _same_data(mermin_ghz3_game(), old)


@SETTINGS
@given(st.sampled_from(GROUPS), st.lists(st.integers(1, 3), min_size=2,
                                          max_size=3), st.data())
def test_deterministic_behavior_matches_row_loop(group_field, questions, data):
    group = group_field[0]
    outputs = tuple(tuple(group.element(data.draw(st.integers(0, group.size - 1)))
                          for _ in range(q)) for q in questions)
    strategy = DeterministicStrategy(outputs)
    table = oracle_deterministic_table(strategy, group, questions)
    behavior = strategy.behavior(group, questions)
    assert np.array_equal(behavior.table, table)
    x = tuple(q - 1 for q in questions)
    answers = tuple(outputs[i][x[i]] for i in range(len(questions)))
    assert behavior.prob(answers, x) == 1.0
    assert table.sum() == math.prod(questions)
