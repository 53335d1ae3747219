"""The game tensor and the batched contraction against the slow path they
replaced: entry-by-entry game matrices, Jacobi norms, and a Python loop
over every partition and lone-player assignment (tests/oracles.py)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lingame.algebra import AbelianGroup
from lingame.diew import biseparable_bound
from lingame.games import chsh_game, make_game, mermin_ghz3_game
from lingame.qbounds import quantum_bound
from lingame.tolerances import TIE_TOL

from oracles import oracle_biseparable_bound, oracle_quantum_bound

Z3 = AbelianGroup((3,))
SETTINGS = settings(max_examples=15, deadline=None, derandomize=True)


@st.composite
def z3_games(draw, questions):
    size = 1
    for q in questions:
        size *= q
    values = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    weights = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)
                   .filter(lambda w: sum(w) > 0))
    dist = [Fraction(w, sum(weights)) for w in weights]
    return make_game(Z3, questions, [(v,) for v in values], distribution=dist)


def two_player_games():
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(z3_games)


def assert_quantum_matches(game):
    report = quantum_bound(game)
    raw, best = oracle_quantum_bound(game)
    assert abs(report.raw_bound - raw) <= TIE_TOL
    assert report.best_partition == best


def assert_biseparable_matches(game):
    report = biseparable_bound(game)
    raw, lone, assignment = oracle_biseparable_bound(game)
    assert abs(report.raw_bound - raw) <= TIE_TOL
    assert report.best_lone == lone
    assert report.partition(lone).assignment == assignment


@pytest.mark.parametrize("game", [mermin_ghz3_game(), chsh_game(3, 3)],
                         ids=["ghz3", "chsh33"])
def test_builtin_bounds_match_oracles(game):
    assert_quantum_matches(game)
    assert_biseparable_matches(game)


@SETTINGS
@given(two_player_games())
def test_two_player_quantum_bound_matches_oracle(game):
    assert_quantum_matches(game)


@SETTINGS
@given(z3_games((3, 3, 3)))
def test_tripartite_bounds_match_oracles(game):
    assert_quantum_matches(game)
    assert_biseparable_matches(game)
