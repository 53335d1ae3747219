"""The game tensor and the histogram fold of the biseparable search
against the slow path they replaced: entry-by-entry game matrices, Jacobi
norms, and a Python loop over every partition and lone-player assignment
(tests/oracles.py)."""

import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lingame import values
from lingame.algebra import AbelianGroup
from lingame.diew import (biseparable_bound, biseparable_bound_partition,
                          biseparable_matrix)
from lingame.games import chsh_game, make_game, mermin_ghz3_game
from lingame.qbounds import quantum_bound
from lingame.tolerances import TIE_TOL

from oracles import (oracle_biseparable_bound, oracle_biseparable_matrix,
                     oracle_max_singular_value, oracle_quantum_bound)

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
    """Raw bound, best lone player and assignment as the oracle's, and the
    reported norms and matrices of that assignment as the oracle's."""
    report = biseparable_bound(game)
    raw, lone, assignment = oracle_biseparable_bound(game)
    assert abs(report.raw_bound - raw) <= TIE_TOL
    assert report.best_lone == lone
    part = report.partition(lone)
    assert part.assignment == assignment
    for k, norm in part.norms.items():
        expected = oracle_biseparable_matrix(game, lone, k, assignment)
        assert abs(biseparable_matrix(game, lone, k, assignment)
                   - expected).max() <= 1e-12
        assert abs(norm - oracle_max_singular_value(expected)) <= 1e-9


@st.composite
def tripartite_games(draw):
    """Three-player games over groups other than Z3, one to three
    questions a player, with zero-probability inputs and, one time in
    four, a constant predicate under which every table ties."""
    group = draw(st.sampled_from([AbelianGroup((2,)), AbelianGroup((4,)),
                                  AbelianGroup((2, 2)), AbelianGroup((2, 3))]))
    questions = tuple(draw(st.lists(st.integers(1, 3), min_size=3,
                                    max_size=3)))
    size = questions[0] * questions[1] * questions[2]
    element = st.integers(0, group.size - 1).map(group.element)
    if draw(st.integers(0, 3)) == 0:
        predicate = [draw(element)] * size
    else:
        predicate = draw(st.lists(element, min_size=size, max_size=size))
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)
                   .filter(lambda w: sum(w) > 0))
    dist = [Fraction(w, sum(weights)) for w in weights]
    return make_game(group, questions, predicate, distribution=dist)


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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tripartite_games(), st.sampled_from([1, 50, values._CHUNK_ENTRIES]))
def test_biseparable_search_matches_oracle_on_other_groups(game, entries):
    """Blocks from one table up to the default, so that tied tables fall
    in different blocks."""
    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        assert_biseparable_matches(game)


@pytest.mark.parametrize("entries", [1, 50, values._CHUNK_ENTRIES])
def test_biseparable_search_beyond_2_to_the_53_matches_oracle(entries):
    """A denominator of 2^80 gives an object-dtype histogram."""
    z2z2 = AbelianGroup((2, 2))
    den = 2**80
    weights = [5, den - 17, 0, 3, 1, 0, 2, 6, 0, 0, 0, 0]
    game = make_game(z2z2, (2, 3, 2),
                     [z2z2.element(i) for i in (1, 0, 3, 0, 3, 3, 0, 3, 2, 1, 1, 0)],
                     distribution=[Fraction(w, den) for w in weights])
    assert game.histogram.dtype == object
    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        assert_biseparable_matches(game)


def test_blocks_bound_the_memory_of_the_biseparable_search():
    """Each block's character sums and singular values are dropped before
    the next block; about one block's worth of complex entries is alive,
    with the norms of every table."""
    game = chsh_game(3, 5)
    tracemalloc.start()
    try:
        part = biseparable_bound_partition(game, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.assignment == ((0,), (0,), (4,), (2,), (4,))
    assert peak < 3 * values._CHUNK_ENTRIES * 8
