"""The histogram engine and the separability test of values against the
slow paths they replaced or that check them (tests/oracles.py): the
chunked decode-and-scatter engine, the per-table Python loop of the old
classical_value, full enumeration of every strategy, the pair's joint sum
tables enumerated outright, and the per-tuple difference relations of the
old separability_check."""

import functools
import itertools
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lingame import values
from lingame.algebra import AbelianGroup
from lingame.games import chsh_game, make_game, mermin_ghz3_game
from lingame.errors import ResourceLimitError, ValidationError
from lingame.tolerances import CLASSICAL_ENUMERATION_CAP as CAP
from lingame.values import classical_value, separability_check, svetlichny_value

from oracles import (brute_svetlichny_value, naive_classical_value,
                     oracle_best_tables, oracle_classical_result,
                     oracle_separability_check, oracle_table_digits)

GROUPS = [AbelianGroup((2,)), AbelianGroup((3,)), AbelianGroup((4,)),
          AbelianGroup((2, 2))]
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
CHUNKS = [1, 50, values._CHUNK_ENTRIES]  # one table per block up to the default
# The loop oracle is slow on GHZ3; the chunk test asks it three times.
loop_result = functools.cache(oracle_classical_result)


@st.composite
def games(draw, players, groups=GROUPS, top=None):
    """Games with zero-probability inputs and, one time in four, a
    constant predicate under which every table ties.  Each player has one
    to ``top`` questions: 3 for two players and 2 for more by default."""
    group = draw(st.sampled_from(groups))
    n = draw(st.sampled_from(players))
    top = top or (3 if n == 2 else 2)
    questions = tuple(draw(st.lists(st.integers(1, top),
                                    min_size=n, max_size=n)))
    size = 1
    for q in questions:
        size *= q
    element = st.integers(0, group.size - 1).map(group.element)
    if draw(st.integers(0, 3)) == 0:
        predicate = [draw(element)] * size
    else:
        predicate = draw(st.lists(element, min_size=size, max_size=size))
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)
                   .filter(lambda w: sum(w) > 0))
    dist = [Fraction(w, sum(weights)) for w in weights]
    return make_game(group, questions, predicate, distribution=dist)


def assert_classical_matches_loop(game):
    result = classical_value(game)
    value, outputs = loop_result(game)
    assert result.value == value
    assert result.strategy.outputs == outputs


@SETTINGS
@given(games(players=(2, 3, 4)))
def test_classical_value_and_witness_match_the_loop(game):
    assert_classical_matches_loop(game)


def z2z2_game_over_2_to_the_80():
    z2z2 = AbelianGroup((2, 2))
    den = 2**80
    weights = [5, den - 17, 0, 3, 1, 0, 2, 6]
    return make_game(z2z2, (2, 2, 2),
                     [z2z2.element(i) for i in (1, 0, 3, 0, 3, 3, 0, 3)],
                     distribution=[Fraction(w, den) for w in weights])


@SETTINGS
@given(games(players=(3,)), st.sampled_from(CHUNKS))
@example(z2z2_game_over_2_to_the_80(), 1)
@example(z2z2_game_over_2_to_the_80(), 50)
@example(z2z2_game_over_2_to_the_80(), values._CHUNK_ENTRIES)
def test_svetlichny_matches_joint_tables_and_dominates_classical(game, entries):
    """Per lone player and the maximum, with blocks from one table up to
    the default."""
    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        per_lone = [svetlichny_value(game, lone=lone) for lone in range(3)]
        for lone, value in enumerate(per_lone):
            assert value == brute_svetlichny_value(game, lone)
        assert svetlichny_value(game) == max(per_lone)
        assert classical_value(game).value <= max(per_lone) <= 1


def test_svetlichny_value_decodes_no_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("svetlichny_value decoded a table")
    monkeypatch.setattr(values, "table_digits", refuse)
    game = chsh_game(3, 3)
    assert svetlichny_value(game) == Fraction(2, 3)
    for lone in range(3):
        assert svetlichny_value(game, lone=lone) == brute_svetlichny_value(game, lone)


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (5,), (2, 2)],
                         ids=["Z2", "Z3", "Z4", "Z5", "Z2xZ2"])
def test_table_digits_match_the_unravel_index_decoder(orders):
    """Every index of one to three fixed players, player 2 with one
    question, given as an int and as an np.int64."""
    group = AbelianGroup(orders)
    game = make_game(group, (2, 3, 1), lambda x: group.element(0))
    for fixed in [(0,), (1,), (2,), (0, 1), (2, 1), (0, 1, 2)]:
        count = group.size ** sum(game.question_counts[i] - 1 for i in fixed)
        for index in range(count):
            for i in (index, np.int64(index)):
                digits = values.table_digits(game, fixed, i)
                assert digits == oracle_table_digits(game, fixed, i)
                assert {type(d) for table in digits for d in table} == {int}


def test_denominators_beyond_int64_stay_exact():
    # Denominators of at least 2^53 take the object-dtype histogram; 2^80
    # would overflow int64 outright.
    z3 = AbelianGroup((3,))
    for den in (3 * 2**55, 2**80):
        dist = [Fraction(w, den) for w in (1, den - 7, 2, 0, 3, 1)]
        dist += [Fraction(0)] * 6
        game = make_game(z3, (2, 3, 2),
                         [(v,) for v in (0, 1, 2, 2, 1, 0, 1, 1, 0, 2, 0, 1)],
                         distribution=dist)
        result = classical_value(game)
        assert result.value == naive_classical_value(game)
        assert result.value.denominator > 2**53
        assert_classical_matches_loop(game)
        for lone in range(3):
            assert (svetlichny_value(game, lone=lone)
                    == brute_svetlichny_value(game, lone))


def assert_engine_matches_oracle(game, fixed):
    value, tables, answers = values._best_tables(game, fixed, CAP)
    o_value, o_digits, o_answers = oracle_best_tables(game, fixed, CAP)
    assert value == o_value
    assert sum(tables, []) == o_digits.tolist()
    assert answers.tolist() == o_answers.tolist()


@SETTINGS
@given(games(players=(2, 3), groups=GROUPS + [AbelianGroup((2, 3))], top=3),
       st.sampled_from(CHUNKS))
def test_histogram_engine_matches_the_chunked_engine(game, entries):
    """Value, fixed tables and free answers on the classical split and on
    every lone player, with blocks from one table up to the default."""
    splits = dict.fromkeys([tuple(range(1, game.players))]
                           + [(i,) for i in range(game.players)])
    with mock.patch.object(values, "_CHUNK_ENTRIES", entries):
        for fixed in splits:
            assert_engine_matches_oracle(game, fixed)


def test_svetlichny_beyond_2_to_the_53_matches_the_oracle():
    game = z2z2_game_over_2_to_the_80()
    assert game.histogram.dtype == object
    assert game.histogram.sum() == 2**80
    for lone in range(3):
        assert_engine_matches_oracle(game, (lone,))
        value = svetlichny_value(game, lone=lone)
        assert value == oracle_best_tables(game, (lone,), CAP)[0]
        assert value == brute_svetlichny_value(game, lone)
        assert value.denominator > 2**53


def test_cap_counts_unreduced_tables_before_allocating():
    game = chsh_game(2, 9)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as err:
            classical_value(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.required == 9**9
    assert err.value.cap == CAP
    assert peak < 2**16


def test_blocks_bound_the_memory_of_a_near_cap_search():
    """Unchunked, the 5^8 tables of chsh(3, 5) would need 49 million
    entries; about three blocks are alive at once."""
    game = chsh_game(3, 5)
    tracemalloc.start()
    try:
        result = classical_value(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.value == Fraction(2, 5)
    assert peak < 4 * values._CHUNK_ENTRIES * 8


def test_near_cap_value_and_witness_match_the_chunked_engine():
    # Frozen from oracle_best_tables(chsh_game(4, 4), (1, 2, 3), CAP),
    # which takes several seconds.
    result = classical_value(chsh_game(4, 4))
    gf4 = AbelianGroup((2, 2)).elements()
    assert result.value == Fraction(25, 64)
    assert result.strategy.outputs == tuple(
        tuple(gf4[a] for a in table)
        for table in ([2, 1, 1, 3], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1]))


@pytest.mark.parametrize("entries", [1, 50, 200])
def test_first_optimum_survives_chunk_boundaries(monkeypatch, entries):
    monkeypatch.setattr(values, "_CHUNK_ENTRIES", entries)
    z3 = AbelianGroup((3,))
    tied = [make_game(z3, (2, 3, 2), lambda x: (1,)),
            make_game(AbelianGroup((2, 2)), (3, 2), lambda x: (x[0] % 2, 1)),
            chsh_game(3, 2), chsh_game(2, 3), mermin_ghz3_game()]
    for game in tied:
        assert_classical_matches_loop(game)
        if game.players == 3:
            assert svetlichny_value(game) == max(
                brute_svetlichny_value(game, lone) for lone in range(3))


@st.composite
def uniform_games(draw):
    """Uniform games whose predicate is separable, separable but for one
    changed input, or arbitrary."""
    group = draw(st.sampled_from(GROUPS))
    n = draw(st.sampled_from((2, 3, 4)))
    top = 3 if n < 4 else 2
    questions = tuple(draw(st.lists(st.integers(1, top),
                                    min_size=n, max_size=n)))
    grid = list(itertools.product(*(range(q) for q in questions)))
    element = st.integers(0, group.size - 1).map(group.element)
    kind = draw(st.sampled_from(("separable", "changed", "arbitrary")))
    if kind == "arbitrary":
        predicate = draw(st.lists(element, min_size=len(grid),
                                  max_size=len(grid)))
    else:
        thetas = [draw(st.lists(element, min_size=q, max_size=q))
                  for q in questions]
        predicate = [functools.reduce(group.add, [t[q] for t, q in zip(thetas, x)])
                     for x in grid]
        if kind == "changed":
            i = draw(st.integers(0, len(grid) - 1))
            predicate[i] = group.add(predicate[i], draw(element))
    return make_game(group, questions, predicate)


@SETTINGS
@given(uniform_games())
def test_separability_matches_the_difference_loop(game):
    assert separability_check(game) == oracle_separability_check(game)


def test_separability_rejects_non_uniform_games_like_the_loop():
    game = mermin_ghz3_game()
    for check in (separability_check, oracle_separability_check):
        with pytest.raises(ValidationError, match="uniform total-function"):
            check(game)
