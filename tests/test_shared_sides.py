"""Interchangeable players share one norm stack, search or fold.

``LinearGame.player_classes`` groups the players whose swap leaves the
game unchanged, and ``qbounds.shared_sides`` maps every side to the first
side with its key.  The reports of quantum_bound, biseparable_bound and
svetlichny_value are compared with ==, all fields included, against the
paths that took one stack per split and one search or fold per lone
player (tests/oracles.py); test_bound_oracles.py compares the chsh grid
and GHZ3 with the first."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingame import diew, qbounds, values
from lingame.algebra import AbelianGroup
from lingame.diew import biseparable_bound
from lingame.errors import ResourceLimitError, ValidationError
from lingame.games import LinearGame, chsh_game, make_game, mermin_ghz3_game
from lingame.qbounds import chsh_bound_analytic, quantum_bound, shared_sides
from lingame.tolerances import TIE_TOL
from lingame.values import svetlichny_value

from oracles import oracle_bound_report, oracle_three_folds, oracle_three_searches

Z3 = AbelianGroup((3,))


def _game(group, questions, f, weights):
    """A game from arrays over the grid: f as element indices mod |G|, and
    integer weights."""
    weights = np.asarray(weights).ravel()
    total = int(weights.sum())
    return make_game(group, questions,
                     [group.element(int(v) % group.size) for v in np.ravel(f)],
                     distribution=[Fraction(int(w), total) for w in weights])


def weighted_chsh82():
    """chsh(8,2) with weights 1 + x_7: players 0..6 stay interchangeable."""
    game = chsh_game(8, 2)
    weights = 1 + game.grid[:, 7]
    return LinearGame(game.group, game.question_counts,
                      game.predicate_indices(), weights, int(weights.sum()))


def asymmetric_z3(players, seed=11):
    """A Z3 game with three questions a player, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    size = 3 ** players
    return _game(Z3, (3,) * players, rng.integers(0, 3, size),
                 rng.integers(1, 9, size))


GRID3 = np.indices((3, 3, 3))
# Equal question counts and no swap of players that leaves the game
# unchanged: the weights are symmetric and f is not, or f is and the
# weights are not, or neither is.
NO_SYMMETRY = {
    "random": asymmetric_z3(3),
    "symmetric-weights": _game(Z3, (3, 3, 3), GRID3[0] + 2 * GRID3[1],
                               np.ones(27, dtype=int)),
    "symmetric-predicate": _game(Z3, (3, 3, 3), GRID3.sum(axis=0),
                                 1 + GRID3[0] + 3 * GRID3[2]),
}
PAIR_01 = _game(Z3, (3, 3, 3), GRID3[0] * GRID3[1] + GRID3[2],
                1 + GRID3[2])  # classes (0, 0, 2)
PAIR_12 = _game(Z3, (3, 3, 3), GRID3[1] * GRID3[2] + GRID3[0],
                1 + GRID3[0])  # classes (0, 1, 1)
PAIR_02 = _game(Z3, (3, 3, 3), GRID3[0] * GRID3[2] + GRID3[1],
                1 + GRID3[1])  # classes (0, 1, 0)
THREE_PLAYERS = {"ghz3": mermin_ghz3_game(),
                 **{f"chsh3{d}": chsh_game(3, d) for d in (2, 3, 4, 5)},
                 **NO_SYMMETRY, "pair01": PAIR_01, "pair12": PAIR_12,
                 "pair02": PAIR_02}


@st.composite
def symmetrized_games(draw, players=st.integers(2, 4)):
    """A game drawn at random, then made symmetric under every permutation
    of a drawn set of at least two players: each weight summed over the
    orbit of its question tuple, and f read at the tuple with those
    players' questions sorted.  Returns the game and the set."""
    group = AbelianGroup(draw(st.sampled_from(((2,), (3,), (4,), (2, 2)))))
    n = draw(players)
    orbit = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=n, unique=True)))
    q = draw(st.integers(1, 3))
    questions = tuple(q if i in orbit else draw(st.integers(1, 3))
                      for i in range(n))
    size = math.prod(questions)
    f = np.array(draw(st.lists(st.integers(0, group.size - 1),
                               min_size=size, max_size=size))).reshape(questions)
    w = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)
                      .filter(any))).reshape(questions)
    grid = np.indices(questions)
    sorted_grid = grid.copy()
    sorted_grid[orbit] = np.sort(grid[orbit], axis=0)
    total = np.zeros_like(w)
    for perm in itertools.permutations(orbit):
        axes = list(range(n))
        for a, b in zip(orbit, perm):
            axes[a] = b
        total = total + w.transpose(axes)
    return _game(group, questions, f[tuple(sorted_grid)], total), orbit


def test_player_classes_are_a_lazy_tuple():
    game = chsh_game(4, 3)
    assert "player_classes" not in vars(game)
    assert game.player_classes == (0, 0, 0, 0)
    assert type(game.player_classes) is tuple
    assert "player_classes" in vars(game)


@pytest.mark.parametrize("game, classes", [
    (mermin_ghz3_game(), (0, 0, 0)), (chsh_game(5, 2), (0,) * 5),
    (weighted_chsh82(), (0,) * 7 + (7,)), (PAIR_01, (0, 0, 2)),
    (PAIR_12, (0, 1, 1)), (PAIR_02, (0, 1, 0)), (make_game(Z3, (2, 3, 2), lambda x: (0,)), (0, 1, 0)),
    *[(game, (0, 1, 2)) for game in NO_SYMMETRY.values()]],
    ids=["ghz3", "chsh52", "chsh82-weighted", "pair01", "pair12", "pair02",
         "constant-232", *NO_SYMMETRY])
def test_player_classes(game, classes):
    assert game.player_classes == classes


def test_the_key_holds_the_side_size_and_the_class_of_each_axis():
    """chsh(4,2): one stack per side size, sides {0}, {0,1}, {0,2},
    {0,1,2}, {0,3}, {0,1,3}, {0,2,3} in bitmask order.  Classes (0, 0, 2):
    lone players 0 and 1 share a key; (0, 1, 0): no two lone sides do,
    since swapping players 0 and 2 transposes the pair's matrix."""
    assert shared_sides((0, 0, 0, 0)) == (0, 1, 1, 3, 1, 3, 3)
    assert shared_sides((0, 1, 2, 3)) == tuple(range(7))
    assert shared_sides((0, 0, 2), lone=True) == (0, 0, 2)
    assert shared_sides((0, 1, 0), lone=True) == (0, 1, 2)
    assert shared_sides((0, 0, 0), lone=True) == (0, 0, 0)


@pytest.mark.parametrize("game", [weighted_chsh82(), asymmetric_z3(4), PAIR_01,
                                  PAIR_02, *NO_SYMMETRY.values()],
                         ids=["chsh82-weighted", "random-4", "pair01", "pair02",
                              *NO_SYMMETRY])
def test_partly_or_not_symmetric_quantum_bounds_match(game):
    assert quantum_bound(game) == oracle_bound_report(game)


@pytest.mark.parametrize("game", THREE_PLAYERS.values(), ids=THREE_PLAYERS)
def test_lone_reports_match_three_searches_and_three_folds(game):
    assert biseparable_bound(game) == oracle_three_searches(game)
    assert svetlichny_value(game) == oracle_three_folds(game)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(symmetrized_games())
def test_symmetrized_quantum_bounds_match(case):
    game, orbit = case
    assert len({game.player_classes[i] for i in orbit}) == 1
    assert quantum_bound(game) == oracle_bound_report(game)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(symmetrized_games(players=st.just(3)))
def test_symmetrized_lone_reports_match(case):
    game, orbit = case
    assert len({game.player_classes[i] for i in orbit}) == 1
    assert biseparable_bound(game) == oracle_three_searches(game)
    assert svetlichny_value(game) == oracle_three_folds(game)


def _count_calls(module, name, call):
    """How often ``call()`` calls ``module.name``."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    with mock.patch.object(module, name, counted):
        call()
    return len(calls)


@pytest.mark.parametrize("game, stacks", [
    (chsh_game(12, 2), 11), (chsh_game(6, 3), 5), (weighted_chsh82(), 13),
    (PAIR_12, 2), (PAIR_01, 3), (asymmetric_z3(4), 7)],
    ids=["chsh12-2", "chsh63", "chsh82-weighted", "pair12", "pair01",
         "random-4"])
def test_one_norm_stack_per_key(game, stacks):
    """chsh(12,2) has 2,047 splits and 11 side sizes.  chsh(8,2) weighted
    by 1 + x_7 has 7 side sizes without player 7 and 6 with it.  Classes
    (0, 1, 1) share the sides {0,1} and {0,2}; (0, 0, 2) share none."""
    assert _count_calls(qbounds, "character_norms",
                        lambda: quantum_bound(game)) == stacks


@pytest.mark.parametrize("game, searches", [
    (mermin_ghz3_game(), 1), (chsh_game(3, 4), 1), (PAIR_01, 2), (PAIR_12, 2),
    (PAIR_02, 3), (NO_SYMMETRY["random"], 3)],
    ids=["ghz3", "chsh34", "pair01", "pair12", "pair02", "random"])
def test_one_search_and_one_fold_per_key(game, searches):
    assert _count_calls(diew, "biseparable_bound_partition",
                        lambda: biseparable_bound(game)) == searches
    assert _count_calls(values, "fold_tables",
                        lambda: svetlichny_value(game)) == searches


def test_symmetric_games_check_every_cap_before_the_first_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched before the cap")

    monkeypatch.setattr(diew, "_phase_blocks", no_search)
    monkeypatch.setattr(values, "fold_tables", no_search)
    game = chsh_game(3, 3)
    with pytest.raises(ResourceLimitError, match=r"players \[0\] needs 27"):
        biseparable_bound(game, cap=26)
    with pytest.raises(ResourceLimitError, match=r"players \[0\] needs 27"):
        svetlichny_value(game, cap=26)


@pytest.mark.parametrize("n, d", [(n, 2) for n in range(2, 17)]
                         + [(n, 3) for n in range(2, 9)])
def test_chsh_bound_meets_the_closed_form(n, d):
    """The payoff: one stack per side size reaches 16 players."""
    bound = quantum_bound(chsh_game(n, d)).bound
    assert abs(bound - chsh_bound_analytic(n, d)) <= TIE_TOL


def test_bound_report_reads_its_side_by_the_integer_rule():
    report = quantum_bound(chsh_game(4, 2))
    for side in [(0, 2), [2, 0], (np.int64(0), np.int64(2))]:
        assert report.partition(side).players == (0, 2)
    for side in [[0.0], [True], "0", 0]:
        with pytest.raises(ValidationError, match="partition must be integers"):
            report.partition(side)
    with pytest.raises(KeyError):
        report.partition((1, 2))  # a valid side; the report holds its complement


def test_biseparable_report_reads_its_lone_player_by_the_integer_rule():
    report = biseparable_bound(mermin_ghz3_game())
    for lone in (0, 1, 2):
        assert report.partition(lone).lone == lone
        assert report.partition(np.int8(lone)).lone == lone
    for lone in (0.0, True, "1", None):
        with pytest.raises(ValidationError, match="lone player must be an integer"):
            report.partition(lone)
    with pytest.raises(KeyError):
        report.partition(3)


@pytest.mark.parametrize("report", [
    lambda: quantum_bound(chsh_game(5, 3)).partitions,
    lambda: biseparable_bound(chsh_game(3, 3)).partitions],
    ids=["quantum", "biseparable"])
def test_shared_partitions_own_their_norms(report):
    """Partitions from one stack or search hold equal, distinct dicts."""
    partitions = report()
    assert len({id(p.norms) for p in partitions}) == len(partitions)
    first = partitions[0]
    first.norms.clear()
    assert all(p.norms for p in partitions[1:])
