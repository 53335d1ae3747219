"""Game matrices and singular-value upper bounds on quantum success."""

import cmath
import itertools
import math

from unittest import mock

import numpy as np
import pytest

from lingame import qbounds
from lingame.algebra import AbelianGroup
from lingame.errors import ValidationError
from lingame.games import chsh_game, make_game, mermin_ghz3_game
from lingame.linalg import max_singular_value
from lingame.qbounds import chsh_bound_analytic, game_matrix, quantum_bound
from lingame.tolerances import TIE_TOL

from oracles import quantum_bound_partition

Z3 = AbelianGroup((3,))


def test_game_matrix_rejects_bad_partitions():
    game = chsh_game(3, 3)
    k = (1,)
    with pytest.raises(ValidationError):
        game_matrix(game, (), k)
    with pytest.raises(ValidationError):
        game_matrix(game, (0, 1, 2), k)
    with pytest.raises(ValidationError):
        game_matrix(game, (0, 3), k)


def test_game_matrix_rejects_trivial_character():
    game = chsh_game(2, 2)
    with pytest.raises(ValidationError):
        game_matrix(game, (0,), (0,))


def test_chsh33_matrix_explicit():
    # rows x, columns (y,z) lexicographic, entries zeta^(xy+xz+yz)/27
    game = chsh_game(3, 3)
    zeta = cmath.exp(2j * cmath.pi / 3)
    m = game_matrix(game, (0,), (1,))
    assert m.shape == (3, 9)
    for x in range(3):
        for col, (y, z) in enumerate(itertools.product(range(3), repeat=2)):
            expected = zeta**((x * y + x * z + y * z) % 3) / 27
            assert abs(m[x, col] - expected) < 1e-15


def test_chsh_gram_identity():
    # Phi_k Phi_k^dagger = I / d^(n+1) for every nontrivial k
    for n, d in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 2)]:
        game = chsh_game(n, d)
        for k in game.group.elements():
            if k == game.group.identity:
                continue
            m = game_matrix(game, (0,), k)
            gram = m @ m.conj().T
            assert np.abs(gram - np.eye(d) / d**(n + 1)).max() < 1e-15


def test_zero_probability_rows_are_zero():
    game = mermin_ghz3_game()
    m = game_matrix(game, (0,), (1,))
    for x in range(3):
        for col, (y, z) in enumerate(itertools.product(range(3), repeat=2)):
            if (x + y + z) % 3 != 0:
                assert m[x, col] == 0


def test_norm_cap_for_uniform_tripartite_games():
    # sigma_max <= 1/sqrt(m^n) for uniform m-question games (row-Gram bound)
    rng = np.random.default_rng(131)
    for _ in range(10):
        values = [int(v) for v in rng.integers(0, 3, size=27)]
        game = make_game(Z3, (3, 3, 3), values)
        bound = quantum_bound(game)
        for part in bound.partitions:
            for norm in part.norms.values():
                assert norm <= 1 / math.sqrt(27) + 1e-12


def test_quantum_bound_partitions_enumerated():
    game = chsh_game(3, 3)
    bound = quantum_bound(game)
    partitions = {part.players for part in bound.partitions}
    assert partitions == {(0,), (0, 1), (0, 2)}
    game4 = chsh_game(4, 2)
    assert len(quantum_bound(game4).partitions) == 7


def test_quantum_bound_is_min_over_partitions():
    game = chsh_game(3, 3)
    bound = quantum_bound(game)
    assert bound.raw_bound == pytest.approx(
        min(part.raw for part in bound.partitions))
    assert bound.bound == min(bound.raw_bound, 1.0)


def test_quantum_bound_clamped_to_one():
    game = make_game(Z3, (2, 2), lambda x: (0,))
    bound = quantum_bound(game)
    assert bound.bound == 1.0
    assert bound.raw_bound >= 1.0


def test_partition_bound_matches_report():
    """Each split's raw, built alone with its layout built afresh, is the
    report's; a side without player 0 names the same split."""
    game = chsh_game(3, 3)
    report = quantum_bound(game)
    for part in report.partitions:
        assert quantum_bound_partition(game, part.players) == part.raw
    solo = quantum_bound_partition(game, (1, 2))
    assert solo == pytest.approx(report.partition((0,)).raw)


def test_chsh_bound_analytic_values():
    assert chsh_bound_analytic(2, 2) == pytest.approx((2 + math.sqrt(2)) / 4)
    assert chsh_bound_analytic(3, 3) == pytest.approx(
        1 / 3 + 2 / (3 * math.sqrt(3)))
    with pytest.raises(ValidationError):
        chsh_bound_analytic(2, 6)


def test_chsh_quantum_bound_matches_analytic():
    for n, d in [(2, 2), (2, 3), (2, 5), (3, 3), (4, 2)]:
        game = chsh_game(n, d)
        bound = quantum_bound(game)
        assert bound.bound == pytest.approx(chsh_bound_analytic(n, d),
                                            abs=1e-9)


def test_chsh_all_partitions_agree():
    for n, d in [(3, 3), (4, 2)]:
        bound = quantum_bound(chsh_game(n, d))
        raws = [part.raw for part in bound.partitions]
        assert max(raws) - min(raws) < 1e-9


def test_tied_partitions_keep_the_first():
    # All three partitions of chsh(3,2) tie in exact arithmetic; rounding
    # leaves a later one smallest, but the first within TIE_TOL is kept
    # and the minimum itself is reported.
    report = quantum_bound(chsh_game(3, 2))
    raws = [part.raw for part in report.partitions]
    assert max(raws) - min(raws) <= TIE_TOL
    assert report.best_partition == (0,)
    assert report.raw_bound == min(raws)


def test_bound_dominates_classical_on_random_games():
    from lingame.values import classical_value
    rng = np.random.default_rng(137)
    for _ in range(15):
        values = [int(v) for v in rng.integers(0, 3, size=8)]
        game = make_game(AbelianGroup((3,)), (2, 2, 2), values)
        assert float(classical_value(game).value) <= quantum_bound(game).bound + 1e-9


@pytest.mark.parametrize("game, dtype", [
    (chsh_game(2, 2), np.float64),
    (make_game(Z3, (3, 4), [(v % 3,) for v in range(12)]), np.complex128)],
    ids=["chsh22-real", "z3-pair"])
def test_two_player_games_take_one_svd_of_one_matrix(game, dtype):
    """Z2 has one real character and Z3 one conjugate pair: one SVD call,
    on a stack of one matrix, real for Z2."""
    calls = []

    def recording(stack):
        calls.append((stack.shape[0], stack.dtype))
        return max_singular_value(stack)

    with mock.patch.object(qbounds, "max_singular_value", recording):
        report = quantum_bound(game)
    assert calls == [(1, dtype)]
    norms = list(report.partitions[0].norms.values())
    assert len(norms) == game.group.size - 1 and len(set(norms)) == 1
