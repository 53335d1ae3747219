"""Biseparable bounds, witness verdicts, and visibility thresholds.

Golden values frozen in this module: the ternary GHZ game's biseparable
bound 0.8960197524973236 and the three-player ternary pairwise-product
game's 0.7182335127930838, both recorded after cross-checking partition
symmetry.
"""

import cmath
import itertools
import json
import math

import numpy as np
import pytest

from lingame import diew
from lingame.algebra import AbelianGroup
from lingame.diew import (Verdict, biseparable_bound,
                          biseparable_bound_partition, biseparable_matrix,
                          visibility_threshold, witness_verdict)
from lingame.errors import (NoThresholdError, ResourceLimitError,
                            ValidationError)
from lingame.games import (Behavior, chsh_game, make_game, mermin_ghz3_game,
                           success_probability)
from lingame.linalg import max_singular_value
from lingame.qbounds import quantum_bound
from lingame.strategies import (ghz3_reference_strategy, noisy_success,
                                parse_strategy_file)
from lingame.tolerances import TIE_TOL
from lingame.values import classical_value, svetlichny_value

import ghz3_c4

Z3 = AbelianGroup((3,))

GHZ3_BISEPARABLE = 0.8960197524973236
CHSH33_BISEPARABLE = 0.7182335127930838


def _random_game(rng, group, questions):
    size = 1
    for q in questions:
        size *= q
    values = [int(v) % group.size for v in rng.integers(0, group.size, size)]
    return make_game(group, questions, values)


# ---------------------------------------------------------------------------
# Biseparable matrices


def test_matrix_requires_tripartite_game():
    with pytest.raises(ValidationError):
        biseparable_matrix(chsh_game(2, 2), 0, (1,), ((0,), (0,)))
    with pytest.raises(ValidationError):
        biseparable_bound(chsh_game(2, 2))


def test_matrix_rejects_trivial_character_and_bad_assignment():
    game = mermin_ghz3_game()
    with pytest.raises(ValidationError):
        biseparable_matrix(game, 2, (0,), ((0,), (0,), (0,)))
    with pytest.raises(ValidationError):
        biseparable_matrix(game, 2, (1,), ((0,), (0,)))
    with pytest.raises(ValidationError):
        biseparable_matrix(game, 3, (1,), ((0,), (0,), (0,)))


@pytest.mark.parametrize("lone", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_lone_player_must_be_an_integer(lone):
    game = mermin_ghz3_game()
    calls = [lambda: svetlichny_value(game, lone=lone),
             lambda: biseparable_bound_partition(game, lone),
             lambda: biseparable_matrix(game, lone, (1,), ((0,), (0,), (0,)))]
    for call in calls:
        with pytest.raises(ValidationError, match="lone player"):
            call()


def test_numpy_integer_lone_player_reads_as_an_int():
    game, lone = mermin_ghz3_game(), np.int64(1)
    assert svetlichny_value(game, lone=lone) == svetlichny_value(game, lone=1)
    part = biseparable_bound_partition(game, lone)
    assert type(part.lone) is int and part == biseparable_bound_partition(game, 1)
    np.testing.assert_array_equal(
        biseparable_matrix(game, lone, (1,), ((0,), (1,), (2,))),
        biseparable_matrix(game, 1, (1,), ((0,), (1,), (2,))))


def test_ghz3_matrix_zero_assignment():
    # lone player 2 answering 0 leaves entries sum_z p * zeta^(xyz)
    game = mermin_ghz3_game()
    zeta = cmath.exp(2j * cmath.pi / 3)
    m = biseparable_matrix(game, 2, (1,), ((0,), (0,), (0,)))
    for x, y in itertools.product(range(3), repeat=2):
        expected = sum(
            (1 / 9) * zeta**((x * y * z) % 3)
            for z in range(3) if (x + y + z) % 3 == 0)
        assert abs(m[x, y] - expected) < 1e-12


def test_chsh33_matrix_zero_assignment():
    game = chsh_game(3, 3)
    zeta = cmath.exp(2j * cmath.pi / 3)
    m = biseparable_matrix(game, 2, (1,), ((0,), (0,), (0,)))
    for x, y in itertools.product(range(3), repeat=2):
        expected = sum(zeta**((x * y + x * z + y * z) % 3) for z in range(3)) / 27
        assert abs(m[x, y] - expected) < 1e-12


def test_zero_probability_inputs_do_not_contribute():
    game = mermin_ghz3_game()
    m = biseparable_matrix(game, 2, (1,), ((0,), (0,), (0,)))
    # for each (x, y) exactly one z satisfies the promise
    zeta = cmath.exp(2j * cmath.pi / 3)
    for x, y in itertools.product(range(3), repeat=2):
        z = (-x - y) % 3
        assert abs(m[x, y] - zeta**((x * y * z) % 3) / 9) < 1e-12


# ---------------------------------------------------------------------------
# Bounds


def test_ghz3_biseparable_bound_golden():
    report = biseparable_bound(mermin_ghz3_game())
    assert 0.8955 <= report.bound <= 0.8965
    assert report.bound == pytest.approx(GHZ3_BISEPARABLE, abs=1e-9)


def test_ghz3_partition_bounds_agree():
    report = biseparable_bound(mermin_ghz3_game())
    raws = [part.raw for part in report.partitions]
    assert max(raws) - min(raws) < 1e-9
    assert {part.lone for part in report.partitions} == {0, 1, 2}


def test_chsh33_biseparable_bound_golden():
    report = biseparable_bound(chsh_game(3, 3))
    raws = [part.raw for part in report.partitions]
    assert max(raws) - min(raws) < 1e-9
    assert report.bound == pytest.approx(CHSH33_BISEPARABLE, abs=1e-9)


def test_constant_predicate_bound_clamped_to_one():
    game = make_game(Z3, (2, 2, 2), lambda x: (0,))
    report = biseparable_bound(game)
    assert report.bound == 1.0
    assert report.raw_bound >= 1.0


def test_separable_predicate_bound_is_one():
    game = make_game(Z3, (3, 3, 3), lambda x: (sum(x) % 3,))
    assert biseparable_bound(game).bound == 1.0


def test_assignment_cap():
    game = mermin_ghz3_game()
    with pytest.raises(ResourceLimitError, match=r"^enumerating the tables of "
                       r"players \[0\] needs 27 assignments, cap is 10$") as err:
        biseparable_bound_partition(game, 0, cap=10)
    assert (err.value.required, err.value.cap) == (27, 10)


def test_biseparable_bound_checks_every_cap_before_the_first_search(
        monkeypatch):
    """Only the last lone player exceeds the cap: the refusal comes before
    any lone player's phase block is built."""
    def no_blocks(game, lone):
        raise AssertionError(f"lone player {lone} searched before the cap")

    monkeypatch.setattr(diew, "_phase_blocks", no_blocks)
    game = _random_game(np.random.default_rng(5), Z3, (2, 1, 3))
    with pytest.raises(ResourceLimitError, match=r"players \[2\] needs 27 "
                       r"assignments, cap is 9$"):
        biseparable_bound(game, cap=9)


def test_tie_break_keeps_first_assignment():
    # fully symmetric constant game: every assignment ties; expect all zeros
    game = make_game(Z3, (2, 2, 2), lambda x: (0,))
    part = biseparable_bound_partition(game, 0)
    assert part.assignment == ((0,), (0,))


def test_tied_assignments_keep_the_first():
    # Shift-equivalent assignments tie in exact arithmetic; the first in
    # lexicographic order within TIE_TOL of the maximum is reported, and
    # the maximum itself is the partition's raw bound.
    table = [1, 0, 0, 2, 1, 1, 1, 2, 1, 0, 2, 0, 0, 2, 1, 0, 0, 1, 2, 1, 2,
             0, 0, 2, 2, 0, 0]
    game = make_game(Z3, (3, 3, 3), [(v,) for v in table])
    part = biseparable_bound_partition(game, 0)
    raws = []
    for c in itertools.product(Z3.elements(), repeat=3):
        total = sum(max_singular_value(biseparable_matrix(game, 0, k, c))
                    for k in ((1,), (2,)))
        raws.append((1 + 3 * total) / 3)
    assert part.assignment == ((0,), (2,), (1,))
    assert abs(part.raw - max(raws)) <= 1e-15
    assert max(raws) - raws[list(itertools.product(
        Z3.elements(), repeat=3)).index(part.assignment)] <= TIE_TOL


# ---------------------------------------------------------------------------
# Witness verdicts


def test_witness_verdict_on_ideal_ghz_strategy():
    game = mermin_ghz3_game()
    result = witness_verdict(game, 1.0)
    assert result.verdict is Verdict.GENUINE_TRIPARTITE_ENTANGLEMENT
    assert result.gap == pytest.approx(1.0 - GHZ3_BISEPARABLE, abs=1e-9)


def test_witness_inconclusive_below_bound():
    game = mermin_ghz3_game()
    report = biseparable_bound(game)
    assert witness_verdict(game, 0.85,
                           report=report).verdict is Verdict.INCONCLUSIVE
    assert witness_verdict(game, report.bound,
                           report=report).verdict is Verdict.INCONCLUSIVE


def test_witness_monotone_single_threshold():
    game = mermin_ghz3_game()
    report = biseparable_bound(game)
    verdicts = [witness_verdict(game, v, report=report).verdict
                is Verdict.GENUINE_TRIPARTITE_ENTANGLEMENT
                for v in np.linspace(0, 1, 21)]
    # False...False True...True with one switch
    assert verdicts == sorted(verdicts)
    assert verdicts[-1] and not verdicts[0]


def test_witness_rejects_non_probability():
    with pytest.raises(ValidationError):
        witness_verdict(mermin_ghz3_game(), 1.5)


@pytest.mark.parametrize("margin", [math.nan, math.inf, -1e-9])
def test_witness_rejects_a_margin_that_is_not_finite_and_non_negative(margin):
    # A NaN margin used to turn every verdict inconclusive.
    with pytest.raises(ValidationError, match="margin"):
        witness_verdict(mermin_ghz3_game(), 1.0, margin=margin)


# ---------------------------------------------------------------------------
# Visibility thresholds


def test_ghz3_visibility_threshold_band():
    game = mermin_ghz3_game()
    threshold = visibility_threshold(game, ghz3_reference_strategy())
    assert 0.84 <= threshold <= 0.85
    assert threshold == pytest.approx((3 * GHZ3_BISEPARABLE - 1) / 2,
                                      abs=1e-9)


def test_visibility_threshold_clamps():
    game = mermin_ghz3_game()
    assert visibility_threshold(game, 1.0, bound=1.0) == pytest.approx(1.0)
    assert visibility_threshold(game, 1.0, bound=1 / 3) == pytest.approx(0.0)


@pytest.mark.parametrize("success", [np.float32(0.95), np.int64(1),
                                     np.float64(0.95), 0.95, 1],
                         ids=["float32", "int64", "float64", "float", "int"])
def test_visibility_threshold_takes_any_real_success(success):
    game = mermin_ghz3_game()
    assert visibility_threshold(game, success, bound=0.9) == \
        pytest.approx((0.9 - 1 / 3) / (float(success) - 1 / 3))


@pytest.mark.parametrize("success", [True, np.True_, "0.95", None, 0.95j],
                         ids=["bool", "numpy_bool", "str", "none", "complex"])
def test_visibility_threshold_refuses_non_real_success(success):
    with pytest.raises(ValidationError, match="QuantumStrategy or a real"):
        visibility_threshold(mermin_ghz3_game(), success, bound=0.9)


def test_visibility_threshold_no_gain_errors():
    game = mermin_ghz3_game()
    with pytest.raises(NoThresholdError):
        visibility_threshold(game, 1 / 3, bound=0.5)
    # below the bound 0.896 no visibility beats it
    with pytest.raises(NoThresholdError):
        visibility_threshold(game, 0.85)


def test_visibility_threshold_is_the_noisy_crossing_on_c4_embedding():
    # rank-two projectors: the noise baseline is 49/144, not 1/|G|
    game = mermin_ghz3_game()
    strategy = parse_strategy_file(json.dumps(ghz3_c4.document()))
    assert noisy_success(game, strategy, 0.0) == pytest.approx(
        ghz3_c4.NOISE_SUCCESS, abs=1e-12)
    threshold = visibility_threshold(game, strategy)
    assert threshold == pytest.approx(ghz3_c4.THRESHOLD, abs=1e-10)
    assert noisy_success(game, strategy, threshold) == pytest.approx(
        biseparable_bound(game).bound, abs=1e-12)


# ---------------------------------------------------------------------------
# Structural invariants


def test_sandwich_on_random_tripartite_games():
    rng = np.random.default_rng(179)
    for _ in range(10):
        game = _random_game(rng, Z3, (2, 2, 2))
        w_c = float(classical_value(game).value)
        report = biseparable_bound(game)
        bound = quantum_bound(game).bound
        assert w_c <= report.bound + 1e-9
        assert report.bound <= min(1.0, bound) + 1e-9


def test_hybrid_strategies_obey_partition_bound():
    # (bipartite quantum) x (deterministic lone player) behaviors stay
    # below the lone player's partition bound
    rng = np.random.default_rng(181)
    game = mermin_ghz3_game()
    part = biseparable_bound_partition(game, 2)

    def random_basis():
        gauss = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(gauss)
        return q

    for _ in range(3):
        state = rng.normal(size=9) + 1j * rng.normal(size=9)
        state /= np.linalg.norm(state)
        psi = state.reshape(3, 3)
        bases = [[random_basis() for _ in range(3)] for _ in range(2)]
        pair = np.zeros((9, 9))
        for x, y in itertools.product(range(3), repeat=2):
            amp = bases[0][x].conj().T @ psi @ bases[1][y].conj()
            pair[x * 3 + y] = np.abs(amp.reshape(-1))**2
        for c in itertools.product(range(3), repeat=3):
            table = np.zeros((27, 27))
            for row, (x, y, z) in enumerate(itertools.product(range(3),
                                                              repeat=3)):
                for col, (a, b, cc) in enumerate(
                        itertools.product(range(3), repeat=3)):
                    if cc == c[z]:
                        table[row, col] = pair[x * 3 + y, a * 3 + b]
            behavior = Behavior(Z3, (3, 3, 3), table)
            assert success_probability(game, behavior) <= part.raw + 1e-9
