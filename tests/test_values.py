"""Classical, no-signaling, and Svetlichny values, plus separability.

Golden values frozen from independent oracles (tests/oracles.py):
naive 27^3-strategy enumeration gives 7/9 for the ternary GHZ game, and
brute-force joint-table enumeration gives 2/3 for the three-player
ternary pairwise-product game.
"""

import itertools
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lingame import values
from lingame.algebra import AbelianGroup
from lingame.errors import ResourceLimitError, ValidationError
from lingame.games import (chsh_game, load_game, make_game,
                           mermin_ghz3_game, success_probability)
from lingame.values import (classical_value, no_signaling_value,
                            separability_check, svetlichny_value)

from oracles import naive_classical_value, brute_svetlichny_value

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))


def _random_game(rng, group, questions):
    size = 1
    for q in questions:
        size *= q
    values = [int(v) % group.size for v in rng.integers(0, group.size, size)]
    return make_game(group, questions, values)


# ---------------------------------------------------------------------------
# Classical value


def test_chsh22_classical_is_three_quarters():
    result = classical_value(chsh_game(2, 2))
    assert result.value == Fraction(3, 4)


def test_constant_predicate_classical_value_one():
    game = make_game(Z3, (2, 2), lambda x: (0,))
    result = classical_value(game)
    assert result.value == Fraction(1)
    behavior = result.strategy.behavior(game.group, game.question_counts)
    assert success_probability(game, behavior) == pytest.approx(1.0)


def test_ghz3_classical_value_golden():
    # golden value 7/9, frozen from the naive full-enumeration oracle
    result = classical_value(mermin_ghz3_game())
    assert result.value == Fraction(7, 9)


def test_ghz3_matches_naive_oracle():
    assert naive_classical_value(mermin_ghz3_game()) == Fraction(7, 9)


def test_classical_witness_replay():
    rng = np.random.default_rng(101)
    for _ in range(20):
        game = _random_game(rng, Z3, (2, 3))
        result = classical_value(game)
        behavior = result.strategy.behavior(game.group, game.question_counts)
        replay = success_probability(game, behavior)
        assert abs(replay - float(result.value)) <= 1e-12


def test_classical_equals_naive_enumeration():
    rng = np.random.default_rng(103)
    for _ in range(30):
        group = Z2 if rng.integers(2) else Z3
        questions = tuple(int(q) for q in rng.integers(1, 4, size=2))
        game = _random_game(rng, group, questions)
        assert classical_value(game).value == naive_classical_value(game)


def test_classical_cap_raises_resource_error():
    game = mermin_ghz3_game()
    with pytest.raises(ResourceLimitError) as err:
        classical_value(game, cap=10)
    assert err.value.required == 3**6
    assert err.value.cap == 10


# ---------------------------------------------------------------------------
# No-signaling value


def test_no_signaling_value_is_one_with_winning_behavior():
    for game in (chsh_game(2, 2), mermin_ghz3_game(), chsh_game(3, 3)):
        value, behavior = no_signaling_value(game)
        assert value == Fraction(1)
        assert success_probability(game, behavior) == pytest.approx(1.0)


def test_no_signaling_behavior_uniform_on_winning_tuples():
    game = chsh_game(2, 2)
    _, behavior = no_signaling_value(game)
    # PR box: on x=y=1 only answer pairs with a+b=1 appear, each at 1/2
    assert behavior.prob(((0,), (1,)), (1, 1)) == pytest.approx(0.5)
    assert behavior.prob(((1,), (0,)), (1, 1)) == pytest.approx(0.5)
    assert behavior.prob(((0,), (0,)), (1, 1)) == 0.0


# ---------------------------------------------------------------------------
# Svetlichny value


def test_ghz3_svetlichny_value_is_one():
    assert svetlichny_value(mermin_ghz3_game()) == Fraction(1)


def test_chsh33_svetlichny_golden():
    # golden value 2/3, frozen from the brute-force joint-table oracle
    assert svetlichny_value(chsh_game(3, 3)) == Fraction(2, 3)


def test_svetlichny_matches_brute_force_per_partition():
    rng = np.random.default_rng(107)
    for _ in range(5):
        game = _random_game(rng, Z3, (2, 2, 2))
        for lone in range(3):
            assert (svetlichny_value(game, lone=lone)
                    == brute_svetlichny_value(game, lone))


def test_random3_fixture_orders_its_lone_players():
    """The analyze_random3.json golden pins which lone player gives the
    maximum: the three values differ and lie strictly between the
    classical value and 1."""
    game = load_game(Path(__file__).resolve().parent.parent
                     / "fixtures" / "random3.game")
    assert classical_value(game).value == naive_classical_value(game) == Fraction(67, 101)
    per_lone = [svetlichny_value(game, lone=lone) for lone in range(3)]
    assert per_lone == [brute_svetlichny_value(game, lone) for lone in range(3)]
    assert per_lone == [Fraction(76, 101), Fraction(79, 101), Fraction(83, 101)]
    assert svetlichny_value(game) == Fraction(83, 101)


def test_svetlichny_checks_every_cap_before_the_first_fold(monkeypatch):
    """Only the last lone player exceeds the cap: the refusal comes before
    any lone player's block is folded."""
    folded = []
    fold = values.fold_tables

    def watched(game, fixed, cap):
        for block in fold(game, fixed, cap):
            folded.append(fixed)
            yield block

    monkeypatch.setattr(values, "fold_tables", watched)
    game = _random_game(np.random.default_rng(3), Z3, (2, 1, 3))
    with pytest.raises(ResourceLimitError, match=r"players \[2\] needs 27 "
                       r"assignments, cap is 9$"):
        svetlichny_value(game, cap=9)
    assert folded == []
    svetlichny_value(game, cap=27)
    assert folded  # the watch sees the blocks of a search that runs


def test_svetlichny_needs_three_players():
    with pytest.raises(ValidationError):
        svetlichny_value(chsh_game(2, 2))
    with pytest.raises(ValidationError):
        svetlichny_value(chsh_game(4, 2))


def test_svetlichny_constant_predicate():
    game = make_game(Z3, (2, 2, 2), lambda x: (2,))
    assert svetlichny_value(game) == Fraction(1)


def test_svetlichny_dominates_classical():
    rng = np.random.default_rng(109)
    for _ in range(10):
        game = _random_game(rng, Z2, (2, 2, 2))
        w_c = classical_value(game).value
        w_s = svetlichny_value(game)
        assert w_c <= w_s <= 1


# ---------------------------------------------------------------------------
# Separability


def test_sum_predicate_is_separable():
    game = make_game(Z3, (3, 3, 3), lambda x: (sum(x) % 3,))
    report = separability_check(game)
    assert report.separable
    behavior = report.strategy.behavior(game.group, game.question_counts)
    assert success_probability(game, behavior) == pytest.approx(1.0)


def test_product_predicate_not_separable():
    game = make_game(Z3, (3, 3, 3),
                     lambda x: ((x[0] * x[1] * x[2]) % 3,))
    assert not separability_check(game).separable


def test_separability_requires_uniform_distribution():
    with pytest.raises(ValidationError):
        separability_check(mermin_ghz3_game())


def test_random_separable_predicates_detected():
    rng = np.random.default_rng(113)
    for _ in range(50):
        offsets = [[int(v) for v in rng.integers(0, 3, size=3)]
                   for _ in range(3)]
        const = int(rng.integers(0, 3))

        def f(x):
            return ((offsets[0][x[0]] + offsets[1][x[1]]
                     + offsets[2][x[2]] + const) % 3,)

        game = make_game(Z3, (3, 3, 3), f)
        report = separability_check(game)
        assert report.separable
        behavior = report.strategy.behavior(game.group, game.question_counts)
        assert success_probability(game, behavior) == pytest.approx(1.0)


def test_separable_iff_classical_value_one_exhaustive_2x2():
    # all 16 predicates f: [2]x[2] -> Z_2
    for bits in itertools.product(range(2), repeat=4):
        game = make_game(Z2, (2, 2), list(bits))
        separable = separability_check(game).separable
        classical = classical_value(game).value
        assert separable == (classical == 1)


def test_separable_iff_classical_value_one_sampled_3x3():
    rng = np.random.default_rng(127)
    for _ in range(25):
        game = _random_game(rng, Z3, (3, 3, 3))
        separable = separability_check(game).separable
        classical = classical_value(game).value
        assert separable == (classical == 1)
