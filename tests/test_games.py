"""Game construction, built-in games, behaviors, and the file format."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from lingame.algebra import AbelianGroup
from lingame.errors import GameFormatError, ValidationError
from lingame.games import (Behavior, DeterministicStrategy, chsh_game,
                           game_hash, load_game, make_game,
                           mermin_ghz3_game, parse_game_file, serialize_game,
                           success_probability)
from lingame.values import classical_value

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))


def test_make_game_uniform_chsh():
    game = make_game(Z2, (2, 2), lambda x: (x[0] * x[1]) % 2)
    assert game.players == 2
    assert game.n_inputs == 4
    for x in game.inputs():
        assert game.probability(x) == Fraction(1, 4)
    assert game.predicate_value((1, 1)) == (1,)
    assert game.predicate_value((0, 1)) == (0,)


def test_make_game_rejects_unnormalized_distribution():
    # explicit table summing to 0.999
    dist = {(0, 0): "999/4000", (0, 1): Fraction(1, 4),
            (1, 0): Fraction(1, 4), (1, 1): Fraction(1, 4)}
    with pytest.raises(ValidationError):
        make_game(Z2, (2, 2), lambda x: (0,), distribution=dist)


def test_float_distribution_reads_shortest_decimal():
    # ten weights 0.1 are exactly 1/10 each, so the "exact" value of an
    # always-won game is exactly 1, not 1 + 2**-54
    game = make_game(Z2, (10, 1), [(0,)] * 10, distribution=[0.1] * 10)
    assert game.distribution == (Fraction(1, 10),) * 10
    assert classical_value(game).value == 1


def test_float_distribution_must_sum_to_exactly_one():
    # 0.3333333333333333 three times is 0.9999999999999999
    with pytest.raises(ValidationError) as err:
        make_game(Z3, (3, 1), [(0,)] * 3, distribution=[1 / 3] * 3)
    message = str(err.value)
    assert "9999999999999999/10000000000000000" in message
    assert "Fraction" in message and '"p/q"' in message
    with pytest.raises(ValidationError):
        make_game(Z3, (3, 1), [(0,)] * 3, distribution=[float("nan"), 0.5, 0.5])


def test_make_game_rejects_negative_probability():
    dist = {(0, 0): Fraction(5, 4), (0, 1): Fraction(1, 4),
            (1, 0): Fraction(-1, 4), (1, 1): Fraction(1, 4)}
    with pytest.raises(ValidationError):
        make_game(Z2, (2, 2), lambda x: (0,), distribution=dist)


def test_make_game_rejects_predicate_outside_group():
    with pytest.raises(ValidationError):
        make_game(Z2, (2, 2), lambda x: (5,))


def test_make_game_support_distribution():
    support = [x for x in itertools.product(range(3), repeat=3)
               if sum(x) % 3 == 0]
    game = make_game(Z3, (3, 3, 3), lambda x: (x[0] * x[1] * x[2]) % 3,
                     distribution={"support": support})
    assert len(support) == 9
    for x in game.inputs():
        expected = Fraction(1, 9) if sum(x) % 3 == 0 else Fraction(0)
        assert game.probability(x) == expected


def test_make_game_needs_two_players():
    with pytest.raises(ValidationError):
        make_game(Z2, (2,), lambda x: (0,))


def test_chsh_22_is_product_predicate():
    game = chsh_game(2, 2)
    for x, y in itertools.product(range(2), repeat=2):
        assert game.predicate_value((x, y)) == ((x * y) % 2,)
        assert game.probability((x, y)) == Fraction(1, 4)


def test_chsh_33_pairwise_products():
    game = chsh_game(3, 3)
    for x in itertools.product(range(3), repeat=3):
        expected = (x[0] * x[1] + x[0] * x[2] + x[1] * x[2]) % 3
        assert game.predicate_value(x) == (expected,)
        assert game.probability(x) == Fraction(1, 27)


def test_chsh_gf4_uses_field_arithmetic():
    game = chsh_game(2, 4)
    assert game.group.orders == (2, 2)
    field = game.field
    assert field is not None and (field.p, field.r) == (2, 2)
    for x, y in itertools.product(range(4), repeat=2):
        expected = field.mul(field.element(x), field.element(y))
        assert game.predicate_value((x, y)) == expected


def test_chsh_rejects_composite_alphabet():
    with pytest.raises(ValidationError):
        chsh_game(2, 6)
    with pytest.raises(ValidationError):
        chsh_game(1, 2)


def test_chsh_distribution_exactly_uniform():
    for n, d in [(2, 2), (2, 3), (3, 3), (4, 2)]:
        game = chsh_game(n, d)
        for x in game.inputs():
            assert game.probability(x) == Fraction(1, d**n)


def test_ghz3_game_promise_and_predicate():
    game = mermin_ghz3_game()
    assert game.players == 3
    assert game.group.orders == (3,)
    assert game.probability((1, 1, 1)) == Fraction(1, 9)
    assert game.predicate_value((1, 1, 1)) == (1,)
    assert game.probability((0, 1, 1)) == Fraction(0)
    assert game.probability((1, 2, 0)) == Fraction(1, 9)
    assert game.predicate_value((1, 2, 0)) == (0,)
    assert len(game.support()) == 9


# ---------------------------------------------------------------------------
# Behaviors and deterministic strategies


def test_behavior_validates_shape_and_rows():
    table = np.full((4, 4), 0.25)
    Behavior(Z2, (2, 2), table)
    with pytest.raises(ValidationError):
        Behavior(Z2, (2, 2), np.full((4, 3), 1 / 3))
    bad = table.copy()
    bad[2] = 0.3
    with pytest.raises(ValidationError):
        Behavior(Z2, (2, 2), bad)
    neg = table.copy()
    neg[0] = [0.5, 0.75, -0.25, 0.0]
    with pytest.raises(ValidationError):
        Behavior(Z2, (2, 2), neg)


def test_deterministic_strategy_behavior_and_success():
    game = chsh_game(2, 2)
    strategy = DeterministicStrategy((((0,), (0,)), ((0,), (0,))))
    behavior = strategy.behavior(game.group, game.question_counts)
    assert behavior.prob(((0,), (0,)), (0, 1)) == 1.0
    assert behavior.prob(((1,), (0,)), (0, 1)) == 0.0
    # all-zero answers win CHSH except on x=y=1
    assert success_probability(game, behavior) == pytest.approx(0.75)


def test_success_probability_uniform_behavior():
    game = mermin_ghz3_game()
    uniform = Behavior(Z3, (3, 3, 3), np.full((27, 27), 1 / 27))
    assert success_probability(game, uniform) == pytest.approx(1 / 3, abs=1e-12)


def test_success_probability_shape_mismatch():
    game = chsh_game(2, 2)
    other = Behavior(Z2, (2, 3), np.full((6, 4), 0.25))
    with pytest.raises(ValidationError):
        success_probability(game, other)


# ---------------------------------------------------------------------------
# File format


def test_fixture_chsh22_parses_to_builtin():
    assert load_game("fixtures/chsh22.game") == chsh_game(2, 2)


def test_fixture_ghz3_parses_to_builtin():
    assert load_game("fixtures/ghz3.game") == mermin_ghz3_game()


def test_round_trip_is_bit_exact_on_fixtures():
    for path in ("fixtures/chsh22.game", "fixtures/ghz3.game"):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        assert serialize_game(parse_game_file(text)) == text


def test_round_trip_random_games():
    rng = np.random.default_rng(41)
    for _ in range(10):
        values = [int(v) for v in rng.integers(0, 3, size=6)]
        game = make_game(Z3, (2, 3), values)
        again = parse_game_file(serialize_game(game))
        assert again == game
        assert serialize_game(again) == serialize_game(game)


def test_parse_rejects_unknown_keys():
    doc = json.loads(serialize_game(chsh_game(2, 2)))
    doc["extra"] = 1
    with pytest.raises(GameFormatError) as err:
        parse_game_file(json.dumps(doc))
    assert "extra" in str(err.value)


def test_parse_rejects_missing_predicate_entry():
    doc = json.loads(serialize_game(chsh_game(2, 2)))
    del doc["predicate"]["table"][0]
    with pytest.raises(GameFormatError) as err:
        parse_game_file(json.dumps(doc))
    assert "predicate" in str(err.value)


def test_parse_rejects_bad_probability_string():
    doc = json.loads(serialize_game(mermin_ghz3_game()))
    doc["distribution"] = {"table": [{"x": [0, 0, 0], "p": "garbage"}]}
    with pytest.raises(GameFormatError):
        parse_game_file(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(GameFormatError):
        parse_game_file("{not json")


def test_parse_builtin_predicates():
    text = json.dumps({
        "players": 2,
        "questions": [2, 2],
        "group": {"cyclic": [2]},
        "distribution": "uniform",
        "predicate": {"builtin": "chsh"},
    })
    assert parse_game_file(text) == chsh_game(2, 2)


def test_parse_field_group_form():
    text = json.dumps({
        "players": 2,
        "questions": [4, 4],
        "group": {"field": {"p": 2, "r": 2}},
        "distribution": "uniform",
        "predicate": {"builtin": "chsh"},
    })
    assert parse_game_file(text) == chsh_game(2, 4)


def test_game_hash_is_stable_and_distinguishes():
    h1 = game_hash(chsh_game(2, 2))
    h2 = game_hash(chsh_game(2, 2))
    h3 = game_hash(chsh_game(2, 3))
    assert h1 == h2 and h1 != h3
    assert len(h1) == 64


def test_builtin_games_pass_validation():
    for game in (chsh_game(2, 2), chsh_game(3, 3), chsh_game(2, 4),
                 mermin_ghz3_game()):
        assert abs(sum(game.probabilities_float()) - 1) < 1e-12
