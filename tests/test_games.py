"""Game construction, built-in games, behaviors, and the file format."""

import itertools
import json
import tracemalloc
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest

from lingame.algebra import AbelianGroup
from lingame.errors import GameFormatError, ValidationError
from lingame.diew import biseparable_bound
from lingame.games import (Behavior, DeterministicStrategy, LinearGame,
                           chsh_game, game_hash, load_game, make_game,
                           mermin_ghz3_game, parse_game_file, serialize_game,
                           success_probability)
from lingame.qbounds import quantum_bound
from lingame.values import classical_value, svetlichny_value

from oracles import oracle_parse_game_file

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
    # a bool is not a probability, as in the file format
    with pytest.raises(ValidationError, match="bad probability: True"):
        make_game(Z2, (2, 2), lambda x: (0,), distribution={(0, 0): True})


def test_float_distribution_reads_shortest_decimal():
    # ten weights 0.1 are exactly 1/10 each, so the "exact" value of an
    # always-won game is exactly 1, not 1 + 2**-54
    game = make_game(Z2, (10, 1), [(0,)] * 10, distribution=[0.1] * 10)
    assert game.distribution == (Fraction(1, 10),) * 10
    assert classical_value(game).value == 1
    # numpy integers are exact rationals, like the same array as floats
    ints = make_game(Z2, (2, 2), [0, 1, 1, 0], distribution=np.array([1, 0, 0, 0]))
    floats = make_game(Z2, (2, 2), [0, 1, 1, 0],
                       distribution=np.array([1.0, 0, 0, 0]))
    assert ints == floats and ints.distribution[0] == 1


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


@pytest.mark.parametrize("value", [(1.7,), 1.7, (True,), None, ("1",)])
def test_make_game_rejects_non_integer_predicate_values(value):
    # (1.7,) used to be truncated to (1,); None escaped as a TypeError.
    with pytest.raises(ValidationError, match="predicate value"):
        make_game(Z2, (1, 2), [value, (0,)])


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


@pytest.mark.parametrize("questions", [(2, 0), (2, -1)])
def test_make_game_rejects_empty_question_sets(questions):
    # (2, -1) met numpy's negative grid before the counts were checked
    with pytest.raises(ValidationError) as err:
        make_game(Z2, questions, lambda x: 0)
    assert str(err.value) == "every player needs at least one question"


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


def test_histogram_is_built_on_first_use_only():
    """A norm bound never reads the answer histogram, so it is not built;
    once built it is kept, read-only, with the weights as its total."""
    game = chsh_game(3, 3)
    quantum_bound(game)
    assert "histogram" not in vars(game)
    hist = game.histogram
    assert hist is game.histogram
    assert not hist.flags.writeable
    assert hist.shape == (3, 3, 3, 3)
    assert hist.sum() == game.den


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


@pytest.mark.parametrize("table, message", [
    ([[-0.5, 1.5]],
     f"behavior has a negative probability {np.float64(-0.5)!r}"),
    ([[0.5, 0.5], [0.7, 0.7], [0.2, 0.2]],
     "behavior rows [1, 2] are not normalized (sums [1.4, 0.4])"),
    ([[0.5, 0.5 + 1e-9]],
     "behavior rows [0] are not normalized (sums [1.000000001])"),
    ([[np.nan, 0.5], [0.7, 0.7], [0.5, 0.5 + 2e-9]],
     "behavior rows [1, 2] are not normalized "
     "(sums [1.4, 1.0000000020000002])"),
    ([[0.5, 0.5], [np.nan, np.nan], [0.5, np.nan]],
     "behavior rows [1, 2] have NaN entries"),
], ids=["negative", "rows", "just_over", "beside_nan", "nan"])
def test_behavior_messages_name_rows_and_sums(table, message):
    with pytest.raises(ValidationError) as err:
        Behavior(Z2, (len(table),), table)
    assert str(err.value) == message


BUILDS = pytest.mark.parametrize("build", [
    lambda: chsh_game(3, 3), mermin_ghz3_game,
    lambda: make_game(Z3, (2, 3), lambda x: (x[0] * x[1]) % 3),
    lambda: load_game(str(FIXTURES / "ghz3.game")),
], ids=["chsh33", "ghz3", "make_game", "load_game"])


@BUILDS
def test_win_weights_are_built_on_first_use_and_read_only(build):
    game = build()
    assert "win_weights" not in vars(game)
    weights = game.win_weights
    assert weights is game.win_weights
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0, 0] = 1.0
    g, n = game.group.size, game.players
    assert weights.shape == (game.n_inputs, g**n)
    # p(x) on the g^(n-1) answer tuples summing to f(x), 0 elsewhere
    for row, p in zip(weights, game.probabilities_float()):
        assert set(row.tolist()) <= {0.0, p}
        assert np.count_nonzero(row == p) == (g**(n - 1) if p else g**n)


@BUILDS
def test_no_engine_builds_the_grid_or_the_residues(build):
    """A game holds its weights and predicate indices; its grid, residues
    and float probabilities are built on first read, and no exact value,
    norm bound or search reads the grid or the residues."""
    game = build()
    assert {"grid", "residues", "_probabilities"}.isdisjoint(vars(game))
    calls = [classical_value, quantum_bound]
    if game.players == 3:
        calls += [svetlichny_value, biseparable_bound]
    for call in calls:
        call(game)
        assert {"grid", "residues"}.isdisjoint(vars(game)), call.__name__


@BUILDS
def test_views_are_built_once_read_only_with_their_values(build):
    game = build()
    views = {"grid": lambda: game.grid, "residues": lambda: game.residues,
             "_probabilities": game.probabilities_float}
    for name, read in views.items():
        view = read()
        assert read() is view and vars(game)[name] is view
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 0
    questions = list(itertools.product(*map(range, game.question_counts)))
    assert game.grid.dtype == game.residues.dtype == np.intp
    assert game.grid.tolist() == [list(x) for x in questions]
    assert game.residues.tolist() == [list(game.group.element(i)) for i in
                                      game.predicate_indices().tolist()]
    assert game.probabilities_float().dtype == float
    assert game.probabilities_float().tolist() == list(map(float, game.distribution))


def test_a_big_game_holds_only_its_weights():
    """chsh(12, 3), N = 531,441, on a warm predicate: the build keeps its
    weights and shares the cached predicate indices, so it holds nothing
    else the size of the grid."""
    chsh_game(12, 3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        game = chsh_game(12, 3)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= game.weights.nbytes + 64 * 2**10


@pytest.mark.parametrize("weights, classes", [
    (lambda x: 2**58 + x[2], (0, 0, 2)), (lambda x: 2**58 + x[0], (0, 1, 1))],
    ids=["x2", "x0"])
def test_player_classes_of_python_int_weights(weights, classes):
    """Weights past 2^53 are held as Python ints; players are compared on
    them as on int64 weights."""
    chsh = chsh_game(3, 2)
    weights = [weights(x) for x in chsh.inputs()]
    game = LinearGame(chsh.group, chsh.question_counts,
                      chsh.predicate_indices(), weights, sum(weights))
    assert game.weights.dtype == object
    assert game.player_classes == classes


# (1, 0, 2) sits at grid position 8 of a (2, 2, 3) grid.
@pytest.mark.parametrize("build, message", [
    (lambda: LinearGame(Z3, (2, 2, 3), [0] * 12,
                        [3] + [0] * 7 + [-1] + [0] * 3, 2),
     "negative probability -1/2 at input (1, 0, 2)"),
    (lambda: LinearGame(Z3, (2, 2, 3), [0] * 8 + [5] + [0] * 3, [1] * 12, 12),
     "predicate index 5 at input (1, 0, 2) is not in range(3)"),
    (lambda: make_game(Z3, (2, 2, 3), [(0,)] * 8 + [(7,)] + [(0,)] * 3),
     "predicate value (7,) at input (1, 0, 2) is not in AbelianGroup([3])"),
], ids=["negative", "predicate_index", "predicate_value"])
def test_messages_name_the_question_tuple(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


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


# ---------------------------------------------------------------------------
# Every GameFormatError message, pinned word for word


_BASE = {"players": 2, "questions": [2, 2], "group": {"cyclic": [2]},
         "distribution": "uniform", "predicate": {"builtin": "chsh"}}
_E00 = {"x": [0, 0], "f": 0}


def _doc(**changes):
    """The base CHSH document with keys replaced, or removed when None."""
    doc = dict(_BASE, **changes)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


def _dist(table):
    return _doc(distribution={"table": table})


def _pred(table, **changes):
    return _doc(predicate={"table": table}, **changes)


_TOTAL = " (the predicate must be total)"
_SUM = ', not exactly 1; give probabilities as Fractions or "p/q" strings'

FORMAT_ERRORS = [
    # document
    ("", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", "document: expected an object"),
    (_doc(players=None), "document: missing key(s) ['players']"),
    (_doc(extra=1), "document: unknown key(s) ['extra']"),
    (_doc(players=1), "players: expected an integer >= 2, got 1"),
    (_doc(players=True), "players: expected an integer >= 2, got True"),
    (_doc(questions=[2]), "questions: expected 2 integers >= 1, got [2]"),
    (_doc(questions=[2, 0]), "questions: expected 2 integers >= 1, got [2, 0]"),
    (_doc(questions=[2, True]),
     "questions: expected 2 integers >= 1, got [2, True]"),
    # group
    (_doc(group=[2]), 'group: expected exactly one of {"cyclic": [...]} or '
                      '{"field": {"p": ..., "r": ...}}'),
    (_doc(group={"cyclic": [2], "field": {"p": 2, "r": 1}}),
     'group: expected exactly one of {"cyclic": [...]} or '
     '{"field": {"p": ..., "r": ...}}'),
    (_doc(group={"ring": [2]}), "group: unknown form ['ring']"),
    (_doc(group={"cyclic": []}), "group.cyclic: bad factor list []"),
    (_doc(group={"cyclic": [1]}), "group.cyclic: bad factor list [1]"),
    (_doc(group={"cyclic": [2, True]}),
     "group.cyclic: bad factor list [2, True]"),
    (_doc(group={"field": [2, 1]}), "group.field: expected an object"),
    (_doc(group={"field": {"p": 2}}), "group.field: missing key(s) ['r']"),
    (_doc(group={"field": {"p": 2, "r": 1, "q": 3}}),
     "group.field: unknown key(s) ['q']"),
    (_doc(group={"field": {"p": "2", "r": 1}}),
     "group.field: p and r must be integers"),
    (_doc(group={"field": {"p": 2, "r": 1.0}}),
     "group.field: p and r must be integers"),
    (_doc(group={"field": {"p": 2, "r": True}}),
     "group.field: p and r must be integers"),
    (_doc(group={"field": {"p": True, "r": 1}}),
     "group.field: p and r must be integers"),
    (_doc(group={"field": {"p": 4, "r": 1}}),
     "group.field: field characteristic must be prime, got 4"),
    (_doc(group={"field": {"p": 2, "r": 0}}),
     "group.field: field extension degree must be >= 1, got 0"),
    # distribution
    (_doc(distribution="skewed"),
     'distribution: expected "uniform", {"support": ...} or {"table": ...}'),
    (_doc(distribution=[0.25] * 4),
     'distribution: expected "uniform", {"support": ...} or {"table": ...}'),
    (_doc(distribution={"support": [], "table": []}),
     'distribution: expected "uniform", {"support": ...} or {"table": ...}'),
    (_doc(distribution={"support": []}),
     "distribution.support: expected a non-empty list"),
    (_doc(distribution={"support": [0, 0]}),
     "distribution.support[0]: expected a question tuple of length 2"),
    (_doc(distribution={"support": [[0, True]]}),
     "distribution.support[0]: expected a question tuple of length 2"),
    (_doc(distribution={"support": [[0, 2]]}),
     "distribution.support[0]: question tuple [0, 2] out of range"),
    (_doc(distribution={"support": [[0, 1], [0, 1]]}),
     "distribution.support[1]: duplicate input [0, 1]"),
    (_dist({}), "distribution.table: expected a list"),
    (_dist([[0, 0]]), "distribution.table[0]: expected an object"),
    (_dist([{"x": [0, 0]}]), "distribution.table[0]: missing key(s) ['p']"),
    (_dist([{"x": [0, 0], "p": "1", "w": 1}]),
     "distribution.table[0]: unknown key(s) ['w']"),
    (_dist([{"x": [0, 0, 0], "p": "1"}]),
     "distribution.table[0].x: expected a question tuple of length 2"),
    (_dist([{"x": [-1, 0], "p": "1"}]),
     "distribution.table[0].x: question tuple [-1, 0] out of range"),
    (_dist([{"x": [0, 0], "p": "1/2"}, {"x": [0, 0], "p": "1/2"}]),
     "distribution.table[1]: duplicate input [0, 0]"),
    (_dist([{"x": [0, 0], "p": 0.5}]),
     'distribution.table[0].p: expected "num/den" or an integer, got 0.5'),
    (_dist([{"x": [0, 0], "p": True}]),
     'distribution.table[0].p: expected "num/den" or an integer, got True'),
    (_dist([{"x": [0, 0], "p": "half"}]),
     "distribution.table[0].p: Invalid literal for Fraction: 'half'"),
    (_dist([{"x": [0, 0], "p": "1/0"}]),
     "distribution.table[0].p: Fraction(1, 0)"),
    # passed through from LinearGame
    (_dist([{"x": [0, 0], "p": "-1/2"}, {"x": [1, 1], "p": "3/2"}]),
     "negative probability -1/2 at input (0, 0)"),
    (_dist([{"x": [0, 0], "p": "1/2"}, {"x": [1, 1], "p": "1/3"}]),
     "distribution sums to 5/6 (0.8333333333333334)" + _SUM),
    (_dist([{"x": [0, 0], "p": 2}]), "distribution sums to 2 (2.0)" + _SUM),
    # predicate
    (_doc(predicate="chsh"),
     'predicate: expected {"table": ...} or {"builtin": ...}'),
    (_doc(predicate={"table": [], "builtin": "chsh"}),
     'predicate: expected {"table": ...} or {"builtin": ...}'),
    (_pred({}), "predicate.table: expected a list"),
    (_pred([[0, 0]]), "predicate.table[0]: expected an object"),
    (_pred([{"x": [0, 0]}]), "predicate.table[0]: missing key(s) ['f']"),
    (_pred([{"x": [0, 0], "f": 0, "g": 0}]),
     "predicate.table[0]: unknown key(s) ['g']"),
    (_pred([{"x": [0], "f": 0}]),
     "predicate.table[0].x: expected a question tuple of length 2"),
    (_pred([{"x": [2, 0], "f": 0}]),
     "predicate.table[0].x: question tuple [2, 0] out of range"),
    (_pred([_E00, _E00]), "predicate.table[1]: duplicate input [0, 0]"),
    (_pred([{"x": [0, 0], "f": True}]),
     "predicate.table[0].f: expected a group element, got True"),
    (_pred([{"x": [0, 0], "f": "0"}]),
     "predicate.table[0].f: expected a group element, got '0'"),
    (_pred([{"x": [0, 0], "f": [0, False]}]),
     "predicate.table[0].f: expected a group element, got [0, False]"),
    (_pred([{"x": [0, 0], "f": [0, 0]}]),
     "predicate.table[0].f: (0, 0) is not an element of AbelianGroup([2])"),
    (_pred([{"x": [0, 0], "f": 2}]),
     "predicate.table[0].f: (2,) is not an element of AbelianGroup([2])"),
    (_pred([_E00]),
     "predicate.table: missing input(s) [[0, 1], [1, 0], [1, 1]]" + _TOTAL),
    (_pred([_E00], questions=[3, 3]),
     "predicate.table: missing input(s) [[0, 1], [0, 2], [1, 0], [1, 1], "
     "[1, 2]] ..." + _TOTAL),
    # builtins
    (_doc(group={"cyclic": [4]}),
     "predicate.builtin chsh: field characteristic must be prime, got 4"),
    (_doc(group={"cyclic": [2, 2]}),
     'predicate.builtin chsh: multi-factor groups need the {"field": ...} '
     'group form'),
    (_doc(questions=[2, 3]),
     "predicate.builtin chsh: every player needs 2 questions"),
    (_doc(group={"field": {"p": 2, "r": 2}}),
     "predicate.builtin chsh: every player needs 4 questions"),
    (_doc(predicate={"builtin": "ghz3"}),
     'predicate.builtin ghz3: needs players=3, questions [3,3,3] and group '
     '{"cyclic": [3]}'),
    (_doc(predicate={"builtin": "mermin"}),
     "predicate.builtin: unknown builtin 'mermin'"),
    (_doc(predicate={"builtin": ["chsh"]}),
     "predicate.builtin: unknown builtin ['chsh']"),
    # rows added later, at the end, so the ids of the rows above stay put
    (_doc(questions=[2, -1]),
     "questions: expected 2 integers >= 1, got [2, -1]"),
    (_dist([{"x": [0, True], "p": "1"}]),
     "distribution.table[0].x: expected a question tuple of length 2"),
    (_pred([{"x": [True, 0], "f": 0}]),
     "predicate.table[0].x: expected a question tuple of length 2"),
    (_dist([{"x": [0, 0], "p": 10**30}]),
     "distribution sums to 1000000000000000000000000000000 (1e+30)" + _SUM),
    (_dist([{"x": [0, 0], "p": 2**62}, {"x": [1, 1], "p": 2**62}]),
     "distribution sums to 9223372036854775808 (9.223372036854776e+18)" + _SUM),
]


@pytest.mark.parametrize("text, message", FORMAT_ERRORS,
                         ids=[str(i) for i in range(len(FORMAT_ERRORS))])
def test_format_error_messages(text, message):
    with pytest.raises(GameFormatError) as err:
        parse_game_file(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", FORMAT_ERRORS,
                         ids=[str(i) for i in range(len(FORMAT_ERRORS))])
def test_format_error_messages_are_the_oracle_readers(text, message):
    """The reader that kept question-tuple dicts refused every document
    with the same message."""
    with pytest.raises(GameFormatError) as err:
        oracle_parse_game_file(text)
    assert str(err.value) == message


def test_readme_game_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    section = readme[readme.index("**Game** (`*.game`)"):]
    block = section[section.index("```json\n") + 8:]
    game = parse_game_file(block[:block.index("```")])
    assert game.question_counts == (2, 2) and game.group == Z2
    assert game.probability((0, 0)) == Fraction(1, 2)
    assert game.predicate_value((1, 1)) == (1,)
