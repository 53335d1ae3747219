"""Quantum strategy evaluation: Born behaviors, correlators, the ternary
GHZ reference strategy, and noise curves."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lingame import games, strategies
from lingame.algebra import AbelianGroup
from lingame.diew import visibility_threshold
from lingame.errors import GameFormatError, ValidationError
from lingame.games import (Behavior, chsh_game, make_game, mermin_ghz3_game,
                           success_probability)
from lingame.strategies import (QuantumStrategy, _check_behaviors,
                                correlators, ghz3_reference_strategy,
                                load_strategy, noise_behavior, noisy_success,
                                parse_strategy_file, strategy_behavior,
                                success_from_correlators)
from lingame.tolerances import BEHAVIOR_ROW_TOL

from oracles import behavior_from_full_correlators

Z2 = AbelianGroup((2,))
Z3 = AbelianGroup((3,))


def _random_behavior(rng, group, questions, players):
    g = group.size
    rows = 1
    for q in questions:
        rows *= q
    table = rng.random((rows, g**players))
    table /= table.sum(axis=1, keepdims=True)
    return Behavior(group, questions, table)


def _random_strategy(rng, dims, questions, outcomes):
    def random_basis(dim):
        gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(gauss)
        return [q[:, o] for o in range(dim)]

    state = rng.normal(size=math.prod(dims)) \
        + 1j * rng.normal(size=math.prod(dims))
    state /= np.linalg.norm(state)
    measurements = [[random_basis(d)[:outcomes] if d == outcomes
                     else random_basis(d)
                     for _ in range(q)]
                    for d, q in zip(dims, questions)]
    return QuantumStrategy(dims, state, measurements)


# ---------------------------------------------------------------------------
# Construction and validation


def test_state_norm_validated():
    with pytest.raises(ValidationError):
        QuantumStrategy((2,), np.array([1.0, 1.0]), [[
            [np.array([1, 0]), np.array([0, 1])]]])


def test_density_matrix_validated():
    eye = np.eye(4) / 4
    meas = [[[np.array([1, 0]), np.array([0, 1])]]] * 2
    QuantumStrategy((2, 2), eye, meas)
    with pytest.raises(ValidationError):
        QuantumStrategy((2, 2), np.eye(4), meas)  # trace 4
    skew = eye.copy()
    skew[0, 1] = 0.3
    with pytest.raises(ValidationError):
        QuantumStrategy((2, 2), skew, meas)  # not Hermitian


def test_invalid_projectors_name_player_and_question():
    v0 = np.array([1, 0])
    bad = np.array([1, 1]) / math.sqrt(2)
    meas = [
        [[v0, np.array([0, 1])], [v0, bad]],  # question 1 not orthogonal
        [[v0, np.array([0, 1])], [v0, np.array([0, 1])]],
    ]
    with pytest.raises(ValidationError) as err:
        QuantumStrategy((2, 2), np.array([1, 0, 0, 0], dtype=complex), meas)
    assert "(0, 1)" in str(err.value)


def test_incomplete_family_rejected():
    v0 = np.array([1, 0, 0])
    v1 = np.array([0, 1, 0])
    # third outcome repeats v0: sums to a rank-2 operator, not identity
    meas = [[[v0, v1, v0]]]
    with pytest.raises(ValidationError):
        QuantumStrategy((3,), np.array([1, 0, 0], dtype=complex), meas)


def test_nan_projector_rejected():
    # every comparison with NaN is false, so each check used to pass it
    v0 = np.array([1, 0])
    meas = [[[v0, np.array([0, np.nan])]]]
    with pytest.raises(ValidationError, match=r"\(0, 0\)"):
        QuantumStrategy((2,), np.array([1, 0], dtype=complex), meas)


@pytest.mark.parametrize("state", [
    [np.nan, 0, 0, 0], np.diag([np.nan, 1.0, 0.0, 0.0])],
    ids=["vector", "density"])
def test_nan_state_rejected(state):
    # as with projectors, every comparison with NaN is false, so the norm,
    # trace, Hermiticity and eigenvalue checks used to pass it
    meas = [[[np.array([1, 0]), np.array([0, 1])]]] * 2
    with pytest.raises(ValidationError):
        QuantumStrategy((2, 2), state, meas)


def _scaled_ghz3(scales, outcome=None):
    """The GHZ3 reference strategy with player i's vectors (only those of
    ``outcome``, when given) multiplied by sqrt(1 + scales[i])."""
    reference = ghz3_reference_strategy()
    return [[[math.sqrt(1 + t) * reference.vector(i, x, o)
              if outcome in (None, o) else reference.vector(i, x, o)
              for o in range(3)] for x in range(3)]
            for i, t in enumerate(scales)]


def test_compounding_completeness_errors_are_refused():
    # each family is complete to 9e-10, inside PROJECTOR_TOL, but every
    # behavior row sums to (1 + 9e-10)^3 = 1 + 2.7e-9: refused at
    # construction, not by the first behavior
    state = ghz3_reference_strategy().state
    with pytest.raises(ValidationError,
                       match=r"completeness errors compound to 2\.7"):
        QuantumStrategy((3, 3, 3), state, _scaled_ghz3([9e-10] * 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.floats(-1e-9, 1e-9), min_size=3, max_size=3),
       st.sampled_from([None, 0, 2]), st.booleans())
def test_accepted_strategies_evaluate_cleanly(scales, outcome, mixed):
    # completeness off by scales[i] in every direction (outcome None) or
    # in one: construction refuses exactly when the errors compound past
    # BEHAVIOR_ROW_TOL, and whatever it accepts evaluates
    game = mermin_ghz3_game()
    state = ghz3_reference_strategy().state
    if mixed:
        state = 0.9 * np.outer(state, state.conj()) + 0.1 * np.eye(27) / 27
    spread = math.prod(1 + abs(t) for t in scales) - 1
    assume(abs(spread - BEHAVIOR_ROW_TOL) > 1e-12)
    try:
        strategy = QuantumStrategy((3, 3, 3), state,
                                   _scaled_ghz3(scales, outcome))
    except ValidationError as err:
        assert "compound" in str(err) and spread > BEHAVIOR_ROW_TOL
        return
    assert spread < BEHAVIOR_ROW_TOL
    strategy_behavior(strategy, game)
    noise_behavior(strategy, game)
    noisy_success(game, strategy, 0.5)
    visibility_threshold(game, strategy, bound=0.9)


def test_negative_white_noise_is_refused():
    # tr(P)/d is at least about -PROJECTOR_TOL for a family that passes,
    # so the product check is driven with marginals directly: -9e-10 and
    # 1.2 each pass alone, their product -1.08e-9 does not
    stacks = [np.array([0.0, 1.0]).reshape(1, 2, 1, 1)] * 2
    _check_behaviors(stacks, [np.array([[0.5, 0.5]])] * 2)
    with pytest.raises(ValidationError,
                       match=r"white noise has a negative probability -1\.08"):
        _check_behaviors(stacks, [np.array([[-9e-10, 1.0]]),
                                  np.array([[1.2, 0.0]])])


def test_measurement_count_must_match_players():
    with pytest.raises(ValidationError):
        QuantumStrategy((2, 2), np.array([1, 0, 0, 0], dtype=complex),
                        [[[np.array([1, 0]), np.array([0, 1])]]])


@pytest.mark.parametrize("measurements, where", [
    ([[5]], r"\(player, question\) \(0, 0\): expected a list of outcomes, "
            r"got 5"),
    ([5], r"player 0: expected a list of questions, got 5"),
    (5, r"measurements: expected one family per player, got 5"),
], ids=["outcomes", "questions", "families"])
def test_non_sequence_measurements_rejected(measurements, where):
    with pytest.raises(ValidationError, match=where):
        QuantumStrategy((2,), [1, 0], measurements)


V0, V1 = np.array([1, 0]), np.array([0, 1])


@pytest.mark.parametrize("family", [
    [[V0, V1], [np.eye(2)]],  # 2 outcomes at question 0, 1 at question 1
    [],  # no questions
], ids=["ragged", "no_questions"])
def test_player_needs_questions_with_one_outcome_count(family):
    with pytest.raises(ValidationError,
                       match=r"player 0 needs one or more questions"):
        QuantumStrategy((2,), np.array([1, 0], dtype=complex), [family])


def test_measurements_are_read_only_stacks():
    strategy = ghz3_reference_strategy()
    for stack in strategy.measurements():
        assert stack.shape == (3, 3, 3, 3) and not stack.flags.writeable
    assert strategy.questions(2) == 3 and strategy.outcomes(2, 1) == 3
    assert np.array_equal(strategy.projector(1, 2, 0),
                          strategy.measurements()[1][2, 0])


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "density"])
def test_strategy_keeps_copies_of_callers_arrays(mixed):
    # the state, the density matrix and the rank-one vectors are copied at
    # construction: later writes to the caller's arrays change nothing
    reference = ghz3_reference_strategy()
    game = mermin_ghz3_game()
    state = (reference.density() if mixed else reference.state).copy()
    vectors = [[[reference.vector(i, x, o).copy() for o in range(3)]
                for x in range(3)] for i in range(3)]
    strategy = QuantumStrategy((3, 3, 3), state, vectors)
    before = strategy_behavior(strategy, game).table.copy()
    state[...] = np.roll(state, 1)  # still normalized, so no check fires
    for per_player in vectors:
        for family in per_player:
            family[0][...], family[1][...] = family[1].copy(), family[0].copy()
    assert np.array_equal(strategy_behavior(strategy, game).table, before)
    assert not strategy.vector(0, 0, 0).flags.writeable
    held = strategy.density() if mixed else strategy.state
    assert not held.flags.writeable


def test_rank_two_projector_matrix_accepted():
    meas = [[[np.eye(2), np.zeros((2, 2))]]]
    QuantumStrategy((2,), np.array([0, 1], dtype=complex), meas)


# ---------------------------------------------------------------------------
# Born behaviors


def test_product_state_computational_deterministic():
    basis = [np.array([1, 0]), np.array([0, 1])]
    meas = [[basis, basis], [basis, basis]]
    strategy = QuantumStrategy((2, 2), np.array([1, 0, 0, 0], dtype=complex),
                               meas)
    game = chsh_game(2, 2)
    behavior = strategy_behavior(strategy, game)
    for x in game.inputs():
        assert behavior.prob(((0,), (0,)), x) == pytest.approx(1.0)


def test_maximally_mixed_gives_uniform_behavior():
    strategy = ghz3_reference_strategy()
    mixed = QuantumStrategy((3, 3, 3), np.eye(27) / 27,
                            strategy.measurements())
    game = mermin_ghz3_game()
    behavior = strategy_behavior(mixed, game)
    assert np.abs(behavior.table - 1 / 27).max() < 1e-12


def test_strategy_game_compatibility_checked():
    strategy = ghz3_reference_strategy()
    with pytest.raises(ValidationError):
        strategy_behavior(strategy, chsh_game(2, 2))
    with pytest.raises(ValidationError):
        strategy_behavior(strategy, chsh_game(3, 2))


def test_born_behaviors_are_non_signaling():
    rng = np.random.default_rng(149)
    game = make_game(Z2, (2, 2),
                     [int(v) for v in rng.integers(0, 2, size=4)])
    strategy = _random_strategy(rng, (2, 2), (2, 2), 2)
    behavior = strategy_behavior(strategy, game)
    table = behavior.table.reshape(2, 2, 2, 2)  # x, y, a, b
    # Alice's marginal cannot depend on Bob's question, and vice versa
    alice = table.sum(axis=3)
    bob = table.sum(axis=2)
    assert np.abs(alice[:, 0, :] - alice[:, 1, :]).max() < 1e-9
    assert np.abs(bob[0, :, :] - bob[1, :, :]).max() < 1e-9


def test_pure_vector_and_density_paths_agree():
    rng = np.random.default_rng(151)
    game = make_game(Z3, (2, 2), [int(v) for v in rng.integers(0, 3, size=4)])
    strategy = _random_strategy(rng, (3, 3), (2, 2), 3)
    rho = np.outer(strategy.state, strategy.state.conj())
    mixed = QuantumStrategy((3, 3), rho, strategy.measurements())
    b1 = strategy_behavior(strategy, game)
    b2 = strategy_behavior(mixed, game)
    assert np.abs(b1.table - b2.table).max() < 1e-11


def _count_builds(monkeypatch):
    """Calls of the Born and white-noise table builders, by name."""
    counts = {"_born_table": 0, "_noise_table": 0}
    for name in counts:
        original = getattr(strategies, name)

        def counted(strategy, _name=name, _original=original):
            counts[_name] += 1
            return _original(strategy)
        monkeypatch.setattr(strategies, name, counted)
    return counts


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "density"])
def test_each_table_is_built_once_per_strategy(mixed, monkeypatch):
    # behaviors, noisy successes and a threshold of one strategy share its
    # two tables; a second strategy builds its own
    counts = _count_builds(monkeypatch)
    game = mermin_ghz3_game()
    reference = ghz3_reference_strategy()
    state = reference.density() if mixed else reference.state
    first, second = (QuantumStrategy((3, 3, 3), state,
                                     reference.measurements())
                     for _ in range(2))
    strategy_behavior(first, game)
    noise_behavior(first, game)
    for v in (0.6, 0.85, 0.95):
        noisy_success(game, first, v)
    visibility_threshold(game, first, bound=0.9)
    strategy_behavior(first, mermin_ghz3_game())
    assert counts == {"_born_table": 1, "_noise_table": 1}
    noisy_success(game, second, 0.5)
    assert counts == {"_born_table": 2, "_noise_table": 2}


def test_tables_are_shared_and_read_only():
    game = mermin_ghz3_game()
    strategy = ghz3_reference_strategy()
    for behavior, table in (
            (strategy_behavior(strategy, game), strategy._born),
            (noise_behavior(strategy, game), strategy._noise)):
        assert behavior.table is table
        assert table.flags.c_contiguous and not table.flags.writeable
        with pytest.raises(ValueError):
            behavior.table[0, 0] = 0.5
    assert strategy_behavior(strategy, game).table is strategy._born


@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "density"])
def test_a_strategy_holds_no_born_operands(mixed):
    """The Born rule lays out its operands from the projector stacks as it
    runs: a strategy holds none, before or after its tables are built."""
    reference = ghz3_reference_strategy()
    strategy = QuantumStrategy((3, 3, 3), reference.density() if mixed
                               else reference.state, reference.measurements())
    assert not hasattr(strategy, "_operators")
    strategy_behavior(strategy, mermin_ghz3_game())
    assert not hasattr(strategy, "_operators")


def test_a_strategys_own_table_is_checked_once_and_a_caller_table_always(
        monkeypatch):
    """The row check runs when a strategy builds its tables, not again on
    each behavior of them; a table a caller passes to Behavior is checked
    every time, the strategy's own table too, and a bad one raises."""
    checked = []
    check = games._check_rows

    def counted(table):
        checked.append(table)
        return check(table)

    monkeypatch.setattr(games, "_check_rows", counted)
    monkeypatch.setattr(strategies, "_check_rows", counted)
    game, strategy = mermin_ghz3_game(), ghz3_reference_strategy()
    for _ in range(3):
        strategy_behavior(strategy, game)
        noise_behavior(strategy, game)
    assert [t is strategy._born or t is strategy._noise
            for t in checked] == [True, True]
    Behavior(game.group, game.question_counts, strategy._born)
    assert len(checked) == 3 and checked[-1] is strategy._born
    bad = strategy._born.copy()
    bad[0, :2] = -0.25, bad[0, 0] + bad[0, 1] + 0.25
    bad.setflags(write=False)
    with pytest.raises(ValidationError, match="negative probability"):
        Behavior(game.group, game.question_counts, bad)


@pytest.mark.parametrize("evaluate", [
    lambda s, g: strategy_behavior(s, g), lambda s, g: noise_behavior(s, g),
    lambda s, g: noisy_success(g, s, 0.5)],
    ids=["behavior", "noise", "noisy_success"])
def test_a_failed_row_check_caches_nothing(evaluate, monkeypatch):
    # rows summing to (1 + 3e-10)^3 pass construction; with the row
    # tolerance at 1e-10 every evaluation raises the same error, and once
    # the tolerance is back the tables are built
    strategy = QuantumStrategy((3, 3, 3), ghz3_reference_strategy().state,
                               _scaled_ghz3([3e-10] * 3))
    game = mermin_ghz3_game()
    monkeypatch.setattr(games, "BEHAVIOR_ROW_TOL", 1e-10)
    errors = []
    for _ in range(2):
        with pytest.raises(ValidationError, match="are not normalized") as err:
            evaluate(strategy, game)
        errors.append(str(err.value))
        assert "_born" not in vars(strategy) and "_noise" not in vars(strategy)
    assert errors[0] == errors[1]
    monkeypatch.undo()
    evaluate(strategy, game)


# ---------------------------------------------------------------------------
# GHZ reference strategy


def test_ghz3_reference_wins_with_certainty():
    game = mermin_ghz3_game()
    strategy = ghz3_reference_strategy()
    value = success_probability(game, strategy_behavior(strategy, game))
    assert abs(value - 1.0) < 1e-9


def test_ghz3_bases_orthonormal():
    strategy = ghz3_reference_strategy()
    for i in range(3):
        for x in range(3):
            vectors = [strategy.vector(i, x, o) for o in range(3)]
            gram = np.array([[v.conj() @ w for w in vectors] for v in vectors])
            assert np.abs(gram - np.eye(3)).max() < 1e-9


def test_ghz3_observables_traceless():
    strategy = ghz3_reference_strategy()
    for k in range(1, 3):
        for i in range(3):
            for x in range(3):
                observable = sum(
                    Z3.character((k,), (o,)).conjugate()
                    * strategy.projector(i, x, o)
                    for o in range(3))
                assert abs(np.trace(observable)) < 1e-9


def test_ghz3_wins_every_promise_input():
    game = mermin_ghz3_game()
    behavior = strategy_behavior(ghz3_reference_strategy(), game)
    for x in game.support():
        win = sum(behavior.prob(answers, x)
                  for answers in itertools.product([(0,), (1,), (2,)],
                                                   repeat=3)
                  if Z3.add(Z3.add(answers[0], answers[1]), answers[2])
                  == game.predicate_value(x))
        assert win == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Correlators


def test_all_zero_behavior_has_unit_correlators():
    table = np.zeros((4, 9))
    table[:, 0] = 1.0  # both players always answer 0
    behavior = Behavior(Z3, (2, 2), table)
    tensor = correlators(behavior, Z3)
    assert np.abs(tensor.full - 1).max() < 1e-12


def test_trivial_character_row_is_one():
    rng = np.random.default_rng(157)
    behavior = _random_behavior(rng, Z3, (3, 3, 3), 3)
    tensor = correlators(behavior, Z3)
    assert np.abs(tensor.diagonal[0] - 1).max() < 1e-9
    assert np.abs(tensor.full).max() <= 1 + 1e-9


def test_correlator_group_mismatch():
    behavior = Behavior(Z2, (2, 2), np.full((4, 4), 0.25))
    with pytest.raises(ValidationError):
        correlators(behavior, Z3)


def test_success_formulas_agree_on_random_behaviors():
    rng = np.random.default_rng(163)
    game = mermin_ghz3_game()
    for _ in range(100):
        behavior = _random_behavior(rng, Z3, (3, 3, 3), 3)
        direct = success_probability(game, behavior)
        via_fourier = success_from_correlators(game,
                                               correlators(behavior, Z3))
        assert abs(direct - via_fourier) < 1e-10


def test_fourier_round_trip_against_oracle():
    rng = np.random.default_rng(167)
    for _ in range(100):
        behavior = _random_behavior(rng, Z3, (2, 2), 2)
        tensor = correlators(behavior, Z3)
        rebuilt = behavior_from_full_correlators(tensor.full, Z3, (2, 2))
        assert np.abs(rebuilt - behavior.table).max() < 1e-10


def test_success_from_correlators_mismatch_errors():
    behavior = Behavior(Z3, (3, 3, 3), np.full((27, 27), 1 / 27))
    tensor = correlators(behavior, Z3)
    with pytest.raises(ValidationError):
        success_from_correlators(chsh_game(2, 2), tensor)  # group mismatch
    grid_game = make_game(Z3, (2, 2, 2), lambda x: (0,))
    with pytest.raises(ValidationError):
        success_from_correlators(grid_game, tensor)  # grid mismatch


def test_ghz3_success_via_correlators():
    game = mermin_ghz3_game()
    behavior = strategy_behavior(ghz3_reference_strategy(), game)
    tensor = correlators(behavior, Z3)
    assert success_from_correlators(game, tensor) == pytest.approx(1.0,
                                                                   abs=1e-9)


# ---------------------------------------------------------------------------
# Noise curves


def test_noisy_success_matches_closed_form():
    game = mermin_ghz3_game()
    strategy = ghz3_reference_strategy()
    for v in (0.0, 0.5, 1.0):
        assert noisy_success(game, strategy, v) == pytest.approx(
            (1 + 2 * v) / 3, abs=1e-9)


def test_noisy_success_affine_three_point():
    game = mermin_ghz3_game()
    strategy = ghz3_reference_strategy()
    w0 = noisy_success(game, strategy, 0.0)
    w_half = noisy_success(game, strategy, 0.5)
    w1 = noisy_success(game, strategy, 1.0)
    assert abs(w_half - (w0 + w1) / 2) < 1e-12


def test_noisy_success_rejects_bad_visibility():
    game = mermin_ghz3_game()
    strategy = ghz3_reference_strategy()
    with pytest.raises(ValidationError):
        noisy_success(game, strategy, 1.5)
    with pytest.raises(ValidationError):
        noisy_success(game, strategy, -0.1)


# ---------------------------------------------------------------------------
# Bound dominance


def test_quantum_success_bounded_by_quantum_bound():
    from lingame.qbounds import quantum_bound
    rng = np.random.default_rng(173)
    for _ in range(25):
        values = [int(v) for v in rng.integers(0, 2, size=4)]
        game = make_game(Z2, (2, 2), values)
        strategy = _random_strategy(rng, (2, 2), (2, 2), 2)
        success = success_probability(game, strategy_behavior(strategy, game))
        assert success <= quantum_bound(game).bound + 1e-9


# ---------------------------------------------------------------------------
# Strategy files


def test_fixture_strategy_round_trip():
    strategy = load_strategy("fixtures/ghz3.strategy")
    game = mermin_ghz3_game()
    value = success_probability(game, strategy_behavior(strategy, game))
    assert abs(value - 1.0) < 1e-9


_E0, _E1 = [[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]


def _strategy_doc(**changes):
    """A one-qubit strategy document with keys replaced, or removed when
    None."""
    doc = dict({"dims": [2], "state": {"amplitudes": _E0},
                "measurements": [[[_E0, _E1]]]}, **changes)
    return json.dumps({k: v for k, v in doc.items() if v is not None})

STRATEGY_FILE_ERRORS = [
    ("", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", "document: expected an object"),
    (_strategy_doc(state=None), "document: missing key(s) ['state']"),
    (_strategy_doc(extra=1), "document: unknown key(s) ['extra']"),
    (_strategy_doc(measurements=[[]]),
     "measurements[0]: expected question entries"),
    (_strategy_doc(measurements=[[[_E0, _E1], [[_E0, _E1]]]]),
     "player 0 needs one or more questions with equal outcome counts, "
     "got outcome counts [1, 2]"),
    # used to raise a bare TypeError, then two bare ValueErrors
    (_strategy_doc(state={"density": [1, 2]}),
     "state.density[0]: expected a non-empty vector"),
    (_strategy_doc(state={"density": [[[1.0, 0.0], [0.0, 0.0]],
                                      [[0.0, 0.0]]]}),
     "state.density: rows differ in length"),
    (_strategy_doc(measurements=[[[[_E0, [[0.0, 0.0]]], _E1]]]),
     "measurements[0][0][0]: rows differ in length"),
]


@pytest.mark.parametrize("text, message", STRATEGY_FILE_ERRORS,
                         ids=[str(i) for i in range(len(STRATEGY_FILE_ERRORS))])
def test_strategy_file_error_messages(text, message):
    with pytest.raises(GameFormatError) as err:
        parse_strategy_file(text)
    assert str(err.value) == message


def test_parse_strategy_rejects_unknown_keys():
    with open("fixtures/ghz3.strategy", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["extra"] = 1
    with pytest.raises(GameFormatError):
        parse_strategy_file(json.dumps(doc))


def test_parse_strategy_error_paths_cite_indices():
    with open("fixtures/ghz3.strategy", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["measurements"][1][2][0][1] = [1.0, "oops"]
    with pytest.raises(GameFormatError) as err:
        parse_strategy_file(json.dumps(doc))
    assert "measurements[1][2][0][1]" in str(err.value)


def test_parse_strategy_rejects_bad_dims():
    with pytest.raises(GameFormatError):
        parse_strategy_file(json.dumps(
            {"dims": [0], "state": {"amplitudes": []}, "measurements": []}))


def test_parse_strategy_rejects_invalid_projectors():
    doc = {
        "dims": [2],
        "state": {"amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        "measurements": [[[[[1.0, 0.0], [0.0, 0.0]],
                           [[1.0, 0.0], [0.0, 0.0]]]]],
    }
    with pytest.raises(GameFormatError):
        parse_strategy_file(json.dumps(doc))


def test_parse_strategy_density_form():
    doc = {
        "dims": [2],
        "state": {"density": [[[0.5, 0.0], [0.0, 0.0]],
                              [[0.0, 0.0], [0.5, 0.0]]]},
        "measurements": [[[[[1.0, 0.0], [0.0, 0.0]],
                           [[0.0, 0.0], [1.0, 0.0]]]]],
    }
    strategy = parse_strategy_file(json.dumps(doc))
    assert not strategy.is_pure
