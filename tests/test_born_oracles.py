"""The per-player Born rule, closed-form white noise, the correlator
transform, the success as one dot product with the game's win weights and
the stacked projector check against the paths they replaced: the
cell-by-cell vector contraction, the Kronecker product and trace, the
density matrix rebuilt around V * rho + (1 - V) * I / D, the masked row
sums and the validated noise behavior, the question-by-question projector
check, and, bit for bit, the tensordot and einsum kernels that preceded
the stored operator layouts and the Born rule run afresh on every call
that preceded each strategy's shared tables (tests/oracles.py)."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingame.algebra import AbelianGroup
from lingame.diew import _threshold, visibility_threshold
from lingame.games import (chsh_game, make_game, mermin_ghz3_game,
                           success_probability)
from lingame.errors import NoThresholdError, ValidationError
from lingame.strategies import (QuantumStrategy, _as_projector,
                                _success_pair, correlators,
                                ghz3_reference_strategy, noise_behavior,
                                noisy_success, parse_strategy_file,
                                strategy_behavior)
from lingame.tolerances import PROJECTOR_TOL

import ghz3_c4
from oracles import (oracle_behavior_table, oracle_dot_behavior,
                     oracle_einsum_noise, oracle_masked_success,
                     oracle_noise_path_success, oracle_noise_table,
                     oracle_noisy_success, oracle_projector_check,
                     oracle_success_pair, oracle_tensordot_behavior,
                     oracle_tensordot_correlators)

# (group order, local dimensions, question counts): 2 and 3 players,
# equal and unequal dimensions; d_i == |G| admits rank-one measurements.
CASES = [
    (2, (2, 2), (2, 2)),
    (2, (2, 3), (2, 3)),
    (3, (3, 2), (2, 2)),
    (3, (3, 3, 3), (2, 1, 2)),
    (2, (2, 3, 2), (2, 2, 1)),
]


def _measurement(rng, dim, outcomes, rank_one):
    """A random projective measurement: the columns of a random unitary,
    one per outcome if ``rank_one``, else split among the outcomes at
    random (so some projectors have rank 0 or above 1).  A rank-one
    projector is given as its vector, the others as matrices."""
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(gauss)
    if rank_one:
        labels = rng.permutation(dim)
    else:
        labels = rng.integers(0, outcomes, size=dim)
    family = []
    for o in range(outcomes):
        cols = unitary[:, labels == o]
        family.append(cols[:, 0] if cols.shape[1] == 1
                      else cols @ cols.conj().T)
    return family


def _strategy(rng, dims, questions, outcomes, mixed, rank_one):
    total = math.prod(dims)
    vectors = rng.normal(size=(3, total)) + 1j * rng.normal(size=(3, total))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    if mixed:
        weights = rng.dirichlet(np.ones(3))
        state = (vectors.T * weights) @ vectors.conj()
    else:
        state = vectors[0]
    measurements = [[_measurement(rng, d, outcomes, rank_one and d == outcomes)
                     for _ in range(q)]
                    for d, q in zip(dims, questions)]
    return QuantumStrategy(dims, state, measurements)


def _as_density(strategy):
    return QuantumStrategy(strategy.dims, strategy.density(),
                           strategy.measurements())


def test_born_rule_and_noise_match_oracles():
    rng = np.random.default_rng(191)
    for (g, dims, questions), mixed, rank_one in itertools.product(
            CASES, (False, True), (False, True)):
        group = AbelianGroup((g,))
        size = math.prod(questions)
        game = make_game(group, questions,
                         [(int(v),) for v in rng.integers(0, g, size)])
        strategy = _strategy(rng, dims, questions, g, mixed, rank_one)
        table = strategy_behavior(strategy, game).table
        assert np.abs(table - oracle_behavior_table(strategy, game)).max() \
            <= 1e-12
        for v in (0.0, rng.random(), 1.0):
            assert abs(noisy_success(game, strategy, v)
                       - oracle_noisy_success(game, strategy, v)) <= 1e-12


def test_noisy_success_matches_density_rebuild():
    # GHZ3 reference (rank one) and its C^4 embedding (ranks 2, 1, 1), each
    # as a pure state and as a density matrix
    game = mermin_ghz3_game()
    reference = ghz3_reference_strategy()
    embedded = parse_strategy_file(json.dumps(ghz3_c4.document()))
    for strategy in (reference, _as_density(reference),
                     embedded, _as_density(embedded)):
        table = strategy_behavior(strategy, game).table
        assert np.abs(table - oracle_behavior_table(strategy, game)).max() \
            <= 1e-12
        for v in (0.0, 0.3, 0.8, 1.0):
            assert abs(noisy_success(game, strategy, v)
                       - oracle_noisy_success(game, strategy, v)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=4), st.data())
def test_born_rule_matches_oracle_property(dims, data):
    # 2 to 4 players of local dimension 1 to 3; rank-one vectors wherever
    # d_i == |G| and rank_one is drawn, matrix projectors elsewhere
    g = data.draw(st.sampled_from((2, 3)), label="group order")
    questions = data.draw(st.lists(st.integers(1, 2), min_size=len(dims),
                                   max_size=len(dims)), label="questions")
    mixed = data.draw(st.booleans(), label="mixed")
    rank_one = data.draw(st.booleans(), label="rank_one")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    game = make_game(AbelianGroup((g,)), questions,
                     [(int(v),) for v in rng.integers(0, g, math.prod(questions))])
    strategy = _strategy(rng, dims, questions, g, mixed, rank_one)
    table = strategy_behavior(strategy, game).table
    assert np.abs(table - oracle_behavior_table(strategy, game)).max() <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 3), min_size=2, max_size=4), st.data())
def test_win_weights_match_replaced_success_paths_property(dims, data):
    # 2 to 4 players over Z2, Z3 or Z2 x Z2, pure or mixed, rank-one or
    # higher-rank projectors: the one dot product of success_probability
    # against the masked row sums; noisy_success against the path through
    # noise_behavior and the rebuilt density matrix; visibility_threshold
    # against the crossing of the rebuilt density matrix's success line
    group = AbelianGroup(data.draw(st.sampled_from(((2,), (3,), (2, 2))),
                                   label="group"))
    questions = data.draw(st.lists(st.integers(1, 2), min_size=len(dims),
                                   max_size=len(dims)), label="questions")
    mixed = data.draw(st.booleans(), label="mixed")
    rank_one = data.draw(st.booleans(), label="rank_one")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(0, 10, math.prod(questions)) + np.eye(
        math.prod(questions), dtype=int)[0]
    game = make_game(group, questions,
                     [group.element(int(v)) for v in
                      rng.integers(0, group.size, math.prod(questions))],
                     distribution=[Fraction(int(w), int(weights.sum()))
                                   for w in weights])
    strategy = _strategy(rng, dims, questions, group.size, mixed, rank_one)
    for behavior in (strategy_behavior(strategy, game),
                     noise_behavior(strategy, game)):
        assert abs(success_probability(game, behavior)
                   - oracle_masked_success(game, behavior.table)) <= 1e-14
    v = data.draw(st.floats(0.0, 1.0), label="visibility")
    assert abs(noisy_success(game, strategy, v)
               - oracle_noise_path_success(game, strategy, v)) <= 1e-14
    assert abs(noisy_success(game, strategy, v)
               - oracle_noisy_success(game, strategy, v)) <= 1e-12
    ideal = oracle_noisy_success(game, strategy, 1.0)
    base = oracle_noisy_success(game, strategy, 0.0)
    if ideal - base < 1e-3:  # a flat line has an ill-conditioned crossing
        if ideal < base - 1e-9:
            with pytest.raises(NoThresholdError):
                visibility_threshold(game, strategy, bound=base)
        return
    bound = base + data.draw(st.floats(-0.5, 0.99), label="crossing") * (
        ideal - base)
    assert abs(visibility_threshold(game, strategy, bound=bound)
               - max((bound - base) / (ideal - base), 0.0)) <= 1e-12
    with pytest.raises(NoThresholdError):
        visibility_threshold(game, strategy, bound=ideal + 0.01)


def _assert_kernels_bitwise(strategy, game):
    behavior = strategy_behavior(strategy, game)
    assert np.array_equal(behavior.table,
                          oracle_tensordot_behavior(strategy, game))
    assert np.array_equal(noise_behavior(strategy, game).table,
                          oracle_einsum_noise(strategy, game))
    assert np.array_equal(correlators(behavior, game.group).full,
                          oracle_tensordot_correlators(behavior, game.group))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=4), st.data())
def test_kernels_match_replaced_kernels_bitwise_property(dims, data):
    # 2 to 4 players of local dimension 1 to 4 over Z2, Z3, Z4 or Z2 x Z2,
    # pure or mixed; rank-one vectors wherever d_i == |G| and rank_one is
    # drawn, projectors of rank 0, 1 or more elsewhere: the behavior, the
    # noise behavior and the correlators equal the tensordot and einsum
    # kernels they replaced, bit for bit
    group = AbelianGroup(data.draw(st.sampled_from(((2,), (3,), (4,), (2, 2))),
                                   label="group"))
    questions = data.draw(st.lists(st.integers(1, 3), min_size=len(dims),
                                   max_size=len(dims)), label="questions")
    mixed = data.draw(st.booleans(), label="mixed")
    rank_one = data.draw(st.booleans(), label="rank_one")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    game = make_game(group, questions,
                     [group.element(int(v)) for v in
                      rng.integers(0, group.size, math.prod(questions))])
    _assert_kernels_bitwise(
        _strategy(rng, dims, questions, group.size, mixed, rank_one), game)


def test_golden_strategies_match_replaced_kernels_bitwise():
    game = mermin_ghz3_game()
    reference = ghz3_reference_strategy()
    embedded = parse_strategy_file(json.dumps(ghz3_c4.document()))
    for strategy in (reference, _as_density(reference),
                     embedded, _as_density(embedded)):
        _assert_kernels_bitwise(strategy, game)


def _outcome(call):
    """``repr`` of a call's result, or the type of the error it raises."""
    try:
        return repr(call())
    except NoThresholdError as err:
        return type(err)


def _assert_tables_bitwise(strategy, game, bounds):
    """The shared tables, the success pair, noisy_success and
    visibility_threshold against the Born rule run afresh per call."""
    pair = oracle_success_pair(game, strategy)
    assert (strategy_behavior(strategy, game).table.tobytes()
            == oracle_dot_behavior(strategy, game).table.tobytes())
    assert (noise_behavior(strategy, game).table.tobytes()
            == oracle_noise_table(strategy, game).tobytes())
    assert _success_pair(game, strategy) == pair
    for v in (0.0, 0.3, 0.6, 0.85, 0.95, 1.0):
        assert (noisy_success(game, strategy, v)
                == v * pair[0] + (1 - v) * pair[1])
    for bound in bounds:
        assert _outcome(lambda: visibility_threshold(game, strategy, bound)) \
            == _outcome(lambda: _threshold(*pair, bound))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(2, 3), st.data())
def test_shared_tables_match_the_per_call_born_rule_bitwise_property(players,
                                                                     data):
    # 2 or 3 players over Z2 to Z5 or Z2 x Z2, pure or mixed; rank-one
    # vectors wherever d_i == |G| and rank_one is drawn, projectors of rank
    # 0, 1 or more elsewhere; distributions with zeros: every result read
    # from the strategy's tables is == the per-call Born rule's
    group = AbelianGroup(data.draw(st.sampled_from(
        ((2,), (3,), (4,), (5,), (2, 2))), label="group"))
    dims = [data.draw(st.sampled_from((group.size, 2, 3)), label="dim")
            for _ in range(players)]
    questions = data.draw(st.lists(st.integers(1, 3), min_size=players,
                                   max_size=players), label="questions")
    mixed = data.draw(st.booleans(), label="mixed")
    rank_one = data.draw(st.booleans(), label="rank_one")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    size = math.prod(questions)
    weights = rng.integers(0, 4, size) + np.eye(size, dtype=int)[0]
    game = make_game(group, questions,
                     [group.element(int(v))
                      for v in rng.integers(0, group.size, size)],
                     distribution=[Fraction(int(w), int(weights.sum()))
                                   for w in weights])
    strategy = _strategy(rng, dims, questions, group.size, mixed, rank_one)
    _assert_tables_bitwise(strategy, game, rng.random(3).tolist())


def test_golden_strategies_match_the_per_call_born_rule_bitwise():
    game = mermin_ghz3_game()
    reference = ghz3_reference_strategy()
    embedded = parse_strategy_file(json.dumps(ghz3_c4.document()))
    for strategy in (reference, _as_density(reference),
                     embedded, _as_density(embedded)):
        _assert_tables_bitwise(strategy, game, (0.5, 0.8960197525, 1.1))


def test_noise_behavior_is_the_born_rule_on_the_maximally_mixed_state():
    # the stored marginals against tr((I/D) Pi^1 x ... x Pi^n) cell by cell
    rng = np.random.default_rng(193)
    embedded = parse_strategy_file(json.dumps(ghz3_c4.document()))
    pairs = [(embedded, mermin_ghz3_game())]
    for (g, dims, questions), rank_one in itertools.product(CASES,
                                                            (False, True)):
        game = make_game(AbelianGroup((g,)), questions,
                         [(int(v),) for v in
                          rng.integers(0, g, math.prod(questions))])
        pairs.append((_strategy(rng, dims, questions, g, False, rank_one),
                      game))
    for strategy, game in pairs:
        total = math.prod(strategy.dims)
        white = QuantumStrategy(strategy.dims, np.eye(total) / total,
                                strategy.measurements())
        assert np.abs(noise_behavior(strategy, game).table
                      - oracle_behavior_table(white, game)).max() <= 1e-12


@pytest.mark.parametrize("strategy, game", [
    (ghz3_reference_strategy(), mermin_ghz3_game()),
    (parse_strategy_file(json.dumps(ghz3_c4.document())), mermin_ghz3_game()),
    (_strategy(np.random.default_rng(7), (2,) * 4, (2,) * 4, 2, False, True),
     chsh_game(4, 2)),
], ids=["ghz3", "ghz3_c4", "chsh42"])
def test_pure_state_never_forms_density(strategy, game, monkeypatch):
    expected = oracle_behavior_table(strategy, game)

    def refuse(self):
        raise AssertionError("density() called for a pure state")

    monkeypatch.setattr(QuantumStrategy, "density", refuse)
    table = strategy_behavior(strategy, game).table
    assert np.abs(table - expected).max() <= 1e-12


def _family(rng, dim, outcomes, form):
    """A random complete family of ``outcomes`` orthogonal projectors on
    C^dim in one of the three forms QuantumStrategy reads: rank-one
    vectors (outcomes == dim), short lists of orthonormal vectors (2 <=
    outcomes, so no list holds all dim vectors) or explicit matrices."""
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(gauss)
    labels = np.concatenate([np.arange(outcomes),
                             rng.integers(0, outcomes, dim - outcomes)])
    labels = labels[rng.permutation(dim)]
    if form == "vectors":
        return [unitary[:, o] for o in range(dim)]
    if form == "lists":
        return [unitary[:, labels == o].T.copy() for o in range(outcomes)]
    cols = [unitary[:, labels == o] for o in range(outcomes)]
    return [c @ c.conj().T for c in cols]


_SHIFTS = {"small": 0.1 * PROJECTOR_TOL, "large": 10 * PROJECTOR_TOL,
           "nan": np.nan}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.data())
def test_projector_check_matches_oracle_property(dims, data):
    # Complete families in every form, then a few entries moved by 0.1x
    # (accepted) or 10x (rejected) PROJECTOR_TOL or set to NaN (rejected):
    # the stacked check rejects the (player, question) list of the oracle.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    measurements, forms = [], []
    for d in dims:
        k = data.draw(st.integers(1, d), label="outcomes")
        allowed = ["matrices"] + ["vectors"] * (k == d) + ["lists"] * (k >= 2)
        q = data.draw(st.integers(1, 3), label="questions")
        row = [data.draw(st.sampled_from(allowed)) for _ in range(q)]
        measurements.append([_family(rng, d, k, f) for f in row])
        forms.append(row)
    moved = set()
    for _ in range(data.draw(st.integers(0, 3), label="shifts")):
        i = data.draw(st.integers(0, len(dims) - 1))
        x = data.draw(st.integers(0, len(forms[i]) - 1))
        family = measurements[i][x]
        raw = family[data.draw(st.integers(0, len(family) - 1))]
        if raw.size == 0:
            continue
        kind = data.draw(st.sampled_from(sorted(_SHIFTS)))
        index = tuple(data.draw(st.integers(0, n - 1)) for n in raw.shape)
        raw[index] = raw[index] + _SHIFTS[kind]
        if kind != "small":
            moved.add((i, x))
    expected = oracle_projector_check(dims, measurements)
    assert expected == sorted(moved)
    state = np.zeros(math.prod(dims), dtype=complex)
    state[0] = 1.0
    if expected:
        with pytest.raises(ValidationError) as err:
            QuantumStrategy(dims, state, measurements)
        assert f"(player, question) {expected} are not" in str(err.value)
        return
    strategy = QuantumStrategy(dims, state, measurements)
    for i, (stack, d) in enumerate(zip(strategy.measurements(), dims)):
        assert stack.shape == (len(forms[i]), len(measurements[i][0]), d, d)
        assert not stack.flags.writeable
        for x, family in enumerate(measurements[i]):
            for o, raw in enumerate(family):
                assert np.array_equal(stack[x, o],
                                      _as_projector(raw, d, "")[0])
