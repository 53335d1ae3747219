"""The per-player Born rule and closed-form white noise against the slow
paths they replaced: the cell-by-cell vector contraction, the Kronecker
product and trace, and the density matrix rebuilt around
V * rho + (1 - V) * I / D (tests/oracles.py)."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingame.algebra import AbelianGroup
from lingame.games import chsh_game, make_game, mermin_ghz3_game
from lingame.strategies import (QuantumStrategy, ghz3_reference_strategy,
                                noisy_success, parse_strategy_file,
                                strategy_behavior)

import ghz3_c4
from oracles import oracle_behavior_table, oracle_noisy_success

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
