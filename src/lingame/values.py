"""Exact game values under classical, hybrid-nonlocal, and no-signaling
models.

All optimizations run in integer arithmetic on a common denominator of
the distribution, so returned values are exact rationals.  Witnesses are
deterministic: enumeration order is lexicographic and ties keep the
earliest candidate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .games import (
    Behavior,
    DeterministicStrategy,
    answer_sums,
    success_probability,  # noqa: F401  (re-exported convenience)
)
from .tolerances import CLASSICAL_ENUMERATION_CAP


def _integer_weights(game):
    """Distribution as exact integer weights over a common denominator."""
    den = math.lcm(*[p.denominator for p in game.distribution])
    weights = [int(p * den) for p in game.distribution]
    return weights, den


def _weights_array(weights):
    if max(weights) < 2**53:
        return np.array(weights, dtype=np.int64)
    return np.array(weights, dtype=object)


def _group_index_tables(group):
    g = group.size
    add = np.empty((g, g), dtype=np.intp)
    sub = np.empty((g, g), dtype=np.intp)
    for i, a in enumerate(group.elements()):
        for j, b in enumerate(group.elements()):
            add[i, j] = group.index(group.add(a, b))
            sub[i, j] = group.index(group.sub(a, b))
    return add, sub


@dataclass(frozen=True)
class ClassicalResult:
    """Exact classical value and a deterministic strategy attaining it."""

    value: Fraction
    strategy: DeterministicStrategy


def classical_value(game, cap=CLASSICAL_ENUMERATION_CAP):
    """Exact maximum winning probability over deterministic strategies.

    Players 2..n are enumerated outright; player 1's best answer is then
    chosen greedily per question (exact, because the objective splits over
    player 1's questions).  Ties keep the smallest element in enumeration
    order.  Enumerating more than ``cap`` assignments raises
    ResourceLimitError.
    """
    group = game.group
    g = group.size
    n = game.players
    questions = game.question_counts

    required = 1
    for q in questions[1:]:
        required *= g**q
    if required > cap:
        raise ResourceLimitError(
            f"classical enumeration needs {required} assignments, cap is {cap}",
            required=required, cap=cap)

    weights, den = _integer_weights(game)
    w = _weights_array(weights)
    add_idx, sub_idx = _group_index_tables(group)
    f_idx = game.predicate_indices()
    grid = np.array(game.inputs(), dtype=np.intp)
    rows_by_q1 = [np.nonzero(grid[:, 0] == q)[0] for q in range(questions[0])]

    best_total = -1
    best_combo = None
    best_player1 = None
    # One table per player 2..n: a tuple of element indices, one per question.
    rest_tables = [itertools.product(range(g), repeat=q) for q in questions[1:]]
    for combo in itertools.product(*rest_tables):
        rest = np.zeros(len(grid), dtype=np.intp)
        for i, table in enumerate(combo, start=1):
            answers = np.asarray(table, dtype=np.intp)[grid[:, i]]
            rest = add_idx[rest, answers]
        target = sub_idx[f_idx, rest]
        total = 0
        player1 = []
        for rows in rows_by_q1:
            wins = np.zeros(g, dtype=w.dtype)
            np.add.at(wins, target[rows], w[rows])
            a1 = int(np.argmax(wins))
            player1.append(a1)
            total += int(wins[a1])
        if total > best_total:
            best_total = total
            best_combo = combo
            best_player1 = tuple(player1)

    elements = group.elements()
    outputs = (tuple(elements[a] for a in best_player1),)
    outputs += tuple(tuple(elements[a] for a in table) for table in best_combo)
    return ClassicalResult(Fraction(best_total, den),
                           DeterministicStrategy(outputs))


def no_signaling_value(game):
    """No-signaling teams win every linear game: the behavior that answers
    uniformly over tuples summing to f(x) is no-signaling and wins with
    probability one."""
    group = game.group
    n = game.players
    wins = answer_sums(group, n) == game.predicate_indices()[:, None]
    table = np.where(wins, 1.0 / group.size ** (n - 1), 0.0)
    return Fraction(1), Behavior(group, game.question_counts, table)


def svetlichny_value(game, lone=None, cap=CLASSICAL_ENUMERATION_CAP):
    """Exact hybrid value where two players answer jointly and the third
    is classical, correlated only by shared randomness.

    ``lone`` picks the solo player; by default the value is the maximum
    over the three bipartitions.  For each deterministic assignment of the
    solo player, the pair's best joint answer sum is chosen greedily per
    joint question (exact for linear games, where only the pair's answer
    sum matters).
    """
    if game.players != 3:
        raise ValidationError(
            "hybrid bipartition values are implemented for 3 players")
    if lone is None:
        lones = (0, 1, 2)
    else:
        if lone not in (0, 1, 2):
            raise ValidationError(f"lone player must be 0, 1 or 2, got {lone!r}")
        lones = (lone,)

    group = game.group
    g = group.size
    weights, den = _integer_weights(game)
    _, sub_idx = _group_index_tables(group)
    f_idx = game.predicate_indices()
    grid = np.array(game.inputs(), dtype=np.intp)

    best = 0
    for solo in lones:
        q_solo = game.question_counts[solo]
        required = g**q_solo
        if required > cap:
            raise ResourceLimitError(
                f"solo-player enumeration needs {required} assignments, "
                f"cap is {cap}", required=required, cap=cap)
        pair = [i for i in range(3) if i != solo]
        q_a, q_b = (game.question_counts[pair[0]], game.question_counts[pair[1]])
        jq = grid[:, pair[0]] * q_b + grid[:, pair[1]]
        w = _weights_array(weights)
        for c in itertools.product(range(g), repeat=q_solo):
            c_on_grid = np.asarray(c, dtype=np.intp)[grid[:, solo]]
            target = sub_idx[f_idx, c_on_grid]
            wins = np.zeros((q_a * q_b, g), dtype=w.dtype)
            np.add.at(wins, (jq, target), w)
            best = max(best, int(wins.max(axis=1).sum()))
    return Fraction(best, den)


@dataclass(frozen=True)
class SeparabilityReport:
    """Outcome of the additive-separability test for uniform games."""

    separable: bool
    offsets: tuple | None       # offsets[i][x_i] is theta_i(x_i), with theta_i(0) = 0
    constant: tuple | None      # f(0, ..., 0)
    strategy: DeterministicStrategy | None


def separability_check(game):
    """Decide whether f(x) = sum_i theta_i(x_i) + const, and if so extract
    a perfect classical strategy.

    Tests the difference relations: for each player i and question x_i,
    f with x_i substituted minus f with 0 substituted must not depend on
    the other players' questions.  The common difference is theta_i(x_i).
    Requires the uniform total-function setting, where passing all
    relations is equivalent to separability and to classical value 1.
    """
    uniform = Fraction(1, game.n_inputs)
    if any(p != uniform for p in game.distribution):
        raise ValidationError(
            "separability analysis applies to uniform total-function games")

    group = game.group
    n = game.players
    offsets = []
    separable = True
    for i in range(n):
        others = [range(q) for j, q in enumerate(game.question_counts) if j != i]
        theta = [group.identity]
        for xi in range(1, game.question_counts[i]):
            delta = None
            for rest in itertools.product(*others):
                x_hi = rest[:i] + (xi,) + rest[i:]
                x_lo = rest[:i] + (0,) + rest[i:]
                d = group.sub(game.predicate_value(x_hi),
                              game.predicate_value(x_lo))
                if delta is None:
                    delta = d
                elif d != delta:
                    separable = False
                    break
            if not separable:
                break
            theta.append(delta)
        if not separable:
            break
        offsets.append(tuple(theta))

    if not separable:
        return SeparabilityReport(False, None, None, None)

    constant = game.predicate_value((0,) * n)
    # Base answers summing to f(0,...,0): give it all to player 1.
    tables = []
    for i in range(n):
        base = constant if i == 0 else group.identity
        tables.append(tuple(group.add(base, t) for t in offsets[i]))
    return SeparabilityReport(True, tuple(offsets), constant,
                              DeterministicStrategy(tuple(tables)))
