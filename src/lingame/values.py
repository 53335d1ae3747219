"""Exact game values under classical, hybrid-nonlocal, and no-signaling
models.

All optimizations run in integer arithmetic on a common denominator of
the distribution, so returned values are exact rationals.  Witnesses are
deterministic: enumeration order is lexicographic and ties keep the
earliest candidate.
"""

from __future__ import annotations

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


# Entries of one chunk's largest array, (assignments, players, inputs,
# residues) answers or (assignments, rows, answers) scores: 2 MiB of int64.
_CHUNK_ENTRIES = 1 << 18


def _best_tables(game, fixed, cap):
    """Best deterministic play when the players in ``fixed`` enumerate
    their answer tables and the other players' answer sum is chosen
    greedily per joint question of theirs, a free row (exact, because the
    score splits over the free rows).

    Returns (value, digits, answers): the exact winning probability, the
    fixed players' tables as one row of element indices (player by
    player), and the greedy element index per free row.  Assignments run
    lexicographically; ties keep the first one and the smallest answer.
    Adding t to every answer of a fixed player and -t to every free sum
    keeps the score, so each fixed player answers the identity on
    question 0, as the first optimum does.  ``cap`` bounds the unreduced
    count |G|^(questions of the fixed players).
    """
    group, g = game.group, game.group.size
    questions = [game.question_counts[i] for i in fixed]
    required = g ** sum(questions)
    if required > cap:
        raise ResourceLimitError(
            f"enumerating the tables of players {list(fixed)} needs "
            f"{required} assignments, cap is {cap}",
            required=required, cap=cap)

    grid = game.grid.T
    free = [i for i in range(game.players) if i not in fixed]
    shape = [game.question_counts[i] for i in free]
    rows = np.ravel_multi_index(tuple(grid[free]), shape)
    n_rows = math.prod(shape)
    elements = np.array(group.elements(), dtype=np.intp)
    # Elements enumerate lexicographically: an index is row-major.
    strides = [math.prod(group.orders[j + 1:])
               for j in range(len(group.orders))]
    # cols[j, x]: digit column of fixed player j's answer on input x.
    offsets = np.cumsum([0] + questions[:-1])
    cols = offsets[:, None] + grid[list(fixed)]
    unpinned = [o + x for o, q in zip(offsets, questions) for x in range(1, q)]
    radix = g ** np.arange(len(unpinned) - 1, -1, -1)

    chunk = max(1, _CHUNK_ENTRIES // max(cols.size * len(strides), n_rows * g))
    count = g ** len(unpinned)
    best_total, best = -1, None
    for start in range(0, count, chunk):
        index = np.arange(start, min(start + chunk, count))
        digits = np.zeros((len(index), sum(questions)), dtype=np.intp)
        digits[:, unpinned] = index[:, None] // radix % g
        answer = elements[digits[:, cols]].sum(axis=1)
        rest = ((game.residues - answer) % group.orders) @ strides
        scores = np.zeros((len(index), n_rows, g), dtype=game.weights.dtype)
        np.add.at(scores, (np.arange(len(index))[:, None], rows, rest),
                  game.weights)
        totals = scores.max(axis=2).sum(axis=1)
        i = int(np.argmax(totals))
        if totals[i] > best_total:
            best_total = int(totals[i])
            best = digits[i], scores[i].argmax(axis=1)
    return Fraction(best_total, game.den), best[0], best[1]


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
    order.  Each of players 2..n answers the identity on question 0, which
    loses nothing because player 1 can absorb any shift; ``cap`` still
    bounds the unreduced count |G|^(Q_2 + ... + Q_n), and exceeding it
    raises ResourceLimitError.
    """
    value, digits, player1 = _best_tables(game, range(1, game.players), cap)
    elements = game.group.elements()
    tables = [player1] + np.split(digits,
                                  np.cumsum(game.question_counts[1:-1]))
    outputs = tuple(tuple(elements[a] for a in table) for table in tables)
    return ClassicalResult(value, DeterministicStrategy(outputs))


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
    sum matters).  The solo player answers the identity on question 0, as
    in ``classical_value``; ``cap`` bounds the unreduced count |G|^Q_solo.
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

    return max(_best_tables(game, (solo,), cap)[0] for solo in lones)
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

    Tests the difference relations: for each player i, f minus f with x_i
    replaced by 0 must not depend on the other players' questions, and
    that difference is theta_i(x_i).  Requires the uniform total-function
    setting, where passing all relations is equivalent to separability and
    to classical value 1.
    """
    if not game.is_uniform:
        raise ValidationError(
            "separability analysis applies to uniform total-function games")

    orders = np.array(game.group.orders)
    f = game.residues.reshape(game.question_counts + (len(orders),))
    offsets = []
    for i in range(game.players):
        diff = (f - f.take([0], axis=i)) % orders
        # theta_i: the differences where every other player asks question 0
        theta = diff[tuple(slice(None) if j == i else slice(1)
                           for j in range(game.players))]
        if (diff != theta).any():
            return SeparabilityReport(False, None, None, None)
        offsets.append(theta.reshape(-1, len(orders)))

    def elements(rows):
        return tuple(map(tuple, (rows % orders).tolist()))

    # Base answers summing to f(0,...,0): give it all to player 1.
    tables = [offsets[0] + game.residues[0]] + offsets[1:]
    strategy = DeterministicStrategy(tuple(map(elements, tables)))
    return SeparabilityReport(True, tuple(map(elements, offsets)),
                              game.predicate[0], strategy)
