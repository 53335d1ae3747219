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
    DeterministicStrategy,
    _side,
    answer_sums,
    success_probability,  # noqa: F401  (re-exported convenience)
    target_behavior,
)
from .qbounds import shared_sides
from .tolerances import CLASSICAL_ENUMERATION_CAP


# Entries of one block: int64 scores here; complex matrices and index in diew.
_CHUNK_ENTRIES = 1 << 18
NO_SIGNALING_VALUE = Fraction(1)  # of every linear game: see no_signaling_value


def check_cap(game, fixed, cap):
    """ResourceLimitError when the unreduced count of the answer tables of
    the players in ``fixed``, |G|^(their questions), exceeds ``cap``."""
    required = game.group.size ** sum(game.question_counts[i] for i in fixed)
    if required > cap:
        raise ResourceLimitError(
            f"enumerating the tables of players {list(fixed)} needs "
            f"{required} assignments, cap is {cap}",
            required=required, cap=cap)


def lone_players(game, lones, cap=math.inf):
    """The lone players of a three-player game's splits, as Python ints,
    each one's ``check_cap`` passed before any search: ``lones`` read by
    ``games._side``, or all three when it is None."""
    if game.players != 3:
        raise ValidationError(
            f"a lone player and a pair need exactly 3 players, got {game.players}")
    lones = (0, 1, 2) if lones is None else _side(3, lones, "lone player")
    for solo in lones:
        check_cap(game, (solo,), cap)
    return lones


def fold_tables(game, fixed, cap):
    """Iterator over the blocks H'[r, tables, free rows] of the answer
    histogram once the players in ``fixed`` play answer tables, for every
    table in lexicographic order: entry [r, t, y] is the weight of the
    questions in free row y where f(x) minus the answers of table t is
    element r.  Each fixed player answers the identity on question 0
    (see ``table_digits``).  ``check_cap`` runs at the call, before any
    block is built.

    The histogram H[r, fixed players' axes, free rows] folds out one
    player at a time: table c gives H'[r, ...] = sum_x H[r + c(x), x, ...],
    an outer sum of the player's question slices shifted by every answer
    (one gather).  Folds run depth-first in table order, each question
    split answer by answer while the tables below it exceed
    ``_CHUNK_ENTRIES``.  Only the exact values fold; the biseparable
    bound reads its tables' matrices off ``qbounds.game_tensor``.
    """
    check_cap(game, fixed, cap)
    g = game.group.size
    questions = [game.question_counts[i] for i in fixed]
    free = [i for i in range(game.players) if i not in fixed]
    n_rows = math.prod(game.question_counts[i] for i in free)
    shift = answer_sums(game.group, 2).reshape(g, g)  # index of a + c at [c, a]

    def fold(partial, shifted, j, tables):
        # partial: (|G|, tables before j, of j's first questions, later
        # axes); shifted: j's other questions by answer; tables below each.
        while not len(shifted):
            if j + 1 == len(questions):
                yield partial.reshape(g, -1, n_rows)
                return
            j += 1
            a = partial.reshape(g, -1, questions[j], partial.shape[3] // questions[j])
            partial, shifted = a[:, :, :1], a[:, :, 1:][shift].transpose(3, 1, 2, 0, 4)
        whole = tables * n_rows * g <= _CHUNK_ENTRIES
        for part in [shifted[0]] if whole else np.split(shifted[0], g, axis=2):
            step = np.add(partial[:, :, :, None], part[:, :, None], order="C")
            yield from fold(step.reshape(g, step.shape[1], -1, step.shape[4]),
                            shifted[1:], j, tables // g)

    hist = game.histogram.transpose([game.players] + list(fixed) + free)
    return fold(hist.reshape(g, 1, 1, -1), (), -1,
                g ** (sum(questions) - len(questions)))


def table_digits(game, fixed, index):
    """The answer tables, as element indices, at position ``index`` of the
    enumeration of ``fold_tables``.  Adding t to every answer of a fixed
    player shifts each block's r axis by t, so only the tables answering
    the identity on question 0 are enumerated: the first of every shift
    class."""
    questions = [game.question_counts[i] for i in fixed]
    index, digits = int(index), []
    for _ in range(sum(questions) - len(questions)):
        index, digit = divmod(index, game.group.size)
        digits.append(digit)
    # digits runs from the last answer back; pop() reads it from the first.
    return [[0] + [digits.pop() for _ in range(q - 1)] for q in questions]


def _best_tables(game, fixed, cap):
    """Best deterministic play when the players in ``fixed`` enumerate
    their answer tables and the other players' answer sum is chosen
    greedily per joint question of theirs, a free row (exact, because the
    score splits over the free rows).

    Returns (value, tables, answers): the exact winning probability, each
    fixed player's table as element indices, and the greedy element index
    per free row.  Assignments run lexicographically; ties keep the first
    one and the smallest answer.  Adding t to every answer of a fixed
    player and -t to every free sum keeps the score, so each fixed player
    answers the identity on question 0, as the first optimum does.
    ``cap`` bounds the unreduced count |G|^(questions of the fixed players).

    The tables' blocks come from ``fold_tables``; r outermost makes the
    maximum over r elementwise.  ``classical_value`` calls it; the oracle
    tests compare its tables and answers with the chunked engine's.
    """
    start, best_total, best = 0, -1, None
    for scores in fold_tables(game, fixed, cap):
        totals = scores.max(axis=0).sum(axis=1)
        i = int(totals.argmax())
        if totals[i] > best_total:
            best_total, best = int(totals[i]), (start + i, scores[:, i].argmax(axis=0))
        start += scores.shape[1]
    return Fraction(best_total, game.den), table_digits(game, fixed, best[0]), best[1]


@dataclass(frozen=True)
class ClassicalResult:
    """Exact classical value and a deterministic strategy attaining it."""

    value: Fraction
    strategy: DeterministicStrategy


def classical_value(game, cap=CLASSICAL_ENUMERATION_CAP):
    """Exact maximum winning probability over deterministic strategies.

    Players 2..n fold their tables out of the game's answer histogram;
    player 1's best answer is then chosen greedily per question (exact,
    because the objective splits over player 1's questions).  Ties keep
    the first table and the smallest element in enumeration order.  Each
    of players 2..n answers the identity on question 0, which loses
    nothing because player 1 can absorb any shift; ``cap`` still bounds
    the unreduced count |G|^(Q_2 + ... + Q_n), and exceeding it raises
    ResourceLimitError.
    """
    value, tables, player1 = _best_tables(game, range(1, game.players), cap)
    outputs = tuple(tuple(map(game.group.element, t))
                    for t in [player1.tolist()] + tables)
    return ClassicalResult(value, DeterministicStrategy(outputs))


def no_signaling_value(game):
    """No-signaling teams win every linear game: the behavior that answers
    uniformly over tuples summing to f(x) is no-signaling and wins with
    probability one."""
    return NO_SIGNALING_VALUE, target_behavior(
        game.group, game.question_counts, game.predicate_indices())


def svetlichny_value(game, lone=None, cap=CLASSICAL_ENUMERATION_CAP):
    """Exact hybrid value where two players answer jointly and the third
    is classical, correlated only by shared randomness: the value only,
    with no witness strategy.

    ``lone`` picks the solo player; by default the value is the maximum
    over the three bipartitions.  Each solo player's tables fold out of
    the game's one answer histogram, as in ``classical_value``, and the
    pair's best joint answer sum scores per joint question (exact for
    linear games, where only the pair's answer sum matters).  Only each
    block's best integer score is kept: no table is decoded.
    The solo player answers the identity on question 0; ``cap`` still
    bounds the unreduced count |G|^Q_solo of each, before any fold.  By
    default one fold runs per key of ``qbounds.shared_sides``: solo
    players whose sides share a key have the same value.
    """
    lones = lone_players(game, None if lone is None else (lone,), cap)
    if lone is None:  # sides sharing a key fold the same histogram
        lones = sorted(set(shared_sides(game.player_classes, lone=True)))
    best = max(int(scores.max(axis=0).sum(axis=1).max())
               for solo in lones for scores in fold_tables(game, (solo,), cap))
    return Fraction(best, game.den)


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
