"""Device-independent witnesses of genuine tripartite entanglement.

A three-player behavior is biseparable for the split where player X plays
alone if it mixes strategies in which X is uncorrelated with the other
two.  The best such behavior obeys

    omega_B^X = max_c (1/|G|) (1 + sqrt(Q_i Q_j) sum_{k != e} ||Phi_k^B(c)||)

where c assigns one fixed answer to each of X's questions and

    Phi_k^B(c)[x_i, x_j] = sum_{x_X} p(x) chi_k(f(x) - c(x_X)).

Observed success above omega_B = max over the three splits certifies
genuine tripartite entanglement from statistics alone.

Fixing c multiplies the slice M[k, l] of ``qbounds.game_tensor`` at lone
question l by a phase, Phi_k^B(c) = sum_l conj chi_k(c_l) M[k, l].  In a
group of exponent e (the lcm of its cyclic orders) chi_k(c_l) is an e-th
root of unity, so Phi_k^B(c) depends on c only through its phase indices
j_k(c_l) in Z_e.  A block of tables, a fixed prefix with all |G|^s
suffixes, takes one SVD per suffix phase vector, e^s of them, and each
table reads its norms through its suffix's vector: e^(Q-1) SVDs a
character instead of |G|^(Q-1) when the search fits one block (e = p for
GF(p^m); e = |G| for a cyclic group, one SVD per table).  As in
``qbounds``, only one representative k of each conjugate pair {k, -k} is
built: Phi_{-k}^B(c) = conj Phi_k^B(c) has the same norm.  The search
and ``biseparable_matrix`` sum every Phi_k^B(c) one lone question at a
time from question 0, so a report does not depend on the block size.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

# Called through their modules: per-layer tracing wraps them, tests patch them.
from . import strategies, values
from .errors import NoThresholdError, ValidationError
from .qbounds import character_norms, character_slice, first_optimum, game_tensor
from .tolerances import BISEPARABLE_ASSIGNMENT_CAP, TIE_TOL, WITNESS_MARGIN


def _check_tripartite(game):
    if game.players != 3:
        raise ValidationError(
            f"biseparable analysis needs exactly 3 players, got {game.players}")


def _check_lone(lone):
    if lone not in (0, 1, 2):
        raise ValidationError(f"lone player must be 0, 1 or 2, got {lone!r}")


def _lone_slices(game, lone):
    """M[k, l, x_i, x_j]: ``game_tensor`` at lone question l, pair i < j."""
    pair = (1 + i for i in range(3) if i != lone)
    return game_tensor(game).transpose(0, 1 + lone, *pair)


@lru_cache(maxsize=32)  # bounded: an index has (|G| - 1) |G|^s entries
def _phase_layout(group, s):
    """phases[r, j] = conj chi_r(a) for the elements a of phase index j
    under representative r, as ``character_pairs.table`` holds it; and for
    the suffixes of s answers, index[k - 1, u] = (k - 1) e^s + (position
    of suffix u's phase vector under k's representative among the e^s in
    lexicographic order), which takes table norms from phase-vector ones."""
    pairs, e = group.character_pairs, group.exponent
    phases = np.zeros((len(pairs.reps), e), dtype=complex)
    np.put_along_axis(phases, pairs.phase, pairs.table.conj(), axis=1)
    v = np.zeros((len(pairs.reps), 1), dtype=np.intp)
    for _ in range(s):
        v = (v[:, :, None] * e + pairs.phase[:, None]).reshape(len(v), -1)
    index = v[pairs.slot] + np.arange(group.size - 1)[:, None] * e ** s
    for a in (phases, index):
        a.setflags(write=False)
    return phases, index


def _answer_sum(m, group, answers):
    """sum_l conj chi(c_l) M[:, l] over the answers (element indices) of
    the first lone questions, added left to right from question 0."""
    conj = group.character_pairs.table.conj()
    b = conj[:, answers[0], None, None] * m[:, 0]
    for l, a in enumerate(answers[1:], 1):
        b = b + conj[:, a, None, None] * m[:, l]
    return b


def _phase_blocks(game, lone):
    """(stack, index) per block of the lone player's tables answering the
    identity on question 0, in lexicographic order: stack[r, v] is the
    matrix of the block's prefix and suffix phase vector v, and ``index``
    is ``_phase_layout``'s.  s is the largest (or 0) with
    reps e^s Q_i Q_j + |G|^(s+1) <= ``values._CHUNK_ENTRIES``.  The
    prefix's ``_answer_sum`` gains the s suffix terms one level at a time:
    ``_answer_sum``'s order, whatever s is."""
    group = game.group
    g, e, q = group.size, group.exponent, game.question_counts[lone]
    m = _lone_slices(game, lone)
    reps, shape = len(m), m.shape[2:]
    s = q - 1
    while s and reps * e ** s * m[0, 0].size + g ** (s + 1) > values._CHUNK_ENTRIES:
        s -= 1
    phases, index = _phase_layout(group, s)
    steps = [phases[:, :, None, None] * m[:, l, None] for l in range(q - s, q)]
    for prefix in itertools.product(range(g), repeat=q - 1 - s):
        b = _answer_sum(m, group, (0,) + prefix)[:, None]
        for step in steps:
            b = (b[:, :, None] + step[:, None]).reshape((reps, -1) + shape)
        yield b, index


def biseparable_matrix(game, lone, k, assignment):
    """Game matrix of the two joint players once the lone player's answers
    are fixed by ``assignment`` (one group element per lone question)."""
    _check_tripartite(game)
    _check_lone(lone)
    k = game.group.coerce(k)
    if k == game.group.identity:
        raise ValidationError("the trivial character gives no constraint")
    assignment = [game.group.index(game.group.coerce(a)) for a in assignment]
    if len(assignment) != game.question_counts[lone]:
        raise ValidationError(
            f"assignment has {len(assignment)} entries, lone player has "
            f"{game.question_counts[lone]} questions")
    return character_slice(_answer_sum(_lone_slices(game, lone), game.group,
                                       assignment), game.group, k)


@dataclass(frozen=True)
class BiseparablePartition:
    """Bound for one lone-player split."""

    lone: int
    assignment: tuple
    norms: dict
    raw: float
    value: float


@dataclass(frozen=True)
class BiseparableReport:
    partitions: tuple
    raw_bound: float
    bound: float
    best_lone: int

    def partition(self, lone):
        for part in self.partitions:
            if part.lone == lone:
                return part
        raise KeyError(lone)


def biseparable_bound_partition(game, lone, cap=BISEPARABLE_ASSIGNMENT_CAP):
    """Maximize the split bound over all answer tables c of the lone
    player, enumerated lexicographically; the first table within TIE_TOL
    of the maximum is reported, with the maximum as its raw bound.

    Adding t to every lone answer multiplies each Phi_k^B(c) by the phase
    conj chi_k(t) and leaves its norm unchanged, so only the tables
    answering the identity on question 0 are searched: the first of every
    shift class, and so the first optimum.  They run in the blocks of
    ``_phase_blocks``, each block's norms from one
    ``qbounds.character_norms`` call on its phase vectors' matrices.
    ``cap`` bounds the unreduced count |G|^Q_lone."""
    _check_tripartite(game)
    _check_lone(lone)
    values.check_cap(game, (lone,), cap)
    g = game.group.size
    factor = math.sqrt(game.n_inputs // game.question_counts[lone])
    # The first table within TIE_TOL of the maximum beats every table
    # before it, so it is among the tables that raise the running maximum;
    # of those, (raw, table, norms) are kept while within TIE_TOL of it.
    records, top, start = [], -math.inf, 0
    for stack, index in _phase_blocks(game, lone):
        sigma = character_norms(stack, game.group).take(index)
        total = reduce(np.add, sigma)  # row by row, as qbounds sums them
        for t, raw in enumerate(((1.0 + factor * total) / g).tolist()):
            if raw > top:
                top = raw
                records = [r for r in records if top - r[0] <= TIE_TOL]
                records.append((raw, start + t, sigma[:, t].tolist()))
        start += sigma.shape[1]
    _, best, norms = records[0]
    assignment = values.table_digits(game, (lone,), best)[0]
    return BiseparablePartition(
        lone=lone, assignment=tuple(map(game.group.element, assignment)),
        norms=dict(zip(game.group.elements()[1:], norms)),
        raw=top, value=min(top, 1.0))


def biseparable_bound(game, cap=BISEPARABLE_ASSIGNMENT_CAP):
    """Largest winning probability of biseparable (hybrid) strategies,
    maximized over the three lone-player splits; the first split within
    TIE_TOL of the maximum is reported as the best."""
    _check_tripartite(game)
    partitions = tuple(biseparable_bound_partition(game, lone, cap=cap)
                       for lone in range(3))
    best, raw = first_optimum([part.raw for part in partitions], largest=True)
    return BiseparableReport(partitions=partitions, raw_bound=raw,
                             bound=min(raw, 1.0), best_lone=best)


class Verdict(enum.Enum):
    GENUINE_TRIPARTITE_ENTANGLEMENT = "genuine tripartite entanglement"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class WitnessResult:
    verdict: Verdict
    observed: float
    bound: float
    gap: float
    report: BiseparableReport


def witness_verdict(game, observed, margin=WITNESS_MARGIN,
                    report: Optional[BiseparableReport] = None):
    """Compare an observed winning probability against the biseparable
    bound.  Certification requires clearing the bound by ``margin``."""
    observed, margin = float(observed), float(margin)
    if not 0.0 <= observed <= 1.0 + 1e-12:
        raise ValidationError(
            f"observed success must be a probability, got {observed}")
    if not 0.0 <= margin < math.inf:
        raise ValidationError(
            f"margin must be finite and non-negative, got {margin}")
    if report is None:
        report = biseparable_bound(game)
    gap = observed - report.bound
    if gap > margin:
        verdict = Verdict.GENUINE_TRIPARTITE_ENTANGLEMENT
    else:
        verdict = Verdict.INCONCLUSIVE
    return WitnessResult(verdict=verdict, observed=observed,
                         bound=report.bound, gap=gap, report=report)


def _threshold(ideal, base, bound):
    """``visibility_threshold`` from the successes and the bound."""
    if ideal <= base + 1e-12:
        raise NoThresholdError(
            f"ideal success {ideal} does not exceed the noise baseline {base}")
    v = (bound - base) / (ideal - base)
    if v > 1.0:
        raise NoThresholdError(
            f"success {ideal} stays below the bound {bound} at every visibility")
    return max(v, 0.0)


def visibility_threshold(game, strategy, bound=None):
    """Least visibility V at which mixing a strategy's state with white
    noise still beats the biseparable bound.

    The noisy success V * omega + (1 - V) * omega_noise is affine in V
    (see ``strategies.noisy_success``), where omega_noise is the success
    of white noise under the strategy's measurements: 1/|G| for rank-one
    projectors, and set by the projector ranks in general; both come from
    one Born-rule behavior.  The threshold solving V * omega + (1 - V) *
    omega_noise = omega_B is (omega_B - omega_noise) / (omega -
    omega_noise), clamped below at 0, for any projector ranks.  A strategy
    whose threshold would exceed 1 never beats the bound, and
    NoThresholdError is raised.

    ``strategy`` may also be the noiseless success probability itself, any
    real number but a bool, for thresholds against an externally evaluated
    value.  Its baseline is then 1/|G|, the noise success of rank-one
    measurements; pass the strategy itself when its projectors may have
    higher rank.  Anything else raises ValidationError.
    """
    if isinstance(strategy, numbers.Real) and not isinstance(strategy, bool):
        ideal, base = float(strategy), 1.0 / game.group.size
    elif isinstance(strategy, strategies.QuantumStrategy):
        ideal, base = strategies._success_pair(game, strategy)
    else:
        raise ValidationError(f"expected a QuantumStrategy or a real success "
                              f"probability, got {strategy!r}")
    if bound is None:
        bound = biseparable_bound(game).bound
    return _threshold(ideal, base, float(bound))
