"""Norm-based upper bounds on the quantum success of linear games.

For a bipartition S | S^c of the players and a nontrivial character
index k, the game matrix is

    Phi_k^S[x_S, x_{S^c}] = p(x) * chi_k(f(x)),

rows and columns indexed lexicographically by the question tuples on each
side.  Quantum strategies obey

    omega <= min_S (1/|G|) * (1 + sqrt(Q_1 ... Q_n) * sum_{k != e} ||Phi_k^S||)

with ||.|| the largest singular value, so the right-hand side minimized
over the 2^(n-1) - 1 inequivalent bipartitions is a certified upper
bound on every quantum (hence every classical) strategy.

Since p(x) is real and conj chi_k = chi_{-k}, Phi_{-k}^S = conj Phi_k^S
has the norm of Phi_k^S, and Phi_k^S is real when k = -k.  So one matrix
is built per conjugate pair {k, -k} (``AbelianGroup.character_pairs``),
the real ones go through a real SVD, and ``character_norms`` expands the
norms back to every nontrivial k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .games import _prime_power
from .linalg import max_singular_value
from .tolerances import TIE_TOL


def _validate_partition(game, s_players):
    try:
        s = tuple(sorted(set(int(i) for i in s_players)))
    except TypeError:
        raise ValidationError(f"bad partition {s_players!r}")
    if not s or len(s) >= game.players:
        raise ValidationError(
            f"partition must be a nonempty proper subset of the players, "
            f"got {s_players!r}")
    if any(not 0 <= i < game.players for i in s):
        raise ValidationError(
            f"partition {s_players!r} names players outside 0..{game.players - 1}")
    return s


def game_tensor(game):
    """The character-weighted game tensor

        A[k, x_1, ..., x_n] = p(x) * chi_k(f(x)),

    one slice per representative k of a conjugate pair of nontrivial
    characters, in the order of ``character_pairs.reps``: the real
    characters first, whose slices have imaginary part 0.  Every game
    matrix, for a bipartition or for a lone player's fixed answers, is a
    reshape or a contraction of A, or the conjugate of one."""
    chi = game.group.character_pairs.table
    a = game.probabilities_float() * chi[:, game.predicate_indices()]
    return a.reshape((len(chi),) + game.question_counts)


def character_norms(stack, group):
    """The norms of a stack of game matrices, one per representative along
    axis 0 as in ``game_tensor``, expanded to all |G| - 1 nontrivial
    characters in enumeration order (k and -k get the same norm): one
    real SVD call for the real representatives and one complex call for
    the others."""
    _, real, slot, *_ = group.character_pairs
    if real == len(stack):
        sigma = max_singular_value(stack.real)
    elif not real:
        sigma = max_singular_value(stack)
    else:
        sigma = np.concatenate([max_singular_value(stack[:real].real),
                                max_singular_value(stack[real:])])
    return sigma[slot]


def character_slice(stack, group, k):
    """The matrix of the nontrivial character k from a stack with one per
    representative along axis 0: its representative's, conjugated when k
    is the other member of the pair."""
    pairs, i = group.character_pairs, group.index(k)
    m = stack[pairs.slot[i - 1]]
    return m if pairs.reps[pairs.slot[i - 1]] == i else m.conj()


def first_optimum(raws, largest):
    """Index of the first raw value within TIE_TOL of the optimum (the
    largest if ``largest``, else the smallest), and the optimum itself."""
    raws = np.asarray(raws, dtype=float)
    best = raws.max() if largest else raws.min()
    return int(np.argmax(np.abs(raws - best) <= TIE_TOL)), float(best)


def _bipartition_stack(tensor, game, s):
    """The matrices Phi_k^S for every representative k, stacked along
    axis 0."""
    comp = tuple(i for i in range(game.players) if i not in s)
    rows = math.prod(game.question_counts[i] for i in s)
    axes = (0,) + tuple(1 + i for i in s + comp)
    return tensor.transpose(axes).reshape(len(tensor), rows, -1)


def game_matrix(game, s_players, k):
    """The matrix Phi_k^S of a game, for a side S of a bipartition and a
    nontrivial character index k."""
    s = _validate_partition(game, s_players)
    k = game.group.coerce(k)
    if k == game.group.identity:
        raise ValidationError(
            "the trivial character carries no game information; use k != e")
    return character_slice(_bipartition_stack(game_tensor(game), game, s),
                           game.group, k)


def _partition_bound(tensor, game, s):
    norms = dict(zip(game.group.elements()[1:], character_norms(
        _bipartition_stack(tensor, game, s), game.group).tolist()))
    scale = math.sqrt(math.prod(game.question_counts))
    raw = (1.0 + scale * sum(norms.values())) / game.group.size
    return PartitionBound(players=s, norms=norms, raw=raw, value=min(raw, 1.0))


@dataclass(frozen=True)
class PartitionBound:
    """Bound data for one bipartition: S, per-character norms, raw value,
    and the value clamped into [0, 1]."""

    players: tuple
    norms: dict
    raw: float
    value: float


@dataclass(frozen=True)
class BoundReport:
    """Per-partition norm bounds and their minimum."""

    partitions: tuple
    raw_bound: float
    bound: float
    best_partition: tuple

    def partition(self, s_players):
        s = tuple(sorted(s_players))
        for p in self.partitions:
            if p.players == s:
                return p
        raise KeyError(f"no partition {s_players!r} in this report")


def _partitions_containing_first_player(n):
    """One representative per unordered bipartition: every proper subset
    containing player 0."""
    out = []
    for mask in range(1, 2**n - 1):
        if mask & 1:
            out.append(tuple(i for i in range(n) if mask >> i & 1))
    return out


def quantum_bound(game):
    """Norm bound minimized over all inequivalent bipartitions; the best
    partition is the first whose bound is within TIE_TOL of the minimum."""
    tensor = game_tensor(game)
    partitions = tuple(_partition_bound(tensor, game, s) for s in
                       _partitions_containing_first_player(game.players))
    best, raw = first_optimum([p.raw for p in partitions], largest=False)
    return BoundReport(partitions=partitions, raw_bound=raw,
                       bound=min(raw, 1.0),
                       best_partition=partitions[best].players)


def chsh_bound_analytic(players, outcomes):
    """Closed-form bound 1/d + (d-1)/(d*sqrt(d)) for the quadratic games;
    it does not depend on the number of players."""
    players = int(players)
    if players < 2:
        raise ValidationError("the quadratic game needs at least 2 players")
    d = int(outcomes)
    _prime_power(d)  # validates d
    return 1.0 / d + (d - 1) / (d * math.sqrt(d))
