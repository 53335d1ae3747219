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
norms back to every nontrivial k.  Each game matrix is a transpose of
``game_tensor`` by one axis rule, ``_layout``.  Players are
interchangeable when swapping their question axes leaves the game
unchanged (``LinearGame.player_classes``), and sides whose layouts differ
by such swaps give the same matrices, so ``quantum_bound`` takes one
``character_norms`` call per key of ``shared_sides``: one per side size
for ``chsh_game``, one per split for a game without symmetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import as_int, as_int_tuple
from .errors import ValidationError
from .games import _prime_power, _side
from .linalg import max_singular_value
from .tolerances import TIE_TOL


def _layout(n, s):
    """(S sorted, the axes of an n-player ``game_tensor`` in the order 0, S's
    questions, the others' in increasing order): every game matrix's layout."""
    s = tuple(sorted(s))
    return s, (0, *(1 + i for i in sorted(range(n), key=lambda i: i not in s)))


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
    pairs, i = group.character_pairs, group.index(group.coerce(k))
    if not i:
        raise ValidationError(
            "the trivial character carries no game information; use k != e")
    m = stack[pairs.slot[i - 1]]
    return m if pairs.reps[pairs.slot[i - 1]] == i else m.conj()


def first_optimum(raws, largest):
    """Index of the first raw within TIE_TOL of the optimum (the largest if
    ``largest``, else the smallest) by a scan in floats, and the optimum."""
    raws = [float(raw) for raw in raws]
    best = max(raws) if largest else min(raws)
    return [abs(raw - best) <= TIE_TOL for raw in raws].index(True), best


@lru_cache(maxsize=16)  # bounded: n players give 2^(n-1) - 1 splits
def _split_layouts(n):
    """The ``_layout`` of each side holding player 0, one per unordered
    bipartition, in order of S's player bitmask."""
    return tuple(_layout(n, [i for i in range(n) if mask >> i & 1])
                 for mask in range(1, 2**n - 1, 2))


@lru_cache(maxsize=32)  # bounded: a key holds 2^(n-1) - 1 positions
def shared_sides(classes, lone=False):
    """For each side S of ``_split_layouts(n)``, or each lone player's side
    (X,) of three players if ``lone``, the position of the first side with
    S's key: (|S|, the class in ``classes`` (``player_classes``) of each
    axis of S's ``_layout``).  Sides with equal keys differ by a
    permutation within classes, so they transpose ``game_tensor`` (and the
    answer histogram) into the same array, element for element."""
    layouts = ([_layout(3, (x,)) for x in range(3)] if lone
               else _split_layouts(len(classes)))
    first = {}
    return tuple(first.setdefault((len(s), tuple(classes[a - 1] for a in axes[1:])), i)
                 for i, (s, axes) in enumerate(layouts))


def _bipartition_stack(tensor, s, axes):
    """Phi_k^S for every representative k along axis 0, by S's ``_layout``."""
    rows = math.prod(tensor.shape[1 + i] for i in s)
    return tensor.transpose(axes).reshape(len(tensor), rows, -1)


def game_matrix(game, s_players, k):
    """The matrix Phi_k^S of a game, for a side S of a bipartition and a
    nontrivial character index k."""
    s, axes = _layout(game.players, _side(game.players, s_players, "partition"))
    return character_slice(_bipartition_stack(game_tensor(game), s, axes),
                           game.group, k)


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
        s = tuple(sorted(as_int_tuple(s_players, "partition")))
        for p in self.partitions:
            if p.players == s:
                return p
        raise KeyError(f"no partition {s_players!r} in this report")


def quantum_bound(game):
    """Norm bound minimized over all inequivalent bipartitions; the best
    partition is the first whose bound is within TIE_TOL of the minimum.
    Sides sharing a key of ``shared_sides`` share one ``character_norms``
    call; each partition still gets its own norms dict."""
    tensor, group = game_tensor(game), game.group
    ks = group.elements()[1:]
    scale = math.sqrt(math.prod(game.question_counts))
    partitions, shared = [], {}
    for (s, axes), first in zip(_split_layouts(game.players),
                                shared_sides(game.player_classes)):
        if first not in shared:
            norms = character_norms(_bipartition_stack(tensor, s, axes),
                                    group).tolist()
            shared[first] = norms, (1.0 + scale * sum(norms)) / group.size
        norms, raw = shared[first]
        partitions.append(PartitionBound(s, dict(zip(ks, norms)), raw,
                                         min(raw, 1.0)))
    best, raw = first_optimum([p.raw for p in partitions], largest=False)
    return BoundReport(tuple(partitions), raw, min(raw, 1.0),
                       partitions[best].players)


def chsh_bound_analytic(players, outcomes):
    """Closed-form bound 1/d + (d-1)/(d*sqrt(d)) for the quadratic games;
    it does not depend on the number of players."""
    players = as_int(players, "players")
    if players < 2:
        raise ValidationError("the quadratic game needs at least 2 players")
    d = as_int(outcomes, "outcomes")
    _prime_power(d)  # validates d
    return 1.0 / d + (d - 1) / (d * math.sqrt(d))
