"""Quantum strategies for linear games: shared states, per-question
projective measurements, the behaviors they generate, and generalized
correlators.

The correlator of character index k on questions x is

    <A^k ... A^k>(x) = sum_a conj(chi_k(a_1)) ... conj(chi_k(a_n)) P(a | x)

and the winning probability can be recovered from the diagonal correlator
tensor as

    omega = (1/|G|) * (1 + sum_{k != e} sum_x p(x) chi_k(f(x)) <...>(x)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra import as_int_tuple
from .errors import GameFormatError, ValidationError
from .games import (Behavior, _check_rows, _frozen, _is_int, _load,
                    _nonempty_list, _read_document)
from .tolerances import BEHAVIOR_ROW_TOL, PROJECTOR_TOL, STATE_TOL


def _as_projector(raw, dim, where):
    """Normalize a projector given as a vector, a list of orthonormal
    vectors, or an explicit matrix.  Returns (matrix, vector-or-None)."""
    arr = _frozen(np.array(raw, dtype=complex))  # a copy: callers keep theirs
    if arr.ndim == 1:
        if arr.shape != (dim,):
            raise ValidationError(
                f"{where}: vector has length {arr.shape[0]}, expected {dim}")
        return np.outer(arr, arr.conj()), arr
    if arr.ndim == 2 and arr.shape == (dim, dim):
        return arr, None
    if arr.ndim == 2 and arr.shape[1] == dim and arr.shape[0] < dim:
        return arr.T @ arr.conj(), None
    raise ValidationError(
        f"{where}: cannot read a projector from shape {arr.shape} "
        f"(expected a vector, a short vector list, or a {dim}x{dim} matrix)")


def _items(raw, where, what):
    """``list(raw)``; a ValidationError naming ``where`` when ``raw`` is
    not a sequence."""
    try:
        return list(raw)
    except TypeError:
        raise ValidationError(
            f"{where}: expected {what}, got {raw!r}") from None


def _family_errors(stack):
    """Largest deviation, per question, of a (questions, outcomes, d, d)
    stack from a complete family of orthogonal projectors: of sum_a P_a from
    the identity, of each P_a from its adjoint and of each P_a P_b from
    delta_ab P_a (one a at a time, in the stack's memory).  NaN entries
    give NaN, which fails every <= test."""
    _, o, d, _ = stack.shape
    errors = [np.abs(stack.sum(axis=1) - np.eye(d)).max(axis=(1, 2)),
              np.abs(stack - stack.conj().swapaxes(2, 3)).max(
                  axis=(1, 2, 3), initial=0.0)]
    for a in range(o):
        products = stack[:, a, None] @ stack  # P_a P_b at [x, b]
        products[:, a] -= stack[:, a]
        errors.append(np.abs(products).max(axis=(1, 2, 3)))
    return np.max(errors, axis=0)


def _check_behaviors(stacks, marginals):
    """Refuse measurements whose behaviors ``Behavior`` could refuse: a
    Born-rule row (before clamping) is tr(rho (S_1 x ... x S_n)), S_i =
    sum_a Pi^i_a, within prod_i (1 + ||S_i - I||) - 1 of 1, white noise
    included; the least white-noise entry is a product of marginal extremes."""
    spread, ends = 1.0, [1.0]
    for stack, m in zip(stacks, marginals):
        errors = stack.sum(axis=1) - np.eye(stack.shape[-1])
        spread *= 1.0 + float(np.linalg.norm(errors, 2, axis=(1, 2)).max())
        ends = [e * float(b) for e in (min(ends), max(ends)) for b in (m.min(), m.max())]
    if spread - 1.0 > BEHAVIOR_ROW_TOL:
        raise ValidationError(f"measurement completeness errors compound to "
                              f"{spread - 1.0!r} across players")
    if min(ends) < -BEHAVIOR_ROW_TOL:
        raise ValidationError(f"white noise has a negative probability {min(ends)!r}")


class QuantumStrategy:
    """A shared state plus per-player, per-question projective
    measurements with one outcome per group element.

    ``state`` may be a length-prod(dims) amplitude vector or a density
    matrix.  Each measurement outcome may be a single vector (rank one), a
    list of orthonormal vectors, or an explicit projector matrix.  Every
    question of a player needs the same number of outcomes.
    """

    def __init__(self, dims, state, measurements):
        self.dims = as_int_tuple(dims, "local dimensions")
        if any(d < 1 for d in self.dims):
            raise ValidationError(f"bad local dimensions {dims!r}")
        total = math.prod(self.dims)

        state = _frozen(np.array(state, dtype=complex))
        if state.ndim == 1:
            if state.shape != (total,):
                raise ValidationError(
                    f"state vector has length {state.shape[0]}, expected {total}")
            norm = np.linalg.norm(state)
            if not abs(norm - 1.0) <= STATE_TOL:  # NaN fails every <= test
                raise ValidationError(f"state vector has norm {norm!r}, not 1")
            self.state = state
            self._density = None
        elif state.ndim == 2:
            if state.shape != (total, total):
                raise ValidationError(
                    f"density matrix has shape {state.shape}, expected "
                    f"{(total, total)}")
            if not np.abs(state - state.conj().T).max() <= STATE_TOL:
                raise ValidationError("density matrix is not Hermitian")
            if not abs(np.trace(state).real - 1.0) <= STATE_TOL:
                raise ValidationError(
                    f"density matrix has trace {np.trace(state)!r}, not 1")
            if not np.linalg.eigvalsh(state).min() >= -STATE_TOL:
                raise ValidationError("density matrix has a negative eigenvalue")
            self.state = None
            self._density = state
        else:
            raise ValidationError("state must be a vector or a density matrix")

        measurements = _items(measurements, "measurements",
                              "one family per player")
        if len(measurements) != len(self.dims):
            raise ValidationError(
                f"{len(measurements)} measurement families for "
                f"{len(self.dims)} players")
        self._projectors, self._vectors, bad = [], [], []
        for i, (per_player, d) in enumerate(zip(measurements, self.dims)):
            questions = _items(per_player, f"player {i}",
                               "a list of questions")
            pairs = [[_as_projector(raw, d, f"measurement[{i}][{x}][{o}]")
                      for o, raw in enumerate(_items(
                          outcomes, f"(player, question) {(i, x)}",
                          "a list of outcomes"))]
                     for x, outcomes in enumerate(questions)]
            counts = sorted({len(row) for row in pairs})
            if len(counts) != 1:
                raise ValidationError(
                    f"player {i} needs one or more questions with equal "
                    f"outcome counts, got outcome counts {counts}")
            stack = np.array([[mat for mat, _ in row] for row in pairs],
                             dtype=complex).reshape(len(pairs), counts[0], d, d)
            self._projectors.append(_frozen(stack))
            bad += [(i, int(x)) for x in
                    np.flatnonzero(~(_family_errors(stack) <= PROJECTOR_TOL))]
            self._vectors.append([[vec for _, vec in row] for row in pairs])
        if bad:
            raise ValidationError(
                f"measurements at (player, question) {bad} are not complete "
                f"orthogonal projector families")
        # the white-noise marginals tr(Pi)/d_i, (questions, outcomes) each
        self._marginals = [_frozen(np.trace(s, axis1=2, axis2=3).real / d)
                           for s, d in zip(self._projectors, self.dims)]
        _check_behaviors(self._projectors, self._marginals)

    @property
    def players(self):
        return len(self.dims)

    @property
    def is_pure(self):
        return self.state is not None

    def questions(self, player):
        return len(self._projectors[player])

    def outcomes(self, player, question):
        return len(self._projectors[player][question])

    def projector(self, player, question, outcome):
        return self._projectors[player][question, outcome]

    def vector(self, player, question, outcome):
        return self._vectors[player][question][outcome]

    def density(self):
        if self._density is not None:
            return self._density
        return np.outer(self.state, self.state.conj())

    def measurements(self):
        """Projector families, one read-only (questions, outcomes, d_i,
        d_i) array per player, stacked and checked at construction."""
        return self._projectors

    @cached_property
    def _born(self):
        return _checked_table(_born_table(self))

    @cached_property
    def _noise(self):
        return _checked_table(_noise_table(self))


def _checked_table(table):
    """A table of the strategy, built on first use: C-contiguous and
    read-only once ``games._check_rows`` accepts it.  A failed check
    raises before ``cached_property`` stores anything."""
    table = np.ascontiguousarray(table)
    _check_rows(table)
    return _frozen(table)


def _check_compatible(strategy, game):
    have = [stack.shape[:2] for stack in strategy.measurements()]
    need = [(q, game.group.size) for q in game.question_counts]
    if have != need:
        raise ValidationError(
            f"strategy measures (questions, outcomes) {have} per player, "
            f"the game needs {need}")


def _born_table(strategy):
    """Born-rule table P(a | x) = tr(rho Pi^1_{x_1,a_1} x ... x
    Pi^n_{x_n,a_n}), one row per question tuple in grid order, one column
    per answer tuple in lexicographic order.

    One matrix product per player contracts the state, viewed as (ket_i,
    later kets, bra_i, later bras and earlier players' (question, answer)
    axes), with player i's projectors of any rank, laid out as it runs as
    a C-ordered (d_i d_i, questions outcomes) operand, rows (column, row)
    of Pi.  A pure state enters only in player 0's step, as conj(psi)
    against the rows of Pi and psi, so no density matrix is formed.
    """
    n, dims, stacks = strategy.players, strategy.dims, strategy.measurements()
    if strategy.is_pure:
        psi = strategy.state.reshape(dims[0], -1)
        rows = stacks[0].transpose(2, 0, 1, 3).reshape(dims[0], -1)
        t = np.dot(psi.conj().T, rows).reshape(-1, dims[0]).T
        t, first = np.dot(psi.T, t), 1
    else:
        t, first = strategy.density(), 0
    for i in range(first, n):
        t = t.reshape(dims[i], math.prod(dims[i + 1:]), dims[i], -1)
        t = np.dot(t.transpose(1, 3, 0, 2).reshape(-1, dims[i]**2),
                   stacks[i].transpose(3, 2, 0, 1).reshape(dims[i]**2, -1))
    shape = [s for m in strategy._marginals for s in m.shape]
    p = t.real.reshape(shape)
    np.maximum(p, 0.0, out=p)  # in place: t is ours, and a call allocates less
    # (x_1, a_1, ..., x_n, a_n) -> (x_1, ..., x_n, a_1, ..., a_n)
    p = p.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return p.reshape(math.prod(shape[::2]), -1)


def _noise_table(strategy):
    """White noise, the maximally mixed state I / D, under a strategy's
    measurements: P_noise(a | x) = prod_i tr(Pi^i_{x_i,a_i}) / d_i, the
    outer product of the marginals stored at construction."""
    n, p = strategy.players, 1.0
    for i, marginal in enumerate(strategy._marginals):
        shape = [1] * (2 * n)
        shape[i], shape[n + i] = marginal.shape
        p = p * marginal.reshape(shape)
    return p.reshape(math.prod(p.shape[:n]), -1)


def strategy_behavior(strategy, game):
    """Born-rule behavior P(a | x) of a strategy on a game's question grid:
    the strategy's Born table (``_born_table``), built, checked once and
    shared read-only."""
    _check_compatible(strategy, game)
    return Behavior._of_checked(game.group, game.question_counts,
                                strategy._born)


def noise_behavior(strategy, game):
    """Behavior of white noise under a strategy's measurements: the
    strategy's white-noise table (``_noise_table``), built, checked once
    and shared read-only."""
    _check_compatible(strategy, game)
    return Behavior._of_checked(game.group, game.question_counts,
                                strategy._noise)


def _success_pair(game, strategy):
    """(omega, omega_noise) of ``noisy_success``: ``win_weights`` dotted
    with the strategy's Born and white-noise tables."""
    _check_compatible(strategy, game)
    w = game.win_weights.ravel()
    return (float(np.dot(w, strategy._born.ravel())),
            float(np.dot(w, strategy._noise.ravel())))


@dataclass(frozen=True)
class CorrelatorTensor:
    """Generalized correlators of a behavior.

    ``full[k_flat, x]`` holds <A^{k_1} ... A^{k_n}>(x) for every character
    tuple (k_1, ..., k_n), flattened lexicographically; ``diagonal[k, x]``
    is the k_1 = ... = k_n slice used by the success formula.
    """

    group: object
    question_counts: tuple
    full: np.ndarray
    diagonal: np.ndarray


def correlators(behavior, group):
    """Forward transform of a behavior into its correlator tensor."""
    if behavior.group != group:
        raise ValidationError("behavior was built over a different group")
    g = group.size
    n = behavior.players
    conj_chi = group.character_table().conj()
    # One product with conj(chi).T per answer axis, each moved last in
    # turn, so k-tuples come out lexicographic like answer tuples.
    tensor, rows = behavior.table, len(behavior.table)
    for _ in range(n):
        tensor = tensor.reshape(rows, g, -1).transpose(0, 2, 1)
        tensor = np.dot(tensor.reshape(-1, g), conj_chi.T)
    full = tensor.reshape(-1, g**n).T.copy()
    stride = (g**n - 1) // (g - 1)  # flat index of (k, k, ..., k) is k * stride
    diagonal = full[np.arange(g) * stride]
    return CorrelatorTensor(group=group,
                            question_counts=behavior.question_counts,
                            full=full, diagonal=diagonal)


def success_from_correlators(game, tensor):
    """Winning probability recovered from diagonal correlators."""
    if tensor.group != game.group:
        raise ValidationError("correlators were built over a different group")
    if tuple(tensor.question_counts) != game.question_counts:
        raise ValidationError("correlators cover a different question grid")
    chi = game.group.character_table()
    p = game.probabilities_float()
    f_idx = game.predicate_indices()
    total = (p * chi[1:, f_idx] * tensor.diagonal[1:]).sum()
    return float((1.0 + total.real) / game.group.size)


def noisy_success(game, strategy, visibility):
    """Success of a strategy whose state is mixed with white noise,
    V * rho + (1 - V) * I / D.

    The Born rule is linear in the state, so this is the closed form
    V * omega(P) + (1 - V) * omega(P_noise): two dot products with the
    strategy's Born and white-noise tables, built once per strategy.
    omega(P_noise) is 1/|G| when every projector has rank one, and in
    general set by the projector ranks.
    """
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValidationError(f"visibility must be in [0, 1], got {v}")
    ideal, noise = _success_pair(game, strategy)
    return v * ideal + (1.0 - v) * noise


# ---------------------------------------------------------------------------
# The ternary GHZ reference strategy.

# Measurement bases for the ternary GHZ game, one orthonormal triple per
# question.  Entry q at position (question, outcome, component) is the
# phase exponent in units of 2*pi/3: the vector component is
# exp(2*pi*i*q/3) / sqrt(3).  Players 1 and 2 share the same bases.
_THIRD = Fraction(1, 3)
_GHZ3_FIRST = (
    ((0, 4 * _THIRD, 0), (2, 7 * _THIRD, 0), (1, 1 * _THIRD, 0)),
    ((1 * _THIRD, 0, 0), (7 * _THIRD, 1, 0), (4 * _THIRD, 2, 0)),
    ((8 * _THIRD, 8 * _THIRD, 0), (5 * _THIRD, 2 * _THIRD, 0),
     (2 * _THIRD, 5 * _THIRD, 0)),
)
_GHZ3_THIRD = (
    ((0, 1 * _THIRD, 0), (2, 4 * _THIRD, 0), (1, 7 * _THIRD, 0)),
    ((1 * _THIRD, 2, 0), (7 * _THIRD, 0, 0), (4 * _THIRD, 1, 0)),
    ((8 * _THIRD, 5 * _THIRD, 0), (5 * _THIRD, 8 * _THIRD, 0),
     (2 * _THIRD, 2 * _THIRD, 0)),
)


def _phase_vector(exponents):
    return np.array([cmath.exp(2j * cmath.pi * float(q) / 3)
                     for q in exponents]) / math.sqrt(3)


def ghz3_reference_strategy():
    """The three-qutrit GHZ state with the measurement bases that win the
    ternary GHZ game with certainty."""
    state = np.zeros(27, dtype=complex)
    state[[0, 13, 26]] = 1 / math.sqrt(3)  # |000> + |111> + |222>
    first = [[_phase_vector(v) for v in basis] for basis in _GHZ3_FIRST]
    third = [[_phase_vector(v) for v in basis] for basis in _GHZ3_THIRD]
    return QuantumStrategy((3, 3, 3), state, [first, first, third])


# ---------------------------------------------------------------------------
# Strategy files


def _looks_like_pair(raw):
    return (isinstance(raw, list) and len(raw) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in raw))


def _parse_complex(raw, path):
    if not _looks_like_pair(raw):
        raise GameFormatError(f"{path}: expected [re, im], got {raw!r}")
    return complex(raw[0], raw[1])


def _parse_vector(raw, path):
    return np.array([_parse_complex(v, f"{path}[{j}]") for j, v in
                     enumerate(_nonempty_list(raw, path, "a non-empty vector"))])


def _parse_rows(raw, path, what):
    """Vectors of one length, stacked as the rows of a matrix."""
    rows = [_parse_vector(v, f"{path}[{j}]")
            for j, v in enumerate(_nonempty_list(raw, path, what))]
    if len({len(row) for row in rows}) != 1:
        raise GameFormatError(f"{path}: rows differ in length")
    return np.array(rows)


def _parse_outcome(raw, path):
    """A vector, or a list of vectors for a projector of higher rank."""
    if _looks_like_pair(_nonempty_list(raw, path, "a vector")[0]):
        return _parse_vector(raw, path)
    return _parse_rows(raw, path, "a vector")


def parse_strategy_file(text):
    """Parse the JSON strategy format.

    ``measurements[player][question][outcome]`` is a vector of [re, im]
    pairs; an outcome may instead be a list of such vectors when its
    projector has rank above one.
    """
    doc = _read_document(text, {"dims", "state", "measurements"})
    dims = doc["dims"]
    if (not isinstance(dims, list) or not dims
            or not all(_is_int(d) and d >= 1 for d in dims)):
        raise GameFormatError(f"dims: expected positive integers, got {dims!r}")

    raw_state = doc["state"]
    if not isinstance(raw_state, dict) or len(raw_state) != 1:
        raise GameFormatError(
            'state: expected {"amplitudes": ...} or {"density": ...}')
    if "amplitudes" in raw_state:
        state = _parse_vector(raw_state["amplitudes"], "state.amplitudes")
    elif "density" in raw_state:
        state = _parse_rows(raw_state["density"], "state.density", "a matrix")
    else:
        raise GameFormatError(f"state: unknown form {sorted(raw_state)}")

    raw_meas = doc["measurements"]
    if not isinstance(raw_meas, list) or len(raw_meas) != len(dims):
        raise GameFormatError(
            f"measurements: expected one entry per player ({len(dims)})")
    measurements = []
    for i, per_player in enumerate(raw_meas):
        path = f"measurements[{i}]"
        per_player = _nonempty_list(per_player, path, "question entries")
        measurements.append([
            [_parse_outcome(raw, f"{path}[{x}][{o}]") for o, raw in enumerate(
                _nonempty_list(outcomes, f"{path}[{x}]", "outcome entries"))]
            for x, outcomes in enumerate(per_player)])

    try:
        return QuantumStrategy(dims, state, measurements)
    except ValidationError as e:
        raise GameFormatError(str(e)) from None


def load_strategy(path):
    return _load(path, parse_strategy_file)
