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
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GameFormatError, ValidationError
from .games import Behavior, success_probability
from .tolerances import PROJECTOR_TOL


def _as_projector(raw, dim, where):
    """Normalize a projector given as a vector, a list of orthonormal
    vectors, or an explicit matrix.  Returns (matrix, vector-or-None)."""
    arr = np.asarray(raw, dtype=complex)
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


class QuantumStrategy:
    """A shared state plus per-player, per-question projective
    measurements with one outcome per group element.

    ``state`` may be a length-prod(dims) amplitude vector or a density
    matrix.  Each measurement outcome may be a single vector (rank one), a
    list of orthonormal vectors, or an explicit projector matrix.
    """

    def __init__(self, dims, state, measurements):
        self.dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in self.dims):
            raise ValidationError(f"bad local dimensions {dims!r}")
        total = math.prod(self.dims)

        state = np.asarray(state, dtype=complex)
        if state.ndim == 1:
            if state.shape != (total,):
                raise ValidationError(
                    f"state vector has length {state.shape[0]}, expected {total}")
            norm = np.linalg.norm(state)
            if abs(norm - 1.0) > 1e-9:
                raise ValidationError(f"state vector has norm {norm!r}, not 1")
            self.state = state
            self._density = None
        elif state.ndim == 2:
            if state.shape != (total, total):
                raise ValidationError(
                    f"density matrix has shape {state.shape}, expected "
                    f"{(total, total)}")
            if np.abs(state - state.conj().T).max() > 1e-9:
                raise ValidationError("density matrix is not Hermitian")
            if abs(np.trace(state).real - 1.0) > 1e-9:
                raise ValidationError(
                    f"density matrix has trace {np.trace(state)!r}, not 1")
            if np.linalg.eigvalsh(state).min() < -1e-9:
                raise ValidationError("density matrix has a negative eigenvalue")
            self.state = None
            self._density = state
        else:
            raise ValidationError("state must be a vector or a density matrix")

        if len(measurements) != len(self.dims):
            raise ValidationError(
                f"{len(measurements)} measurement families for "
                f"{len(self.dims)} players")
        self._projectors = []
        self._vectors = []
        bad = []
        for i, per_player in enumerate(measurements):
            proj_rows = []
            vec_rows = []
            for x, outcomes in enumerate(per_player):
                pairs = [_as_projector(raw, self.dims[i],
                                       f"measurement[{i}][{x}][{o}]")
                         for o, raw in enumerate(outcomes)]
                mats = [mat for mat, _ in pairs]
                vecs = [vec for _, vec in pairs]
                errors = [np.abs(sum(mats) - np.eye(self.dims[i])).max()]
                errors += [np.abs(m - m.conj().T).max() for m in mats]
                errors += [np.abs(m @ m - m).max() for m in mats]
                errors += [np.abs(p @ q).max()
                           for p, q in itertools.combinations(mats, 2)]
                if not np.max(errors) <= PROJECTOR_TOL:  # NaN is not a projector
                    bad.append((i, x))
                proj_rows.append(mats)
                vec_rows.append(vecs)
            self._projectors.append(proj_rows)
            self._vectors.append(vec_rows)
        if bad:
            raise ValidationError(
                f"measurements at (player, question) {bad} are not complete "
                f"orthogonal projector families")

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
        return self._projectors[player][question][outcome]

    def vector(self, player, question, outcome):
        return self._vectors[player][question][outcome]

    def density(self):
        if self._density is not None:
            return self._density
        return np.outer(self.state, self.state.conj())

    def measurements(self):
        """Raw projector families, [player][question][outcome]."""
        return self._projectors


def _check_compatible(strategy, game):
    if strategy.players != game.players:
        raise ValidationError(
            f"strategy has {strategy.players} players, game has {game.players}")
    for i in range(game.players):
        if strategy.questions(i) != game.question_counts[i]:
            raise ValidationError(
                f"player {i} has {strategy.questions(i)} measurement "
                f"settings, game asks {game.question_counts[i]} questions")
        for x in range(game.question_counts[i]):
            if strategy.outcomes(i, x) != game.group.size:
                raise ValidationError(
                    f"measurement[{i}][{x}] has {strategy.outcomes(i, x)} "
                    f"outcomes, the group has {game.group.size}")


def strategy_behavior(strategy, game):
    """Born-rule behavior P(a | x) = tr(rho Pi^1_{x_1,a_1} x ... x
    Pi^n_{x_n,a_n}) of a strategy on a game's question grid.

    One tensordot per player contracts the state, viewed as (ket_i, later
    kets, bra_i, later bras and the (question, answer) axes of earlier
    players), with player i's projectors of any rank, stacked as
    (questions, outcomes, d_i, d_i).  A pure state enters only in player
    0's step, as conj(psi) and psi, so no density matrix is formed.
    """
    _check_compatible(strategy, game)
    n, dims = game.players, strategy.dims
    stacks = [np.array(per_player) for per_player in strategy.measurements()]
    if strategy.is_pure:
        psi = strategy.state.reshape(dims[0], -1)
        t = np.tensordot(psi.conj(), stacks[0], ([0], [2]))
        t, first = np.tensordot(psi, t, ([0], [3])), 1
    else:
        t, first = strategy.density(), 0
    for i in range(first, n):
        t = t.reshape(dims[i], math.prod(dims[i + 1:]), dims[i], -1)
        t = np.tensordot(t, stacks[i], ([0, 2], [3, 2]))
    p = t.real.reshape([s for stack in stacks for s in stack.shape[:2]])
    np.maximum(p, 0.0, out=p)  # in place: t is ours, and a call allocates less
    # (x_1, a_1, ..., x_n, a_n) -> (x_1, ..., x_n, a_1, ..., a_n)
    p = p.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])
    return Behavior(game.group, game.question_counts,
                    p.reshape(game.n_inputs, -1))


def noise_behavior(strategy, game):
    """Behavior of white noise, the maximally mixed state I / D, under a
    strategy's measurements: P_noise(a | x) = prod_i tr(Pi^i_{x_i,a_i}) /
    d_i."""
    _check_compatible(strategy, game)
    n = game.players
    operands = []
    for i, (per_player, d) in enumerate(zip(strategy.measurements(),
                                            strategy.dims)):
        traces = np.trace(np.array(per_player), axis1=2, axis2=3).real / d
        operands += [traces, [i, n + i]]
    p = np.einsum(*operands, list(range(2 * n)))
    return Behavior(game.group, game.question_counts,
                    p.reshape(game.n_inputs, -1))


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
    # Contract each answer axis of P with conj(chi); axes order is kept so
    # k-tuples come out lexicographic like answer tuples.
    tensor = behavior.table.reshape((-1,) + (g,) * n)
    for axis in range(n):
        tensor = np.tensordot(tensor, conj_chi.T, axes=([1], [0]))
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
    V * omega(P) + (1 - V) * omega(P_noise), with P_noise from
    ``noise_behavior``.  omega(P_noise) is 1/|G| when every projector has
    rank one; in general it is set by the projector ranks.
    """
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValidationError(f"visibility must be in [0, 1], got {v}")
    ideal = success_probability(game, strategy_behavior(strategy, game))
    noise = success_probability(game, noise_behavior(strategy, game))
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
    if not isinstance(raw, list) or not raw:
        raise GameFormatError(f"{path}: expected a non-empty vector")
    return np.array([_parse_complex(v, f"{path}[{j}]")
                     for j, v in enumerate(raw)])


def parse_strategy_file(text):
    """Parse the JSON strategy format.

    ``measurements[player][question][outcome]`` is a vector of [re, im]
    pairs; an outcome may instead be a list of such vectors when its
    projector has rank above one.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GameFormatError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise GameFormatError("document: expected an object")
    keys = set(doc)
    if keys != {"dims", "state", "measurements"}:
        raise GameFormatError(
            f"document: expected keys dims/state/measurements, got {sorted(keys)}")

    dims = doc["dims"]
    if (not isinstance(dims, list) or not dims
            or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1
                       for d in dims)):
        raise GameFormatError(f"dims: expected positive integers, got {dims!r}")

    raw_state = doc["state"]
    if not isinstance(raw_state, dict) or len(raw_state) != 1:
        raise GameFormatError(
            'state: expected {"amplitudes": ...} or {"density": ...}')
    if "amplitudes" in raw_state:
        state = _parse_vector(raw_state["amplitudes"], "state.amplitudes")
    elif "density" in raw_state:
        rows = raw_state["density"]
        if not isinstance(rows, list) or not rows:
            raise GameFormatError("state.density: expected a matrix")
        state = np.array([
            [_parse_complex(v, f"state.density[{i}][{j}]")
             for j, v in enumerate(row)]
            for i, row in enumerate(rows)])
    else:
        raise GameFormatError(f"state: unknown form {sorted(raw_state)}")

    raw_meas = doc["measurements"]
    if not isinstance(raw_meas, list) or len(raw_meas) != len(dims):
        raise GameFormatError(
            f"measurements: expected one entry per player ({len(dims)})")
    measurements = []
    for i, per_player in enumerate(raw_meas):
        if not isinstance(per_player, list) or not per_player:
            raise GameFormatError(f"measurements[{i}]: expected question entries")
        questions = []
        for x, outcomes in enumerate(per_player):
            if not isinstance(outcomes, list) or not outcomes:
                raise GameFormatError(
                    f"measurements[{i}][{x}]: expected outcome entries")
            parsed = []
            for o, raw in enumerate(outcomes):
                path = f"measurements[{i}][{x}][{o}]"
                if not isinstance(raw, list) or not raw:
                    raise GameFormatError(f"{path}: expected a vector")
                if _looks_like_pair(raw[0]):
                    parsed.append(_parse_vector(raw, path))
                else:
                    parsed.append(np.array(
                        [_parse_vector(v, f"{path}[{j}]")
                         for j, v in enumerate(raw)]))
            questions.append(parsed)
        measurements.append(questions)

    try:
        return QuantumStrategy(dims, state, measurements)
    except ValidationError as e:
        raise GameFormatError(str(e)) from None


def load_strategy(path):
    with open(path, encoding="utf-8") as fh:
        return parse_strategy_file(fh.read())
