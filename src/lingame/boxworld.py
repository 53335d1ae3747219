"""Nonlocal boxes and box-assisted communication.

A PR box on n parties and prime d takes one dit from each party and
returns outputs that are uniform over the d^{n-1} tuples satisfying

    a_1 + ... + a_n = x_1 * ... * x_n  (mod d);

a functional box enforces Sigma a_i = F(x_1, ..., x_n) instead.  Sharing
such boxes collapses communication complexity: every
F: Z_d^{m_1} x ... x Z_d^{m_n} -> Z_d is a polynomial of per-variable
degree at most d-1, each monomial is one box use, and the mu-weighted sums
of local box outputs are shares of F, so n-1 dits finish the job.  The
protocol spends one box per exponent tuple, d^{m_1+...+m_n} in total.

Functional boxes whose predicate has a partial derivative of the shape
lambda*x*y*z + g(x) + h(y) + s(z) can simulate a PR box: iterated
differences of box outputs form shares of the derivative, affine
corrections strip lambda and the additive parts, and a shared random dit
re-randomizes the outputs.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import AbelianGroup, _is_prime
from .errors import GameFormatError, ValidationError
from .games import Behavior, answer_sums


class FunctionTable(object):
    """A function Z_d^{m_1} x ... x Z_d^{m_n} -> Z_d stored as a flat
    table in lexicographic order of the concatenated input variables."""

    def __init__(self, d, arities, values):
        self.d = int(d)
        if self.d < 2 or not _is_prime(self.d):
            raise ValidationError(f"d must be prime, got {d!r}")
        self.arities = tuple(int(m) for m in arities)
        if not self.arities or any(m < 1 for m in self.arities):
            raise ValidationError(f"arities must be positive, got {arities!r}")
        self.variables = sum(self.arities)
        self.values = tuple(int(v) for v in values)
        if len(self.values) != self.d**self.variables:
            raise ValidationError(
                f"table has {len(self.values)} entries, expected "
                f"{self.d**self.variables}")
        if any(not 0 <= v < self.d for v in self.values):
            raise ValidationError(f"table entries must lie in Z_{self.d}")

    @property
    def players(self):
        return len(self.arities)

    def as_array(self):
        """Table reshaped to one axis per variable."""
        return np.array(self.values, dtype=np.int64).reshape(
            (self.d,) * self.variables)

    def value(self, variables):
        """Value at a flat tuple of all input variables."""
        variables = tuple(int(v) for v in variables)
        if len(variables) != self.variables:
            raise ValidationError(
                f"expected {self.variables} variables, got {len(variables)}")
        idx = 0
        for v in variables:
            if not 0 <= v < self.d:
                raise ValidationError(f"input symbol {v} outside Z_{self.d}")
            idx = idx * self.d + v
        return self.values[idx]

    def __eq__(self, other):
        return (isinstance(other, FunctionTable)
                and (self.d, self.arities, self.values)
                == (other.d, other.arities, other.values))

    def __repr__(self):
        return f"FunctionTable(d={self.d}, arities={self.arities})"


def parse_function_file(text):
    """Parse the JSON function-table format: keys ``d`` (prime),
    ``arities`` (int array) and ``table`` (flat lexicographic values)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GameFormatError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise GameFormatError("document: expected an object")
    if set(doc) != {"d", "arities", "table"}:
        raise GameFormatError(
            f"document: expected keys d/arities/table, got {sorted(doc)}")

    def _int(value, path):
        if not isinstance(value, int) or isinstance(value, bool):
            raise GameFormatError(f"{path}: expected an integer, got {value!r}")
        return value

    d = _int(doc["d"], "d")
    if not isinstance(doc["arities"], list) or not doc["arities"]:
        raise GameFormatError("arities: expected a non-empty array")
    arities = [_int(v, f"arities[{i}]") for i, v in enumerate(doc["arities"])]
    if not isinstance(doc["table"], list):
        raise GameFormatError("table: expected an array")
    table = [_int(v, f"table[{i}]") for i, v in enumerate(doc["table"])]
    try:
        return FunctionTable(d, arities, table)
    except ValidationError as e:
        raise GameFormatError(str(e)) from None


def load_function(path):
    with open(path, encoding="utf-8") as fh:
        return parse_function_file(fh.read())


def serialize_function(table):
    doc = {"d": table.d, "arities": list(table.arities),
           "table": list(table.values)}
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Boxes


@dataclass(frozen=True)
class PRBox:
    """Box enforcing Sigma a_i = Prod x_i over Z_d, d prime."""

    players: int
    d: int

    def __post_init__(self):
        if self.players < 2:
            raise ValidationError(f"a box needs at least 2 parties")
        if not _is_prime(self.d):
            raise ValidationError(f"d must be prime, got {self.d}")

    @property
    def arities(self):
        return (1,) * self.players

    def target(self, inputs):
        inputs = _flatten_inputs(self.arities, inputs, self.d)
        return math.prod(inputs) % self.d


@dataclass(frozen=True)
class FunctionalBox:
    """Box enforcing Sigma a_i = F(inputs) for a stored function table."""

    table: FunctionTable

    @property
    def players(self):
        return self.table.players

    @property
    def d(self):
        return self.table.d

    @property
    def arities(self):
        return self.table.arities

    def target(self, inputs):
        return self.table.value(_flatten_inputs(self.arities, inputs, self.d))


def _flatten_inputs(arities, inputs, d):
    """Accepts per-party inputs (ints for arity 1, tuples otherwise) or an
    already-flat tuple of all variables."""
    inputs = tuple(inputs)
    total = sum(arities)
    if len(inputs) == total and all(
            isinstance(v, (int, np.integer)) for v in inputs):
        flat = tuple(int(v) for v in inputs)
    elif len(inputs) == len(arities):
        flat = []
        for i, (m, value) in enumerate(zip(arities, inputs)):
            if isinstance(value, (int, np.integer)):
                part = (int(value),)
            else:
                part = tuple(int(v) for v in value)
            if len(part) != m:
                raise ValidationError(
                    f"party {i} input has {len(part)} symbols, expected {m}")
            flat.extend(part)
        flat = tuple(flat)
    else:
        raise ValidationError(
            f"expected {len(arities)} per-party inputs or {total} flat "
            f"symbols, got {len(inputs)}")
    for v in flat:
        if not 0 <= v < d:
            raise ValidationError(f"input symbol {v} outside Z_{d}")
    return flat


def box_sample(box, inputs, rng):
    """One use of a box: the first n-1 outputs are uniform, the last one
    closes the sum constraint."""
    target = box.target(inputs)
    n = box.players
    head = [int(v) for v in rng.integers(0, box.d, size=n - 1)]
    return tuple(head) + ((target - sum(head)) % box.d,)


def box_behavior(box):
    """Exact conditional distribution of a box, as a behavior over the
    cyclic group Z_d with one question per possible party input."""
    d = box.d
    n = box.players
    questions = tuple(d**m for m in box.arities)
    group = AbelianGroup((d,))
    # Row index runs lexicographically over the concatenated variables,
    # matching the per-party question indexing.
    targets = np.array([box.target(flat) for flat in
                        itertools.product(range(d), repeat=sum(box.arities))])
    wins = answer_sums(group, n) == targets[:, None]
    return Behavior(group, questions, np.where(wins, 1.0 / d**(n - 1), 0.0))


# ---------------------------------------------------------------------------
# Polynomial interpolation over Z_d


def _modular_inverse_matrix(mat, p):
    """Gauss-Jordan inverse of an integer matrix modulo a prime."""
    n = len(mat)
    a = [[int(v) % p for v in row] for row in mat]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] % p), None)
        if pivot is None:
            raise ValidationError("matrix is singular modulo p")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = pow(a[col][col], -1, p)
        a[col] = [v * scale % p for v in a[col]]
        inv[col] = [v * scale % p for v in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [(v - factor * w) % p for v, w in zip(a[r], a[col])]
                inv[r] = [(v - factor * w) % p for v, w in zip(inv[r], inv[col])]
    return np.array(inv, dtype=np.int64)


@lru_cache(maxsize=None)
def _vandermonde(d):
    # v[x, alpha] = x^alpha mod d, with 0^0 = 1
    return np.array([[pow(x, alpha, d) for alpha in range(d)]
                     for x in range(d)], dtype=np.int64)


@lru_cache(maxsize=None)
def _vandermonde_inverse(d):
    return _modular_inverse_matrix(_vandermonde(d).tolist(), d)


@dataclass(frozen=True)
class PolyCoefficients:
    """Coefficients mu of a multivariate polynomial over Z_d, one axis per
    variable, per-variable degree at most d-1."""

    d: int
    arities: tuple
    coeffs: np.ndarray

    def degree(self, variable):
        """Largest exponent of ``variable`` with a nonzero coefficient;
        -1 for the zero polynomial."""
        moved = np.moveaxis(self.coeffs, variable, 0)
        for e in range(self.d - 1, -1, -1):
            if moved[e].any():
                return e
        return -1

    def monomials(self):
        """Sorted list of (exponent tuple, coefficient) with nonzero
        coefficients."""
        return [(tuple(int(i) for i in idx), int(self.coeffs[idx]))
                for idx in sorted(zip(*np.nonzero(self.coeffs)))]


def interpolate_polynomial(table):
    """Unique polynomial with per-variable degree at most d-1 matching a
    function table; d must be prime so Z_d is a field."""
    if not isinstance(table, FunctionTable):
        raise ValidationError("expected a FunctionTable")
    d = table.d
    w = _vandermonde_inverse(d)
    arr = table.as_array()
    # Contract each input axis with the inverse Vandermonde; exponent axes
    # accumulate at the end in the original variable order.
    for _ in range(table.variables):
        arr = np.tensordot(arr, w.T, axes=([0], [0])) % d
    arr.setflags(write=False)
    return PolyCoefficients(d=d, arities=table.arities, coeffs=arr)


def evaluate_polynomial(coeffs, variables):
    """Value of an interpolated polynomial at one point."""
    variables = tuple(int(v) for v in variables)
    if len(variables) != sum(coeffs.arities):
        raise ValidationError(
            f"expected {sum(coeffs.arities)} variables, got {len(variables)}")
    v = _vandermonde(coeffs.d)
    acc = coeffs.coeffs
    for x in variables:
        if not 0 <= x < coeffs.d:
            raise ValidationError(f"input symbol {x} outside Z_{coeffs.d}")
        acc = np.tensordot(acc, v[x], axes=([0], [0])) % coeffs.d
    return int(acc)


def polynomial_table(coeffs):
    """Evaluate a polynomial on the whole grid, back into a table."""
    v = _vandermonde(coeffs.d)
    arr = coeffs.coeffs
    for _ in range(sum(coeffs.arities)):
        arr = np.tensordot(arr, v, axes=([0], [1])) % coeffs.d
    return FunctionTable(coeffs.d, coeffs.arities, arr.reshape(-1))


def partial_derivative(table, variable):
    """Difference table f(..., x_v + 1, ...) - f(..., x_v, ...) mod d; the
    polynomial degree in that variable drops by at least one."""
    if not isinstance(table, FunctionTable):
        raise ValidationError("expected a FunctionTable")
    if not 0 <= variable < table.variables:
        raise ValidationError(
            f"variable index {variable} outside 0..{table.variables - 1}")
    arr = table.as_array()
    der = (np.roll(arr, -1, axis=variable) - arr) % table.d
    return FunctionTable(table.d, table.arities, der.reshape(-1))


# ---------------------------------------------------------------------------
# Communication protocol


@dataclass(frozen=True)
class ProtocolTranscript:
    """Record of one protocol run: box consumption, each party's local
    share, the dits sent to the first party, and the computed value."""

    boxes_used: int
    local_outputs: tuple
    dits: tuple
    result: int

    @property
    def dits_communicated(self):
        return len(self.dits)

    def as_dict(self):
        return {"boxes_used": self.boxes_used,
                "local_outputs": list(self.local_outputs),
                "dits": list(self.dits),
                "dits_communicated": self.dits_communicated,
                "result": self.result}


def cc_protocol(table, inputs, rng):
    """Compute F(inputs) with n-1 dits of communication, one PR box per
    monomial exponent tuple.

    Party i feeds its box the value of its local monomial, keeps the
    mu-weighted sum of its box outputs, and every party but the first
    sends that single dit to party 1, who adds everything up.
    """
    if not isinstance(table, FunctionTable):
        raise ValidationError("expected a FunctionTable")
    d = table.d
    n = table.players
    flat = _flatten_inputs(table.arities, inputs, d)
    mu = interpolate_polynomial(table).coeffs.reshape(-1)
    box = PRBox(n, d)
    totals = [0] * n
    boxes_used = 0
    for exponents in itertools.product(range(d), repeat=table.variables):
        pos = 0
        local = []
        for m in table.arities:
            value = 1
            for j in range(m):
                value = value * pow(flat[pos + j], exponents[pos + j], d) % d
            local.append(value)
            pos += m
        outputs = box_sample(box, tuple(local), rng)
        weight = int(mu[boxes_used])  # same lexicographic order
        for i in range(n):
            totals[i] = (totals[i] + weight * outputs[i]) % d
        boxes_used += 1
    dits = tuple(totals[1:])
    return ProtocolTranscript(boxes_used=boxes_used,
                              local_outputs=tuple(totals),
                              dits=dits,
                              result=sum(totals) % d)


# ---------------------------------------------------------------------------
# Reduction of functional boxes to PR boxes


@dataclass(frozen=True)
class Reduction:
    """Derivative multi-order turning a three-variable predicate into
    lambda*x*y*z + g(x) + h(y) + s(z); g absorbs the constant term.
    Coefficient tuples are in ascending degree."""

    d: int
    order: tuple
    lam: int
    g: tuple
    h: tuple
    s: tuple

    @property
    def sequence(self):
        """Derivative order expanded into one variable index per step."""
        return sum(((v,) * o for v, o in enumerate(self.order)), ())


def _eval_coeff_vector(coeffs, x, d):
    return sum(c * pow(x, e, d) for e, c in enumerate(coeffs)) % d


def reduce_to_pr(table):
    """Search derivative multi-orders (breadth-first by total order, then
    lexicographic) for one whose polynomial has only pure-variable
    monomials plus an x*y*z term with nonzero coefficient.  Returns None
    when no order works."""
    if not isinstance(table, FunctionTable):
        raise ValidationError("expected a FunctionTable")
    if table.arities != (1, 1, 1):
        raise ValidationError(
            f"reduction needs three single-dit parties, got arities "
            f"{table.arities}")
    d = table.d
    orders = sorted(itertools.product(range(d), repeat=3),
                    key=lambda o: (sum(o), o))
    for order in orders:
        derived = table
        for variable, times in enumerate(order):
            for _ in range(times):
                derived = partial_derivative(derived, variable)
        mu = interpolate_polynomial(derived).coeffs
        lam = int(mu[1, 1, 1])
        if lam == 0:
            continue
        structure_ok = True
        for idx in np.ndindex(mu.shape):
            if idx == (1, 1, 1) or mu[idx] == 0:
                continue
            if sum(1 for e in idx if e) > 1:
                structure_ok = False
                break
        if not structure_ok:
            continue
        g = tuple(int(mu[e, 0, 0]) for e in range(d))
        h = tuple(int(mu[0, e, 0]) if e else 0 for e in range(d))
        s = tuple(int(mu[0, 0, e]) if e else 0 for e in range(d))
        return Reduction(d=d, order=order, lam=lam, g=g, h=h, s=s)
    return None


def _check_reduction(box, reduction):
    if box.d != reduction.d:
        raise ValidationError("reduction was computed for a different d")
    derived = box.table
    for variable, times in enumerate(reduction.order):
        for _ in range(times):
            derived = partial_derivative(derived, variable)
    d = box.d
    for x, y, z in itertools.product(range(d), repeat=3):
        expected = (reduction.lam * x * y * z
                    + _eval_coeff_vector(reduction.g, x, d)
                    + _eval_coeff_vector(reduction.h, y, d)
                    + _eval_coeff_vector(reduction.s, z, d)) % d
        if derived.value((x, y, z)) != expected:
            raise ValidationError(
                "reduction does not match the box's derivative table")


def simulate_pr_from_functional(box, reduction, inputs, rng):
    """One PR box sample built from 2^{total order} functional-box uses.

    Iterated differences of signed box outputs give each party a share of
    the derivative value; subtracting its additive part and dividing by
    lambda turns the shares into shares of x*y*z; a shared random dit k
    re-randomizes the outputs as (a+k, b+k, c-2k).
    """
    if isinstance(box, FunctionTable):
        box = FunctionalBox(box)
    if not isinstance(box, FunctionalBox):
        raise ValidationError("expected a FunctionalBox")
    if box.arities != (1, 1, 1):
        raise ValidationError(
            f"PR simulation needs three single-dit parties, got arities "
            f"{box.arities}")
    _check_reduction(box, reduction)
    d = box.d
    x, y, z = _flatten_inputs(box.arities, inputs, d)
    o1, o2, o3 = reduction.order
    total = o1 + o2 + o3
    shares = [0, 0, 0]
    for bits in itertools.product((0, 1), repeat=total):
        shifts = (sum(bits[:o1]), sum(bits[o1:o1 + o2]), sum(bits[o1 + o2:]))
        sign = 1 if (total - sum(bits)) % 2 == 0 else d - 1
        outputs = box_sample(box, ((x + shifts[0]) % d, (y + shifts[1]) % d,
                                   (z + shifts[2]) % d), rng)
        for i in range(3):
            shares[i] = (shares[i] + sign * outputs[i]) % d
    lam_inv = pow(reduction.lam, -1, d)
    a = lam_inv * (shares[0] - _eval_coeff_vector(reduction.g, x, d)) % d
    b = lam_inv * (shares[1] - _eval_coeff_vector(reduction.h, y, d)) % d
    c = lam_inv * (shares[2] - _eval_coeff_vector(reduction.s, z, d)) % d
    k = int(rng.integers(0, d))
    return ((a + k) % d, (b + k) % d, (c - 2 * k) % d)
