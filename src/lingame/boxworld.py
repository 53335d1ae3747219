"""Nonlocal boxes and box-assisted communication.

A PR box on n parties and prime d takes one dit from each party and
returns outputs that are uniform over the d^{n-1} tuples satisfying

    a_1 + ... + a_n = x_1 * ... * x_n  (mod d);

a functional box enforces Sigma a_i = F(x_1, ..., x_n) instead.  Sharing
such boxes collapses communication complexity: every
F: Z_d^{m_1} x ... x Z_d^{m_n} -> Z_d is a polynomial of per-variable
degree at most d-1, each monomial is one box use, and the mu-weighted sums
of local box outputs are shares of F, so n-1 dits finish the job.  The
protocol spends one box per exponent tuple, d^{m_1+...+m_n} in total, and
samples them all in one batched draw of shape (boxes, n-1): the generator
hands out the same values as one draw per box in lexicographic order.
Many runs on random inputs take one draw for all their shots, each row a
shot's inputs and then its boxes, in the order of run-by-run draws.  The
boxes' PR targets are the outer product of each variable's row of powers,
and the last party's total closes by linearity: the mu-weighted sum of the
targets, F(inputs), minus the other parties' totals.

Functional boxes whose predicate has a partial derivative of the shape
lambda*x*y*z + g(x) + h(y) + s(z) can simulate a PR box: iterated
differences of box outputs form shares of the derivative, affine
corrections strip lambda and the additive parts, and a shared random dit
re-randomizes the outputs.  A reduction reads its fields as Python ints
when it is built, so a table checks it once and keeps the result for the
next equal one.  Each of its three derivative orders is below d: every
d-th difference over Z_d is 0, and so is every lambda it could give.  The
search writes the table once in the Newton basis C(x, a), where differences
shift coefficients, and tests every order at once; ``_newton`` holds the two
d x d tables of a d, N from values to that basis and B from it to monomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .algebra import AbelianGroup, _is_prime, as_int, as_int_tuple
from .errors import GameFormatError, ValidationError
from .games import (_is_int, _load, _nonempty_list, _read_document,
                    target_behavior)


class FunctionTable(object):
    """A function Z_d^{m_1} x ... x Z_d^{m_n} -> Z_d stored as a flat
    table in lexicographic order of the concatenated input variables."""

    def __init__(self, d, arities, values):
        self.d = as_int(d, "d")
        if not _is_prime(self.d):
            raise ValidationError(f"d must be prime, got {d!r}")
        self.arities = as_int_tuple(arities, "arities")
        if not self.arities or any(m < 1 for m in self.arities):
            raise ValidationError(f"arities must be positive, got {arities!r}")
        self.variables = sum(self.arities)
        self.values = as_int_tuple(values, "table entries")
        if len(self.values) != self.d**self.variables:
            raise ValidationError(
                f"table has {len(self.values)} entries, expected "
                f"{self.d**self.variables}")
        if any(not 0 <= v < self.d for v in self.values):
            raise ValidationError(f"table entries must lie in Z_{self.d}")
        # The last reduction that passed _check_reduction, and its result.
        self._checked = None

    @property
    def players(self):
        return len(self.arities)

    @cached_property
    def _mu(self):
        """Read-only flat polynomial coefficients, lexicographic order."""
        return interpolate_polynomial(self).coeffs.reshape(-1)

    @cached_property
    def _array(self):
        arr = np.array(self.values, dtype=np.int64).reshape(
            (self.d,) * self.variables)
        arr.setflags(write=False)
        return arr

    def as_array(self):
        """Table reshaped to one axis per variable: one read-only array,
        built on first use."""
        return self._array

    def value(self, variables):
        """Value at a flat tuple of all input variables."""
        variables = as_int_tuple(variables, "input symbols")
        if len(variables) != self.variables:
            raise ValidationError(
                f"expected {self.variables} variables, got {len(variables)}")
        for v in variables:
            if not 0 <= v < self.d:
                raise ValidationError(f"input symbol {v} outside Z_{self.d}")
        return self.values[reduce(lambda i, v: i * self.d + v, variables, 0)]

    def __eq__(self, other):
        return (isinstance(other, FunctionTable)
                and (self.d, self.arities, self.values)
                == (other.d, other.arities, other.values))

    def __repr__(self):
        return f"FunctionTable(d={self.d}, arities={self.arities})"


def parse_function_file(text):
    """Parse the JSON function-table format: keys ``d`` (prime),
    ``arities`` (int array) and ``table`` (flat lexicographic values)."""
    doc = _read_document(text, {"d", "arities", "table"})
    d, table = doc["d"], doc["table"]
    if not _is_int(d):
        raise GameFormatError(f"d: expected an integer, got {d!r}")
    arities = _nonempty_list(doc["arities"], "arities", "a non-empty array")
    if not isinstance(table, list):
        raise GameFormatError("table: expected an array")
    for key, values in (("arities", arities), ("table", table)):
        for i, v in enumerate(values):
            if not _is_int(v):
                raise GameFormatError(
                    f"{key}[{i}]: expected an integer, got {v!r}")
    try:
        return FunctionTable(d, arities, table)
    except ValidationError as e:
        raise GameFormatError(str(e)) from None


def load_function(path):
    return _load(path, parse_function_file)


# ---------------------------------------------------------------------------
# Boxes


@dataclass(frozen=True)
class PRBox:
    """Box enforcing Sigma a_i = Prod x_i over Z_d, d prime."""

    players: int
    d: int

    def __post_init__(self):
        for name in ("players", "d"):
            object.__setattr__(self, name,
                               as_int(getattr(self, name), f"box {name}"))
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
    try:
        inputs = tuple(inputs)
    except TypeError:
        raise ValidationError(
            f"input symbols must be integers, got {inputs!r}") from None
    total = sum(arities)
    if len(inputs) == total and not any(hasattr(v, "__len__")
                                        for v in inputs):
        flat = as_int_tuple(inputs, "input symbols")
    elif len(inputs) == len(arities):
        flat = []
        for i, (m, value) in enumerate(zip(arities, inputs)):
            part = as_int_tuple((value,) if isinstance(value, (int, np.integer))
                                else value, f"party {i} input")
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
    """One use of a box: n-1 uniform outputs, then the one closing the sum."""
    target = box.target(inputs)
    row = rng.integers(0, box.d, size=box.players - 1).tolist()
    return (*row, (target - sum(row)) % box.d)


def box_behavior(box):
    """Exact conditional distribution of a box, as a behavior over the
    cyclic group Z_d with one question per possible party input."""
    d, n = box.d, box.players
    questions = tuple(d**m for m in box.arities)
    group = AbelianGroup((d,))
    # Row index runs lexicographically over the concatenated variables,
    # matching the per-party question indexing.
    if isinstance(box, FunctionalBox):
        targets = np.array(box.table.values)
    else:
        targets = np.indices((d,) * n).reshape(n, -1).prod(axis=0) % d
    return target_behavior(group, questions, targets)


# ---------------------------------------------------------------------------
# Polynomial interpolation over Z_d


@lru_cache(maxsize=32)  # bounded: a key holds d^2 entries
def _vandermonde(d):
    # v[x, alpha] = x^alpha mod d, with 0^0 = 1; shared, so read-only
    v = np.array([[pow(x, alpha, d) for alpha in range(d)]
                  for x in range(d)], dtype=np.int64)
    v.setflags(write=False)
    return v


@lru_cache(maxsize=32)  # bounded: a key holds d^2 entries
def _vandermonde_inverse(d):
    # Over Z_d, sum_x x^k is -1 for k > 0 a multiple of d-1 and 0 otherwise,
    # so mu_b = -sum_x f(x) x^(d-1-b) for b > 0, and mu_0 = f(0).
    w = -_vandermonde(d)[:, ::-1].T % d
    w[0] = np.arange(d) == 0
    w.setflags(write=False)
    return w


@lru_cache(maxsize=32)  # bounded: a key holds 2 d^2 entries
def _newton(d):
    """Read-only N, B mod d for the Newton basis C(x, a), a < d: N[a, x] =
    (-1)^(a-x) C(a, x) maps values on Z_d to Newton coefficients, and B[i,
    a], the coefficient of x^i in C(x, a), maps those to monomials."""
    v = np.array([[math.comb(x, a) % d for a in range(d)] for x in range(d)])
    n = v * (-1) ** np.add.outer(range(d), range(d)) % d
    b = _vandermonde_inverse(d) @ v % d
    for t in (n, b):
        t.setflags(write=False)
    return n, b


def _along_axes(arr, matrix, d):
    """``matrix`` applied along every axis of a (d, ..., d) array, mod d; each
    product takes the first axis and appends the new one last."""
    for _ in range(arr.ndim):
        arr = (arr.reshape(d, -1).T @ matrix.T % d).reshape(arr.shape)
    return arr


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
        moved = np.moveaxis(self.coeffs, variable, 0).reshape(self.d, -1)
        return int(np.append(-1, np.flatnonzero(moved.any(axis=1)))[-1])

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
    arr = _along_axes(table.as_array(), _vandermonde_inverse(d), d)
    arr.setflags(write=False)
    return PolyCoefficients(d=d, arities=table.arities, coeffs=arr)


def partial_derivative(table, variable):
    """Difference table f(..., x_v + 1, ...) - f(..., x_v, ...) mod d; the
    polynomial degree in that variable drops by at least one."""
    if not isinstance(table, FunctionTable):
        raise ValidationError("expected a FunctionTable")
    variable = as_int(variable, "variable index")
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


def _protocol_size(table):
    """d, the party count n and the boxes per run, d^m for m variables."""
    if not isinstance(table, FunctionTable):
        raise ValidationError("expected a FunctionTable")
    if table.players < 2:  # a lone party has no box to share
        raise ValidationError("a box needs at least 2 parties")
    return table.d, table.players, table.d ** table.variables


def _protocol_totals(table, inputs, draws):
    """Local totals at [shot, party] of protocol runs on the flat inputs at
    [shot, variable], given the first n-1 outputs of each box at [shot,
    box, party].  Box e (lexicographic over exponent tuples) has the full
    monomial x^e as its PR target, the product of the parties' local
    monomials, and its last output closes its sum to that target; so the
    last party's total is the mu-weighted sum of the targets minus the
    other parties' totals."""
    d, mu, shots = table.d, table._mu, len(inputs)
    powers = _vandermonde(d)[inputs]
    # Outer product of the variables' rows of powers, the first variable
    # slowest; a product of m powers below d stays below d^m, the box count.
    targets = powers[:, 0]
    for column in range(1, table.variables):
        targets = (targets[:, :, None] * powers[:, column, None, :]).reshape(
            shots, targets.shape[1] * d)
    totals = np.empty((shots, table.players), dtype=np.int64)
    totals[:, :-1] = mu @ draws
    totals[:, -1] = targets % d @ mu - totals[:, :-1].sum(axis=1)
    return totals % d


def cc_protocol(table, inputs, rng):
    """Compute F(inputs) with n-1 dits of communication, one PR box per
    monomial exponent tuple: the one-shot case of ``protocol_runs``.

    Party i feeds its box the value of its local monomial, keeps the
    mu-weighted sum of its box outputs, and every party but the first
    sends that single dit to party 1, who adds everything up.
    """
    d, n, boxes = _protocol_size(table)
    flat = np.array([_flatten_inputs(table.arities, inputs, d)])
    draws = rng.integers(0, d, size=(1, boxes, n - 1))
    totals = tuple(_protocol_totals(table, flat, draws)[0].tolist())
    return ProtocolTranscript(boxes_used=boxes,
                              local_outputs=totals,
                              dits=totals[1:],
                              result=sum(totals) % d)


def protocol_runs(table, shots, rng):
    """Flat inputs at [shot, variable] and local totals at [shot, party] of
    ``shots`` runs on uniform random inputs; a run computes the sum of its
    totals mod d.  One draw holds a row per shot, its m inputs and then its
    boxes: the values that drawing each shot's inputs and then calling
    ``cc_protocol`` on them take from the generator."""
    d, n, boxes = _protocol_size(table)
    shots = as_int(shots, "shots")
    if shots < 0:
        raise ValidationError(f"shots must be non-negative, got {shots}")
    m = table.variables
    row = rng.integers(0, d, size=(shots, m + boxes * (n - 1)))
    draws = row[:, m:].reshape(shots, boxes, n - 1)
    return row[:, :m], _protocol_totals(table, row[:, :m], draws)


# ---------------------------------------------------------------------------
# Reduction of functional boxes to PR boxes


@dataclass(frozen=True)
class Reduction:
    """Derivative multi-order turning a three-variable predicate into
    lambda*x*y*z + g(x) + h(y) + s(z); g absorbs the constant term.
    Coefficient tuples are in ascending degree.  Each field is read once,
    as Python ints by ``as_int`` and ``as_int_tuple``; the order is three
    of them, each in range(d) (see the module docstring)."""

    d: int
    order: tuple
    lam: int
    g: tuple
    h: tuple
    s: tuple

    def __post_init__(self):
        for name in ("d", "order", "lam", "g", "h", "s"):
            read = as_int if name in ("d", "lam") else as_int_tuple
            object.__setattr__(self, name, read(getattr(self, name),
                                                f"reduction {name}"))
        if len(self.order) != 3 or not all(0 <= o < self.d for o in self.order):
            raise ValidationError(f"reduction order must be three integers in "
                                  f"range({self.d}), got {self.order!r}")

    @property
    def sequence(self):
        """Derivative order expanded into one variable index per step."""
        return sum(((v,) * o for v, o in enumerate(self.order)), ())


def reduce_to_pr(table):
    """First derivative multi-order (by total order, then lexicographic)
    whose polynomial has only pure-variable monomials plus an x*y*z term
    with nonzero coefficient.  Returns None when no order works.

    In the Newton basis C(x,a) C(y,b) C(z,c), Delta C(x, a) = C(x, a-1), so
    order (p, q, r) has the coefficients n[a+p, b+q, c+r].  The change to
    monomials maps each set of variables with a positive exponent to itself,
    triangularly, and C(x,1) C(y,1) C(z,1) = xyz: the test and lambda read
    the same in both bases."""
    if not isinstance(table, FunctionTable):
        raise ValidationError("expected a FunctionTable")
    if table.arities != (1, 1, 1):
        raise ValidationError(
            f"reduction needs three single-dit parties, got arities "
            f"{table.arities}")
    d = table.d
    forward, back = _newton(d)
    n = _along_axes(table.as_array(), forward, d)
    # s[i, j, k]: nonzero n[a, b, c] with a >= i, b >= j, c >= k, 0 past d.
    nonzero = np.zeros((d + 1,) * 3, dtype=bool)
    nonzero[:d, :d, :d] = n != 0
    s = np.flip(np.flip(nonzero).cumsum(0).cumsum(1).cumsum(2))
    # At order o, two counts the nonzero n[a, b, c] >= o with two or more of
    # a, b, c above o's; o is valid when the corner n[o + 1] is the only one.
    two = s[1:, 1:, :-1] + s[1:, :-1, 1:] + s[:-1, 1:, 1:] - 2 * s[1:, 1:, 1:]
    valid = np.flatnonzero((two == 1) & nonzero[1:, 1:, 1:])
    if not valid.size:
        return None
    k = int(valid[(valid // d**2 + valid // d % d + valid % d).argmin()])
    p, q, r = k // d**2, k // d % d, k % d
    return Reduction(d, (p, q, r), n[p + 1, q + 1, r + 1],
                     (back[:, :d - p] @ n[p:, q, r] % d).tolist(),
                     (0, *(back[1:, :d - q] @ n[p, q:, r] % d).tolist()),
                     (0, *(back[1:, :d - r] @ n[p, q, r:] % d).tolist()))


def _additive_table(rows, d):
    """The polynomial rows (ascending coefficients) evaluated on Z_d, at
    [row, x].  Each row is first folded onto exponents 0..d-1 in Python
    ints mod d, by Fermat: x^e = x^(1 + (e-1) mod (d-1)) on Z_d for e >= 1,
    so rows of any length and coefficients of any size are read as
    written."""
    folded = []
    for row in rows:
        bins = [0] * d
        for e, c in enumerate(row):
            bins[e and 1 + (e - 1) % (d - 1)] += c
        folded.append([b % d for b in bins])
    return np.array(folded) @ _vandermonde(d).T % d


def _check_reduction(table, reduction):
    """Raise unless the reduction matches the table's derivative table and
    its lambda is invertible mod d; else return lambda mod d and the rows
    g, h, s evaluated on Z_d, read-only."""
    if table.d != reduction.d:
        raise ValidationError("reduction was computed for a different d")
    d = table.d
    lam = reduction.lam % d
    if lam == 0:
        raise ValidationError(
            f"reduction has lambda = {reduction.lam}, not invertible mod {d}")
    derived = table.as_array()
    for variable in reduction.sequence:
        derived = (np.roll(derived, -1, axis=variable) - derived) % d
    additive = _additive_table((reduction.g, reduction.h, reduction.s), d)
    expected = (lam * reduce(np.multiply.outer, [np.arange(d)] * 3)
                + reduce(np.add.outer, additive)) % d
    if not np.array_equal(derived, expected):
        raise ValidationError(
            "reduction does not match the box's derivative table")
    additive.setflags(write=False)
    return lam, additive


def _checked_reduction(table, reduction):
    """``_check_reduction``'s result, kept on the table for the next equal
    reduction: one slot, filled only by a check that passed; the very
    object in the slot skips the comparison."""
    checked = table._checked  # one read, so a concurrent write cannot mix slots
    if checked is None or (checked[0] is not reduction
                           and checked[0] != reduction):
        checked = table._checked = (reduction, _check_reduction(table, reduction))
    return checked[1]


@lru_cache(maxsize=32)  # bounded: a stencil has 2^(total order) rows
def _difference_stencil(sequence, d):
    """Read-only shifts at [pattern, variable] and signs mod d of the
    iterated difference along ``sequence``: one row per derivative bit
    pattern, lexicographic, first bit most significant; bit j shifts the
    variable that derivative step j acts on."""
    total = len(sequence)
    bits = np.arange(2**total)[:, None] >> np.arange(total)[::-1] & 1
    owner = np.arange(3) == np.array(sequence, dtype=int)[:, None]
    shifts = bits @ owner
    sign = np.where((total - bits.sum(axis=1)) % 2, d - 1, 1)
    shifts.setflags(write=False)
    sign.setflags(write=False)
    return shifts, sign


def simulate_pr_from_functional(box, reduction, inputs, rng):
    """One PR box sample built from 2^{total order} functional-box uses.

    Iterated differences of signed box outputs give each party a share of
    the derivative value; subtracting its additive part and dividing by
    lambda turns the shares into shares of x*y*z; a shared random dit k
    re-randomizes the outputs as (a+k, b+k, c-2k).
    """
    if isinstance(box, FunctionTable):
        box = FunctionalBox(box)
    if not (isinstance(box, FunctionalBox) and isinstance(reduction, Reduction)):
        raise ValidationError("expected a FunctionalBox and a Reduction")
    if box.arities != (1, 1, 1):
        raise ValidationError(
            f"PR simulation needs three single-dit parties, got arities "
            f"{box.arities}")
    lam, additive = _checked_reduction(box.table, reduction)
    d = box.d
    point = np.array(_flatten_inputs(box.arities, inputs, d))
    shifts, sign = _difference_stencil(reduction.sequence, d)
    targets = box.table.as_array()[tuple(((point + shifts) % d).T)]
    # One draw: two uniform outputs per use, row by row, then the dit k.
    draws = rng.integers(0, d, size=2 * len(targets) + 1)
    pairs = draws[:-1].reshape(-1, 2)
    outputs = np.column_stack([pairs, (targets - pairs.sum(axis=1)) % d])
    shares = sign @ outputs % d
    a, b, c = (pow(lam, -1, d) * (shares - additive[range(3), point])
               % d).tolist()
    k = int(draws[-1])
    return ((a + k) % d, (b + k) % d, (c - 2 * k) % d)
