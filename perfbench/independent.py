"""Reference computations written apart from lingame.

Nothing here imports lingame.  Games enter as plain data read from a game
object (group orders, question counts, the exact distribution and the
predicate in lexicographic question order); strategies enter as their
state vector and measurement vectors.  Every routine recomputes a result
lingame also computes, by a different route: full enumeration in numpy
chunks, batched LAPACK SVD, einsum Born rule, Lagrange-basis
interpolation.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np

# Small chunks keep the references from raising the workload process's
# peak resident memory, which the benchmark reports.
CHUNK = 4096


class GameData:
    """A game as arrays: weights over a common denominator, predicate as
    group-element indices, and the group's add/sub tables."""

    def __init__(self, orders, questions, distribution, predicate):
        self.orders = tuple(int(d) for d in orders)
        self.g = math.prod(self.orders)
        self.questions = tuple(int(q) for q in questions)
        self.n = len(self.questions)
        self.p = [Fraction(x) for x in distribution]
        self.den = math.lcm(*[x.denominator for x in self.p])
        self.w = np.array([int(x * self.den) for x in self.p], dtype=np.int64)
        self.elements = list(itertools.product(*(range(d) for d in self.orders)))
        index = {a: i for i, a in enumerate(self.elements)}
        self.f = np.array([index[tuple(a)] for a in predicate], dtype=np.intp)
        self.grid = np.array(list(itertools.product(
            *(range(q) for q in self.questions))), dtype=np.intp)
        res = np.array(self.elements, dtype=np.int64)          # g x t
        mod = np.array(self.orders, dtype=np.int64)
        radix = np.array([math.prod(self.orders[j + 1:])
                          for j in range(len(self.orders))], dtype=np.int64)
        self.add = (((res[:, None, :] + res[None, :, :]) % mod) @ radix).astype(np.intp)
        self.sub = (((res[:, None, :] - res[None, :, :]) % mod) @ radix).astype(np.intp)
        # chi[k, a] = exp(2 pi i sum_j k_j a_j / d_j), phases reduced exactly.
        num = (res[:, None, :] * res[None, :, :]) % mod
        phase = (num * (math.lcm(*self.orders) // mod)).sum(axis=2) % math.lcm(*self.orders)
        self.chi = np.exp(2j * np.pi * phase / math.lcm(*self.orders))
        self.pf = np.array([float(x) for x in self.p])

    @classmethod
    def of(cls, game):
        return cls(game.group.orders, game.question_counts,
                   game.distribution, game.predicate)

    def fingerprint(self):
        text = repr((self.orders, self.questions,
                     [str(x) for x in self.p], self.f.tolist()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _digits(start, stop, base, width):
    idx = np.arange(start, stop, dtype=np.int64)
    powers = base ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // powers) % base


def classical_full(gd):
    """Exact classical value by enumerating every player's full answer
    table: |G|^(Q_1 + ... + Q_n) deterministic strategies."""
    offsets = np.cumsum((0,) + gd.questions[:-1])
    cols = gd.grid + offsets                       # digit position per (input, player)
    width = sum(gd.questions)
    total = gd.g ** width
    best = -1
    for start in range(0, total, CHUNK):
        digits = _digits(start, min(total, start + CHUNK), gd.g, width)
        s = digits[:, cols[:, 0]]
        for i in range(1, gd.n):
            s = gd.add[s, digits[:, cols[:, i]]]
        best = max(best, int(((s == gd.f) @ gd.w).max()))
    return Fraction(best, gd.den)


def svetlichny_full(gd):
    """Exact hybrid value by enumerating, for each lone player, every
    answer table c of it together with every joint answer-sum table of
    the pair.  The pair's sum wins on x when it equals f(x) - c(x_lone)."""
    if gd.n != 3:
        raise ValueError("hybrid values are defined here for 3 players")
    best = 0
    for lone in range(3):
        i, j = [k for k in range(3) if k != lone]
        q_lone = gd.questions[lone]
        c = _digits(0, gd.g ** q_lone, gd.g, q_lone)
        targets = gd.sub[gd.f[None, :], c[:, gd.grid[:, lone]]]    # C x inputs
        joint = gd.grid[:, i] * gd.questions[j] + gd.grid[:, j]
        width = gd.questions[i] * gd.questions[j]
        total = gd.g ** width
        for start in range(0, total, CHUNK):
            sums = _digits(start, min(total, start + CHUNK), gd.g, width)[:, joint]
            for target in targets:
                best = max(best, int(((sums == target) @ gd.w).max()))
    return Fraction(best, gd.den)


def replay(gd, outputs, as_index):
    """Exact winning probability of a deterministic strategy given as
    outputs[player][question] (group elements)."""
    total = Fraction(0)
    for row, x in enumerate(gd.grid):
        s = 0
        for player, q in enumerate(x):
            s = gd.add[s, as_index(outputs[player][q])]
        if s == gd.f[row]:
            total += gd.p[row]
    return total


def is_separable(gd):
    """f(x) = f(0) + sum_i [f(x_i e_i) - f(0)] on the whole grid."""
    f = gd.f.reshape(gd.questions)
    f0 = f[(0,) * gd.n]
    acc = np.full(gd.questions, f0, dtype=np.intp)
    for i in range(gd.n):
        axis = f[tuple(slice(None) if k == i else 0 for k in range(gd.n))]
        theta = gd.sub[axis, f0]
        shape = [1] * gd.n
        shape[i] = gd.questions[i]
        acc = gd.add[acc, np.broadcast_to(theta.reshape(shape), gd.questions)]
    return bool((acc == f).all())


def _bipartitions(n):
    return [tuple(i for i in range(n) if mask >> i & 1)
            for mask in range(1, 2 ** n - 1) if mask & 1]


def quantum_bound(gd):
    """(raw, clamped) norm bound: the minimum over bipartitions S of
    (1 + sqrt(Q_1...Q_n) sum_{k != e} ||Phi_k^S||) / |G|, with every norm
    from one batched np.linalg.svd."""
    values = gd.pf[None, :] * gd.chi[1:, gd.f]                # (g-1) x inputs
    scale = math.sqrt(math.prod(gd.questions))
    raws = []
    for side in _bipartitions(gd.n):
        comp = [i for i in range(gd.n) if i not in side]
        rows = np.ravel_multi_index(gd.grid[:, side].T, [gd.questions[i] for i in side])
        cols = np.ravel_multi_index(gd.grid[:, comp].T, [gd.questions[i] for i in comp])
        mats = np.zeros((gd.g - 1, math.prod(gd.questions[i] for i in side),
                         math.prod(gd.questions[i] for i in comp)), dtype=complex)
        mats[:, rows, cols] = values
        sigma = np.linalg.svd(mats, compute_uv=False)[:, 0]
        raws.append((1.0 + scale * sigma.sum()) / gd.g)
    raw = min(raws)
    return raw, min(raw, 1.0)


def biseparable_bound(gd):
    """(raw, clamped) biseparable bound: the maximum over lone players and
    their answer tables c of (1 + sqrt(Q_i Q_j) sum_k ||Phi_k^B(c)||)/|G|,
    Phi_k^B(c)[x_i, x_j] = sum_{x_lone} p(x) chi_k(f(x) - c(x_lone))."""
    raw = -1.0
    for lone in range(3):
        i, j = [k for k in range(3) if k != lone]
        c = _digits(0, gd.g ** gd.questions[lone], gd.g, gd.questions[lone])
        shifted = gd.sub[gd.f[None, :], c[:, gd.grid[:, lone]]]   # C x inputs
        mats = np.zeros((len(c), gd.g - 1, gd.questions[i], gd.questions[j]),
                        dtype=complex)
        for row, x in enumerate(gd.grid):
            mats[:, :, x[i], x[j]] += gd.pf[row] * gd.chi[1:, shifted[:, row]].T
        sigma = np.linalg.svd(mats, compute_uv=False)[..., 0]
        scale = math.sqrt(gd.questions[i] * gd.questions[j])
        raw = max(raw, float(((1.0 + scale * sigma.sum(axis=1)) / gd.g).max()))
    return raw, min(raw, 1.0)


# ---------------------------------------------------------------------------
# chsh(n, d): predicate and the paper's closed-form bound


def chsh_closed_form(d):
    return 1.0 / d + (d - 1) / (d * math.sqrt(d))


def _prime_power(d):
    p = next(q for q in range(2, d + 1) if d % q == 0)
    r = round(math.log(d, p))
    return p, r


def _smallest_irreducible(p, r):
    """Lexicographically smallest monic irreducible of degree r over Z_p,
    found by checking for roots (r <= 3) - enough for the sizes used."""
    if r == 1:
        return (1, 0)
    if r > 3:
        raise ValueError("degree above 3 is not needed here")
    for tail in itertools.product(range(p), repeat=r):
        poly = (1,) + tail
        if all(sum(c * pow(x, r - e, p) for e, c in enumerate(poly)) % p
               for x in range(p)):
            return poly
    raise ValueError("no irreducible polynomial")


def field_mul_table(d):
    """Multiplication table of GF(d) on element indices whose base-p digits
    are polynomial coefficients, highest degree first."""
    p, r = _prime_power(d)
    if r == 1:
        a = np.arange(d)
        return np.outer(a, a) % d
    modulus = _smallest_irreducible(p, r)
    def coeffs(i):
        return [(i // p ** (r - 1 - k)) % p for k in range(r)]
    table = np.zeros((d, d), dtype=np.intp)
    for a in range(d):
        for b in range(d):
            prod = np.convolve(coeffs(a), coeffs(b)) % p
            prod = list(prod)
            while len(prod) > r:                 # reduce by the monic modulus
                lead = prod.pop(0)
                for k in range(r):
                    prod[k] = (prod[k] - lead * modulus[k + 1]) % p
            table[a, b] = sum(c * p ** (r - 1 - k) for k, c in enumerate(prod))
    return table


def chsh_predicate(n, d):
    """f(x) = sum_{i<j} x_i x_j in GF(d), as element indices in grid order
    (GF(d) addition is digit-wise addition mod p)."""
    p, r = _prime_power(d)
    mul = field_mul_table(d)
    def add(a, b):
        return sum((((a // p ** k) + (b // p ** k)) % p) * p ** k for k in range(r))
    out = []
    for x in itertools.product(range(d), repeat=n):
        total = 0
        for i in range(n):
            for j in range(i + 1, n):
                total = add(total, int(mul[x[i], x[j]]))
        out.append(total)
    return np.array(out, dtype=np.intp)


# ---------------------------------------------------------------------------
# Born rule


def born_table(state, vectors):
    """P(a | x) for a pure state and rank-one measurements;
    vectors[i] has shape (questions, outcomes, dim).  Rows are question
    tuples, columns answer tuples, both lexicographic."""
    n = len(vectors)
    psi = state.reshape([v.shape[2] for v in vectors])
    letters = "abcdefgh"
    qs, os_, ds = letters[:n], letters[n:2 * n].upper(), "ijklmn"[:n]
    spec = ",".join(f"{qs[i]}{os_[i]}{ds[i]}" for i in range(n))
    amp = np.einsum(f"{spec},{ds}->{qs}{os_}",
                    *[v.conj() for v in vectors], psi)
    n_inputs = math.prod(v.shape[0] for v in vectors)
    return (np.abs(amp) ** 2).reshape(n_inputs, -1)


def success(gd, table):
    """sum_x p(x) P(sum a = f(x) | x) with the answer sums from the add table."""
    sums = np.zeros(1, dtype=np.intp)
    for _ in range(gd.n):
        sums = gd.add[sums[:, None], np.arange(gd.g)[None, :]].ravel()
    hit = sums[None, :] == gd.f[:, None]
    return float((gd.pf[:, None] * table * hit).sum())


# ---------------------------------------------------------------------------
# Functions over Z_d


def lagrange_matrix(d):
    """W[e, a]: coefficient of x^e in the indicator of x = a over Z_d,
    from 1 - (x - a)^(d-1) expanded binomially."""
    w = np.zeros((d, d), dtype=np.int64)
    for a in range(d):
        for e in range(d):
            term = math.comb(d - 1, e) * pow(-a % d, d - 1 - e, d)
            w[e, a] = ((1 if e == 0 else 0) - term) % d
    return w


def coefficients(arr, d):
    """Polynomial coefficients (one exponent axis per variable) of a table
    given with one axis per variable."""
    w = lagrange_matrix(d)
    for axis in range(arr.ndim):
        arr = np.moveaxis(np.tensordot(w, arr, axes=([1], [axis])), 0, axis) % d
    return arr


def derivative(arr, order, d):
    for axis, times in enumerate(order):
        for _ in range(times):
            arr = (np.roll(arr, -1, axis=axis) - arr) % d
    return arr


def reduction_orders(arr, d):
    """Every derivative multi-order whose polynomial is lambda*x*y*z plus
    pure single-variable monomials, lambda != 0."""
    found = []
    for order in itertools.product(range(d), repeat=3):
        mu = coefficients(derivative(arr, order, d), d)
        if mu[1, 1, 1] == 0:
            continue
        mixed = [idx for idx in zip(*np.nonzero(mu))
                 if sum(1 for e in idx if e) > 1 and tuple(idx) != (1, 1, 1)]
        if not mixed:
            found.append(order)
    return found


def reduced_form(d, lam, g, h, s):
    x = np.arange(d)
    def poly(c):
        return sum(int(ce) * x ** e for e, ce in enumerate(c))
    return (lam * x[:, None, None] * x[None, :, None] * x[None, None, :]
            + poly(g)[:, None, None] + poly(h)[None, :, None]
            + poly(s)[None, None, :]) % d
