"""Finite Abelian groups, their characters, and small prime-power fields.

Groups are products of cyclic factors Z_{d_1} x ... x Z_{d_t}; elements are
tuples of residues.  The character indexed by a group element k is

    chi_k(a) = exp(+2*pi*i * sum_j k_j * a_j / d_j)

and satisfies chi_k(a + b) = chi_k(a) * chi_k(b), conj(chi_k(a)) =
chi_k(-a), and the orthogonality relation sum_a chi_k(a) conj(chi_l(a)) =
|G| * delta_{kl}.

Fields GF(p^r) represent elements as length-r coefficient tuples of
polynomials over Z_p, highest degree first, so GF(8)'s X + 1 is (0, 1, 1).
The modulus defaults to the lexicographically smallest monic irreducible
polynomial of degree r, e.g. X^2 + X + 1 for GF(4) and X^3 + X + 1 for
GF(8).

Tables that depend only on a group's or a field's value (the character
table and its conjugate pairs, the field's multiplication table) are
built once per process, by bounded caches keyed by the value, and shared
read-only by every instance equal to it; an instance fetches its table
from the cache on first use.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ValidationError


class CharacterPairs(NamedTuple):
    """The nontrivial characters of a group by conjugate pairs; see
    ``AbelianGroup.character_pairs``."""

    reps: np.ndarray
    real: int
    slot: np.ndarray
    table: np.ndarray
    phase: np.ndarray


class AbelianGroup:
    """A finite Abelian group written as a product of cyclic factors.

    Elements enumerate lexicographically on their residue tuples; that one
    enumeration order is shared by every matrix, behavior and correlator
    index in the package.
    """

    def __init__(self, orders):
        orders = as_int_tuple(orders, "cyclic factor orders")
        if not orders:
            raise ValueError("group needs at least one cyclic factor")
        for d in orders:
            if d < 2:
                raise ValueError(f"cyclic factor orders must be >= 2, got {d}")
        self.orders = orders
        self.size = math.prod(orders)
        self.exponent = math.lcm(*orders)  # chi_k(a) ** exponent == 1
        self._elements = list(itertools.product(*(range(d) for d in orders)))
        self._index = {a: i for i, a in enumerate(self._elements)}

    @property
    def identity(self):
        return (0,) * len(self.orders)

    def elements(self):
        """All elements in enumeration (lexicographic) order."""
        return list(self._elements)

    def index(self, a):
        """Position of an element in enumeration order."""
        try:
            return self._index[tuple(a)]
        except (KeyError, TypeError):
            raise ValueError(f"{a!r} is not an element of {self!r}") from None

    def element(self, i):
        return self._elements[i]

    def coerce(self, a):
        """Accept a residue tuple, list, or bare int (single-factor groups)."""
        a = as_int_tuple((a,) if isinstance(a, (int, np.integer)) else a,
                         "group element residues")
        if a not in self._index:
            raise ValueError(f"{a!r} is not an element of {self!r}")
        return a

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def sub(self, a, b):
        return tuple((x - y) % d for x, y, d in zip(a, b, self.orders))

    def character(self, k, a):
        """chi_k(a) = exp(2*pi*i * sum_j k_j a_j / d_j)."""
        k = self.coerce(k)
        a = self.coerce(a)
        # Exact rational phase mod 1 keeps the roots of unity on the circle.
        phase = Fraction(0)
        for kj, aj, d in zip(k, a, self.orders):
            phase += Fraction(kj * aj, d)
        phase %= 1
        return cmath.exp(2j * cmath.pi * float(phase))

    def character_table(self):
        """Complex array T[k_index, a_index] = chi_k(a): read-only and
        shared by every group of these cyclic orders."""
        return self._characters[1]

    @cached_property
    def _characters(self):
        return _character_table(self.orders)

    @cached_property
    def character_pairs(self):
        """The nontrivial characters, one per conjugate pair {k, -k},
        shared read-only by every group of these cyclic orders.

        ``reps`` are the element indices of the representatives: first
        every real character (k = -k), then the first member of each
        complex pair, in enumeration order; ``real`` counts the real ones.
        ``slot[i]`` is the position in ``reps`` of the representative of
        the nontrivial character i + 1, ``table`` holds the
        representatives' rows of ``character_table``, the real ones with
        their imaginary parts set to 0, and ``phase`` their integer phases
        j, table = exp(2 pi i j / exponent).  Since p(x) is real, the game
        matrix of -k is the conjugate of that of k, with the same norm."""
        return _character_pairs(self.orders)

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return f"AbelianGroup({list(self.orders)})"


@lru_cache(maxsize=32)  # bounded: a key holds |G|^2 entries
def _character_table(orders):
    """(phase, table) of the group with cyclic factors ``orders``:
    phase[k, a] = sum_j k_j a_j (L / d_j) mod L over the exponent L, an
    integer phase exact like ``character``, and table = exp(2 pi i phase /
    L), where phase / L rounds as float(Fraction).  Both read-only."""
    exponent = math.lcm(*orders)
    res = np.indices(orders).reshape(len(orders), -1).T  # enumeration order
    scale = np.array([exponent // d for d in orders], dtype=np.int64)
    phase = (res[:, None] * res[None] * scale).sum(axis=2) % exponent
    table = np.exp(2j * np.pi * (phase / exponent))
    for a in (phase, table):
        a.setflags(write=False)
    return phase, table


@lru_cache(maxsize=32)  # bounded: a key holds |G|^2 entries
def _character_pairs(orders):
    """``AbelianGroup.character_pairs`` of the group with cyclic factors
    ``orders``, every array read-only."""
    phase, full = _character_table(orders)
    size = len(full)
    residues = -np.indices(orders).reshape(len(orders), -1) % np.array(orders)[:, None]
    neg = np.ravel_multi_index(tuple(residues), orders)  # index of -k
    ks = np.arange(1, size)
    real = ks[neg[ks] == ks]
    reps = np.concatenate([real, ks[neg[ks] > ks]])
    slot = np.empty(size, dtype=np.intp)
    slot[reps] = slot[neg[reps]] = np.arange(len(reps))
    table = full[reps]
    table[:len(real)] = table[:len(real)].real
    phase = phase[reps]
    slot = slot[1:]
    for a in (reps, slot, table, phase):
        a.setflags(write=False)
    return CharacterPairs(reps, len(real), slot, table, phase)


def as_int_tuple(values, what):
    """``values`` as a tuple of Python ints, each read by ``as_int``."""
    try:
        values = tuple(values)
    except TypeError:
        raise ValidationError(f"{what} must be integers, got {values!r}") from None
    if all(type(v) is int for v in values):
        return values
    return tuple(as_int(v, what, "integers") for v in values)


def as_int(value, what, kind="an integer"):
    """``value`` as a Python int: a Python or numpy integer of any size.  A
    bool, a float (3.0 included) or a non-numeric value raises
    ValidationError instead of being truncated.  Every integer a caller
    passes is read by this rule, alone or in ``as_int_tuple``."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{what} must be {kind}, got {value!r}")
    return int(value)


def _is_prime(n):
    if n < 2:
        return False
    for q in range(2, int(math.isqrt(n)) + 1):
        if n % q == 0:
            return False
    return True


def _poly_mul(a, b, p):
    """Convolution of descending-order coefficient sequences over Z_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a, m, p):
    """Remainder of a modulo the monic polynomial m, over Z_p."""
    a = list(a)
    for i in range(len(a) - len(m) + 1):
        c = a[i]
        if c:
            for j, mj in enumerate(m):
                a[i + j] = (a[i + j] - c * mj) % p
    return a[max(len(a) - len(m) + 1, 0):]


def _strip(a):
    i = 0
    while i < len(a) - 1 and a[i] == 0:
        i += 1
    return a[i:]


def is_irreducible(poly, p):
    """Trial division of a monic polynomial by every monic polynomial of
    degree at most deg/2."""
    poly = tuple(c % p for c in as_int_tuple(poly, "polynomial coefficients"))
    if poly[0] != 1:
        raise ValueError("irreducibility test expects a monic polynomial")
    deg = len(poly) - 1
    if deg < 1:
        raise ValueError("irreducibility is about polynomials of degree >= 1")
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = (1,) + tail
            if not any(_strip(_poly_rem(poly, g, p))):
                return False
    return True


def smallest_irreducible(p, r):
    """Lexicographically smallest monic irreducible of degree r over Z_p."""
    for tail in itertools.product(range(p), repeat=r):
        f = (1,) + tail
        if is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible polynomial of degree {r} over Z_{p}")


@lru_cache(maxsize=32)  # bounded: a key holds |F|^2 entries
def _mul_table(p, r, modulus):
    """``FiniteField.mul_table`` of GF(p^r) modulo ``modulus``: digit
    convolutions reduced by the monic modulus, read-only."""
    size = p**r
    digits = np.array(list(itertools.product(range(p), repeat=r)), dtype=np.int64)
    prod = np.zeros((size, size, 2 * r - 1), dtype=np.int64)
    for i, j in itertools.product(range(r), repeat=2):
        prod[:, :, i + j] += np.outer(digits[:, i], digits[:, j])
    for k in range(r - 1):  # cancel degree 2r-2-k with the monic modulus
        prod[:, :, k:k + r + 1] -= (prod[:, :, k, None] % p) * modulus
    table = (prod[:, :, r - 1:] % p) @ p ** np.arange(r - 1, -1, -1)
    table.setflags(write=False)
    return table


class FiniteField:
    """GF(p^r) with coefficient-tuple elements, highest degree first.

    Element index i corresponds to the tuple of base-p digits of i, so for
    GF(4) the enumeration runs 0, 1, X, X + 1.
    """

    def __init__(self, p, r=1, modulus=None):
        p = as_int(p, "field characteristic")
        r = as_int(r, "field extension degree")
        if not _is_prime(p):
            raise ValueError(f"field characteristic must be prime, got {p}")
        if r < 1:
            raise ValueError(f"field extension degree must be >= 1, got {r}")
        if modulus is None:
            modulus = smallest_irreducible(p, r)
        else:
            modulus = tuple(c % p for c in as_int_tuple(modulus, "modulus"))
            if len(modulus) != r + 1 or modulus[0] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {r}, got {modulus!r}")
            if not is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus!r} is reducible over Z_{p}")
        self.p = p
        self.r = r
        self.size = p**r
        self.modulus = modulus

    @property
    def zero(self):
        return (0,) * self.r

    @property
    def one(self):
        return (0,) * (self.r - 1) + (1,)

    def elements(self):
        return [self.element(i) for i in range(self.size)]

    def element(self, i):
        """Element whose coefficients are the base-p digits of i."""
        i = as_int(i, "field element index")
        if not 0 <= i < self.size:
            raise ValueError(f"index {i} out of range for {self!r}")
        digits = []
        for _ in range(self.r):
            digits.append(i % self.p)
            i //= self.p
        return tuple(reversed(digits))

    def index(self, a):
        a = self.coerce(a)
        i = 0
        for c in a:
            i = i * self.p + c
        return i

    def coerce(self, a):
        if isinstance(a, (int, np.integer)) and not isinstance(a, bool):
            return self.element(a)
        a = as_int_tuple(a, "field element coefficients")
        if len(a) != self.r or any(not 0 <= c < self.p for c in a):
            raise ValueError(f"{a!r} is not an element of {self!r}")
        return a

    def add(self, a, b):
        a, b = self.coerce(a), self.coerce(b)
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        a = self.coerce(a)
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        a, b = self.coerce(a), self.coerce(b)
        prod = _poly_mul(a, b, self.p)
        rem = _poly_rem(prod, self.modulus, self.p)
        return tuple(([0] * (self.r - len(rem)) + list(rem))[-self.r:])

    @cached_property
    def mul_table(self):
        """Read-only |F| x |F| array: the element index of a * b, shared
        by every field of this p, r and modulus."""
        return _mul_table(self.p, self.r, self.modulus)

    def pow(self, a, e):
        out, base, e = self.one, self.coerce(a), as_int(e, "exponent")
        while e > 0:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        a = self.coerce(a)
        if a == self.zero:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(a, self.size - 2)

    def additive_group(self):
        """The additive group (Z_p)^r; coefficient tuples carry over as-is."""
        return AbelianGroup((self.p,) * self.r)

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.r, self.modulus)
                == (other.p, other.r, other.modulus))

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"FiniteField({self.p})"
        return f"FiniteField({self.p}, {self.r})"
