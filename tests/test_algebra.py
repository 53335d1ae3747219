import cmath
import itertools
import math

import numpy as np
import pytest

from lingame.algebra import (
    AbelianGroup,
    FiniteField,
    is_irreducible,
    smallest_irreducible,
)
from lingame.boxworld import (FunctionTable, PRBox, partial_derivative,
                              protocol_runs)
from lingame.errors import ValidationError
from lingame.games import Behavior, LinearGame, chsh_game, make_game
from lingame.qbounds import chsh_bound_analytic, game_matrix
from lingame.strategies import QuantumStrategy

GROUPS = [
    AbelianGroup([2]),
    AbelianGroup([3]),
    AbelianGroup([4]),
    AbelianGroup([5]),
    AbelianGroup([2, 2]),
    AbelianGroup([2, 3]),
    AbelianGroup([3, 3]),
    AbelianGroup([16]),
]


def test_group_rejects_bad_orders():
    with pytest.raises(ValueError):
        AbelianGroup([])
    with pytest.raises(ValueError):
        AbelianGroup([1])
    with pytest.raises(ValueError):
        AbelianGroup([3, 0])


def test_enumeration_is_lexicographic():
    g = AbelianGroup([2, 3])
    assert g.elements() == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for i, a in enumerate(g.elements()):
        assert g.index(a) == i
        assert g.element(i) == a


def test_group_arithmetic():
    g = AbelianGroup([4, 3])
    assert g.add((3, 2), (2, 2)) == (1, 1)
    assert g.neg((1, 2)) == (3, 1)
    assert g.sub((0, 0), (1, 2)) == (3, 1)
    assert g.identity == (0, 0)


@pytest.mark.parametrize("element", [
    (1.7,), 1.5, (True,), True, None, ("1",), (np.float64(1),)])
def test_group_coerce_rejects_non_integers(element):
    with pytest.raises(ValidationError, match="must be integers"):
        AbelianGroup([3]).coerce(element)


@pytest.mark.parametrize("element", [(1.5, 0), (True, 0), True, None, 1.0])
def test_field_coerce_rejects_non_integers(element):
    with pytest.raises(ValidationError, match="must be integers"):
        FiniteField(2, 2).coerce(element)


def test_coerce_accepts_numpy_integers():
    assert AbelianGroup([3]).coerce(np.int64(2)) == (2,)
    assert AbelianGroup([2, 3]).coerce(np.array([1, 2])) == (1, 2)
    assert FiniteField(2, 2).coerce(np.int8(3)) == (1, 1)


Z2 = AbelianGroup([2])
BELL = [2**-0.5, 0, 0, 2**-0.5]
Z_BASIS = [[[1, 0], [0, 1]]]
UNIFORM = Behavior(Z2, (2, 2), [[0.25] * 4] * 4)
TABLE = FunctionTable(3, (1, 1, 1), [(x * y * z) % 3 for x in range(3)
                                     for y in range(3) for z in range(3)])
TRUNCATED = {
    "partition 0.7": lambda: game_matrix(chsh_game(3, 3), [0.7], 1),
    "partition True": lambda: game_matrix(chsh_game(3, 3), [True], 1),
    "partition '1'": lambda: game_matrix(chsh_game(3, 3), "1", 1),
    "group order": lambda: AbelianGroup((2.5,)),
    "chsh players": lambda: chsh_game(3.9, 3),
    "chsh outcomes": lambda: chsh_game(3, 3.0),
    "analytic bound": lambda: chsh_bound_analytic(2.5, 3.7),
    "denominator": lambda: LinearGame(Z2, (2, 2), [0, 0, 0, 1], [1, 1, 1, 1],
                                      den=4.9),
    "predicate index": lambda: LinearGame(Z2, (2, 2), [0, 0.7, 0, 1],
                                          [1, 1, 1, 1], 4),
    "weights": lambda: LinearGame(Z2, (2, 2), [0, 0, 0, 1],
                                  [1.0, 1, 1, 1], 4),
    "question counts": lambda: make_game(Z2, (2.0, 2), lambda x: (0,)),
    "behavior questions": lambda: Behavior(Z2, (1.5, 1), [[0.5] * 4]),
    "field element index": lambda: FiniteField(3).element(1.5),
    "field characteristic": lambda: FiniteField(3.0),
    "field degree": lambda: FiniteField(2, 2.0),
    "field modulus": lambda: FiniteField(2, 2, modulus=(1, 1.5, 1)),
    "field exponent": lambda: FiniteField(3).pow((2,), 2.5),
    "polynomial": lambda: is_irreducible((1, 0.5, 1), 2),
    "strategy dims": lambda: QuantumStrategy((2.5, 2), BELL, [Z_BASIS] * 2),
    "table d": lambda: FunctionTable(3.0, (1, 1), [0] * 9),
    "table arities": lambda: FunctionTable(3, (1.5, 1), [0] * 9),
    "PR box players": lambda: PRBox(2.5, 3),
    "PR box d": lambda: PRBox(2, 3.0),
    "behavior question True": lambda: UNIFORM.prob([(0,), (0,)], (True, 1)),
    "behavior question 0.0": lambda: UNIFORM.prob([(0,), (0,)], (0.0, 1)),
    "derivative variable True": lambda: partial_derivative(TABLE, True),
    "derivative variable 0.5": lambda: partial_derivative(TABLE, 0.5),
    "protocol shots": lambda: protocol_runs(TABLE, 2.5,
                                            np.random.default_rng(0)),
}


@pytest.mark.parametrize("call", TRUNCATED.values(), ids=TRUNCATED.keys())
def test_a_non_integer_count_order_index_or_side_is_refused(call):
    """Every integer a caller passes is read by ``as_int_tuple`` or
    ``as_int``: a float, a bool or a string raises ValidationError instead
    of being truncated to an int."""
    with pytest.raises(ValidationError, match="must be"):
        call()


def test_numpy_integers_are_read_as_python_ints():
    i = np.int64
    field = FiniteField(i(2), np.int8(2), modulus=np.array([1, 1, 1]))
    box = PRBox(i(3), np.uint8(3))
    table = FunctionTable(i(3), [i(1)] * 2, [0] * 9)
    game = LinearGame(AbelianGroup([i(2)]), [i(2), i(2)],
                      np.array([0, 0, 0, 1]), np.ones(4, dtype=np.int32), i(4))
    strategy = QuantumStrategy(np.array([2, 2]), BELL, [Z_BASIS] * 2)
    ints = [*field.modulus, field.p, field.r, box.players, box.d, table.d,
            *table.arities, game.den, *game.group.orders,
            *game.question_counts, *strategy.dims,
            *Behavior(Z2, [i(1)], [[0.5, 0.5]]).question_counts]
    assert all(type(v) is int for v in ints)
    assert field.element(i(3)) == field.element(3) == (1, 1)
    assert field.pow((1, 0), i(3)) == field.pow((1, 0), 3)
    assert chsh_game(i(3), i(3)) == chsh_game(3, 3)
    assert chsh_bound_analytic(i(3), i(3)) == chsh_bound_analytic(3, 3)
    np.testing.assert_array_equal(game_matrix(chsh_game(3, 3), [i(0)], 1),
                                  game_matrix(chsh_game(3, 3), [0], 1))


def test_character_sign_convention():
    # chi_1(1) on Z_3 must rotate counterclockwise: exp(+2*pi*i/3).
    g = AbelianGroup([3])
    value = g.character((1,), (1,))
    assert value.imag > 0
    assert abs(value - cmath.exp(2j * cmath.pi / 3)) < 1e-12


def test_character_rejects_non_elements():
    g = AbelianGroup([3])
    with pytest.raises(ValueError):
        g.character((3,), (0,))
    with pytest.raises(ValueError):
        g.character((0,), (0, 1))


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: repr(g))
def test_character_homomorphism(g):
    for k in g.elements():
        for a in g.elements():
            for b in g.elements():
                lhs = g.character(k, g.add(a, b))
                rhs = g.character(k, a) * g.character(k, b)
                assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: repr(g))
def test_character_reflexivity(g):
    for k in g.elements():
        for a in g.elements():
            assert abs(g.character(k, a).conjugate()
                       - g.character(k, g.neg(a))) < 1e-12


@pytest.mark.parametrize("g", GROUPS, ids=lambda g: repr(g))
def test_character_orthogonality(g):
    for i, k in enumerate(g.elements()):
        for j, l in enumerate(g.elements()):
            total = sum(g.character(k, a) * g.character(l, a).conjugate()
                        for a in g.elements())
            expected = g.size if i == j else 0.0
            assert abs(total - expected) < 1e-9


def test_trivial_character_is_one():
    for g in GROUPS:
        e = g.identity
        assert all(abs(g.character(e, a) - 1) < 1e-12 for a in g.elements())


def test_character_table_matches_pointwise():
    # The broadcast table is bit-identical to the exact-phase character().
    for g in GROUPS + [AbelianGroup([4, 6]), AbelianGroup([2, 2, 2])]:
        table = g.character_table()
        for i, k in enumerate(g.elements()):
            for j, a in enumerate(g.elements()):
                assert table[i, j] == g.character(k, a), (g, k, a)


def test_character_pairs():
    """One representative per pair {k, -k}, the real characters first, and
    every nontrivial character mapped to its representative's slot."""
    z4 = AbelianGroup([4]).character_pairs
    assert (z4.reps.tolist(), z4.real, z4.slot.tolist()) == ([2, 1], 1, [1, 0, 1])
    for g in GROUPS + [AbelianGroup([4, 6]), AbelianGroup([2, 2, 2])]:
        pairs, table = g.character_pairs, g.character_table()
        ks = g.elements()
        neg = [g.index(g.neg(k)) for k in ks]
        real = [i for i in range(1, g.size) if neg[i] == i]
        assert pairs.reps.tolist() == real + [i for i in range(1, g.size)
                                              if neg[i] > i]
        assert pairs.real == len(real)
        for i in range(1, g.size):
            assert pairs.reps[pairs.slot[i - 1]] in (i, neg[i])
        assert np.array_equal(pairs.table[pairs.real:],
                              table[pairs.reps[pairs.real:]])
        assert np.array_equal(pairs.table[:pairs.real],
                              table[real].real.astype(complex))
        assert set(pairs.table[:pairs.real].real.ravel()) <= {-1.0, 1.0}
        assert not pairs.table.flags.writeable
        # Integer phases in Z_exponent give the table's values bit for bit.
        assert g.exponent == math.lcm(*g.orders)
        assert pairs.phase.min() >= 0 and pairs.phase.max() < g.exponent
        assert np.array_equal(np.exp(2j * np.pi * (pairs.phase / g.exponent)),
                              table[pairs.reps])
        assert not pairs.phase.flags.writeable


# ---------------------------------------------------------------------------
# Fields


def test_irreducibility_by_trial_division():
    # X^2 + 1 = (X + 1)^2 over Z_2; X^2 + X + 1 has no roots.
    assert not is_irreducible((1, 0, 1), 2)
    assert is_irreducible((1, 1, 1), 2)
    assert is_irreducible((1, 0), 5)
    with pytest.raises(ValueError):
        is_irreducible((2, 0, 1), 3)  # not monic


def test_default_moduli_are_lexicographically_smallest():
    assert smallest_irreducible(2, 2) == (1, 1, 1)      # X^2 + X + 1
    assert smallest_irreducible(2, 3) == (1, 0, 1, 1)   # X^3 + X + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)      # X^2 + 1
    assert FiniteField(2, 2).modulus == (1, 1, 1)
    assert FiniteField(2, 3).modulus == (1, 0, 1, 1)
    assert FiniteField(3, 2).modulus == (1, 0, 1)


def test_gf8_multiplication_example():
    # In GF(8) with X^3 = X + 1: X * X^2 = X + 1, coefficients (0, 1, 1).
    f = FiniteField(2, 3)
    assert f.mul((0, 1, 0), (1, 0, 0)) == (0, 1, 1)


def test_field_construction_errors():
    with pytest.raises(ValueError):
        FiniteField(4)          # characteristic not prime
    with pytest.raises(ValueError):
        FiniteField(2, 0)
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 0, 1))   # (X+1)^2 is reducible
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=(1, 1))      # wrong degree


def test_inverse_of_zero_raises():
    f = FiniteField(3)
    with pytest.raises(ZeroDivisionError):
        f.inv((0,))


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)],
                         ids=lambda v: str(v))
def test_field_axioms_exhaustively(p, r):
    f = FiniteField(p, r)
    elems = f.elements()
    assert len(elems) == p**r
    zero, one = f.zero, f.one

    for a in elems:
        assert f.add(a, zero) == a
        assert f.mul(a, one) == a
        assert f.mul(a, zero) == zero
        assert f.add(a, f.neg(a)) == zero
        if a != zero:
            assert f.mul(a, f.inv(a)) == one

    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)

    for a, b, c in itertools.product(elems, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_field_enumeration_and_additive_group_agree():
    f = FiniteField(2, 2)
    assert f.elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for i, a in enumerate(f.elements()):
        assert f.index(a) == i
        assert f.element(i) == a
    g = f.additive_group()
    assert g == AbelianGroup([2, 2])
    for a in f.elements():
        for b in f.elements():
            assert f.add(a, b) == g.add(a, b)
