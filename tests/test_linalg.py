from fractions import Fraction

import numpy as np
import pytest

from lingame.algebra import AbelianGroup
from lingame.errors import ShapeError
from lingame.games import make_game
from lingame.linalg import as_matrix, max_singular_value
from lingame.qbounds import quantum_bound

from oracles import jacobi_eigenvalues, oracle_max_singular_value


# --- The Jacobi oracle itself, checked before anything relies on it. ---


def test_oracle_diagonal_matrices():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 9)
        d = rng.normal(size=n)
        eig = jacobi_eigenvalues(np.diag(d).astype(complex))
        assert np.allclose(eig, np.sort(d), atol=1e-14)


def test_oracle_two_by_two_analytic():
    eig = jacobi_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(eig, [1.0, 3.0], atol=1e-12)
    # Complex Hermitian: eigenvalues (a+c)/2 +- sqrt(((a-c)/2)^2 + |b|^2).
    a, c = 1.5, -0.5
    b = 0.3 - 0.7j
    h = np.array([[a, b], [np.conj(b), c]])
    mid = (a + c) / 2
    rad = np.sqrt(((a - c) / 2) ** 2 + abs(b) ** 2)
    assert np.allclose(jacobi_eigenvalues(h), [mid - rad, mid + rad], atol=1e-12)


def test_oracle_preserves_trace_and_frobenius():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = m + m.conj().T
        eig = jacobi_eigenvalues(h)
        assert abs(eig.sum() - np.trace(h).real) < 1e-10
        assert abs((eig**2).sum() - (np.abs(h) ** 2).sum()) < 1e-9


def test_oracle_rejects_non_hermitian():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- Input validation. ---


def test_shapes_rejected():
    with pytest.raises(ShapeError):
        max_singular_value(np.ones(3))
    with pytest.raises(ShapeError):
        max_singular_value(np.ones((0, 3)))
    with pytest.raises(ShapeError):
        max_singular_value(np.ones((0, 2, 2)))


def test_non_finite_entries_rejected():
    with pytest.raises(ValueError):
        max_singular_value(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        max_singular_value(np.array([[np.inf, 0.0], [0.0, 1.0]]))


# --- max_singular_value. ---


def test_simple_singular_values():
    assert max_singular_value(np.zeros((3, 4))) == 0.0
    assert abs(max_singular_value(np.eye(5)) - 1.0) < 1e-12
    assert abs(max_singular_value(np.diag([3.0, 1.0])) - 3.0) < 1e-12
    # Rank one: norm is the Euclidean norm of the single column.
    assert abs(max_singular_value(np.array([[1.0], [1.0]])) - np.sqrt(2)) < 1e-12
    assert abs(max_singular_value(np.array([[1.0, 1.0], [1.0, -1.0]]))
               - np.sqrt(2)) < 1e-12


def test_non_square_uses_smaller_gram_side():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 20)) + 1j * rng.normal(size=(3, 20))
    assert abs(max_singular_value(m) - max_singular_value(m.conj().T)) < 1e-10


def test_dominates_every_entry():
    rng = np.random.default_rng(13)
    for _ in range(20):
        shape = tuple(rng.integers(1, 9, size=2))
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert max_singular_value(m) >= np.abs(m).max() - 1e-12


def test_real_stacks_stay_real():
    """float64 runs through the real SVD; anything else becomes complex."""
    assert as_matrix(np.eye(2)).dtype == np.float64
    assert as_matrix([[1, 2]]).dtype == np.complex128
    assert as_matrix(np.eye(2, dtype=np.float32)).dtype == np.complex128
    rng = np.random.default_rng(29)
    m = rng.normal(size=(3, 4, 5))
    assert np.allclose(max_singular_value(m),
                       [oracle_max_singular_value(a) for a in m], rtol=1e-12)


def test_matches_jacobi_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        shape = tuple(rng.integers(1, 9, size=2))
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = max_singular_value(m)
        want = oracle_max_singular_value(m)
        assert abs(got - want) <= 1e-10 * max(want, 1.0)


def test_deterministic_across_runs():
    rng = np.random.default_rng(19)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert max_singular_value(m) == max_singular_value(m.copy())


def test_stack_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(23)
    stack = rng.normal(size=(4, 3, 5, 2)) + 1j * rng.normal(size=(4, 3, 5, 2))
    got = max_singular_value(stack)
    assert got.shape == (4, 3)
    for i in range(4):
        for j in range(3):
            assert abs(got[i, j] - oracle_max_singular_value(stack[i, j])) <= 1e-12


def test_near_degenerate_spectrum_is_exact():
    # A relative gap of 5e-5 between the top two Gram eigenvalues: an
    # iterative method stalls here, the SVD does not.
    m = np.diag([1.0, np.sqrt(1.0 - 5e-5)])
    assert abs(max_singular_value(m) - 1.0) <= 1e-15
    # The near-tie game: Z2, questions (2, 2), f = 0, weights 40000/79999
    # and 39999/79999 on the diagonal; one nontrivial character.
    dist = [Fraction(40000, 79999), 0, 0, Fraction(39999, 79999)]
    game = make_game(AbelianGroup((2,)), (2, 2), [(0,)] * 4,
                     distribution=dist)
    sigma = np.linalg.svd(np.diag([40000 / 79999, 39999 / 79999]),
                          compute_uv=False)[0]
    report = quantum_bound(game)
    assert abs(report.raw_bound - (1 + 2 * sigma) / 2) <= 1e-12
    assert report.raw_bound == pytest.approx(1.00000625, abs=1e-8)
    assert report.bound == 1.0
