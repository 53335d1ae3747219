"""The spectral-norm kernel shared by every bound in the package.

Matrices are numpy arrays of dtype float64 or complex128, alone or
stacked along leading axes.  max_singular_value takes the largest
singular value of each matrix in a stack with one LAPACK call (numpy's
batched SVD without singular vectors: dgesdd for a real stack, zgesdd
otherwise), so every norm the bounds need is one call per stack.  The
result is deterministic for a given input and LAPACK build.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def as_matrix(m):
    """Validate and return a finite array of shape (..., r, c) with
    r, c >= 1 and no empty stack axis: float64 input stays real, anything
    else becomes complex128."""
    a = np.asarray(m)
    if a.dtype != np.float64:
        a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.size == 0:
        raise ShapeError(
            f"expected a non-empty matrix or stack of matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN or Inf)")
    return a


def max_singular_value(m):
    """Largest singular value of a real or complex matrix, or of every
    matrix in a stack of shape (..., r, c); a stack gives an array of
    shape (...)."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)[..., 0]
