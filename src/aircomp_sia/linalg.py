"""Dense complex linear algebra: rank and null-space via the SVD, and the
tolerances the conditioning and rank guards share.

Everything operates on 2-D complex128 arrays. All tolerances are
relative to the largest singular value, so the decisions are invariant
to overall scaling.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficient, SizeMismatch

# Draws whose 2-norm condition number exceeds this are treated as degenerate.
COND_LIMIT = 1e12
# Relative singular-value cutoff for rank counting.
RANK_RTOL = 1e-8
# Stricter relative cutoff where an operation needs exact full rank.
FULL_RANK_RTOL = 1e-10


def as_matrix(a, name="matrix"):
    """Return `a` as a 2-D complex128 array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise SizeMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def left_null_space_basis(b):
    """Orthonormal rows spanning the left null space of a tall matrix.

    For an M x n input with n < M and full column rank the result A has
    shape (M - n) x M with A @ b = 0 and A @ A^H = I.
    """
    b = as_matrix(b)
    rows, cols = b.shape
    if cols >= rows:
        raise SizeMismatch(f"need strictly fewer columns than rows, got {rows}x{cols}")
    u, s, _ = np.linalg.svd(b)
    if s[0] == 0.0 or s[-1] <= FULL_RANK_RTOL * s[0]:
        raise RankDeficient("matrix does not have full column rank")
    return u[:, cols:].conj().T


def numerical_rank(a, tol=RANK_RTOL):
    """Number of singular values above `tol` relative to the largest one."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    a = as_matrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))
