"""Dense complex linear algebra: rank, null space and right inverses via the
SVD, and the tolerances the conditioning and rank guards share.

Every function takes a matrix or a stack of matrices with any number of
leading axes and works on each matrix independently. All tolerances are
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


def as_stack(a, name="matrix"):
    """Return `a` as a complex128 matrix or stack of matrices, rejecting
    non-finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2:
        raise SizeMismatch(f"{name} must be at least 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def left_null_space_basis(b):
    """Orthonormal rows spanning the left null space of a tall matrix.

    For an M x n input with n < M and full column rank the result A has
    shape (M - n) x M with A @ b = 0 and A @ A^H = I.
    """
    b = as_stack(b)
    rows, cols = b.shape[-2:]
    if cols >= rows:
        raise SizeMismatch(f"need strictly fewer columns than rows, got {rows}x{cols}")
    u, s, _ = np.linalg.svd(b)
    if np.any(s[..., 0] == 0.0) or np.any(s[..., -1] <= FULL_RANK_RTOL * s[..., 0]):
        raise RankDeficient("matrix does not have full column rank")
    return np.ascontiguousarray(u[..., cols:].conj().swapaxes(-1, -2))


def numerical_rank(a, tol=RANK_RTOL):
    """Number of singular values above `tol` relative to the largest one:
    an int for a matrix, an int array for a stack."""
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    a = as_stack(a)
    if a.shape[-1] == 0 or a.shape[-2] == 0:
        rank = np.zeros(a.shape[:-2], dtype=np.intp)
    else:
        s = np.linalg.svd(a, compute_uv=False)
        rank = np.count_nonzero(s > tol * s[..., :1], axis=-1)
    return int(rank) if a.ndim == 2 else rank


def right_inverse(a, message):
    """Minimum-norm right inverses of a stack of wide per-device matrices,
    one SVD each serving both the rank check and the inverse.

    `a` is (..., K, 2, rows, cols): the last two stack axes index the
    devices of one channel set. Raises RankDeficient(message) when a
    matrix lacks full row rank; its `failed` mask marks the channel sets,
    the entries of the leading axes, that hold one.
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    deficient = s[..., -1] <= FULL_RANK_RTOL * s[..., 0]
    if np.any(deficient):
        raise RankDeficient(message, failed=deficient.any(axis=(-2, -1)))
    return vh.conj().swapaxes(-1, -2) @ (u.conj().swapaxes(-1, -2) / s[..., :, None])
