"""Dense complex linear algebra: rank via the SVD, the conditioning test
and right inverses, both certified by a condition-number bound, and the
tolerances they share.

Every function takes a matrix or a stack of matrices with any number of
leading axes and works on each matrix independently. All tolerances are
relative to the largest singular value, so the decisions are invariant
to overall scaling.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RankDeficient, SizeMismatch

# Cross channels whose 2-norm condition number exceeds this are degenerate.
COND_LIMIT = 1e12
# Relative singular-value cutoff for rank counting.
RANK_RTOL = 1e-8
# Stricter relative cutoff where an operation needs exact full rank.
FULL_RANK_RTOL = 1e-10

# A matrix is cleared without an SVD only when its condition-number bound
# sits at least this factor below the caller's limit (COND_LIMIT for
# `ill_conditioned`, 1/FULL_RANK_RTOL for right inverses). The determinant
# from LU with partial pivoting (slogdet) is, up to O(M u) relative
# rounding in the product of pivots, the exact determinant of A + E with
# ||E|| <= c(M) rho u ||A|| (u = 1.1e-16 the unit roundoff, rho the pivot
# growth, c(M) about M^2). A right inverse of a wide A takes the bound on
# the R of a Householder QR of A^H, which is the exact R of A^H + E' with
# ||E'|| <= c'(M) u ||A||, and has the singular values of A^H + E'. The
# singular values the exact test compares are within p(M) u sigma_1 of the
# true ones. So if that test rejects A at limit L, then
# sigma_M(A + E'') <= sigma_1 (1/L + (p(M) + c'(M) + c(M) rho) u), and the
# bound, which is at least cond(A + E''), exceeds L / margin unless the
# rounding terms reach (margin - 1) / L: about 1e-9 = 1e7 u at
# COND_LIMIT = 1e12, and about 1e-7 = 1e9 u at 1/FULL_RANK_RTOL = 1e10.
# Even the worst-case growth rho = 2^(M-1) stays below the first up to
# M = 16, and the growth of Gaussian draws is far smaller. The O(M^2 u)
# rounding of the one-pass Frobenius norm, and of the rescaling where it
# is taken, moves the bound by far less than the margin.
_BOUND_MARGIN = 1e3


def as_stack(a):
    """Return `a` as a complex128 matrix or stack of matrices, rejecting
    non-finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2:
        raise SizeMismatch(f"matrix must be at least 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("matrix contains non-finite entries")
    return arr


def cond_bound_clears(mats, limit):
    """Mask over the leading axes of a stack of square matrices: True where
    a bound certifies cond(A) <= limit / _BOUND_MARGIN without an SVD.

    With singular values s_1 >= ... >= s_M, |det A| = s_1 ... s_M,
    s_1 <= ||A||_F, and s_1 ... s_(M-1) <= (||A||_F^2 / (M-1))^((M-1)/2) by
    AM-GM, so cond(A) <= ||A||_F^M (M-1)^(-(M-1)/2) / |det A|. The bound is
    taken in logs, ||A||_F^2 from one dot product, slogdet on A itself where
    ||A||_F^2 is in [2^-800, 2^800]: no entry then exceeds 2^400, so LU
    cannot overflow even at pivot growth 2^(M-1) for M below 600, and what
    underflows is far below u ||A||_F. Any other matrix (zero, non-finite,
    entries beyond about 1e+-120) is first divided by its largest |entry|.
    A False entry (near the limit, singular, zero) proves nothing.
    """
    m = mats.shape[-1]
    parts = np.ascontiguousarray(mats).view(np.float64)
    norm2 = np.einsum("...ij,...ij->...", parts, parts)[...]  # an array even for 2-D
    far = ~((norm2 >= 2.0 ** -800) & (norm2 <= 2.0 ** 800))
    if far.any():
        # ||A||_F^2 >= 1 once the largest entry is 1; the floor is for A = 0.
        scale = np.abs(mats[far]).max(axis=(-2, -1), keepdims=True)
        mats = mats.copy()
        mats[far] /= np.where(scale > 0.0, scale, 1.0)
        unit = mats[far].view(np.float64)
        norm2[far] = np.maximum(np.einsum("...ij,...ij->...", unit, unit), 1.0)
    _, logdet = np.linalg.slogdet(mats)
    log_bound = 0.5 * (m * np.log(norm2) - (m - 1) * math.log(max(m - 1, 1))) - logdet
    return log_bound <= math.log(limit / _BOUND_MARGIN)


def ill_conditioned(mats):
    """Mask over the leading axes of a stack of square matrices: True where
    sigma_1 > COND_LIMIT * sigma_M or sigma_1 = 0. `cond_bound_clears`
    clears most matrices without an SVD; the exact test on the SVD decides
    every other one, so the mask is that test's verdict on every matrix."""
    unsure = ~cond_bound_clears(mats, COND_LIMIT)
    bad = np.zeros(mats.shape[:-2], dtype=bool)
    if unsure.any():
        s = np.linalg.svd(mats[unsure], compute_uv=False)
        bad[unsure] = ~((s[..., 0] != 0.0) & (s[..., 0] <= COND_LIMIT * s[..., -1]))
    return bad


def mm(a, b):
    """`a @ b` on stacks; for inner dimensions 1 to 4 a sum of broadcast
    rank-one terms in column order, a few whole-stack passes in place of a
    per-matrix matmul call. Over 2,000-matrix complex stacks (2-vCPU VM, BLAS
    on one thread) it took 1.0-5.8x less time than matmul on the hot path's
    shapes at inner dimensions 1 to 4, was mixed at 5 and took 3-11x more at
    8 and 16."""
    n = a.shape[-1]
    if n > 4:
        return a @ b
    out = a[..., :, 0, None] * b[..., 0, None, :]
    for j in range(1, n):
        out += a[..., :, j, None] * b[..., j, None, :]
    return out


def numerical_rank(a):
    """Number of singular values above RANK_RTOL relative to the largest
    one: an int for a matrix, an int array for a stack."""
    a = as_stack(a)
    if a.shape[-1] == 0 or a.shape[-2] == 0:
        rank = np.zeros(a.shape[:-2], dtype=np.intp)
    else:
        s = np.linalg.svd(a, compute_uv=False)
        rank = np.count_nonzero(s > RANK_RTOL * s[..., :1], axis=-1)
    return int(rank) if a.ndim == 2 else rank


def right_inverse(a, message):
    """Minimum-norm right inverses of a stack of wide (or square) per-device
    matrices.

    `a` is (..., K, 2, rows, cols): the last two stack axes index the
    devices of one channel set. Raises RankDeficient(message) when a
    matrix lacks full row rank, s_rows <= FULL_RANK_RTOL * s_1 on its
    singular values; its `failed` mask marks the channel sets, the entries
    of the leading axes, that hold one.

    The path is chosen per matrix, so each inverse depends on its matrix
    alone, not on the others of the call. A matrix that `cond_bound_clears`
    certifies at 1/FULL_RANK_RTOL is not deficient, and its inverse is
    inv(A) when square, or Q R^-H from the reduced QR of A^H = QR when
    wide. Every other matrix takes one SVD, serving both the rank test and
    the inverse, so every raise and mask is that of the SVD test.
    """
    rows, cols = a.shape[-2:]
    x = np.empty(a.shape[:-2] + (cols, rows), dtype=np.complex128)
    if rows == cols:
        clear = cond_bound_clears(a, 1.0 / FULL_RANK_RTOL)
        x[clear] = np.linalg.inv(a[clear])
    else:
        q, r = np.linalg.qr(a.conj().swapaxes(-1, -2))
        clear = cond_bound_clears(r, 1.0 / FULL_RANK_RTOL)
        x[clear] = mm(q[clear], np.linalg.inv(r[clear]).conj().swapaxes(-1, -2))
    unsure = ~clear
    if unsure.any():
        u, s, vh = np.linalg.svd(a[unsure], full_matrices=False)
        deficient = np.zeros(a.shape[:-2], dtype=bool)
        deficient[unsure] = s[..., -1] <= FULL_RANK_RTOL * s[..., 0]
        if deficient.any():
            raise RankDeficient(message, failed=deficient.any(axis=(-2, -1)))
        x[unsure] = vh.conj().swapaxes(-1, -2) @ (u.conj().swapaxes(-1, -2) / s[..., :, None])
    return x
