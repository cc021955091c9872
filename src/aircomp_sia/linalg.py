"""Dense complex linear algebra: rank, the conditioning test and right
inverses, each certified by a condition-number bound where one clears and
decided by the SVD elsewhere, and the tolerances they share.

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
# `ill_conditioned`, 1/FULL_RANK_RTOL for right inverses, 1e11 for the
# Gram matrices of `aligned_rank`). The determinant
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


def _unit_scaled(mats):
    """(mats, norm2 = ||A||_F^2, far, scale): where norm2 leaves [2^-800,
    2^800] (zero, non-finite, entries beyond about 1e+-120) the matrix is
    divided by its largest |entry|, `scale`, and norm2 floored at 1."""
    parts = np.ascontiguousarray(mats).view(np.float64)
    norm2 = np.einsum("...ij,...ij->...", parts, parts)[...]  # an array even for 2-D
    far = ~((norm2 >= 2.0 ** -800) & (norm2 <= 2.0 ** 800))
    scale = None
    if far.any():
        scale = np.abs(mats[far]).max(axis=(-2, -1), keepdims=True)
        scale[scale == 0.0] = 1.0
        mats = mats.copy()
        mats[far] /= scale
        unit = mats[far].view(np.float64)
        norm2[far] = np.maximum(np.einsum("...ij,...ij->...", unit, unit), 1.0)
    return mats, norm2, far, scale


def cond_bound_clears(mats, limit):
    """Mask over the leading axes of a stack of square matrices: True where
    a bound certifies cond(A) <= limit / _BOUND_MARGIN without an SVD.

    With singular values s_1 >= ... >= s_M, |det A| = s_1 ... s_M,
    s_1 <= ||A||_F, and s_1 ... s_(M-1) <= (||A||_F^2 / (M-1))^((M-1)/2) by
    AM-GM, so cond(A) <= ||A||_F^M (M-1)^(-(M-1)/2) / |det A|. The bound is
    taken in logs, slogdet on the `_unit_scaled` matrices: no entry exceeds
    2^400, so LU cannot overflow even at pivot growth 2^(M-1) for M below
    600, and what underflows is far below u ||A||_F. A False entry (near
    the limit, singular, zero) proves nothing.
    """
    m = mats.shape[-1]
    mats, norm2, _, _ = _unit_scaled(mats)
    _, logdet = np.linalg.slogdet(mats)
    log_bound = 0.5 * (m * np.log(norm2) - (m - 1) * math.log(max(m - 1, 1))) - logdet
    return log_bound <= math.log(limit / _BOUND_MARGIN)


def _closed_form(mats, limit):
    """`cond_bound_clears` for 1x1 or 2x2 matrices without LAPACK, as
    (clear, x = adj(A) / det A where clear): 1x1 clears unless 0, and 2x2
    takes cond(A) <= ||A||_F^2 / |det A|, det = ps - qr being good to
    4u ||A||_F^2 (|ps| + |qr| <= ||A||_F^2 / 2, a complex product good to
    2 sqrt(2) u)."""
    a, norm2, far, scale = _unit_scaled(mats)
    if a.shape[-1] == 1:
        det, adj = a[..., 0, 0], np.ones_like(a)
        clear = det != 0.0
    else:
        p, q, r, s = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
        det, adj = p * s - q * r, np.stack([s, -q, -r, p], axis=-1).reshape(a.shape)
        clear = np.abs(det) > (_BOUND_MARGIN / limit + 4 * 2.0 ** -53) * norm2
    x = adj / np.where(clear, det, 1.0)[..., None, None]
    if far.any():
        x[far] /= scale  # the inverse of the matrix before rescaling
    return clear, x


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


def _gram_clears(a):
    """True where the smaller Gram G of A clears a limit of 1e11, so that
    cond(G) <= 1e8 puts A's r = min(rows, cols) singular values within 1e4
    of each other. G's own rounding, ~cols r u tr G, is negligible."""
    rows, cols = a.shape[-2:]
    ah = a.conj().swapaxes(-1, -2)
    g = a @ ah if rows <= cols else ah @ a
    return _closed_form(g, 1e11)[0] if g.shape[-1] <= 2 else cond_bound_clears(g, 1e11)


def aligned_rank(x, basis, dim):
    """`numerical_rank` per matrix of x (..., M, n), certified where it can be.
    The unitary `basis` splits x into Y = basis[:dim] x and Z = basis[dim:] x:
    s_i(x) >= s_i(Y), and s_(r+1)(x) <= ||Z||_2 at Y's rank r = min(dim, n)
    (Weyl). So rank r holds where Y clears `_gram_clears` and ||Z||_F sqrt(r)
    _BOUND_MARGIN <= RANK_RTOL ||Y||_F, rank M where M <= n and x clears it;
    every other matrix takes the SVD."""
    lead, (m, n) = x.shape[:-2], x.shape[-2:]
    x = x.reshape(-1, m, n)
    unit = _unit_scaled(x)[0]  # no norm or Gram of it over- or underflows
    split = basis.reshape(-1, m, m) @ unit
    y, r = split[:, :dim], min(dim, n)
    y2, z2 = (np.einsum("...ij,...ij->...", b.conj(), b).real for b in (y, split[:, dim:]))
    clear = z2 * (r * _BOUND_MARGIN ** 2) <= RANK_RTOL ** 2 * y2
    if clear.any():
        clear &= _gram_clears(y)
    rank = np.where(clear, r, m)
    unsure = ~clear
    if m <= n and unsure.any():
        unsure[unsure] = ~_gram_clears(unit[unsure])
    if unsure.any():
        rank[unsure] = numerical_rank(x[unsure])
    return rank.reshape(lead)[()]


def right_inverse(a, message):
    """Minimum-norm right inverses of a stack of wide (or square) per-device
    matrices.

    `a` is (..., K, 2, rows, cols): the last two stack axes index the
    devices of one channel set. Raises RankDeficient(message) when a
    matrix lacks full row rank, s_rows <= FULL_RANK_RTOL * s_1 on its
    singular values; its `failed` mask marks the channel sets, the entries
    of the leading axes, that hold one.

    The path is chosen per matrix, so each inverse depends on its matrix
    alone, not on the others of the call. A 1x1 or 2x2 matrix that
    `_closed_form` clears at 1/FULL_RANK_RTOL is not deficient, and its
    inverse is adj(A) / det A. A larger matrix that `cond_bound_clears`
    certifies at that limit is not deficient either, and its inverse is
    inv(A) when square, or Q R^-H from the reduced QR of A^H = QR when
    wide. Every other matrix takes one SVD, serving both the rank test and
    the inverse, so every raise and mask is that of the SVD test.
    """
    rows, cols = a.shape[-2:]
    if rows == cols and rows <= 2:
        clear, x = _closed_form(a, 1.0 / FULL_RANK_RTOL)
    elif rows == cols:
        x = np.empty(a.shape[:-2] + (cols, rows), dtype=np.complex128)
        clear = cond_bound_clears(a, 1.0 / FULL_RANK_RTOL)
        x[clear] = np.linalg.inv(a[clear])
    else:
        q, r = np.linalg.qr(a.conj().swapaxes(-1, -2))
        clear = cond_bound_clears(r, 1.0 / FULL_RANK_RTOL)
        if clear.all():  # as on Gaussian draws: q itself, not a copy of it
            return mm(q, np.linalg.inv(r).conj().swapaxes(-1, -2))
        # The full q is dropped before the product.
        q, x = q[clear], np.empty(a.shape[:-2] + (cols, rows), dtype=np.complex128)
        x[clear] = mm(q, np.linalg.inv(r[clear]).conj().swapaxes(-1, -2))
    unsure = ~clear
    if unsure.any():
        u, s, vh = np.linalg.svd(a[unsure], full_matrices=False)
        deficient = np.zeros(a.shape[:-2], dtype=bool)
        deficient[unsure] = s[..., -1] <= FULL_RANK_RTOL * s[..., 0]
        if deficient.any():
            raise RankDeficient(message, failed=deficient.any(axis=(-2, -1)))
        x[unsure] = vh.conj().swapaxes(-1, -2) @ (u.conj().swapaxes(-1, -2) / s[..., :, None])
    return x
