"""Dense complex linear algebra: rank, certified solves and right
inverses, and the tolerances they share.

Every function takes a matrix or a stack of matrices with any number of
leading axes and works on each matrix independently. All tolerances are
relative to the largest singular value, so the decisions are invariant
to overall scaling. A matrix's path is set by its role and size, here
alone (dof = M // 2; `right_inverse`'s matrix is square for sia at even
M, wide otherwise; r = min(rows, cols) of the matrix whose Gram it is):

    matrix, size (function)                  limit             closed form    else
    IA cross, M x M (certified_solve)        COND_LIMIT        M = 2, 4       bound, solve
    square right inverse, dof x dof          1/FULL_RANK_RTOL  dof = 1, 2, 4  bound, inv
    wide right inverse's Gram, dof x dof     _GRAM_LIMIT       dof = 1, 2, 4  bound, inv
    aligned-rank Gram, r x r (aligned_rank)  1e11              r <= 2         bound
    alignment bases, M x N' (complete_qr)    none              N' = 1         QR

"closed form" is, for an inverse, `_certified_inverse`: adj(A) / det A
behind its own determinant certificate; for the bases of a 2 x 1 draw,
LAPACK's Householder reflector. Neither calls LAPACK. "bound" is
`cond_bound_clears`, one slogdet. A matrix neither clears takes the SVD,
whose exact test makes every raise, mask and rank; each result depends
on its matrix alone.

Per-device stacks are stored as entry planes where `mm` multiplies them
itself, at inner dimensions up to _MM_INNER_MAX (M <= 4): the two matrix
axes outermost in memory, so that `_entry_planes(x)`, (rows, cols) +
lead, is C-contiguous and each matrix entry is one contiguous plane over
the stack (trials x devices x cells). Logical shapes are unchanged.
`system` draws the channel stacks in the order `plane_order` gives, `mm`
returns planes where an operand is planes, and the closed-form inverses
return their input's layout: each elementwise pass is then one long pass
over a plane, not a short one per matrix. Above M = 4 every stack stays
matrix-ordered (C), as matmul and LAPACK take it: matmul, which rounds
differently off BLAS, as on operands with no unit-stride matrix axis,
never sees planes. Up to _MM_INNER_MAX any layout gives the same bits.
"""

from __future__ import annotations

import functools
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
# sits at least this factor below its limit in the module's table. The
# determinant from LU with partial pivoting (slogdet) is, up to O(M u)
# relative rounding in the product of pivots, the exact
# determinant of A + E with ||E|| <= c(M) rho u ||A|| (u = 1.1e-16 the
# unit roundoff, rho the pivot growth, c(M) about M^2). The singular
# values the exact test compares are within p(M) u sigma_1 of the true
# ones. So if that test rejects A at limit L, then sigma_M(A + E'') <=
# sigma_1 (1/L + (p(M) + c(M) rho) u), and the bound, which is at least
# cond(A + E''), exceeds L / margin unless the rounding terms reach
# (margin - 1) / L: about 1e-9 = 1e7 u at COND_LIMIT = 1e12, and about
# 1e-7 = 1e9 u at 1/FULL_RANK_RTOL = 1e10. Even the worst-case growth
# rho = 2^(M-1) stays below the first up to M = 16, and the growth of
# Gaussian draws is far smaller. The O(M^2 u) rounding of the one-pass
# Frobenius norm, and of the rescaling where it is taken, moves the bound
# by far less than the margin. A wide A's Gram G = B B^H, B = A / max|a_ij|,
# is the exact Gram of B + E' with ||E'|| <= cols u ||B||, so a clear at
# _GRAM_LIMIT puts cond(A) = cond(G)^(1/2) near 31.6 at most, far inside
# 1/FULL_RANK_RTOL: every wide A the exact test rejects takes the SVD.
_BOUND_MARGIN = 1e3
# Set by accuracy, not speed: the normal equations' error grows like u cond(A)^2
# and stays within 1e-12 + 1e-14 cond(A) of pinv while cond(A) <= 31.6.
_GRAM_LIMIT = 1e6
# The table's closed-form sizes.
CLOSED_FORM_SIZES = (1, 2, 4)
# The largest inner dimension `mm` multiplies itself, faster than matmul up
# to here; the stacks it takes on the left are stored as entry planes.
_MM_INNER_MAX = 4


@functools.cache
def _plane_axes(ndim):
    """The axis orders from a stack of `ndim` axes to its entry planes and back."""
    return (ndim - 2, ndim - 1, *range(ndim - 2)), (*range(2, ndim), 0, 1)


def _entry_planes(x):
    """The view of x with its two matrix axes first: (rows, cols) + lead."""
    return x.transpose(_plane_axes(x.ndim)[0])


def _stack(planes):
    """The stack (lead + (rows, cols)) whose entry planes are `planes`."""
    return planes.transpose(_plane_axes(planes.ndim)[1])


def _in_planes(x):
    """True where each matrix entry of x is one contiguous plane over its stack."""
    return x.size == 0 or x[..., 0, 0].flags.c_contiguous


def stack_sum(x, axis):
    """x summed over its stack axis `axis` in index order, C-contiguous.
    A reduce of a C-contiguous stack adds in that order; on other layouts,
    entry planes among them, it may run along the axis, pairwise past 8
    terms, or along a short one, so np.add.accumulate adds there."""
    if x.flags.c_contiguous:
        return x.sum(axis=axis)
    return np.take(np.add.accumulate(x, axis=axis), -1, axis=axis)


def plane_order(shape):
    """The memory order, outermost first, in which to store a new stack of
    `shape` (lead + (rows, cols)): its entry planes where `mm` multiplies
    it itself, cols <= _MM_INNER_MAX, else None for matrix order."""
    return _plane_axes(len(shape))[0] if shape[-1] <= _MM_INNER_MAX else None


def _planes(x, lead):
    """x's entry planes over the stack axes `lead`: a view where x has them,
    else a copy spread along the axes x is broadcast on, so that no pass
    runs along a short axis."""
    if x.shape[:-2] == lead:
        return _entry_planes(x)
    out = np.empty(x.shape[-2:] + lead, dtype=x.dtype)
    out[...] = _entry_planes(x[(None,) * (len(lead) + 2 - x.ndim)])
    return out


def _norm2(mats):
    """||A||_F^2 per matrix, inf without a warning where it overflows, added
    in memory order: entry by entry on entry planes, else matrix by matrix.
    Only windows and certificate margins read it, far wider than the
    rounding either order leaves."""
    lead = mats.shape[:-2]
    if not _in_planes(mats):
        parts = np.ascontiguousarray(mats).view(np.float64)
        return np.einsum("...ij,...ij->...", parts, parts)
    parts = _entry_planes(mats).reshape(mats.shape[-2:] + (math.prod(lead),)).view(np.float64)
    sums = np.einsum("ijk,ijk->k", parts, parts)
    return (sums[0::2] + sums[1::2]).reshape(lead)


def _unit_scaled(mats, window=800):
    """(mats, norm2 = ||A||_F^2, far, scale): where norm2 leaves [2^-window,
    2^window] (zero, non-finite, entries beyond about 2^+-(window / 2)) the
    matrix is divided by its largest |entry|, `scale`, and norm2 floored
    at 1."""
    norm2 = _norm2(mats)
    far = ~((norm2 >= 2.0 ** -window) & (norm2 <= 2.0 ** window))
    scale = None
    if far.any():
        scale = np.abs(mats[far]).max(axis=(-2, -1), keepdims=True)
        scale[scale == 0.0] = 1.0
        mats = mats.copy(order="K")
        mats[far] /= scale
        norm2[far] = np.maximum(_norm2(mats[far]), 1.0)
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


def _adjugate4(a):
    """(det, adj) of a stack of 4x4 matrices by Laplace expansion along rows
    0-1: det = sum of +-s c over the six 2x2 minors s of rows 0-1 and their
    complementary minors c of rows 2-3, and each adjugate entry three terms
    a c or a s. Taken on contiguous entry planes, a's own or a copy; adj is
    stored in a's layout."""
    (a00, a01, a02, a03, a10, a11, a12, a13, a20, a21, a22, a23,
     a30, a31, a32, a33) = np.ascontiguousarray(_entry_planes(a).reshape((16,) + a.shape[:-2]))
    s0, s1, s2 = a00 * a11 - a01 * a10, a00 * a12 - a02 * a10, a00 * a13 - a03 * a10
    s3, s4, s5 = a01 * a12 - a02 * a11, a01 * a13 - a03 * a11, a02 * a13 - a03 * a12
    c0, c1, c2 = a20 * a31 - a21 * a30, a20 * a32 - a22 * a30, a20 * a33 - a23 * a30
    c3, c4, c5 = a21 * a32 - a22 * a31, a21 * a33 - a23 * a31, a22 * a33 - a23 * a32
    det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    adj = np.empty_like(a)
    out = _entry_planes(adj)
    out[0, 0], out[0, 1] = a11 * c5 - a12 * c4 + a13 * c3, a02 * c4 - a01 * c5 - a03 * c3
    out[0, 2], out[0, 3] = a31 * s5 - a32 * s4 + a33 * s3, a22 * s4 - a21 * s5 - a23 * s3
    out[1, 0], out[1, 1] = a12 * c2 - a10 * c5 - a13 * c1, a00 * c5 - a02 * c2 + a03 * c1
    out[1, 2], out[1, 3] = a32 * s2 - a30 * s5 - a33 * s1, a20 * s5 - a22 * s2 + a23 * s1
    out[2, 0], out[2, 1] = a10 * c4 - a11 * c2 + a13 * c0, a01 * c2 - a00 * c4 - a03 * c0
    out[2, 2], out[2, 3] = a30 * s4 - a31 * s2 + a33 * s0, a21 * s2 - a20 * s4 - a23 * s0
    out[3, 0], out[3, 1] = a11 * c1 - a10 * c3 - a12 * c0, a00 * c3 - a01 * c1 + a02 * c0
    out[3, 2], out[3, 3] = a31 * s1 - a30 * s3 - a32 * s0, a20 * s3 - a21 * s1 + a22 * s0
    return det, adj


def _certified_inverse(mats, limit):
    """(clear, x): x = A^-1 where A is certified at `limit`, a finite
    placeholder elsewhere; the closed form at CLOSED_FORM_SIZES, bound and
    inv at others. 1x1 clears unless 0. 2x2 takes cond(A) <=
    ||A||_F^2 / |det A|, det = ps - qr being good to 4u ||A||_F^2 (|ps| +
    |qr| <= ||A||_F^2 / 2, a complex product good to 2 sqrt(2) u). 4x4
    takes cond_bound_clears' cond(A) <= 3^(-3/2) ||A||_F^4 / |det A| from
    `_adjugate4`: each of the 24 terms of perm(|A|) in det carries
    (1 + 2 sqrt(2)) u from each of its two minors, 2 sqrt(2) u from their
    product and 5u from the sum of six, under 16u in all, and perm(|A|) <=
    prod_i ||a_i||_1 <= prod_i 2 ||a_i||_2 <= ||A||_F^4 (AM-GM), so det is
    good to 16u ||A||_F^4. Its window is 2^+-400: no entry above 2^200, so
    no product of four overflows, and 16u ||A||_F^4 >= 2^-849 stays clear
    of underflow."""
    n = mats.shape[-1]
    if n not in CLOSED_FORM_SIZES:
        clear, x = cond_bound_clears(mats, limit), np.zeros_like(mats)
        x[clear] = np.linalg.inv(mats[clear])
        return clear, x
    a, norm2, far, scale = _unit_scaled(mats, 400 if n == 4 else 800)
    if n == 1:
        det, adj = a[..., 0, 0], np.ones_like(a)
        clear = det != 0.0
    elif n == 2:
        p, q, r, s = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
        det, adj = p * s - q * r, np.empty_like(a)
        out = _entry_planes(adj)
        out[0, 0], out[0, 1], out[1, 0], out[1, 1] = s, -q, -r, p
        clear = np.abs(det) > (_BOUND_MARGIN / limit + 4 * 2.0 ** -53) * norm2
    else:
        det, adj = _adjugate4(a)
        clear = np.abs(det) > (3 ** -1.5 * _BOUND_MARGIN / limit + 16 * 2.0 ** -53) * norm2 ** 2
    adj /= np.where(clear, det, 1.0)[..., None, None]
    if far.any():
        adj[far] /= scale  # the inverse of the matrix before rescaling
    return clear, adj


def mm(a, b):
    """`a @ b` on stacks; for inner dimensions up to _MM_INNER_MAX, where it
    is faster than matmul, each entry a sum of products in column order.
    Where an operand with the full stack shape is stored as entry planes,
    each output entry is formed on the planes, every product and sum one
    pass over planes of one shape, and the result is planes; an operand
    broadcast along a stack axis is first spread to the full stack. Else
    the sum is of broadcast rank-one terms, and the result matrix-ordered.
    The call holds its result and one term more, and a spread operand or,
    on matrix order, numpy's iteration buffers (about 256 KiB)."""
    n = a.shape[-1]
    if n > _MM_INNER_MAX:
        return a @ b
    lead = a.shape[:-2]
    if b.shape[:-2] != lead:
        lead = np.broadcast_shapes(lead, b.shape[:-2])
    if not any(_in_planes(x) for x in (a, b) if x.shape[:-2] == lead):
        out = np.multiply(a[..., :, 0, None], b[..., 0, None, :])
        term = np.empty_like(out)
        for j in range(1, n):
            out += np.multiply(a[..., :, j, None], b[..., j, None, :], out=term)
        return out
    pa, pb = _planes(a, lead), _planes(b, lead)
    out = np.empty(a.shape[-2:-1] + b.shape[-1:] + lead, dtype=np.promote_types(a.dtype, b.dtype))
    term = np.empty(lead, dtype=out.dtype)
    for i in range(out.shape[0]):
        for k in range(out.shape[1]):
            entry = out[i, k, ...]  # an array, even for 2-D operands
            np.multiply(pa[i, 0, ...], pb[0, k, ...], out=entry)
            for j in range(1, n):
                entry += np.multiply(pa[i, j, ...], pb[j, k, ...], out=term)
    return _stack(out)


def complete_qr(a):
    """Q (..., M, M) of each matrix's complete QR (Golub & Van Loan, 4th ed., 5.2).

    A stack of 2 x 1 matrices [a0, a1] takes LAPACK's Householder
    reflector (zgeqr2, then zung2r) in closed form: beta = -sign(Re a0)
    ||a||, tau = (beta - a0) / beta, v = [1, a1 / (a0 - beta)], Q = I -
    tau v v^H, each entry formed as zung2r forms it. The convention sets
    each column's phase, which no_ia's and genie's bodies depend on; it
    agrees with LAPACK's Q to a few ulps. Where a1 = 0 (LAPACK's tau = 0
    branch) or ||a|| leaves [2^-400, 2^400], the matrix takes LAPACK's QR.
    """
    if a.shape[-2:] != (2, 1):
        return np.linalg.qr(a, mode="complete")[0]
    a0, a1 = a[..., 0, 0], a[..., 1, 0]
    norm2 = _norm2(a)
    fallback = ~((norm2 >= 2.0 ** -800) & (norm2 <= 2.0 ** 800)) | (a1 == 0.0)
    q = np.empty(a.shape[:-1] + (2,), dtype=np.complex128)
    with np.errstate(all="ignore"):  # only fallback matrices divide by zero or overflow
        beta = -np.copysign(np.sqrt(norm2), a0.real)
        tau = np.empty_like(a0)
        np.divide(beta - a0.real, beta, out=tau.real)
        np.divide(-a0.imag, beta, out=tau.imag)
        v1 = a1 * (1.0 / (a0 - beta))
        q[..., 0, 0] = 1.0 - tau
        np.negative(tau, out=tau)
        q[..., 1, 0] = tau * v1
        q[..., 0, 1] = q01 = tau * v1.conj()
        q[..., 1, 1] = 1.0 + v1 * q01
    if fallback.any():
        q[fallback] = np.linalg.qr(a[fallback], mode="complete")[0]
    return q


def numerical_rank(a):
    """Number of singular values above RANK_RTOL relative to the largest
    one: an int for a matrix, an int array for a stack, of `a` taken as
    complex128. Raises on fewer than 2 axes or a non-finite entry."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2:
        raise SizeMismatch(f"matrix must be at least 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
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
    return _certified_inverse(g, 1e11)[0] if g.shape[-1] <= 2 else cond_bound_clears(g, 1e11)


def aligned_rank(x, basis, dim):
    """`numerical_rank` per matrix of x (..., M, n), certified where it can be.
    The unitary `basis` splits x into Y = basis[:dim] x and Z = basis[dim:] x:
    s_i(x) >= s_i(Y), and s_(r+1)(x) <= ||Z||_2 at Y's rank r = min(dim, n)
    (Weyl). So rank r holds where Y clears `_gram_clears` and ||Z||_F sqrt(r)
    _BOUND_MARGIN < RANK_RTOL ||Y||_F, rank M where M <= n and x clears it,
    and rank 0 where x = 0 (genie's stacks); every other matrix takes the
    SVD."""
    lead, (m, n) = x.shape[:-2], x.shape[-2:]
    x = x.reshape(-1, m, n)
    unit = _unit_scaled(x)[0]  # no norm or Gram of it over- or underflows
    split = basis.reshape(-1, m, m) @ unit
    y, r = split[:, :dim], min(dim, n)
    y2, z2 = (np.einsum("...ij,...ij->...", b.conj(), b).real for b in (y, split[:, dim:]))
    zero = y2 + z2 == 0.0  # x = 0: the basis is unitary, and ||unit||_F >= 2^-400
    clear = z2 * (r * _BOUND_MARGIN ** 2) < RANK_RTOL ** 2 * y2  # strict: x = 0 fails
    if clear.any():
        clear &= _gram_clears(y)
    rank = np.where(clear, r, m)
    rank[zero] = 0
    unsure = ~(clear | zero)
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
    of the leading axes, that hold one. A wide A's Gram is G = B B^H, B =
    A / max|a_ij|, and A^+ = B^H G^-1 / max|a_ij| (the normal equations,
    Golub & Van Loan, 4th ed., 5.3). An SVD serves both the rank test and
    the inverse.
    """
    rows, cols = a.shape[-2:]
    if rows == cols:
        clear, x = _certified_inverse(a, 1.0 / FULL_RANK_RTOL)
    else:
        scale = np.abs(a).max(axis=(-2, -1), keepdims=True)
        scale[scale == 0.0] = 1.0
        b = a / scale  # no entry above 1, so G cannot overflow
        bh = b.conj().swapaxes(-1, -2)
        clear, x = _certified_inverse(mm(b, bh), _GRAM_LIMIT)
        x = mm(bh, x)
        np.divide(x, scale, out=x, where=clear[..., None, None])  # a placeholder could overflow
    unsure = ~clear
    if unsure.any():
        u, s, vh = np.linalg.svd(a[unsure], full_matrices=False)
        deficient = np.zeros(a.shape[:-2], dtype=bool)
        deficient[unsure] = s[..., -1] <= FULL_RANK_RTOL * s[..., 0]
        if deficient.any():
            raise RankDeficient(message, failed=deficient.any(axis=(-2, -1)))
        x[unsure] = vh.conj().swapaxes(-1, -2) @ (u.conj().swapaxes(-1, -2) / s[..., :, None])
    return x


def certified_solve(a, b, message):
    """A^-1 b for per-device matrices a (..., K, 2, M, M), b broadcasting as for
    `np.linalg.solve`. Raises RankDeficient(message), `failed` as in `right_inverse`,
    where sigma_1 > COND_LIMIT * sigma_M (read at each call) or sigma_1 = 0."""
    closed = a.shape[-1] in CLOSED_FORM_SIZES
    if closed:
        clear, inverse = _certified_inverse(a, COND_LIMIT)
    else:
        clear = cond_bound_clears(a, COND_LIMIT)
    unsure = ~clear
    if unsure.any():
        s = np.linalg.svd(a[unsure], compute_uv=False)
        bad = np.zeros(a.shape[:-2], dtype=bool)
        bad[unsure] = ~((s[..., 0] != 0.0) & (s[..., 0] <= COND_LIMIT * s[..., -1]))
        if bad.any():
            raise RankDeficient(message, failed=bad.any(axis=(-2, -1)))
    if not closed:
        return np.linalg.solve(a, b)
    x = mm(inverse, b)
    if unsure.any():
        x[unsure] = np.linalg.solve(a[unsure], np.broadcast_to(b, x.shape)[unsure])
    return x
