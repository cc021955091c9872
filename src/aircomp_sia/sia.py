"""Simultaneous signal-and-interference alignment for two-cell AirComp.

Each device cascades three stages. An interference-alignment stage maps
the cell's common reference matrix through the inverse of the device's
cross channel, after a condition-number test has certified every cross
channel. Every device of the cell then reaches the neighbour AP through
that reference, which confines the whole cell's interference to a fixed
low-dimensional subspace regardless of the device count. The
reference matrix itself is the second stage. A signal-alignment stage
then right-inverts the effective home-AP channel so the wanted symbols
arrive pre-summed. Each AP projects its received vector onto the
orthogonal complement of the other cell's reference subspace, which
removes the aligned interference and leaves the plain sum of the home
cell's symbol vectors. One complete QR of each cell's random draw gives
both bases: its leading columns are the cell's reference, its trailing
columns the complement the other AP keeps.
"""

from __future__ import annotations

import numpy as np

from .linalg import aligned_rank, certified_solve, complete_qr, mm, right_inverse


def build_reference_matrices(draws):
    """Both alignment bases of both cells from one complete QR of each
    cell's draw, as the pair (reference, beamformer).

    `draws` (..., 2, M, N'), N' = partition(M).interference_dim, holds
    each cell's draw. reference, of the same shape, holds the first N'
    columns of each Q: orthonormal, and the subspace the cell's
    interference is aligned to. beamformer (..., 2, M - N', M) holds in
    block i the trailing columns of the other cell's Q, conjugate-transposed:
    its rows are orthonormal and span the orthogonal complement of that
    cell's reference, so beamformer[i] @ reference[1 - i] = 0.
    """
    n = draws.shape[-1]
    q = complete_qr(draws)
    # Both are copied out contiguous: on strided views the products that use
    # them made small_dense sweeps about 8% slower (2-CPU VM, one BLAS thread).
    reference = np.ascontiguousarray(q[..., :n])
    return reference, np.ascontiguousarray(q[..., ::-1, :, n:].conj().swapaxes(-1, -2))


def build_sia_matrices(channels, reference, beamformer):
    """All K*2 precoders (..., K, 2, M, dof) of one channel draw, or of a
    stack of draws with matching leading axes on channels, reference and
    beamformer, the pair build_reference_matrices gives.

    Per device: aligned = cross^-1 @ reference, sa right-inverts the
    effective channel beamformer @ direct @ aligned, and the precoder is
    aligned @ sa. Raises RankDeficient, marking the draws that failed, when
    a cross channel is ill-conditioned or an effective channel loses row
    rank; the caller redraws those sets.
    """
    aligned = certified_solve(channels.cross, reference[..., None, :, :, :],
                              "cross channel ill-conditioned; redraw the channel set")
    effective = mm(mm(beamformer[..., None, :, :, :], channels.direct), aligned)
    sa = right_inverse(effective, "effective channel lost row rank; redraw the channel set")
    return mm(aligned, sa)


def aligned_interference_dimension(channels, precoders, reference, beamformer):
    """Dimension each cell occupies at the other AP after precoding, (..., 2).

    Entry i is the numerical rank of the M x (K * dof) horizontal stack of
    cell i's cross-channel blocks cross[k, i] @ precoders[k, i]; an int
    array over any leading axes. `aligned_rank` certifies it without an
    SVD through the unitary [V, W^H] of the cell's reference V and the
    other AP's beamformer W, the pair build_reference_matrices gives.
    """
    stack = np.moveaxis(mm(channels.cross, np.asarray(precoders)), -4, -2)
    stack = stack.reshape(stack.shape[:-2] + (-1,))  # where this copies, the product is freed
    basis = np.concatenate([reference.conj().swapaxes(-1, -2), beamformer[..., ::-1, :, :]],
                           axis=-2)
    return aligned_rank(stack, basis, reference.shape[-1])
