"""Simultaneous signal-and-interference alignment for two-cell AirComp.

Each device cascades three stages. An interference-alignment stage
inverts the device's cross channel, so every device of a cell reaches the
neighbour AP through the cell's common reference matrix; that confines
the whole cell's interference to a fixed low-dimensional subspace
regardless of the device count. The reference matrix itself is the
second stage. A signal-alignment stage then right-inverts the effective
home-AP channel so the wanted symbols arrive pre-summed. Each AP projects
its received vector onto the orthogonal complement of the other cell's
reference subspace, which removes the aligned interference and leaves the
plain sum of the home cell's symbol vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import SizeMismatch
from .linalg import as_stack, numerical_rank, right_inverse
from .system import _complex_normal, partition


def build_reference_matrices(antennas, rng):
    """Two full-column-rank reference matrices, one per cell, shape (..., 2, M, N')
    with N' = partition(M).interference_dim.

    Random draws are orthonormalised (QR) so the aggregation beamformers
    inherit a well-conditioned null-space problem. `rng` is one Generator,
    or a chunk's PrefetchedStreams giving one pair per trial.
    """
    shape = (antennas, partition(antennas).interference_dim)
    draws = [_complex_normal(rng, shape) for _ in range(2)]
    q, _ = np.linalg.qr(np.stack(draws, axis=-3))
    return q


def build_aggregation_beamformers(reference):
    """Per-AP beamformers annihilating the other cell's reference subspace.

    Returns (..., 2, M - N', M): block i is the trailing columns of a
    complete QR of reference[j], j != i, conjugate-transposed (Golub & Van
    Loan, §5.2), so its rows are orthonormal and beamformer[i] @ reference[j] = 0.
    """
    reference = as_stack(reference)
    m, n = reference.shape[-2:]
    if reference.ndim < 3 or reference.shape[-3] != 2 or n >= m:
        raise SizeMismatch(f"reference must be (..., 2, M, N') with N' < M, got {reference.shape}")
    q, _ = np.linalg.qr(reference[..., ::-1, :, :], mode="complete")
    return np.ascontiguousarray(q[..., n:].conj().swapaxes(-1, -2))


def build_sia_matrices(channels, reference):
    """Beamformers (..., 2, dof, M) and all K*2 precoders (..., K, 2, M, dof),
    as the pair (beamformer, precoder), of one channel draw, or of a stack
    of draws with matching leading axes on channels and reference.

    Per device: ia inverts the cross channel, sa right-inverts the
    effective channel beamformer @ direct @ ia @ reference, and the
    precoder is ia @ reference @ sa. Assumes the cross channels already
    passed the draw-time conditioning guard; raises RankDeficient, marking
    the draws that failed, when an effective channel loses row rank, and
    the caller redraws those sets.
    """
    reference = np.asarray(reference)
    beamformer = build_aggregation_beamformers(reference)
    ia = np.linalg.inv(channels.cross)
    aligned = ia @ reference[..., None, :, :, :]
    effective = (beamformer[..., None, :, :, :] @ channels.direct) @ aligned
    sa = right_inverse(effective, "effective channel lost row rank; redraw the channel set")
    return beamformer, aligned @ sa


def aligned_interference_dimension(cell, channels, precoders):
    """Dimension cell `cell` occupies at the other AP after precoding.

    Numerical rank of the M x (K * dof) horizontal stack of the
    cross-channel blocks cross[k, cell] @ precoders[k, cell]; an int
    array over any leading axes.
    """
    precoders = np.asarray(precoders)
    blocks = channels.cross[..., cell, :, :] @ precoders[..., cell, :, :]
    stack = np.moveaxis(blocks, -3, -2)
    return numerical_rank(stack.reshape(stack.shape[:-2] + (-1,)))
