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

from dataclasses import dataclass

import numpy as np

from .errors import SizeMismatch
from .linalg import left_null_space_basis, numerical_rank, right_inverse
from .system import _complex_normal, partition


@dataclass
class SiaMatrices:
    """All matrices of one aligned trial; a chunk of trials adds leading axes.

    reference:    (2, M, N') per-cell interference reference matrices
    beamformer:   (2, dof, M) aggregation beamformers, orthonormal rows
    ia_component: (K, 2, M, M) inverted cross channels
    sa_component: (K, 2, N', dof) right inverses of the effective channels
    precoder:     (K, 2, M, dof) full cascades ia @ reference @ sa
    """

    reference: np.ndarray
    beamformer: np.ndarray
    ia_component: np.ndarray
    sa_component: np.ndarray
    precoder: np.ndarray


def build_reference_matrices(antennas, rng):
    """Two full-column-rank reference matrices, one per cell, shape (..., 2, M, N')
    with N' = partition(M).interference_dim.

    Random draws are orthonormalised (QR) so the aggregation beamformers
    inherit a well-conditioned null-space problem. `rng` is one stream, or
    a sequence of streams giving one pair per trial.
    """
    shape = (antennas, partition(antennas).interference_dim)
    draws = [_complex_normal(rng, shape) for _ in range(2)]
    q, _ = np.linalg.qr(np.stack(draws, axis=-3))
    return q


def build_aggregation_beamformers(reference):
    """Per-AP beamformers annihilating the other cell's reference subspace.

    Returns (..., 2, dof, M); row i is orthonormal and satisfies
    beamformer[i] @ reference[j] = 0 for j != i.
    """
    reference = np.asarray(reference)
    if reference.ndim < 3 or reference.shape[-3] != 2:
        raise SizeMismatch(f"reference must be (..., 2, M, N'), got {reference.shape}")
    return left_null_space_basis(reference[..., ::-1, :, :])


def build_sia_matrices(channels, reference):
    """Build beamformers and all K*2 precoders for one channel draw, or for
    a stack of draws with matching leading axes on channels and reference.

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
    home = reference[..., None, :, :, :]
    through = channels.direct @ ia
    effective = beamformer[..., None, :, :, :] @ (through @ home)
    sa = right_inverse(effective, "effective channel lost row rank; redraw the channel set")
    precoder = ia @ (home @ sa)
    return SiaMatrices(reference, beamformer, ia, sa, precoder)


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
