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

from .errors import RankDeficient, SizeMismatch
from .linalg import FULL_RANK_RTOL, RANK_RTOL, left_null_space_basis, numerical_rank
from .system import _complex_normal, partition


@dataclass
class SiaMatrices:
    """All matrices of one aligned trial.

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


def build_reference_matrices(antennas, interference_dim, rng):
    """Two full-column-rank reference matrices, one per cell, shape (2, M, N').

    Random draws are orthonormalised (QR) so the aggregation beamformers
    inherit a well-conditioned null-space problem.
    """
    expected = partition(antennas).interference_dim
    if interference_dim != expected:
        raise ValueError(
            f"interference_dim must be {expected} for M={antennas}, got {interference_dim}")
    refs = []
    for _ in range(2):
        q, _ = np.linalg.qr(_complex_normal(rng, (antennas, interference_dim)))
        refs.append(q)
    return np.stack(refs)


def build_aggregation_beamformers(reference):
    """Per-AP beamformers annihilating the other cell's reference subspace.

    Returns (2, dof, M); row i is orthonormal and satisfies
    beamformer[i] @ reference[j] = 0 for j != i.
    """
    reference = np.asarray(reference)
    if reference.ndim != 3 or reference.shape[0] != 2:
        raise SizeMismatch(f"reference must be (2, M, N'), got {reference.shape}")
    return np.stack([
        left_null_space_basis(reference[1]),
        left_null_space_basis(reference[0]),
    ])


def build_sia_matrices(channels, reference):
    """Build beamformers and all K*2 precoders for one channel draw.

    Per device: ia inverts the cross channel, sa right-inverts the
    effective channel beamformer @ direct @ ia @ reference, and the
    precoder is ia @ reference @ sa. Assumes the cross channels already
    passed the draw-time conditioning guard; raises RankDeficient when an
    effective channel loses row rank, and the caller redraws the set.
    """
    reference = np.asarray(reference)
    beamformer = build_aggregation_beamformers(reference)
    k, m = channels.devices, channels.antennas
    dof = beamformer.shape[1]
    nprime = reference.shape[2]
    ia = np.linalg.inv(channels.cross)
    sa = np.empty((k, 2, nprime, dof), dtype=np.complex128)
    precoder = np.empty((k, 2, m, dof), dtype=np.complex128)
    for i in (0, 1):
        through = channels.direct[:, i] @ ia[:, i]
        effective = beamformer[i] @ (through @ reference[i])
        svals = np.linalg.svd(effective, compute_uv=False)
        if np.any(svals[:, -1] <= FULL_RANK_RTOL * svals[:, 0]):
            raise RankDeficient("effective channel lost row rank; redraw the channel set")
        sa[:, i] = np.linalg.pinv(effective)
        precoder[:, i] = ia[:, i] @ (reference[i] @ sa[:, i])
    return SiaMatrices(reference, beamformer, ia, sa, precoder)


def aligned_interference_dimension(cell, channels, precoders, tol=RANK_RTOL):
    """Dimension cell `cell` occupies at the other AP after precoding.

    Numerical rank of the M x (K * dof) horizontal stack of the
    cross-channel blocks cross[k, cell] @ precoders[k, cell].
    """
    precoders = np.asarray(precoders)
    blocks = channels.cross[:, cell] @ precoders[:, cell]
    stack = blocks.transpose(1, 0, 2).reshape(channels.antennas, -1)
    return numerical_rank(stack, tol)
