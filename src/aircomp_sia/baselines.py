"""Closed-form comparisons and the degraded baseline pipelines.

The conventional interference-alignment figures are analytic only (array
size, efficiency, partition dimensions); the simulated baselines are
no_ia (home-link zero forcing, interference ignored) and genie
(interference physically absent).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import SizeMismatch
from .linalg import right_inverse
from .system import ChannelSet

SCHEME_NAMES = ("conventional_ia", "sia")


def conventional_ia_array_size(streams_per_user, devices):
    """Antennas a conventional-IA AP needs for `streams_per_user` per-user
    streams with `devices` devices per cell: streams * (devices + 1)."""
    if streams_per_user < 1 or devices < 1:
        raise ValueError("streams_per_user and devices must be positive")
    return streams_per_user * (devices + 1)


def sia_array_size(aggregated_streams):
    """Antennas the aligned scheme needs for `aggregated_streams`
    interference-free sums: 2 * aggregated_streams, independent of K."""
    if aggregated_streams < 1:
        raise ValueError("aggregated_streams must be positive")
    return 2 * aggregated_streams


def communication_efficiency(scheme, antennas, devices=1):
    """Streams per antenna as an exact rational.

    conventional_ia: 1 / (K + 1). sia: 1/2 for even M, 1/2 - 1/(2M) for
    odd M, independent of the device count.
    """
    if scheme == "conventional_ia":
        if devices < 1:
            raise ValueError("devices must be positive")
        return Fraction(1, devices + 1)
    if scheme == "sia":
        if antennas < 2:
            raise ValueError("the aligned scheme needs at least 2 antennas")
        if antennas % 2 == 0:
            return Fraction(1, 2)
        return Fraction(1, 2) - Fraction(1, 2 * antennas)
    raise ValueError(f"scheme must be one of {'/'.join(SCHEME_NAMES)}, got {scheme!r}")


def optimal_partition_search(antennas):
    """Brute-force the receive-space split maximising min(m1, m2).

    Returns (m1, m2, dof) with m1 <= m2. Certifies that the balanced
    split attains the maximum before returning it.
    """
    if antennas < 2:
        raise ValueError("need at least 2 antennas to split")
    best = max(min(m1, antennas - m1) for m1 in range(1, antennas))
    balanced = (antennas // 2, antennas - antennas // 2)
    if min(balanced) != best:
        raise RuntimeError("balanced split failed certification")  # unreachable
    return balanced[0], balanced[1], best


class ConventionalPartition(NamedTuple):
    signal_dim: Fraction
    interference_dim: Fraction
    integral: bool


def conventional_partition_dimensions(antennas, devices):
    """Conventional-IA split of an M-antenna receive space: K*M/(K+1)
    signal dimensions and M/(K+1) interference dimensions, flagged when
    they are not integers."""
    if antennas < 1 or devices < 1:
        raise ValueError("antennas and devices must be positive")
    interference = Fraction(antennas, devices + 1)
    signal = Fraction(devices * antennas, devices + 1)
    return ConventionalPartition(signal, interference, interference.denominator == 1)


@dataclass(frozen=True)
class EfficiencyReport:
    scheme: str
    antennas: int
    devices: int
    streams: Fraction     # per-user streams (conventional) or aggregated streams (sia)
    efficiency: Fraction


def efficiency_report(scheme, antennas, devices):
    """One comparison-table row for the given scheme and scenario."""
    eff = communication_efficiency(scheme, antennas, devices)
    if scheme == "sia":
        streams = Fraction(antennas // 2)
    else:
        streams = Fraction(antennas, devices + 1)
    if not 0 < eff <= 1:
        raise RuntimeError("efficiency out of range")  # unreachable
    return EfficiencyReport(scheme, antennas, devices, streams, eff)


def build_no_ia_precoders(channels, beamformer):
    """Zero-forcing toward the home AP only, the cross link ignored: the
    minimum-norm right inverse of beamformer @ direct for every device,
    shape (..., K, 2, M, dof)."""
    beamformer = np.asarray(beamformer)
    shape = beamformer.shape
    if len(shape) < 3 or shape[-3] != 2 or shape[-2] > shape[-1]:
        raise SizeMismatch(f"beamformer must be (..., 2, dof, M) with dof <= M, got {shape}")
    effective = beamformer[..., None, :, :, :] @ channels.direct
    return right_inverse(effective, "home channel lost row rank; redraw the channel set")


def genie_channels(channels):
    """Copy of the channel set with the cross links physically removed."""
    return ChannelSet(channels.direct, np.zeros_like(channels.cross), channels.redraws)
