"""Closed-form comparisons and the degraded baseline pipelines.

The conventional interference-alignment figures are analytic only
(streams and efficiency); the simulated baselines are no_ia (home-link
zero forcing, interference ignored) and genie (interference physically
absent).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, SizeMismatch
from .linalg import mm, right_inverse
from .system import ChannelSet, partition

SCHEME_NAMES = ("conventional_ia", "sia")


@dataclass(frozen=True)
class EfficiencyReport:
    scheme: str
    antennas: int
    devices: int
    streams: Fraction     # per-user streams (conventional) or aggregated streams (sia)
    efficiency: Fraction  # streams per antenna


def efficiency_report(scheme, antennas, devices):
    """One comparison-table row for the given scheme and scenario, in
    exact rationals; raises ConfigError outside the scheme's domain.

    conventional_ia carries M / (K + 1) streams per user, an efficiency
    of 1 / (K + 1). sia carries floor(M/2) interference-free sums,
    independent of K: an efficiency of 1/2 for even M and 1/2 - 1/(2M)
    for odd M.
    """
    if antennas < 1 or devices < 1:
        raise ConfigError("antennas and devices must be positive")
    if scheme == "conventional_ia":
        streams = Fraction(antennas, devices + 1)
    elif scheme == "sia":
        if antennas < 2:
            raise ConfigError("the aligned scheme needs at least 2 antennas")
        streams = Fraction(partition(antennas).signal_dim)
    else:
        raise ConfigError(f"scheme must be one of {'/'.join(SCHEME_NAMES)}, got {scheme!r}")
    return EfficiencyReport(scheme, antennas, devices, streams, streams / antennas)


def build_no_ia_precoders(channels, beamformer):
    """Zero-forcing toward the home AP only, the cross link ignored: the
    minimum-norm right inverse of beamformer @ direct for every device,
    shape (..., K, 2, M, dof)."""
    beamformer = np.asarray(beamformer)
    shape = beamformer.shape
    if len(shape) < 3 or shape[-3] != 2 or shape[-2] > shape[-1]:
        raise SizeMismatch(f"beamformer must be (..., 2, dof, M) with dof <= M, got {shape}")
    effective = mm(beamformer[..., None, :, :, :], channels.direct)
    return right_inverse(effective, "home channel lost row rank; redraw the channel set")


def genie_channels(channels):
    """Copy of the channel set with the cross links physically removed."""
    return ChannelSet(channels.direct, np.zeros_like(channels.cross))
