"""Scenario configuration, channel generation and the noise-free superposition.

The layout is fixed: two cells, one access point per cell, `devices`
devices per cell, and `antennas` antennas on every node (devices need a
square channel to invert their cross link). Channels are i.i.d. complex
Gaussian and stay fixed for the duration of a trial. The configuration
holds only what shapes the channel construction and the sweep; the
nomographic function computed on top of the aggregated streams is an
argument of `engine.run_functional_trial`, not a setting.

Every draw takes either one `numpy.random.Generator` or a sequence of
them, one per trial; a sequence stacks each trial's draw along a new
leading axis, and each stream is consumed exactly as if drawn alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DegenerateChannels, SizeMismatch
from .linalg import COND_LIMIT

SCHEMES = ("sia", "no_ia", "genie")
INT_FIELDS = ("antennas", "devices", "trials", "seed")

DEFAULT_SNR_GRID = tuple(float(s) for s in range(0, 45, 5))
DEFAULT_TRIALS = 200

# Redraw attempts allowed per matrix before the draw is declared degenerate.
MATRIX_REDRAW_BUDGET = 100


@dataclass
class SystemConfig:
    antennas: int                          # M, per node
    devices: int                           # K, per cell
    snr_db_grid: tuple = DEFAULT_SNR_GRID  # sweep points, dB, strictly ascending
    trials: int = DEFAULT_TRIALS           # Monte Carlo trials per point
    seed: int = 0                          # base seed; trials derive their own streams
    scheme: str = "sia"                    # sia | no_ia | genie

    def validate(self):
        for name in INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.antennas == 1:
            raise ConfigError("M=1 yields zero AirComp DoF")
        if self.antennas < 1:
            raise ConfigError(f"antennas must be positive, got {self.antennas}")
        if self.devices < 1:
            raise ConfigError(f"devices must be positive, got {self.devices}")
        if self.trials < 1:
            raise ConfigError(f"trials must be positive, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {'/'.join(SCHEMES)}, got {self.scheme!r}")
        grid = tuple(float(s) for s in self.snr_db_grid)
        if len(grid) == 0:
            raise ConfigError("snr_db_grid must not be empty")
        if any(not math.isfinite(s) for s in grid):
            raise ConfigError("snr_db_grid entries must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("snr_db_grid must be strictly ascending")
        return self

    def to_flat(self):
        """Flat key=value view used by config files and manifests."""
        return {
            "antennas": str(self.antennas),
            "devices": str(self.devices),
            "snr_db_grid": ",".join(format(float(s), ".12g") for s in self.snr_db_grid),
            "trials": str(self.trials),
            "seed": str(self.seed),
            "scheme": self.scheme,
        }

    @classmethod
    def from_flat(cls, mapping):
        known = {f.name for f in fields(cls)}
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        missing = {"antennas", "devices"} - set(mapping)
        if missing:
            raise ConfigError(f"missing config keys: {', '.join(sorted(missing))}")
        kw = {}
        try:
            for key, raw in mapping.items():
                if key in INT_FIELDS:
                    kw[key] = int(raw)
                elif key == "snr_db_grid":
                    parts = [p for p in str(raw).split(",") if p.strip() != ""]
                    kw[key] = tuple(float(p) for p in parts)
                else:
                    kw[key] = str(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
        return cls(**kw)


def parse_config_file(path):
    """Read a flat key=value config file (blank lines and # comments ignored)."""
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping


@dataclass(frozen=True)
class Partition:
    signal_dim: int        # interference-free aggregated streams per cell
    interference_dim: int  # dimensions ceded to the neighbour cell's interference


def partition(antennas):
    """Split an M-dimensional receive space into signal and interference parts.

    Even M splits evenly; odd M gives the spare dimension to the
    interference side, so the signal side is floor(M/2).
    """
    if antennas < 1:
        raise ValueError("antennas must be positive")
    half = antennas // 2
    return Partition(half, antennas - half)


@dataclass
class ChannelSet:
    direct: np.ndarray  # (..., K, 2, M, M), device (k, i) to its own AP i
    cross: np.ndarray   # (..., K, 2, M, M), device (k, i) to the other AP
    redraws: int = 0    # matrices rejected by the conditioning guard, all trials


def _complex_normal(rng, shape):
    """CN(0, 1) draws of `shape`: all real parts, then all imaginary parts,
    from each stream."""
    shape = (2,) + tuple(shape)
    if isinstance(rng, np.random.Generator):
        parts = rng.standard_normal(shape)
    else:
        parts = np.stack([g.standard_normal(shape) for g in rng], axis=1)
    return (parts[0] + 1j * parts[1]) / math.sqrt(2.0)


def _guard_conditioning(mats, rng):
    """Redraw any matrix in the stack whose condition number exceeds COND_LIMIT,
    at most MATRIX_REDRAW_BUDGET times per matrix.

    With a sequence of streams, a matrix is redrawn from the stream of its
    entry on the stack's leading axis.
    """
    svals = np.linalg.svd(mats, compute_uv=False)
    bad = svals[..., 0] > COND_LIMIT * svals[..., -1]
    bad |= svals[..., 0] == 0.0
    redraws = 0
    m = mats.shape[-1]
    for idx in zip(*np.nonzero(bad)):
        stream = rng if isinstance(rng, np.random.Generator) else rng[idx[0]]
        for _ in range(MATRIX_REDRAW_BUDGET):
            redraws += 1
            candidate = _complex_normal(stream, (m, m))
            s = np.linalg.svd(candidate, compute_uv=False)
            if s[0] != 0.0 and s[0] <= COND_LIMIT * s[-1]:
                mats[idx] = candidate
                break
        else:
            raise DegenerateChannels(f"matrix redraw budget ({MATRIX_REDRAW_BUDGET}) "
                                     "exhausted under the conditioning guard")
    return redraws


def draw_channels(config, rng):
    """Draw all 4*K channel matrices of a trial, or of one trial per stream.

    Both stacks are i.i.d. CN(0, 1); any matrix with condition number
    above COND_LIMIT is redrawn so the cross channels stay invertible in
    double precision. Each stream draws its direct stack, its direct
    redraws, its cross stack and its cross redraws, in that order.
    """
    config.validate()
    k, m = config.devices, config.antennas
    direct = _complex_normal(rng, (k, 2, m, m))
    redraws = _guard_conditioning(direct, rng)
    cross = _complex_normal(rng, (k, 2, m, m))
    redraws += _guard_conditioning(cross, rng)
    return ChannelSet(direct, cross, redraws)


def draw_symbols(config, rng):
    """Unit-variance i.i.d. complex Gaussian symbols, shape (..., K, 2, signal_dim)."""
    config.validate()
    dof = partition(config.antennas).signal_dim
    return _complex_normal(rng, (config.devices, 2, dof))


def _check_superpose_args(channels, precoders, symbols):
    shape = channels.direct.shape
    precoders = np.asarray(precoders)
    symbols = np.asarray(symbols)
    if (len(shape) < 4 or shape[-3] != 2 or shape[-2] != shape[-1]
            or channels.cross.shape != shape):
        raise SizeMismatch(f"inconsistent channel stacks {shape} / {channels.cross.shape}")
    if precoders.ndim != len(shape) or precoders.shape[:-1] != shape[:-1]:
        raise SizeMismatch(f"precoders must be (..., K, 2, M, dof), got {precoders.shape}")
    if symbols.shape != shape[:-2] + precoders.shape[-1:]:
        raise SizeMismatch(f"symbols must be (..., K, 2, dof), got {symbols.shape}")
    return precoders, symbols


def superpose(channels, precoders, symbols):
    """Noise-free received components at both APs.

    Returns (desired, interference), each of shape (..., 2, M). desired[i]
    accumulates direct[k, i] @ precoders[k, i] @ symbols[k, i] over the
    home cell; interference[i] accumulates the other cell's devices
    through their cross channels.
    """
    precoders, symbols = _check_superpose_args(channels, precoders, symbols)
    tx = precoders @ symbols[..., None]
    desired = (channels.direct @ tx).sum(axis=-4)[..., 0]
    caused = (channels.cross @ tx).sum(axis=-4)[..., 0]
    return desired, caused[..., ::-1, :].copy()
