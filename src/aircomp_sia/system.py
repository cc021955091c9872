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

import functools
import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .errors import ConfigError, DegenerateChannels, SizeMismatch

SCHEMES = ("sia", "no_ia", "genie")
INT_FIELDS = ("antennas", "devices", "trials", "seed")

DEFAULT_SNR_GRID = tuple(float(s) for s in range(0, 45, 5))
DEFAULT_TRIALS = 200

# Redraw attempts allowed per matrix before the draw is declared degenerate.
MATRIX_REDRAW_BUDGET = 100


@dataclass(frozen=True)
class SystemConfig:
    """A scenario, validated when built, with the grid stored as a tuple
    of floats; fields cannot be reassigned."""

    antennas: int                          # M, per node
    devices: int                           # K, per cell
    snr_db_grid: tuple = DEFAULT_SNR_GRID  # sweep points, dB, strictly ascending
    trials: int = DEFAULT_TRIALS           # Monte Carlo trials per point
    seed: int = 0                          # base seed; trials derive their own streams
    scheme: str = "sia"                    # sia | no_ia | genie

    def __post_init__(self):
        self.validate()

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
        try:
            grid = tuple(float(s) for s in self.snr_db_grid)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"snr_db_grid must be a sequence of numbers, "
                              f"got {self.snr_db_grid!r}") from exc
        if len(grid) == 0:
            raise ConfigError("snr_db_grid must not be empty")
        if any(not math.isfinite(s) for s in grid):
            raise ConfigError("snr_db_grid entries must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("snr_db_grid must be strictly ascending")
        object.__setattr__(self, "snr_db_grid", grid)
        return self

    def to_flat(self):
        """Flat key=value view used by config files and manifests."""
        return {
            "antennas": str(self.antennas),
            "devices": str(self.devices),
            "snr_db_grid": ",".join(format(s, ".12g") for s in self.snr_db_grid),
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


# numpy's SeedSequence hash (bit_generator.pyx) on a pool of four 32-bit
# words. Its multipliers evolve the same way whatever the entropy, so every
# one it takes is precomputed: hashmix call k xors with _HASH_A[k] and
# multiplies by _HASH_A[k + 1] (4 calls fill the pool, 12 mix it), and
# output word i of generate_state does the same with _HASH_B.
_POOL = 4
_U32 = 0xFFFFFFFF


def _hash_constants(init, mult, count):
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _U32)
    return np.array(out, dtype=np.uint32)[:, None]


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _SHIFT)


def _u64(value, what):
    try:
        value = operator.index(value)
    except TypeError as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc
    if not 0 <= value < 2**64:
        raise ConfigError(f"{what} must fit in an unsigned 64-bit integer, got {value}")
    return value


@functools.cache
def _stream_factory():
    """PCG64 Generator from four precomputed seeding words; numpy.random is
    imported here, at first use, to keep it out of the package import."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """Answers PCG64's one seeding request with precomputed words."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL or np.dtype(dtype) != np.uint64:
                raise ValueError("only PCG64's request of 4 uint64 words is precomputed")
            return self.words

    return lambda words: Generator(PCG64(Words(words)))


def trial_streams(seed, trials):
    """One Generator per trial index, in the state of
    `np.random.default_rng([seed, t])`.

    SeedSequence's hash runs for all trials at once in uint32 arithmetic on
    a (4, T) pool. The entropy is the seed's one or two little-endian words,
    then t's low and high words, zero-padded to the pool; a zero word
    hashes as numpy's padding does. PCG64's own seeding then takes the
    generated words, so the streams are numpy's bit for bit.
    """
    seed = _u64(seed, "seed")
    index = np.array([_u64(t, "trial index") for t in trials], dtype=np.uint64)
    words = [seed & _U32, seed >> 32] if seed > _U32 else [seed]
    pool = np.zeros((_POOL, len(index)), dtype=np.uint32)
    pool[:len(words)] = np.array(words, dtype=np.uint32)[:, None]
    pool[len(words)] = index & np.uint64(_U32)
    pool[len(words) + 1] = index >> np.uint64(32)

    pool = _hashmix(pool, _HASH_A[:_POOL], _HASH_A[1:_POOL + 1])
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        k = _POOL + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A[k:k + 3], _HASH_A[k + 1:k + 4]))
    state = _hashmix(pool[np.arange(2 * _POOL) % _POOL], _HASH_B[:-1], _HASH_B[1:])
    state = np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)
    make = _stream_factory()
    return [make(row) for row in state]


def _complex_normal(rng, shape):
    """CN(0, 1) draws of `shape`: all real parts, then all imaginary parts,
    from each stream."""
    shape = (2,) + tuple(shape)
    if isinstance(rng, np.random.Generator):
        parts = rng.standard_normal(shape)
    else:
        stacked = np.empty((len(rng),) + shape)
        for g, out in zip(rng, stacked):
            g.standard_normal(out=out)
        parts = stacked.swapaxes(0, 1)
    return (parts[0] + 1j * parts[1]) / math.sqrt(2.0)


def _ill_conditioned(mats):
    """Mask over the leading axes of a stack of square matrices: True where
    the guard rejects the matrix, i.e. where sigma_1 > COND_LIMIT * sigma_M
    or sigma_1 = 0 on its singular values.

    `linalg.cond_bound_clears` accepts most matrices on a log-determinant
    bound on cond(A); every other one (near the limit, singular or zero)
    is decided by the exact test on its SVD, so the mask equals that
    test's verdict on every matrix.
    """
    unsure = ~linalg.cond_bound_clears(mats, linalg.COND_LIMIT)
    bad = np.zeros(mats.shape[:-2], dtype=bool)
    if unsure.any():
        s = np.linalg.svd(mats[unsure], compute_uv=False)
        bad[unsure] = ~((s[..., 0] != 0.0) & (s[..., 0] <= linalg.COND_LIMIT * s[..., -1]))
    return bad


def _guard_conditioning(mats, rng):
    """Redraw any matrix in the stack whose condition number exceeds COND_LIMIT,
    at most MATRIX_REDRAW_BUDGET times per matrix.

    The stack and every redraw candidate are judged by `_ill_conditioned`:
    a log-determinant bound clears a matrix well inside the limit without
    an SVD, and the rest get the exact singular-value test, so accept and
    reject decisions are those of an SVD of every matrix. With a sequence
    of streams, a matrix is redrawn from the stream of its entry on the
    stack's leading axis.
    """
    redraws = 0
    m = mats.shape[-1]
    for idx in zip(*np.nonzero(_ill_conditioned(mats))):
        stream = rng if isinstance(rng, np.random.Generator) else rng[idx[0]]
        for _ in range(MATRIX_REDRAW_BUDGET):
            redraws += 1
            candidate = _complex_normal(stream, (m, m))
            if not _ill_conditioned(candidate[None])[0]:
                mats[idx] = candidate
                break
        else:
            raise DegenerateChannels(f"matrix redraw budget ({MATRIX_REDRAW_BUDGET}) "
                                     "exhausted under the conditioning guard")
    return redraws


def draw_channels(config, rng):
    """Draw all 4*K channel matrices of a trial, or of one trial per stream.

    Both stacks are i.i.d. CN(0, 1); any matrix with condition number
    above linalg.COND_LIMIT is redrawn so the cross channels stay
    invertible in double precision. The guard clears a matrix on the bound
    cond(A) <= ||A||_F^M (M-1)^(-(M-1)/2) / |det A| when that is at least
    linalg._BOUND_MARGIN below the limit, and takes the SVD of the rest, so
    its decisions are those of the exact singular-value test. Each stream
    draws its direct stack, its direct redraws, its cross stack and its
    cross redraws, in that order.
    """
    k, m = config.devices, config.antennas
    direct = _complex_normal(rng, (k, 2, m, m))
    redraws = _guard_conditioning(direct, rng)
    cross = _complex_normal(rng, (k, 2, m, m))
    redraws += _guard_conditioning(cross, rng)
    return ChannelSet(direct, cross, redraws)


def draw_symbols(config, rng):
    """Unit-variance i.i.d. complex Gaussian symbols, shape (..., K, 2, signal_dim)."""
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
