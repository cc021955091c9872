"""Scenario configuration, channel generation and the noise-free superposition.

The layout is fixed: two cells, one access point per cell, `devices`
devices per cell, and `antennas` antennas on every node (devices need a
square channel to invert their cross link). Channels are i.i.d. complex
Gaussian and stay fixed for the duration of a trial. The configuration
holds only what shapes the channel construction and the sweep; the
nomographic function computed on top of the aggregated streams is an
argument of `engine.run_functional_trial`, not a setting.

`_layout` is the one statement of what a trial draws and in which order.
`draw_trials` fills each trial's row of a chunk's draws from its own
Generator and splits the rows by that table, so every stacked draw holds
the values the trial's Generator alone gives. Nothing is tested here: a
set the construction rejects is redrawn by the engine from its trial's
Generator with `draw_channels`.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Mapping, Set
from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .errors import ConfigError, SizeMismatch

SCHEMES = ("sia", "no_ia", "genie")
INT_FIELDS = ("antennas", "devices", "trials", "seed")

DEFAULT_SNR_GRID = tuple(float(s) for s in range(0, 45, 5))
DEFAULT_TRIALS = 200


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
            check = _u64 if name == "seed" else _integer
            object.__setattr__(self, name, check(getattr(self, name), name))
        if self.antennas == 1:
            raise ConfigError("M=1 yields zero AirComp DoF")
        if self.antennas < 1:
            raise ConfigError(f"antennas must be positive, got {self.antennas}")
        if self.devices < 1:
            raise ConfigError(f"devices must be positive, got {self.devices}")
        if self.trials < 1:
            raise ConfigError(f"trials must be positive, got {self.trials}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {'/'.join(SCHEMES)}, got {self.scheme!r}")
        try:
            # A string would split into characters, a mapping give its keys, a set
            # its hash order, and float() would take a bool as 0 or 1 dB.
            if isinstance(self.snr_db_grid, (str, bytes, Mapping, Set)):
                raise TypeError("not a sequence")
            entries = tuple(self.snr_db_grid)
            if any(isinstance(s, (bool, np.bool_)) for s in entries):
                raise TypeError("bool entry")
            grid = tuple(float(s) for s in entries)
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
                    kw[key] = tuple(p for p in str(raw).split(",") if p.strip() != "")
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


# Exact types: isinstance on a numpy integer costs about 0.3 us per index.
_BOOLS = (bool, np.bool_)


def _integer(value, what):
    """`value` as an int: any integer but a bool, else ConfigError."""
    try:
        if type(value) in _BOOLS:
            raise TypeError("bool")
        return operator.index(value)
    except TypeError as exc:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from exc


def _u64(value, what):
    value = _integer(value, what)
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

        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 passes the type itself; building a dtype costs more than seeding.
            if n_words != _POOL or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise ValueError("only PCG64's request of 4 uint64 words is precomputed")
            return self.words

    return lambda words: Generator(PCG64(Words(words)))


def trial_words(seed, trials):
    """PCG64 seeding words, shape (T, 4) uint64, of
    `np.random.default_rng([seed, t])` for every trial index t.

    SeedSequence's hash runs for all trials at once in uint32 arithmetic on
    a (4, T) pool. The entropy is the seed's one or two little-endian words,
    then t's low and high words, zero-padded to the pool; a zero word
    hashes as numpy's padding does. Only the indices are checked here.
    """
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
    return np.ascontiguousarray(state.T).astype("<u4").view("<u8").astype(np.uint64)


def streams(words):
    """One Generator per row of `trial_words`; PCG64's own seeding takes
    the words, so each is numpy's stream bit for bit."""
    make = _stream_factory()
    return [make(row) for row in words]


def _layout(config):
    """A trial's draws in stream order, as (blocks, complex shape): the two
    cells' reference draws, the direct then the cross stack, the symbols
    and the noise. Each block takes all its real parts, then all its
    imaginary parts."""
    m, k = config.antennas, config.devices
    part = partition(m)
    return ((2, (m, part.interference_dim)), (2, (k, 2, m, m)),
            (1, (k, 2, part.signal_dim)), (1, (2, m)))


def _normals(blocks, shape):
    return 2 * blocks * math.prod(shape)


def trial_normals(config):
    """Standard normals one trial draws before any set redraw: every entry
    of `_layout`, two per complex value."""
    return sum(_normals(blocks, shape) for blocks, shape in _layout(config))


def _complex_normal(normals, blocks, shape):
    """CN(0, 1) draws (..., blocks) + `shape` from standard normals
    (..., N): each block's real parts, then its imaginary parts, each
    times fl(1/sqrt(2)) into its view of the output. That is bit for bit
    a complex division by sqrt(2), which numpy takes as
    (re + im * 0) * fl(1/sqrt(2)), but for the sign of a zero part.
    A block of per-device matrices, `shape` (K, 2, rows, cols), is stored
    in the order `linalg.plane_order` gives its stack, each block apart,
    and written in that order.
    """
    lead = normals.shape[:-1]
    parts = np.moveaxis(normals.reshape(lead + (blocks, 2) + shape), len(lead) + 1, 0)
    order = linalg.plane_order(lead + shape) if len(shape) == 4 else None
    if order is not None:
        # Memory order: the blocks, then the stack's axes in its order.
        n = len(lead)
        order = (n,) + tuple(axis if axis < n else axis + 1 for axis in order)
        parts = parts.transpose((0,) + tuple(i + 1 for i in order))
    memory = np.empty(parts.shape[1:], dtype=np.complex128)
    np.multiply(parts[0], 1.0 / math.sqrt(2.0), out=memory.real)
    np.multiply(parts[1], 1.0 / math.sqrt(2.0), out=memory.imag)
    return memory if order is None else memory.transpose(np.argsort(order))


def draw_trials(config, generators):
    """Every first draw of a chunk's trials, one trial per Generator.

    Row t of a (T, trial_normals) array takes trial t's first standard
    normals in one call and is split by `_layout`. Returns the reference
    draws (T, 2, M, N'), the untested ChannelSet (T, K, 2, M, M), the
    symbols (T, K, 2, signal_dim) and the noise (T, 2, M). Each Generator
    resumes after its row, which is where its trial's set redraws come
    from, so every value is the one its Generator alone gives.
    """
    normals = np.empty((len(generators), trial_normals(config)))
    for g, row in zip(generators, normals):
        g.standard_normal(out=row)
    layout = _layout(config)
    bounds = np.cumsum([_normals(blocks, shape) for blocks, shape in layout])[:-1]
    reference, channels, symbols, noise = (
        _complex_normal(segment, blocks, shape)
        for segment, (blocks, shape) in zip(np.split(normals, bounds, axis=-1), layout))
    return reference, ChannelSet(channels[:, 0], channels[:, 1]), symbols[:, 0], noise[:, 0]


def draw_channels(config, rng):
    """A new channel set for one trial from its Generator `rng`: the
    channel entry of `_layout` in one call, untested as in `draw_trials`.
    Both stacks are i.i.d. CN(0, 1), shape (K, 2, M, M)."""
    blocks, shape = _layout(config)[1]
    normals = rng.standard_normal(_normals(blocks, shape))
    return ChannelSet(*_complex_normal(normals, blocks, shape))


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
    through their cross channels. Both are C-contiguous, so that sums over
    their last axes add in one order whatever the channels' layout.
    """
    precoders, symbols = _check_superpose_args(channels, precoders, symbols)
    tx = linalg.mm(precoders, symbols[..., None])
    desired = linalg.stack_sum(linalg.mm(channels.direct, tx), -4)[..., 0]
    caused = linalg.stack_sum(linalg.mm(channels.cross, tx), -4)[..., 0]
    return desired, caused[..., ::-1, :].copy()
