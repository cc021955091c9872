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
stream, one Generator seeded in turn at each trial's PCG64 state, and
splits the rows by that table, so every stacked draw holds the values the
trial's stream alone gives. Nothing is tested here: a set the
construction rejects is redrawn by the engine with `draw_channels`, from
the trial's own Generator that `resume` gives.
"""

from __future__ import annotations

import ctypes
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


def _trial_words(seed, trials):
    """PCG64 seeding words, shape (T, 4) uint64, of
    `np.random.default_rng([seed, t])` for every trial index t.

    SeedSequence's hash runs for all trials at once in uint32 arithmetic on
    a (4, T) pool. The entropy is the seed's one or two little-endian words,
    then t's low and high words, zero-padded to the pool; a zero word
    hashes as numpy's padding does. Only the indices are checked here: a
    1-D integer array at once, anything else index by index (a list such
    as [0, True] would become an integer array and pass).
    """
    if type(trials) is np.ndarray and trials.ndim == 1 and trials.dtype.kind in "iu":
        if trials.dtype.kind == "i" and len(trials) and trials.min() < 0:
            _u64(int(trials.min()), "trial index")
        index = trials.astype(np.uint64)
    else:
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


# PCG64's multiplier (numpy's PCG64_DEFAULT_MULTIPLIER) as its low and high
# 64-bit words. Every operand below is a uint64 array or scalar, and every
# product or sum that wraps has an array operand: arrays wrap modulo 2^64
# silently, as the 128-bit arithmetic needs, where scalars would warn.
_MULT_LO, _MULT_HI = np.uint64(0x4385DF649FCCF645), np.uint64(0x2360ED051FC65DA4)
_LIMB = np.uint64(_U32)
_ONE, _S32, _S63 = np.uint64(1), np.uint64(32), np.uint64(63)


def _mul64(a, b):
    """The 128-bit products of the uint64 array `a` and the uint64 `b`, as
    (low, high) words, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LIMB, a >> _S32, b & _LIMB, b >> _S32
    ll, lh, hl = a0 * b0, a0 * b1, a1 * b0
    mid = (ll >> _S32) + (lh & _LIMB) + (hl & _LIMB)
    return (mid << _S32) | (ll & _LIMB), a1 * b1 + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)


def trial_states(seed, trials):
    """PCG64's state in `default_rng([seed, t])` for each trial index t:
    (T, 4) uint64, the 128-bit state then the increment, each low word first.

    PCG64 (O'Neill 2014) takes `_trial_words`' four words as initstate =
    w0 * 2^64 + w1 and initseq = w2 * 2^64 + w3, sets inc = 2 * initseq + 1
    and steps its LCG twice from zero, adding initstate between the steps:
    state = ((inc + initstate) * MULT + inc) mod 2^128. The sums carry
    between 64-bit words; of the product, only the low words' needs all 128 bits.
    """
    w0, w1, w2, w3 = _trial_words(seed, trials).T
    inc_lo = (w3 << _ONE) | _ONE
    inc_hi = (w2 << _ONE) | (w3 >> _S63)
    sum_lo = inc_lo + w1
    sum_hi = inc_hi + w0 + (sum_lo < w1)
    state_lo, state_hi = _mul64(sum_lo, _MULT_LO)
    state_hi += sum_lo * _MULT_HI + sum_hi * _MULT_LO
    state_lo += inc_lo
    state_hi += inc_hi + (state_lo < inc_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=-1)


@functools.cache
def _stream_factory():
    """A maker of PCG64 Generators whose state is overwritten before use;
    numpy.random is imported here, at first use, to keep it out of the
    package import."""
    from numpy.random import PCG64, Generator, SeedSequence

    seq = SeedSequence(0)
    return lambda: Generator(PCG64(seq))


def _state_bytes(bit_generator):
    """A writable view of the 32 bytes holding a PCG64's state and
    increment: the first member of the struct at its public
    `ctypes.state_address` points to them. None unless both that address
    and the bytes lie inside the PCG64 object itself, so nothing is read
    outside it."""
    start = id(bit_generator)
    end = start + type(bit_generator).__basicsize__
    address = bit_generator.ctypes.state_address
    if not start <= address <= end - ctypes.sizeof(ctypes.c_void_p):
        return None
    pointer = ctypes.c_void_p.from_address(address).value
    if pointer is None or not start <= pointer <= end - 32:
        return None
    return memoryview((ctypes.c_char * 32).from_address(pointer)).cast("B")


def _set_state(bit_generator, words):
    """One row of `trial_states`, as ints, through PCG64's public setter."""
    state_lo, state_hi, inc_lo, inc_hi = words
    bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                           "state": {"state": state_hi << 64 | state_lo,
                                     "inc": inc_hi << 64 | inc_lo}}


@functools.cache
def _word_order():
    """The order in which this numpy's PCG64 stores the words of a
    `trial_states` row, as column indices: the low word first where its
    compiler has a 128-bit integer, the high word first where numpy
    emulates one. None when a known state reads back in neither order;
    states then go through the public setter."""
    known = [0x0123456789ABCDEF, 0x1032547698BADCFE, 0x2143658709CBEDAF, 0x3254769801DCFEBA]
    bit_generator = _stream_factory()().bit_generator
    _set_state(bit_generator, known)
    view = _state_bytes(bit_generator)
    stored = None if view is None else np.frombuffer(view, dtype=np.uint64).tolist()
    found = [order for order in ((0, 1, 2, 3), (1, 0, 3, 2)) if [known[i] for i in order] == stored]
    return found[0] if found else None


def _seeded(states):
    """One Generator, seeded in turn at each row of `trial_states`: it is
    yielded once per row, just after that row is written into it, into its
    state's bytes where `_word_order` found them, else through the public
    setter. Either way it is then the row's trial stream, bit for bit."""
    generator = _stream_factory()()
    order = _word_order()
    view = None if order is None else _state_bytes(generator.bit_generator)
    if view is None:
        for words in states.tolist():
            _set_state(generator.bit_generator, words)
            yield generator
    else:
        for state in np.ascontiguousarray(states[:, order]).view("V32")[:, 0].tolist():
            view[:] = state
            yield generator


def resume(config, state):
    """A trial's own Generator, from its row `state` of `trial_states`,
    where `draw_trials` leaves its stream: after its first trial_normals
    values. Its set redraws come from here."""
    generator = next(_seeded(state[None]))
    generator.standard_normal(trial_normals(config))
    return generator


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


@functools.lru_cache(maxsize=256)
def _complex_axes(lead, blocks, shape):
    """How `_complex_normal` lays out draws over the stack axes `lead`: the
    shape that splits each row into (blocks, 2) + `shape`, the axis order
    that takes that split to (2,) + the output's memory order, and the one
    that takes memory to lead + (blocks,) + `shape`. Only the shape of a
    chunk decides them, so they are worked out once per shape."""
    n = len(lead)
    memory = tuple(range(n + 1 + len(shape)))
    order = linalg.plane_order(lead + shape) if len(shape) == 4 else None
    if order is not None:
        # The blocks, then the stack's axes in its order.
        memory = (n,) + tuple(axis if axis < n else axis + 1 for axis in order)
    split = (n + 1,) + tuple(axis if axis <= n else axis + 1 for axis in memory)
    return lead + (blocks, 2) + shape, split, tuple(np.argsort(memory).tolist())


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
    split, axes, back = _complex_axes(normals.shape[:-1], blocks, shape)
    parts = normals.reshape(split).transpose(axes)
    memory = np.empty(parts.shape[1:], dtype=np.complex128)
    np.multiply(parts[0], 1.0 / math.sqrt(2.0), out=memory.real)
    np.multiply(parts[1], 1.0 / math.sqrt(2.0), out=memory.imag)
    return memory.transpose(back)


def draw_trials(config, states):
    """Every first draw of a chunk's trials, from their rows `states` of
    `trial_states`.

    Row t of a (T, trial_normals) array takes trial t's first standard
    normals in one call, from one Generator seeded at its state, and is
    split by `_layout`. Returns the reference draws (T, 2, M, N'), the
    untested ChannelSet (T, K, 2, M, M), the symbols (T, K, 2, signal_dim)
    and the noise (T, 2, M). A trial's set redraws come from `resume`,
    after its row, so every value is the one its stream alone gives.
    """
    normals = np.empty((len(states), trial_normals(config)))
    for generator, row in zip(_seeded(states), normals):
        generator.standard_normal(out=row)
    draws, start = [], 0
    for blocks, shape in _layout(config):
        stop = start + _normals(blocks, shape)
        draws.append(_complex_normal(normals[:, start:stop], blocks, shape))
        start = stop
    reference, channels, symbols, noise = draws
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
