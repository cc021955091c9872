"""Monte Carlo harness: seeded trials, SNR sweeps and summary metrics.

Every trial has its own random stream, the one
`np.random.default_rng([seed, trial_index])` gives. From it the trial draws
reference matrices, channels, symbols and one unit-variance noise vector,
and it scores the whole SNR grid at once by rescaling that noise. A trial
whose channel set its construction rejects (an ill-conditioned cross
channel in the IA stage, an effective channel that loses rank) draws a
new set from the same stream, after those values.
Trials run in chunks: each stage draws or builds for every trial of the
chunk in one stacked call, and every stream is consumed exactly as if its
trial ran alone. Results are therefore independent of chunking and
scheduling: sweeps aggregate in trial order and give identical output for
any worker count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .baselines import build_no_ia_precoders, genie_channels
from .errors import ConfigError, DegenerateChannels, RankDeficient, SizeMismatch
from .functions import FunctionSpec, postprocess, preprocess
from .linalg import mm
from .sia import aligned_interference_dimension, build_reference_matrices, build_sia_matrices
from .system import (
    _integer,
    draw_channels,
    draw_trials,
    partition,
    resume,
    superpose,
    trial_states,
)

# Channel sets a trial may draw, its first included, before the run is
# declared degenerate; a set is redrawn whole when its construction raises
# RankDeficient for it.
SET_REDRAW_BUDGET = 100
# Complex elements a chunk's channel stacks and scored grid may hold; a
# chunk always has at least one trial. The draws and the build's
# K-sized intermediates are not counted, so a chunk's peak is a K-dependent
# multiple of the cap (3.6 MiB for a 5-trial M=4, K=200 chunk, against the
# 1 MiB of 2**16 elements). A chunk pays a fixed cost of about a hundred
# numpy calls whatever its size, so the cap is set high; 2**17 raised peak
# memory by more than 10%.
CHUNK_ELEMENTS = 2**16
# Largest noiseless relative residual and leakage a sia trial may show:
# exact recovery sits near 1e-13 and leakage near 1e-27, so more is a fault.
RESIDUAL_BOUND = 1e-8
LEAKAGE_BOUND = 1e-20


@dataclass
class TrialResult:
    """Seeded trials, each scored at every point of an SNR grid.

    Every field leads with the trial axis; the shapes below are per
    trial. Fields with a P axis hold one entry per grid point, the grid
    axis last; the others do not depend on the noise level. A trial's
    error at grid point p is noiseless + noise_std[p] * noise.
    """

    target: np.ndarray        # (2, dof) sum of home-cell symbols
    noiseless: np.ndarray     # (2, dof) noise-free recovered minus target
    noise: np.ndarray         # (2, dof) beamformed unit-variance noise
    err_power: np.ndarray     # (2, P) ||err||^2 per cell
    sig_power: np.ndarray     # (2,) ||target||^2 per cell
    noise_std: np.ndarray     # (P,)
    leakage: np.ndarray       # (2,) per AP, post-beamforming interference power ratio
    aligned_rank: np.ndarray  # (2,) per interfering cell, at the victim AP
    residual: np.ndarray      # () noiseless ||err|| / ||target|| over both cells
    redraws: np.ndarray       # () channel-set redraws


def _project(beamformer, *vectors):
    """Apply each AP's beamformer to each of its received vectors, in one
    product: each (..., 2, M) -> (..., 2, dof), stored C-contiguous, so that
    sums over its last axis add in one order whatever the layout."""
    return np.ascontiguousarray(mm(beamformer, np.array(vectors)[..., None])[..., 0])


def _build(config, channels, states, reference, beamformer):
    """Build every trial's precoders on its drawn channel set, reference
    and beamformer.

    A trial redraws its whole set when the build raises RankDeficient
    for it, with at most SET_REDRAW_BUDGET sets per trial. The new set
    comes from the trial's own Generator, made from its row of `states`
    at its first redraw and kept for the next. Returns (channels,
    precoders, set redraws per trial).
    """
    sets = np.ones(len(states), dtype=int)
    generators = {}
    while True:
        if config.scheme == "genie":
            channels = genie_channels(channels)
        try:
            if config.scheme == "sia":
                precoders = build_sia_matrices(channels, reference, beamformer)
            else:
                precoders = build_no_ia_precoders(channels, beamformer)
            return channels, precoders, sets - 1
        except RankDeficient as exc:
            failed = exc.failed
        sets += failed
        if sets.max() > SET_REDRAW_BUDGET:
            raise DegenerateChannels(f"no usable channel draw after {SET_REDRAW_BUDGET} attempts")
        for t in np.flatnonzero(failed):
            if t not in generators:
                generators[t] = resume(config, states[t])
            fresh = draw_channels(config, generators[t])
            channels.direct[t] = fresh.direct
            channels.cross[t] = fresh.cross


def _run_chunk(config, states, symbols=None):
    """Draw, build and transmit together the trials whose seeded PCG64
    states are `states` (rows of `system.trial_states`), then score each
    at every point of config.snr_db_grid in one broadcast along the grid
    axis.

    Returns a TrialResult with a leading trial axis. Each trial draws one
    unit-variance noise vector; each grid point rescales it so the noise
    power sits that many dB below the received desired power. `symbols`,
    when given, replace every trial's drawn symbols after the draw.
    """
    draws, channels, drawn, noise_unit = draw_trials(config, states)
    reference, beamformer = build_reference_matrices(draws)
    channels, precoders, redraws = _build(config, channels, states, reference, beamformer)
    symbols = drawn if symbols is None else symbols

    desired, interference = superpose(channels, precoders, symbols)
    target = symbols.sum(axis=-3)
    leak_vec, received, beam_noise = _project(beamformer, interference, desired, noise_unit)
    noiseless = (received - target) + leak_vec
    interference_power = np.sum(np.abs(interference) ** 2, axis=-1)
    leak_power = np.sum(np.abs(leak_vec) ** 2, axis=-1)
    safe = np.where(interference_power > 0.0, interference_power, 1.0)
    leak_ratio = np.where(interference_power > 0.0, leak_power / safe, 0.0)
    signal_power = np.sum(np.abs(desired) ** 2, axis=(-2, -1)) / (2.0 * config.antennas)
    aligned = aligned_interference_dimension(channels, precoders, reference, beamformer)

    # float_power is libm pow, as Python's float ** is, so every grid point
    # matches a scalar evaluation at that point to the bit.
    scale = np.float_power(10.0, np.asarray(config.snr_db_grid) / 10.0)
    noise_std = np.sqrt(signal_power[:, None] / scale)
    # The grid axis is innermost, (T, 2, dof, P), so every pass runs along
    # it. The dof entries are added in order, as np.sum would not on a
    # one-point grid, so a point scores the same bits on any grid.
    err = noiseless[..., None] + noise_std[:, None, None, :] * beam_noise[..., None]
    power = np.abs(err) ** 2
    err_power = power[..., 0, :]
    for j in range(1, power.shape[-2]):
        err_power = err_power + power[..., j, :]
    sig_power = np.sum(np.abs(target) ** 2, axis=-1)
    # Functional data can aggregate to exactly zero (a sum that cancels, a
    # geomean of product 1); its residual is then stored as inf or nan.
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = np.sqrt(np.sum(np.abs(noiseless) ** 2, axis=(-2, -1)) / sig_power.sum(axis=-1))
    return TrialResult(target=target, noiseless=noiseless, noise=beam_noise,
                       err_power=err_power, sig_power=sig_power,
                       noise_std=noise_std, leakage=leak_ratio, aligned_rank=aligned,
                       residual=residual, redraws=redraws)


def _chunk_trials(config):
    """Most trials a chunk scored on config.snr_db_grid may hold: as many
    as fit CHUNK_ELEMENTS, at least one."""
    m, k = config.antennas, config.devices
    per_trial = 4 * k * m * m + 2 * len(config.snr_db_grid) * partition(m).signal_dim
    return max(1, CHUNK_ELEMENTS // per_trial)


def _concat(parts):
    """Join results along the trial axis; a lone part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    return TrialResult(**{f.name: np.concatenate([getattr(p, f.name) for p in parts])
                          for f in fields(TrialResult)})


@functools.cache
def _keep_freed_memory():
    """Let each chunk reuse the heap pages the last one freed: glibc's mmap
    threshold pinned at its ceiling, 32 MiB, and its trim threshold at twice
    that, once per process (see the README). A no-op without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def run_trials(config, trials):
    """Seeded trials `trials`, each drawn, built, transmitted and scored at
    every point of config.snr_db_grid.

    Returns one TrialResult with a leading trial axis, in the order
    given. Every trial is a pure function of (config, trial index),
    whatever else runs with it.
    """
    if len(trials) == 0:
        raise ConfigError("run_trials needs at least one trial index, got an empty list")
    _keep_freed_memory()
    # Every trial's seeded state is computed once for the whole call, since
    # the fixed cost of its vectorised passes would tell on one-trial chunks.
    states = trial_states(config.seed, trials)
    # The fewest chunks under the cap, as equal as array_split makes them
    # (the first ones largest), so that no runt pays a chunk's fixed cost
    # for a few trials.
    count = -(-len(states) // _chunk_trials(config))
    return _concat([_run_chunk(config, chunk) for chunk in np.array_split(states, count)])


def run_functional_trial(config, function, data, trial_index=0, snr_db=None):
    """Carry per-device data through the full functional pipeline.

    `function` is the nomographic function, one of functions.FUNCTIONS
    (sum, mean or geomean); an unknown kind raises DomainError. `data` has
    shape (K, 2, signal_dim) and holds each device's real inputs. The
    values are pre-processed for `function`, sent over the air with
    config.scheme in sweep trial `trial_index`'s channel use, its noise
    included, recovered and post-processed. Returns the per-cell function
    estimates, shape (2, signal_dim). `snr_db` None is noise-free; a
    number is scored as a one-point grid, so it must be finite.
    """
    spec = FunctionSpec(function, config.devices)
    dof = partition(config.antennas).signal_dim
    symbols = preprocess(spec, data)
    expected = (config.devices, 2, dof)
    if symbols.shape != expected:
        raise SizeMismatch(f"data must have shape {expected}, got {symbols.shape}")
    config = config if snr_db is None else replace(config, snr_db_grid=(snr_db,))
    res = _run_chunk(config, trial_states(config.seed, [trial_index]), symbols[None])
    error = res.noiseless[0]
    if snr_db is not None:
        error = error + res.noise_std[0, 0] * res.noise[0]
    return postprocess(spec, res.target[0] + error)


def claim_problems(config, trials):
    """The paper's claim on the TrialResult `trials`: one message per condition
    some sia trial breaks (a noiseless residual above RESIDUAL_BOUND, an aligned
    rank in a cell other than min(N', K * dof), a leakage above LEAKAGE_BOUND)."""
    part = partition(config.antennas)
    expected = min(part.interference_dim, config.devices * part.signal_dim)
    worst, leak = trials.residual.max(), trials.leakage.max()
    low, high = trials.aligned_rank.min(), trials.aligned_rank.max()
    failed = "; interference alignment failed"
    return [message for holds, message in (
        (worst <= RESIDUAL_BOUND,
         f"noiseless residual {worst:.3e} exceeds {RESIDUAL_BOUND:.0e}; exact recovery failed"),
        (high <= expected, f"aligned interference rank {high} exceeds {expected}{failed}"),
        (low >= expected, f"aligned interference rank {low} is below {expected}{failed}"),
        (leak <= LEAKAGE_BOUND, f"interference leakage {leak:.3e} exceeds {LEAKAGE_BOUND:.0e}"),
    ) if config.scheme == "sia" and not holds]


@dataclass
class SweepPoint:
    snr_db: float
    trials: int
    nmse_mean: float       # pooled: total error power over total target power
    nmse_median: float     # median of the per-cell per-trial ratios
    leakage_mean: float
    aligned_rank: int
    analytic_nmse: float   # mean per-trial noise-only prediction
    oracle_gap: float      # mean(expectation-normalised NMSE - prediction)
    oracle_gap_se: float   # standard error of that gap


@dataclass
class SweepResult:
    config: object
    points: list
    dof_slope: float
    max_residual: float    # largest noiseless ||err|| / ||target|| over the trials
    problems: list         # claim_problems of the trials: empty when the claim holds


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count():
    """Worker cap: the CPUs this process may run on, or AIRCOMP_WORKERS when
    set, clamped to those CPUs with a note on stderr."""
    cpus = _usable_cpus()
    raw = os.environ.get("AIRCOMP_WORKERS")
    if raw is None:
        return cpus
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"AIRCOMP_WORKERS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError("AIRCOMP_WORKERS must be at least 1")
    if value > cpus:
        print(f"note: AIRCOMP_WORKERS={value} exceeds the {cpus} usable CPUs; using {cpus}",
              file=sys.stderr)
        return cpus
    return value


# The worker pool outlives a sweep: (size, executor), created at first use.
# concurrent.futures shuts it down at interpreter exit.
_pool = None
_pool_lock = threading.Lock()


def _worker_pool(size):
    """The pool of `size` workers, reused while the size matches; a pool
    of another size is shut down and replaced."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0] != size:
            _pool[1].shutdown()
            _pool = None
        if _pool is None:
            _pool = (size, ProcessPoolExecutor(max_workers=size))
        return _pool[1]


def _discard_pool(executor):
    """Forget a broken pool so the next sweep starts a new one."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[1] is executor:
            _pool = None
    executor.shutdown(wait=False)


def fit_nmse_slope(snr_db, nmse, lo=None):
    """Least-squares slope of log10(nmse) against SNR in dB from `lo` up,
    in closed form: sum (x - mean x)(y - mean y) / sum (x - mean x)^2.

    Points with non-positive or non-finite NMSE are excluded; returns nan
    when fewer than two points, or two distinct SNRs, remain.
    """
    x = np.asarray(snr_db, dtype=np.float64)
    y = np.asarray(nmse, dtype=np.float64)
    mask = np.isfinite(y) & (y > 0)
    if lo is not None:
        mask &= x >= lo
    if np.count_nonzero(mask) < 2:
        return float("nan")
    x, y = x[mask], np.log10(y[mask])
    dx = x - x.mean()
    spread = dx @ dx
    return float(dx @ (y - y.mean()) / spread) if spread > 0 else float("nan")


def _medians(rows):
    """np.median of each row of an even count n: the mean of its (n/2 -
    1)-th order statistic and the least entry above it, from one single-kth
    partition, which numpy takes about 5x faster than the three kth
    np.median asks for. NaN sorts last and propagates through the min, so
    a row with a NaN gives NaN, as np.median's does; every value is
    np.median's bit for bit, a NaN's payload aside."""
    half = rows.shape[-1] // 2
    part = np.partition(rows, half - 1, axis=-1)
    return (part[:, half - 1] + part[:, half:].min(axis=-1)) / 2


def run_sweep(config, workers=None):
    """Sweep the SNR grid with config.trials Monte Carlo trials per point.

    The slope of log10(mean NMSE) is fitted over the top half of the grid.
    Output is identical for any worker count. More than one worker runs
    on a process pool kept for later sweeps of the same worker count.
    `workers` is None (worker_count()) or an integer of at least 1, or
    ConfigError is raised.
    """
    try:
        valid = workers is None or _integer(workers, "workers") >= 1
    except ConfigError:
        valid = False
    if not valid:
        raise ConfigError(f"workers must be None or an integer of at least 1, got {workers!r}")
    if workers is None:
        workers = worker_count()
    ranges = np.array_split(np.arange(config.trials), min(config.trials, workers))
    # Builtin map runs one range in this process; the kept pool's map keeps
    # their order and, when one raises, leaves none of the rest queued.
    pool = _worker_pool(len(ranges)) if len(ranges) > 1 else None
    try:
        batches = list((pool.map if pool else map)(run_trials, [config] * len(ranges), ranges))
    except BrokenExecutor:
        _discard_pool(pool)
        raise
    merged = _concat(batches)

    # Every column is reduced over the trial (and cell) axes for all grid
    # points at once: err_power is (T, 2, P), noise_std (T, P). Each
    # trial's two cells are added first, then the trials in order.
    # Noise-only oracle sigma^2 / K: noise power sigma^2 * dof over target power K * dof.
    grid = config.snr_db_grid
    cells = merged.err_power[:, 0] + merged.err_power[:, 1]
    nmse_mean = cells.sum(axis=0) / merged.sig_power.sum()
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero target gives inf or nan
        nmse = merged.err_power / merged.sig_power[..., None]
    nmse_median = _medians(np.ascontiguousarray(nmse.reshape(-1, len(grid)).T))
    predicted = np.square(merged.noise_std) / config.devices
    gap = cells / 2 / (config.devices * partition(config.antennas).signal_dim) - predicted
    if config.trials > 1:
        se = gap.std(axis=0, ddof=1) / math.sqrt(config.trials)
    else:
        se = np.full(len(grid), math.nan)
    leakage = float(merged.leakage.mean())
    aligned = int(merged.aligned_rank.max())
    columns = (nmse_mean, nmse_median, predicted.mean(axis=0), gap.mean(axis=0), se)
    points = [
        SweepPoint(
            snr_db=snr_db,
            trials=config.trials,
            nmse_mean=mean,
            nmse_median=median,
            leakage_mean=leakage,
            aligned_rank=aligned,
            analytic_nmse=analytic,
            oracle_gap=gap_mean,
            oracle_gap_se=gap_se,
        )
        # tolist gives each column's entries as Python floats in one call.
        for snr_db, mean, median, analytic, gap_mean, gap_se in zip(
            grid, *(column.tolist() for column in columns))
    ]
    lo = (min(grid) + max(grid)) / 2.0
    slope = fit_nmse_slope(grid, nmse_mean, lo=lo)
    return SweepResult(config=config, points=points, dof_slope=slope,
                       max_residual=float(merged.residual.max()),
                       problems=claim_problems(config, merged))
