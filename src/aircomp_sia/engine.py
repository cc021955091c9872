"""Monte Carlo harness: seeded trials, SNR sweeps and summary metrics.

Every trial has its own random stream, the one
`np.random.default_rng([seed, trial_index])` gives. From it the trial draws
reference matrices, channels, symbols and one unit-variance noise vector,
and it scores the whole SNR grid at once by rescaling that noise. Trials run
in chunks: each stage draws or builds for every trial of the chunk in one
stacked call, and every stream is consumed exactly as if its trial ran
alone. Results are therefore independent of chunking and scheduling:
sweeps aggregate in trial order and give identical output for any worker
count.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .baselines import build_no_ia_precoders, genie_channels
from .errors import ConfigError, DegenerateChannels, RankDeficient, SizeMismatch
from .functions import FunctionSpec, postprocess, preprocess
from .sia import (
    aligned_interference_dimension,
    build_aggregation_beamformers,
    build_reference_matrices,
    build_sia_matrices,
)
from .system import (
    _complex_normal,
    draw_channels,
    draw_symbols,
    partition,
    superpose,
    trial_streams,
)

# Whole-set redraws allowed per trial when a construction degenerates.
SET_REDRAW_BUDGET = 100
# Complex elements a chunk's channel stacks and scored grid may hold; a
# chunk always has at least one trial.
CHUNK_ELEMENTS = 2**14
# Largest noiseless relative residual a sia run may show: exact recovery
# sits near 1e-13, so anything above this is a construction fault.
RESIDUAL_BOUND = 1e-8


@dataclass
class TrialResult:
    """Seeded trials, each scored at every point of an SNR grid.

    Every array field leads with the trial axis; the shapes below are
    per trial. Fields with a P axis hold one entry per grid point; the
    others do not depend on the noise level.
    """

    target: np.ndarray         # (2, dof) sum of home-cell symbols
    err: np.ndarray            # (P, 2, dof) recovered minus target
    err_power: np.ndarray      # (P, 2) ||err||^2 per cell
    sig_power: np.ndarray      # (2,) ||target||^2 per cell
    nmse: np.ndarray           # (P, 2) err_power / sig_power
    noise_std: np.ndarray      # (P,)
    analytic_nmse: np.ndarray  # (P,) noise-only NMSE prediction, noise_std^2 / K
    leakage: np.ndarray        # (2,) per AP, post-beamforming interference power ratio
    aligned_rank: np.ndarray   # (2,) per interfering cell, at the victim AP
    residual: np.ndarray       # () noiseless ||err|| / ||target|| over both cells
    redraws: int               # over every trial


def _project(beamformer, vectors):
    """Apply each AP's beamformer to its received vector: (..., 2, M) -> (..., 2, dof)."""
    return (beamformer @ vectors[..., None])[..., 0]


def _build(config, rngs, reference):
    """Draw every trial's channel set and build its precoders.

    A trial whose construction loses rank redraws its whole set from its
    own stream, as it would alone, with at most SET_REDRAW_BUDGET builds
    per trial. Returns (channels, beamformer, precoders, redraws).
    """
    channels = draw_channels(config, rngs)
    redraws = channels.redraws
    builds = np.ones(len(rngs), dtype=int)
    if config.scheme != "sia":
        beamformer = build_aggregation_beamformers(reference)
    while True:
        if config.scheme == "genie":
            channels = genie_channels(channels)
        try:
            if config.scheme == "sia":
                matrices = build_sia_matrices(channels, reference)
                return channels, matrices.beamformer, matrices.precoder, redraws
            return channels, beamformer, build_no_ia_precoders(channels, beamformer), redraws
        except RankDeficient as exc:
            failed = np.ones(len(rngs), dtype=bool) if exc.failed is None else exc.failed
            builds += failed
            if builds.max() > SET_REDRAW_BUDGET:
                raise DegenerateChannels(
                    f"no usable channel draw after {SET_REDRAW_BUDGET} attempts") from exc
            again = np.flatnonzero(failed)
            fresh = draw_channels(config, [rngs[t] for t in again])
            channels.direct[again] = fresh.direct
            channels.cross[again] = fresh.cross
            redraws += fresh.redraws + len(again)


def _run_chunk(config, rngs, snr_db, symbols=None):
    """Draw, build and transmit the trials whose streams are `rngs`
    together, then score each at every point of the SNR grid `snr_db` in
    one broadcast.

    Returns a TrialResult with a leading trial axis. Each trial draws one
    unit-variance noise vector; each grid point rescales it so the noise
    power sits `snr_db` below the received desired power. An infinite SNR
    is the noiseless pipeline. `symbols`, when given, replace the symbol
    draw of every trial.
    """
    reference = build_reference_matrices(config.antennas, rngs)
    channels, beamformer, precoders, redraws = _build(config, rngs, reference)
    if symbols is None:
        symbols = draw_symbols(config, rngs)
    noise_unit = _complex_normal(rngs, (2, config.antennas))

    desired, interference = superpose(channels, precoders, symbols)
    target = symbols.sum(axis=-3)
    leak_vec = _project(beamformer, interference)
    noiseless = (_project(beamformer, desired) - target) + leak_vec
    interference_power = np.sum(np.abs(interference) ** 2, axis=-1)
    leak_power = np.sum(np.abs(leak_vec) ** 2, axis=-1)
    safe = np.where(interference_power > 0.0, interference_power, 1.0)
    leak_ratio = np.where(interference_power > 0.0, leak_power / safe, 0.0)
    beam_noise = _project(beamformer, noise_unit)
    signal_power = np.sum(np.abs(desired) ** 2, axis=(-2, -1)) / (2.0 * config.antennas)
    aligned = np.stack([
        aligned_interference_dimension(i, channels, precoders) for i in (0, 1)
    ], axis=-1)

    # float_power is libm pow, as Python's float ** is, so every grid point
    # matches a scalar evaluation at that point to the bit.
    scale = np.float_power(10.0, np.asarray(snr_db, dtype=np.float64) / 10.0)
    noise_std = np.sqrt(signal_power[:, None] / scale)
    err = noiseless[:, None] + noise_std[:, :, None, None] * beam_noise[:, None]
    err_power = np.sum(np.abs(err) ** 2, axis=-1)
    sig_power = np.sum(np.abs(target) ** 2, axis=-1)
    # Functional data can aggregate to exactly zero (a sum that cancels, a
    # geomean of product 1); its ratios are then stored as inf or nan.
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = np.sqrt(np.sum(np.abs(noiseless) ** 2, axis=(-2, -1)) / sig_power.sum(axis=-1))
        nmse = err_power / sig_power[:, None, :]
    return TrialResult(
        target=target,
        err=err,
        err_power=err_power,
        sig_power=sig_power,
        nmse=nmse,
        noise_std=noise_std,
        analytic_nmse=np.float_power(noise_std, 2) / config.devices,
        leakage=leak_ratio,
        aligned_rank=aligned,
        residual=residual,
        redraws=redraws,
    )


def _chunk_trials(config, points):
    """Trials per chunk scored at `points` grid points: as many as fit
    CHUNK_ELEMENTS, at least one."""
    m, k = config.antennas, config.devices
    per_trial = 4 * k * m * m + 2 * points * partition(m).signal_dim
    return max(1, CHUNK_ELEMENTS // per_trial)


def _concat(parts):
    """Join results along the trial axis, summing their redraws; a lone
    part is returned as it is."""
    if len(parts) == 1:
        return parts[0]
    return TrialResult(**{
        f.name: (sum(p.redraws for p in parts) if f.name == "redraws"
                 else np.concatenate([getattr(p, f.name) for p in parts]))
        for f in fields(TrialResult)
    })


def run_trials(config, trials, snr_db, symbols=None):
    """Seeded trials `trials`, each drawn, built, transmitted and scored at
    every point of the SNR grid `snr_db`; an infinite SNR is noiseless.

    Returns one TrialResult with a leading trial axis, in the order
    given. Every trial is a pure function of (config, trial index, grid
    point), whatever else runs with it. `symbols`, when given, has one
    (K, 2, dof) block per trial and replaces that trial's symbol draw.
    """
    if len(trials) == 0:
        raise ConfigError("run_trials needs at least one trial index, got an empty list")
    grid = np.asarray(snr_db, dtype=np.float64)
    # Seeding is vectorised over the whole call: its fixed cost would
    # outweigh default_rng's on one-trial chunks.
    rngs = trial_streams(config.seed, trials)
    step = _chunk_trials(config, len(grid))
    return _concat([
        _run_chunk(config, rngs[a:a + step], grid,
                   None if symbols is None else symbols[a:a + step])
        for a in range(0, len(rngs), step)
    ])


def run_functional_trial(config, function, data, trial_index=0, snr_db=None):
    """Carry per-device data through the full functional pipeline.

    `function` is the nomographic function, one of functions.FUNCTIONS
    (sum, mean or geomean); an unknown kind raises DomainError. `data` has
    shape (K, 2, signal_dim) and holds each device's real inputs. The
    values are pre-processed for `function`, sent over the air with
    config.scheme, recovered and post-processed. Returns the per-cell
    function estimates, shape (2, signal_dim).
    """
    spec = FunctionSpec(function, config.devices)
    dof = partition(config.antennas).signal_dim
    data = np.asarray(data, dtype=np.float64)
    expected = (config.devices, 2, dof)
    if data.shape != expected:
        raise SizeMismatch(f"data must have shape {expected}, got {data.shape}")
    res = run_trials(config, [trial_index], [math.inf if snr_db is None else snr_db],
                     preprocess(spec, data)[None])
    return postprocess(spec, res.target[0] + res.err[0, 0])


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
    """Least-squares slope of log10(nmse) against SNR in dB from `lo` up.

    Points with non-positive or non-finite NMSE are excluded; returns nan
    when fewer than two points remain.
    """
    x = np.asarray(snr_db, dtype=np.float64)
    y = np.asarray(nmse, dtype=np.float64)
    mask = np.isfinite(y) & (y > 0)
    if lo is not None:
        mask &= x >= lo
    if np.count_nonzero(mask) < 2:
        return float("nan")
    return float(np.polyfit(x[mask], np.log10(y[mask]), 1)[0])


def run_sweep(config, workers=None):
    """Sweep the SNR grid with config.trials Monte Carlo trials per point.

    The slope of log10(mean NMSE) is fitted over the top half of the grid.
    Output is identical for any worker count. More than one worker runs
    on a process pool kept for later sweeps of the same worker count.
    """
    if workers is None:
        workers = worker_count()
    ranges = np.array_split(np.arange(config.trials), min(config.trials, max(1, workers)))
    if len(ranges) == 1:
        batches = [run_trials(config, ranges[0], config.snr_db_grid)]
    else:
        pool = _worker_pool(len(ranges))
        futures = []
        try:
            futures = [pool.submit(run_trials, config, r, config.snr_db_grid) for r in ranges]
            batches = [f.result() for f in futures]
        except BrokenExecutor:
            _discard_pool(pool)
            raise
        finally:
            # A failed sweep leaves none of its batches queued in the kept pool.
            for f in futures:
                f.cancel()
    merged = _concat(batches)

    # Every column is reduced over the trial (and cell) axes for all grid
    # points at once: err_power is (T, P, 2), analytic_nmse (T, P).
    grid = config.snr_db_grid
    err = merged.err_power
    predicted = merged.analytic_nmse
    nmse_mean = err.sum(axis=(0, 2)) / merged.sig_power.sum()
    nmse_median = np.median(merged.nmse, axis=(0, 2))
    gap = err.mean(axis=2) / (config.devices * partition(config.antennas).signal_dim) - predicted
    if config.trials > 1:
        se = gap.std(axis=0, ddof=1) / math.sqrt(config.trials)
    else:
        se = np.full(len(grid), math.nan)
    leakage = float(merged.leakage.mean())
    aligned = int(merged.aligned_rank.max())
    points = [
        SweepPoint(
            snr_db=snr_db,
            trials=config.trials,
            nmse_mean=float(mean),
            nmse_median=float(median),
            leakage_mean=leakage,
            aligned_rank=aligned,
            analytic_nmse=float(analytic),
            oracle_gap=float(gap_mean),
            oracle_gap_se=float(gap_se),
        )
        for snr_db, mean, median, analytic, gap_mean, gap_se in zip(
            grid, nmse_mean, nmse_median, predicted.mean(axis=0), gap.mean(axis=0), se)
    ]
    lo = (min(grid) + max(grid)) / 2.0
    slope = fit_nmse_slope(grid, nmse_mean, lo=lo)
    return SweepResult(config=config, points=points, dof_slope=slope,
                       max_residual=float(merged.residual.max()))
