"""Monte Carlo harness: seeded trials, SNR sweeps and summary metrics.

Every trial derives its own random stream from (seed, trial_index), draws
reference matrices, channels, symbols and one unit-variance noise vector,
and scores the whole SNR grid at once by rescaling that noise. Results
are therefore independent of scheduling: sweeps aggregate in trial order
and give identical output for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
from .system import _complex_normal, draw_channels, draw_symbols, partition, superpose

# Whole-set redraws allowed per trial when a construction degenerates.
SET_REDRAW_BUDGET = 100


@dataclass
class TrialResult:
    """One seeded trial scored at every point of an SNR grid.

    Fields with a leading P axis hold one entry per grid point; the
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
    tx_power: np.ndarray       # (K, 2) per-device transmit power, diagnostic
    redraws: int


def _trial(config, trial_index, snr_db, symbols=None):
    """Draw, build and transmit one seeded trial, then score it at every
    point of the SNR grid `snr_db` in one broadcast.

    The trial draws one unit-variance noise vector; each grid point
    rescales it so the noise power sits `snr_db` below the received
    desired power. An infinite SNR is the noiseless pipeline.
    """
    config.validate()
    part = partition(config.antennas)
    rng = np.random.default_rng([config.seed, trial_index])
    reference = build_reference_matrices(config.antennas, part.interference_dim, rng)
    beamformer = build_aggregation_beamformers(reference)
    redraws = 0
    for _ in range(SET_REDRAW_BUDGET):
        channels = draw_channels(config, rng)
        redraws += channels.redraws
        if config.scheme == "genie":
            channels = genie_channels(channels)
        try:
            if config.scheme == "sia":
                precoders = build_sia_matrices(channels, reference).precoder
            else:
                precoders = build_no_ia_precoders(channels, beamformer)
        except RankDeficient:
            redraws += 1
            continue
        break
    else:
        raise DegenerateChannels(
            f"no usable channel draw after {SET_REDRAW_BUDGET} attempts")

    if symbols is None:
        symbols = draw_symbols(config, rng)
    else:
        symbols = np.asarray(symbols, dtype=np.complex128)
        expected = (config.devices, 2, part.signal_dim)
        if symbols.shape != expected:
            raise SizeMismatch(f"symbols must have shape {expected}, got {symbols.shape}")
    noise_unit = _complex_normal(rng, (2, config.antennas))

    desired, interference = superpose(channels, precoders, symbols)
    target = symbols.sum(axis=0)
    recovered_desired = np.einsum("idm,im->id", beamformer, desired)
    sa_error = recovered_desired - target
    leak_vec = np.einsum("idm,im->id", beamformer, interference)
    interference_power = np.sum(np.abs(interference) ** 2, axis=1)
    leak_power = np.sum(np.abs(leak_vec) ** 2, axis=1)
    safe = np.where(interference_power > 0.0, interference_power, 1.0)
    leak_ratio = np.where(interference_power > 0.0, leak_power / safe, 0.0)
    beam_noise = np.einsum("idm,im->id", beamformer, noise_unit)
    signal_power = float(np.sum(np.abs(desired) ** 2)) / (2.0 * config.antennas)
    tx = np.einsum("kimd,kid->kim", precoders, symbols)
    tx_power = np.sum(np.abs(tx) ** 2, axis=2)
    aligned = np.array([
        aligned_interference_dimension(i, channels, precoders) for i in (0, 1)
    ])

    # float_power is libm pow, as Python's float ** is, so every grid point
    # matches a scalar evaluation at that point to the bit.
    noise_std = np.sqrt(signal_power / np.float_power(10.0, np.asarray(snr_db) / 10.0))
    err = (sa_error + leak_vec) + noise_std[:, None, None] * beam_noise
    err_power = np.sum(np.abs(err) ** 2, axis=-1)
    sig_power = np.sum(np.abs(target) ** 2, axis=1)
    return TrialResult(
        target=target,
        err=err,
        err_power=err_power,
        sig_power=sig_power,
        nmse=err_power / sig_power,
        noise_std=noise_std,
        analytic_nmse=np.float_power(noise_std, 2) / config.devices,
        leakage=leak_ratio,
        aligned_rank=aligned,
        tx_power=tx_power,
        redraws=redraws,
    )


def run_trial(config, trial_index, snr_db=None):
    """One seeded trial: draw, build, transmit and score at one SNR point.

    snr_db=None runs the noiseless pipeline (noise_std = 0). The result
    has a one-point grid axis and is a pure function of (config,
    trial_index, snr_db).
    """
    return _trial(config, trial_index, [math.inf if snr_db is None else snr_db])


def run_functional_trial(config, data, trial_index=0, snr_db=None):
    """Carry per-device data through the full functional pipeline.

    `data` has shape (K, 2, signal_dim) and holds each device's real
    inputs. The values are pre-processed for config.function, sent over
    the air with config.scheme, recovered and post-processed. Returns the
    per-cell function estimates, shape (2, signal_dim).
    """
    config.validate()
    spec = FunctionSpec(config.function, config.devices)
    dof = partition(config.antennas).signal_dim
    data = np.asarray(data, dtype=np.float64)
    expected = (config.devices, 2, dof)
    if data.shape != expected:
        raise SizeMismatch(f"data must have shape {expected}, got {data.shape}")
    symbols = np.empty(expected, dtype=np.complex128)
    for k in range(config.devices):
        for i in (0, 1):
            symbols[k, i] = preprocess(spec, data[k, i])
    res = _trial(config, trial_index, [math.inf if snr_db is None else snr_db], symbols)
    recovered = res.target + res.err[0]
    return np.stack([postprocess(spec, recovered[i]) for i in (0, 1)])


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
    err_power_mean: float


@dataclass
class SweepResult:
    config: object
    points: list
    dof_slope: float


def worker_count():
    """Worker cap: AIRCOMP_WORKERS if set, else the CPUs this process may run on."""
    raw = os.environ.get("AIRCOMP_WORKERS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"AIRCOMP_WORKERS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError("AIRCOMP_WORKERS must be at least 1")
    return value


def _sweep_batch(config, start, stop):
    """Run trials [start, stop) over the whole SNR grid; returns stacked arrays."""
    grid = np.asarray(config.snr_db_grid, dtype=np.float64)
    keys = ("err_power", "nmse", "analytic_nmse", "sig_power", "leakage", "aligned_rank")
    rows = {key: [] for key in keys}
    for trial in range(start, stop):
        res = _trial(config, trial, grid)
        for key in keys:
            rows[key].append(getattr(res, key))
    return {key: np.stack(values) for key, values in rows.items()}


def _batch_ranges(trials, workers):
    chunks = min(trials, max(1, workers))
    base, extra = divmod(trials, chunks)
    ranges = []
    start = 0
    for c in range(chunks):
        size = base + (1 if c < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def fit_nmse_slope(snr_db, nmse, lo=None, hi=None):
    """Least-squares slope of log10(nmse) against SNR in dB over [lo, hi].

    Points with non-positive or non-finite NMSE are excluded; returns nan
    when fewer than two points remain.
    """
    x = np.asarray(snr_db, dtype=np.float64)
    y = np.asarray(nmse, dtype=np.float64)
    mask = np.isfinite(y) & (y > 0)
    if lo is not None:
        mask &= x >= lo
    if hi is not None:
        mask &= x <= hi
    if np.count_nonzero(mask) < 2:
        return float("nan")
    return float(np.polyfit(x[mask], np.log10(y[mask]), 1)[0])


def run_sweep(config, workers=None):
    """Sweep the SNR grid with config.trials Monte Carlo trials per point.

    The slope of log10(mean NMSE) is fitted over the top half of the grid.
    Output is identical for any worker count.
    """
    config.validate()
    if workers is None:
        workers = worker_count()
    ranges = _batch_ranges(config.trials, workers)
    if workers == 1 or len(ranges) == 1:
        batches = [_sweep_batch(config, a, b) for a, b in ranges]
    else:
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [pool.submit(_sweep_batch, config, a, b) for a, b in ranges]
            batches = [f.result() for f in futures]
    merged = {key: np.concatenate([b[key] for b in batches]) for key in batches[0]}

    grid = tuple(float(s) for s in config.snr_db_grid)
    dof = partition(config.antennas).signal_dim
    expected_sig_power = config.devices * dof
    total_sig = merged["sig_power"].sum()
    points = []
    for p, snr_db in enumerate(grid):
        err = merged["err_power"][:, p, :]
        ratios = merged["nmse"][:, p, :]
        predicted = merged["analytic_nmse"][:, p]
        normalised = err.mean(axis=1) / expected_sig_power
        gap = normalised - predicted
        se = float(gap.std(ddof=1) / math.sqrt(len(gap))) if len(gap) > 1 else float("nan")
        points.append(SweepPoint(
            snr_db=snr_db,
            trials=config.trials,
            nmse_mean=float(err.sum() / total_sig),
            nmse_median=float(np.median(ratios)),
            leakage_mean=float(merged["leakage"].mean()),
            aligned_rank=int(merged["aligned_rank"].max()),
            analytic_nmse=float(predicted.mean()),
            oracle_gap=float(gap.mean()),
            oracle_gap_se=se,
            err_power_mean=float(err.mean()),
        ))
    lo = (min(grid) + max(grid)) / 2.0
    slope = fit_nmse_slope(grid, [pt.nmse_mean for pt in points], lo=lo)
    return SweepResult(config=config, points=points, dof_slope=slope)
