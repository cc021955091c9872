import io
import math
import os
from concurrent.futures import BrokenExecutor
from dataclasses import fields

import numpy as np
import pytest

from aircomp_sia import engine
from aircomp_sia.engine import (
    fit_nmse_slope,
    run_functional_trial,
    run_sweep,
    run_trials,
    worker_count,
)
from aircomp_sia.output import RunManifest, write_result_csv
from aircomp_sia.errors import (
    ConfigError,
    DegenerateChannels,
    RankDeficient,
    SizeMismatch,
)
from aircomp_sia.functions import FunctionSpec, preprocess
from aircomp_sia.sia import build_aggregation_beamformers, build_reference_matrices
from aircomp_sia.system import SystemConfig, _complex_normal, partition, trial_streams

NOISELESS = [math.inf]


def config_for(m, k, **kw):
    kw.setdefault("snr_db_grid", (0.0, 10.0, 20.0))
    kw.setdefault("trials", 4)
    return SystemConfig(antennas=m, devices=k, **kw)


class TestRunTrial:
    def test_noiseless_recovery(self):
        cfg = config_for(4, 3)
        res = run_trials(cfg, [0], NOISELESS)
        assert np.all(np.sqrt(res.nmse) < 1e-8)
        assert np.all(res.leakage < 1e-9)
        assert np.array_equal(res.aligned_rank, [[2, 2]])
        assert res.nmse.shape == (1, 1, 2)
        assert np.array_equal(res.noise_std, [[0.0]])
        assert np.array_equal(res.analytic_nmse, [[0.0]])

    def test_deterministic(self):
        cfg = config_for(5, 2, seed=11)
        a = run_trials(cfg, [7], [10.0])
        b = run_trials(cfg, [7], [10.0])
        assert np.array_equal(a.nmse, b.nmse)
        assert np.array_equal(a.err_power, b.err_power)
        assert np.array_equal(a.noise_std, b.noise_std)

    def test_trial_index_moves_channels(self):
        cfg = config_for(4, 2)
        a = run_trials(cfg, [0], NOISELESS)
        b = run_trials(cfg, [1], NOISELESS)
        assert not np.array_equal(a.err_power, b.err_power)

    def test_noise_fields_scale_with_snr(self):
        cfg = config_for(4, 2, seed=3)
        lo = run_trials(cfg, [0], [10.0])
        hi = run_trials(cfg, [0], [20.0])
        # Channel-dependent fields are shared, noise power drops 10x.
        assert np.array_equal(lo.leakage, hi.leakage)
        assert np.array_equal(lo.aligned_rank, hi.aligned_rank)
        assert np.array_equal(lo.sig_power, hi.sig_power)
        assert np.isclose(lo.noise_std**2, 10 * hi.noise_std**2, rtol=1e-12)
        assert np.all(lo.err_power > hi.err_power)

    def test_no_ia_leaks(self):
        cfg = config_for(4, 2, scheme="no_ia")
        res = run_trials(cfg, range(50), NOISELESS)
        hits = np.all(res.leakage > 1e-3, axis=1).sum()
        assert hits >= 49

    def test_genie_is_clean(self):
        cfg = config_for(4, 2, scheme="genie")
        res = run_trials(cfg, [0], NOISELESS)
        assert np.all(res.leakage == 0.0)
        assert np.array_equal(res.aligned_rank, [[0, 0]])
        assert np.all(np.sqrt(res.nmse) < 1e-9)

    def test_validates_config(self):
        with pytest.raises(ConfigError, match="M=1 yields zero AirComp DoF"):
            run_trials(config_for(1, 2), [0], NOISELESS)

    def test_degenerate_channels_after_budget(self, monkeypatch):
        def always_deficient(channels, reference):
            raise RankDeficient("forced")

        monkeypatch.setattr("aircomp_sia.engine.build_sia_matrices",
                            always_deficient)
        cfg = config_for(4, 2)
        with pytest.raises(DegenerateChannels):
            run_trials(cfg, [0], NOISELESS)


def per_trial_elements(cfg, points):
    """Chunk elements one trial takes, as _chunk_trials counts them."""
    return 4 * cfg.devices * cfg.antennas**2 + 2 * points * partition(cfg.antennas).signal_dim


def assert_matches_alone(cfg, together, trials, grid, symbols=None):
    """Every field of each trial in `together` equals the same trial run
    alone, bit for bit; redraws add up."""
    redraws = 0
    for i, t in enumerate(trials):
        alone = run_trials(cfg, [t], grid, None if symbols is None else symbols[i:i + 1])
        redraws += alone.redraws
        for f in fields(alone):
            if f.name != "redraws":
                assert np.array_equal(getattr(together, f.name)[i],
                                      getattr(alone, f.name)[0]), (t, f.name)
    assert together.redraws == redraws


class TestRunTrials:
    """run_trials splits the trials it is given into chunks; each trial
    must come out as it does alone, in the order given."""

    @pytest.mark.parametrize("scheme", ["sia", "no_ia", "genie"])
    def test_chunked_order_matches_trials_alone(self, monkeypatch, scheme):
        cfg = config_for(4, 2, scheme=scheme, seed=3)
        grid = [0.0, 20.0, math.inf]
        monkeypatch.setattr(engine, "CHUNK_ELEMENTS", 3 * per_trial_elements(cfg, len(grid)))
        assert engine._chunk_trials(cfg, len(grid)) == 3
        trials = [5, 2, 9, 0]
        together = run_trials(cfg, trials, grid)
        assert together.err.shape == (4, 3, 2, 2)
        assert_matches_alone(cfg, together, trials, grid)

    def test_planted_symbols_reach_their_trials(self, monkeypatch):
        cfg = config_for(4, 2, seed=5)
        monkeypatch.setattr(engine, "CHUNK_ELEMENTS", 2 * per_trial_elements(cfg, 1))
        trials = [3, 1, 4, 0, 2]
        symbols = _complex_normal(np.random.default_rng(0), (5, 2, 2, 2))
        together = run_trials(cfg, trials, NOISELESS, symbols)
        assert np.array_equal(together.target, symbols.sum(axis=1))
        assert_matches_alone(cfg, together, trials, NOISELESS, symbols)

    def test_chunks_are_sized_from_the_given_grid(self, monkeypatch):
        # The config's grid has 3 points; a 1-point call fits two trials
        # per chunk where a 3-point call would fit one.
        cfg = config_for(4, 2)
        monkeypatch.setattr(engine, "CHUNK_ELEMENTS", 2 * per_trial_elements(cfg, 1))
        assert engine._chunk_trials(cfg, len(cfg.snr_db_grid)) == 1
        sizes = []
        real = engine._run_chunk

        def recording(config, rngs, *args):
            sizes.append(len(rngs))
            return real(config, rngs, *args)

        monkeypatch.setattr(engine, "_run_chunk", recording)
        run_trials(cfg, range(4), NOISELESS)
        assert sizes == [2, 2]

    def test_empty_trial_list(self):
        with pytest.raises(ConfigError, match="at least one trial"):
            run_trials(config_for(4, 2), [], [0.0])

    def test_lone_part_is_not_copied(self):
        res = run_trials(config_for(2, 1), [0], NOISELESS)
        assert engine._concat([res]) is res


class TestAnalyticNoiseMse:
    """The noise-only prediction sigma^2 / K each trial reports: recovered
    noise power sigma^2 * dof over the expected target power K * dof."""

    def test_unit_case(self):
        res = run_trials(config_for(4, 1, seed=6), [0], [0.0])
        assert res.analytic_nmse[0, 0] == float(res.noise_std[0, 0]) ** 2

    def test_scales_with_streams_and_power(self):
        for k in (1, 2, 5):
            cfg = config_for(4, k, seed=6)
            lo = run_trials(cfg, [0], [10.0])
            hi = run_trials(cfg, [0], [20.0])
            assert np.isclose(lo.analytic_nmse[0, 0] * k, lo.noise_std[0, 0] ** 2, rtol=1e-12)
            assert np.isclose(lo.analytic_nmse[0, 0], 10 * hi.analytic_nmse[0, 0], rtol=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(0)
        m, k = 6, 3
        part = partition(m)
        reference = build_reference_matrices(m, rng)
        beam = build_aggregation_beamformers(reference)[0]
        res = run_trials(config_for(m, k, seed=1), [0], [5.0])
        sigma, want, reps = res.noise_std[0, 0], res.analytic_nmse[0, 0], 20000
        noise = sigma * _complex_normal(rng, (reps, m))
        projected = np.abs(noise @ beam.conj().T) ** 2
        mc = projected.sum(axis=1).mean() / (k * part.signal_dim)
        se = sigma**2 * np.sqrt(part.signal_dim / reps) / (k * part.signal_dim)
        assert abs(mc - want) < 3 * se


class TestFitNmseSlope:
    def test_exact_decade_per_10db(self):
        snr = np.arange(0.0, 41.0, 5.0)
        nmse = 10.0 ** (-snr / 10.0)
        assert abs(fit_nmse_slope(snr, nmse) + 0.1) < 1e-12

    def test_window_selects_floor(self):
        snr = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
        nmse = np.array([1.0, 0.1, 0.01, 0.009, 0.009])
        full = fit_nmse_slope(snr, nmse)
        tail = fit_nmse_slope(snr, nmse, lo=30.0)
        assert full < -0.05
        assert abs(tail) < 1e-6

    def test_ignores_bad_points(self):
        snr = np.array([0.0, 10.0, 20.0, 30.0])
        nmse = np.array([1.0, np.nan, 0.0, 0.001])
        got = fit_nmse_slope(snr, nmse)
        want = np.polyfit([0.0, 30.0], np.log10([1.0, 0.001]), 1)[0]
        assert np.isclose(got, want)

    def test_underdetermined_is_nan(self):
        assert np.isnan(fit_nmse_slope([0.0, 10.0], [1.0, np.nan]))


class FakePools:
    """Stands in for ProcessPoolExecutor: runs batches in this process and
    records every pool made and shut down. No process is started."""

    def __init__(self):
        self.sizes = []
        self.shutdowns = []
        self.broken = False

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return FakePool(self, max_workers)


class FakeFuture:
    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value

    def cancel(self):
        return False


class FakePool:
    def __init__(self, record, size):
        self.record = record
        self.size = size

    def submit(self, fn, *args):
        if self.record.broken:
            raise BrokenExecutor("planted")
        return FakeFuture(fn(*args))

    def shutdown(self, wait=True):
        self.record.shutdowns.append(self.size)


@pytest.fixture
def fake_pools(monkeypatch):
    # The engine keeps its pool across sweeps; start from none and put the
    # previous one back afterwards.
    record = FakePools()
    monkeypatch.setattr(engine, "_pool", None)
    monkeypatch.setattr(engine, "ProcessPoolExecutor", record)
    return record


@pytest.fixture
def batches(monkeypatch, fake_pools):
    """Trial indices of every run_trials call a sweep makes, in this
    process or submitted to the (fake) pool."""
    calls = []
    real = engine.run_trials

    def recording(config, trials, snr_db):
        calls.append([int(t) for t in trials])
        return real(config, trials, snr_db)

    monkeypatch.setattr(engine, "run_trials", recording)
    return calls


class TestBatchRanges:
    """run_sweep hands each worker one contiguous batch of trials, the
    larger batches first."""

    def test_even_and_ragged(self, batches):
        run_sweep(config_for(2, 1, trials=10), workers=4)
        assert batches == [[0, 1, 2], [3, 4, 5], [6, 7], [8, 9]]
        batches.clear()
        run_sweep(config_for(2, 1, trials=8), workers=2)
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_more_workers_than_trials(self, batches, fake_pools):
        run_sweep(config_for(2, 1, trials=3), workers=8)
        assert batches == [[0], [1], [2]]
        assert fake_pools.sizes == [3]

    def test_covers_every_trial(self, batches):
        for trials in (1, 5, 17):
            for workers in (1, 2, 3, 16):
                batches.clear()
                run_sweep(config_for(2, 1, trials=trials), workers=workers)
                assert len(batches) == min(trials, workers)
                assert [t for batch in batches for t in batch] == list(range(trials))


def affinity(monkeypatch, cpus):
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    else:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)


class TestWorkerCount:
    def test_env_override(self, monkeypatch):
        affinity(monkeypatch, 4)
        monkeypatch.setenv("AIRCOMP_WORKERS", "3")
        assert worker_count() == 3

    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("AIRCOMP_WORKERS", "junk")
        with pytest.raises(ConfigError):
            worker_count()
        monkeypatch.setenv("AIRCOMP_WORKERS", "0")
        with pytest.raises(ConfigError):
            worker_count()

    def test_default_is_cpu_count(self, monkeypatch):
        # The CPUs this process may run on, not the machine's.
        monkeypatch.delenv("AIRCOMP_WORKERS", raising=False)
        if hasattr(os, "sched_getaffinity"):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
            assert worker_count() == 3
        else:
            assert worker_count() == (os.cpu_count() or 1)

    def test_pool_is_sized_to_the_work(self, fake_pools):
        cfg = config_for(2, 1, trials=2)
        pooled = run_sweep(cfg, workers=64)
        assert fake_pools.sizes == [2]
        assert pooled.points == run_sweep(cfg, workers=1).points

    def test_explicit_count_is_clamped_to_cpus(self, monkeypatch, capsys, fake_pools):
        affinity(monkeypatch, 3)
        monkeypatch.setenv("AIRCOMP_WORKERS", "64")
        workers = worker_count()
        assert workers == 3
        assert capsys.readouterr().err == (
            "note: AIRCOMP_WORKERS=64 exceeds the 3 usable CPUs; using 3\n")
        monkeypatch.setenv("AIRCOMP_WORKERS", "3")
        assert worker_count() == 3
        assert capsys.readouterr().err == ""
        run_sweep(config_for(2, 1, trials=8), workers=workers)
        assert fake_pools.sizes == [3]


class TestWorkerPool:
    def test_reused_across_sweeps_and_replaced_on_count_change(self, fake_pools):
        cfg = config_for(2, 1, trials=6)
        first = run_sweep(cfg, workers=2)
        second = run_sweep(cfg, workers=2)
        assert fake_pools.sizes == [2]
        assert fake_pools.shutdowns == []
        run_sweep(cfg, workers=3)
        assert fake_pools.sizes == [2, 3]
        assert fake_pools.shutdowns == [2]
        # One worker runs in this process and leaves the pool alone.
        run_sweep(cfg, workers=1)
        run_sweep(cfg, workers=3)
        assert fake_pools.sizes == [2, 3]
        assert first.points == second.points

    def test_broken_pool_is_replaced(self, fake_pools):
        cfg = config_for(2, 1, trials=4)
        fake_pools.broken = True
        with pytest.raises(BrokenExecutor):
            run_sweep(cfg, workers=2)
        assert fake_pools.shutdowns == [2]
        fake_pools.broken = False
        run_sweep(cfg, workers=2)
        assert fake_pools.sizes == [2, 2]


class TestRunSweep:
    @pytest.mark.parametrize("scheme", ["sia", "no_ia"])
    def test_points_match_run_trial(self, scheme):
        # The sweep scores the whole grid in one pass; each point must equal
        # a one-point run_trials at that SNR, bit for bit.
        grid = (0.0, 7.5, 15.0, 22.5, 30.0)
        cfg = config_for(4, 3, scheme=scheme, trials=1, seed=8, snr_db_grid=grid)
        result = run_sweep(cfg, workers=1)
        for pt, snr_db in zip(result.points, grid):
            res = run_trials(cfg, [0], [snr_db])
            assert pt.nmse_mean == float(res.err_power[0, 0].sum() / res.sig_power[0].sum())
            assert pt.analytic_nmse == float(res.analytic_nmse[0, 0])

    def test_point_layout_and_slope(self):
        cfg = config_for(4, 2, trials=6, seed=5)
        result = run_sweep(cfg, workers=1)
        assert result.config is cfg
        assert [pt.snr_db for pt in result.points] == [0.0, 10.0, 20.0]
        assert all(pt.trials == 6 for pt in result.points)
        means = [pt.nmse_mean for pt in result.points]
        assert means[0] > means[1] > means[2]
        assert all(pt.aligned_rank == 2 for pt in result.points)
        # Noise is redrawn once per trial and rescaled per SNR point, so
        # the fitted slope is the ideal decade-per-10dB almost exactly.
        assert abs(result.dof_slope + 0.1) < 1e-6

    def test_no_ia_floor_has_flat_tail(self):
        cfg = config_for(4, 2, scheme="no_ia", trials=30,
                         snr_db_grid=(20.0, 30.0, 40.0))
        result = run_sweep(cfg, workers=1)
        tail = fit_nmse_slope([pt.snr_db for pt in result.points],
                              [pt.nmse_mean for pt in result.points], lo=30.0)
        assert abs(tail) < 0.02

    def test_worker_split_changes_nothing(self):
        cfg = config_for(4, 3, trials=5, seed=2)
        serial = run_sweep(cfg, workers=1)
        pooled = run_sweep(cfg, workers=2)
        for a, b in zip(serial.points, pooled.points):
            assert a == b
        assert serial.dof_slope == pooled.dof_slope

    def test_prediction_gap_is_noise_level(self):
        cfg = config_for(4, 2, trials=300, seed=9, snr_db_grid=(10.0,))
        result = run_sweep(cfg, workers=1)
        pt = result.points[0]
        assert abs(pt.oracle_gap) <= 3 * pt.oracle_gap_se

    def test_sia_and_genie_predictions_agree(self):
        # Both schemes should sit on their own noise-only prediction, so
        # the two gap statistics agree within combined standard error.
        gaps = {}
        for scheme in ("sia", "genie"):
            cfg = config_for(4, 2, trials=300, seed=9, scheme=scheme,
                             snr_db_grid=(10.0,))
            pt = run_sweep(cfg, workers=1).points[0]
            gaps[scheme] = (pt.oracle_gap, pt.oracle_gap_se)
        diff = abs(gaps["sia"][0] - gaps["genie"][0])
        combined = np.hypot(gaps["sia"][1], gaps["genie"][1])
        assert diff <= 3 * combined


class TestRunFunctionalTrial:
    def oracle(self, kind, data):
        if kind == "sum":
            return data.sum(axis=0)
        if kind == "mean":
            return data.mean(axis=0)
        return np.prod(data, axis=0) ** (1.0 / data.shape[0])

    @pytest.mark.parametrize("kind", ["sum", "mean", "geomean"])
    @pytest.mark.parametrize("devices", [1, 3])
    def test_noiseless_function_recovery(self, kind, devices):
        cfg = config_for(4, devices)
        rng = np.random.default_rng(devices)
        data = rng.uniform(0.5, 2.0, size=(devices, 2, 2))
        got = run_functional_trial(cfg, kind, data, trial_index=1)
        assert got.shape == (2, 2)
        for i in (0, 1):
            want = self.oracle(kind, data[:, i, :])
            assert np.allclose(got[i], want, rtol=1e-6)

    def test_noise_perturbs_estimate(self):
        cfg = config_for(4, 2, seed=4)
        data = np.full((2, 2, 2), 1.5)
        clean = run_functional_trial(cfg, "mean", data)
        at20 = run_functional_trial(cfg, "mean", data, snr_db=20.0)
        at40 = run_functional_trial(cfg, "mean", data, snr_db=40.0)
        assert np.all(np.isfinite(at20))
        assert not np.allclose(clean, at20, rtol=1e-12)
        # Same noise realisation rescaled: the error is exactly 10x smaller.
        err20 = np.linalg.norm(at20 - clean)
        err40 = np.linalg.norm(at40 - clean)
        assert np.isclose(err20, 10 * err40, rtol=1e-9)

    def test_shape_validation(self):
        cfg = config_for(4, 2)
        with pytest.raises(SizeMismatch):
            run_functional_trial(cfg, "mean", np.ones((2, 2, 3)))

    def test_geomean_domain(self):
        cfg = config_for(4, 2)
        with pytest.raises(ValueError):
            run_functional_trial(cfg, "geomean", np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("kind,values,want", [
        ("geomean", [2.0, 0.5], 1.0),
        ("sum", [1.0, -1.0], 0.0),
    ])
    def test_zero_aggregate(self, kind, values, want):
        # Both cells aggregate to exactly zero: the estimate comes back
        # without a divide-by-zero warning, and the stored ratios stay the
        # inf or nan that the division gives.
        cfg = config_for(4, 2)
        data = np.broadcast_to(np.array(values)[:, None, None], (2, 2, 2))
        assert np.allclose(run_functional_trial(cfg, kind, data), want, rtol=0, atol=1e-12)
        symbols = preprocess(FunctionSpec(kind, 2), data)[None]
        res = run_trials(cfg, [0], NOISELESS, symbols)
        assert np.all(res.sig_power == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.array_equal(res.nmse, res.err_power / res.sig_power[:, None, :],
                                  equal_nan=True)


def sweep_body(result):
    text = io.StringIO()
    write_result_csv(result, RunManifest.create("run", result.config.to_flat()), text)
    return "".join(ln for ln in text.getvalue().splitlines(True) if not ln.startswith("#"))


def chunk_arrays(chunk):
    return {name: value for name, value in vars(chunk).items() if name != "redraws"}


def assert_trial_matches_chunk_of_one(cfg, chunk, trials, grid):
    for t, trial in enumerate(trials):
        alone = engine._run_chunk(cfg, trial_streams(cfg.seed, [trial]), grid)
        for name, value in chunk_arrays(chunk).items():
            assert np.array_equal(value[t], getattr(alone, name)[0]), (trial, name)


class TestChunks:
    """Trials run in stacked chunks; a trial's result must not depend on
    the chunk it ran in."""

    @pytest.mark.parametrize("scheme", ["sia", "no_ia", "genie"])
    @pytest.mark.parametrize("m, k", [(2, 1), (4, 5), (5, 3), (6, 2)])
    def test_chunk_size_changes_nothing(self, monkeypatch, scheme, m, k):
        cfg = config_for(m, k, scheme=scheme, trials=7, seed=4,
                         snr_db_grid=(0.0, 10.0, 20.0, 30.0))
        monkeypatch.setattr(engine, "CHUNK_ELEMENTS", 1)
        assert engine._chunk_trials(cfg, 4) == 1
        alone = run_sweep(cfg, workers=1)
        monkeypatch.setattr(engine, "CHUNK_ELEMENTS", 10**9)
        assert engine._chunk_trials(cfg, 4) >= cfg.trials
        together = run_sweep(cfg, workers=1)
        assert sweep_body(alone) == sweep_body(together)
        assert alone.points == together.points
        assert alone.max_residual == together.max_residual

    def test_chunk_cap(self):
        # 4*K*M^2 channel elements plus the scored grid per trial.
        assert engine._chunk_trials(config_for(4, 200), 3) == 1
        assert engine._chunk_trials(config_for(2, 1), 3) == engine.CHUNK_ELEMENTS // (16 + 6)

    def test_guard_rejection_matches_chunk_of_one(self, monkeypatch):
        # A low condition limit makes the guard redraw many matrices; each
        # redraw comes from its own trial's stream, as if the trial ran alone.
        monkeypatch.setattr("aircomp_sia.linalg.COND_LIMIT", 4.0)
        cfg = config_for(2, 2, seed=3)
        grid = np.asarray(cfg.snr_db_grid)
        trials = range(6)
        chunk = engine._run_chunk(cfg, trial_streams(cfg.seed, trials), grid)
        assert chunk.redraws > 0
        assert_trial_matches_chunk_of_one(cfg, chunk, trials, grid)

    @pytest.mark.parametrize("m", [4, 5])
    def test_unsure_inverse_matches_chunk_of_one(self, monkeypatch, svd_calls, fake_pools, m):
        # A nearly rank-one direct channel in trial 4 gives one effective
        # channel (square at M = 4, wide at M = 5) a condition number near
        # 1e8: not deficient, but beyond what the bound certifies, so that
        # matrix takes the SVD. Neither
        # the other trials' inverses nor the bodies may depend on the chunk
        # or on the worker split. The fake pool runs its batches in this
        # process, where the plant reaches them.
        cfg = config_for(m, 3, trials=6, seed=5)
        grid = np.asarray(cfg.snr_db_grid)
        marked = build_reference_matrices(m, np.random.default_rng([cfg.seed, 4]))
        rng = np.random.default_rng(9)
        nearly_rank_one = (np.outer(_complex_normal(rng, (m,)), _complex_normal(rng, (m,)))
                           + 1e-8 * _complex_normal(rng, (m, m)))
        real = engine.build_sia_matrices

        def planted(channels, reference):
            hit = np.all(reference == marked, axis=(-3, -2, -1))
            channels.direct[hit, 1, 0] = nearly_rank_one
            return real(channels, reference)

        monkeypatch.setattr(engine, "build_sia_matrices", planted)
        trials = range(6)
        chunk = engine._run_chunk(cfg, trial_streams(cfg.seed, trials), grid)
        assert chunk.redraws == 0
        # Beamformers, the planted matrix's inverse alone, two aligned ranks.
        assert svd_calls == [(6, 2), (1,), (6,), (6,)]
        assert_trial_matches_chunk_of_one(cfg, chunk, trials, grid)
        one, two = run_sweep(cfg, workers=1), run_sweep(cfg, workers=2)
        assert fake_pools.sizes == [2]
        assert sweep_body(one) == sweep_body(two)
        assert one.points == two.points

    @pytest.mark.parametrize("scheme", ["sia", "no_ia"])
    def test_rank_loss_matches_chunk_of_one(self, monkeypatch, scheme):
        # Plant one rank failure on trial 2's first channel set: only that
        # trial redraws its set, and gets what it would get alone.
        cfg = config_for(4, 3, scheme=scheme, seed=6)
        grid = np.asarray(cfg.snr_db_grid)
        marked = build_reference_matrices(4, np.random.default_rng([cfg.seed, 2]))
        name = "build_sia_matrices" if scheme == "sia" else "build_no_ia_precoders"
        real = getattr(engine, name)
        planted = {"done": True}

        def flaky(channels, second):
            reference = planted["reference"]
            hit = np.all(reference == marked, axis=(-3, -2, -1))
            if hit.any() and not planted["done"]:
                planted["done"] = True
                raise RankDeficient("planted", failed=hit)
            return real(channels, second)

        real_refs = engine.build_reference_matrices

        def remember(*args):
            planted["reference"] = real_refs(*args)
            return planted["reference"]

        monkeypatch.setattr(engine, "build_reference_matrices", remember)
        monkeypatch.setattr(engine, name, flaky)
        trials = range(5)
        clean = engine._run_chunk(cfg, trial_streams(cfg.seed, trials), grid)
        planted["done"] = False
        chunk = engine._run_chunk(cfg, trial_streams(cfg.seed, trials), grid)
        assert planted["done"]
        assert chunk.redraws == clean.redraws + 1
        for t in trials:
            same = np.array_equal(chunk.err_power[t], clean.err_power[t])
            assert same == (t != 2)
        for t in trials:
            planted["done"] = False
            alone = engine._run_chunk(cfg, trial_streams(cfg.seed, [t]), grid)
            assert planted["done"] == (t == 2)
            for field, value in chunk_arrays(chunk).items():
                assert np.array_equal(value[t], getattr(alone, field)[0]), (t, field)


class TestResidual:
    def test_sia_and_genie_recover_exactly(self):
        for scheme in ("sia", "genie"):
            result = run_sweep(config_for(4, 3, scheme=scheme, trials=20), workers=1)
            assert 0.0 < result.max_residual < 1e-12

    def test_no_ia_keeps_its_interference(self):
        result = run_sweep(config_for(4, 3, scheme="no_ia", trials=20), workers=1)
        assert result.max_residual > 0.1

    def test_matches_run_trial(self):
        cfg = config_for(5, 2, trials=3, seed=12)
        worst = float(run_trials(cfg, range(3), NOISELESS).residual.max())
        assert run_sweep(cfg, workers=1).max_residual == worst
        res = run_trials(cfg, [1], NOISELESS)
        assert res.residual[0] == np.sqrt(res.err_power[0, 0].sum() / res.sig_power[0].sum())
