import io
import os
from concurrent.futures import BrokenExecutor

import numpy as np
import pytest

from aircomp_sia import engine
from aircomp_sia.engine import (
    _batch_ranges,
    fit_nmse_slope,
    run_functional_trial,
    run_sweep,
    run_trial,
    worker_count,
)
from aircomp_sia.output import RunManifest, write_result_csv
from aircomp_sia.errors import (
    ConfigError,
    DegenerateChannels,
    RankDeficient,
    SizeMismatch,
)
from aircomp_sia.sia import build_aggregation_beamformers, build_reference_matrices
from aircomp_sia.system import SystemConfig, _complex_normal, partition


def config_for(m, k, **kw):
    kw.setdefault("snr_db_grid", (0.0, 10.0, 20.0))
    kw.setdefault("trials", 4)
    return SystemConfig(antennas=m, devices=k, **kw)


class TestRunTrial:
    def test_noiseless_recovery(self):
        cfg = config_for(4, 3)
        res = run_trial(cfg, 0)
        assert np.all(np.sqrt(res.nmse) < 1e-8)
        assert np.all(res.leakage < 1e-9)
        assert np.array_equal(res.aligned_rank, [2, 2])
        assert res.nmse.shape == (1, 2)
        assert np.array_equal(res.noise_std, [0.0])
        assert np.array_equal(res.analytic_nmse, [0.0])
        assert res.tx_power.shape == (3, 2)

    def test_deterministic(self):
        cfg = config_for(5, 2, seed=11)
        a = run_trial(cfg, 7, snr_db=10.0)
        b = run_trial(cfg, 7, snr_db=10.0)
        assert np.array_equal(a.nmse, b.nmse)
        assert np.array_equal(a.err_power, b.err_power)
        assert np.array_equal(a.noise_std, b.noise_std)

    def test_trial_index_moves_channels(self):
        cfg = config_for(4, 2)
        a = run_trial(cfg, 0)
        b = run_trial(cfg, 1)
        assert not np.array_equal(a.err_power, b.err_power)

    def test_noise_fields_scale_with_snr(self):
        cfg = config_for(4, 2, seed=3)
        lo = run_trial(cfg, 0, snr_db=10.0)
        hi = run_trial(cfg, 0, snr_db=20.0)
        # Channel-dependent fields are shared, noise power drops 10x.
        assert np.array_equal(lo.leakage, hi.leakage)
        assert np.array_equal(lo.aligned_rank, hi.aligned_rank)
        assert np.array_equal(lo.sig_power, hi.sig_power)
        assert np.isclose(lo.noise_std**2, 10 * hi.noise_std**2, rtol=1e-12)
        assert np.all(lo.err_power > hi.err_power)

    def test_no_ia_leaks(self):
        cfg = config_for(4, 2, scheme="no_ia")
        hits = 0
        for t in range(50):
            res = run_trial(cfg, t)
            if np.all(res.leakage > 1e-3):
                hits += 1
        assert hits >= 49

    def test_genie_is_clean(self):
        cfg = config_for(4, 2, scheme="genie")
        res = run_trial(cfg, 0)
        assert np.all(res.leakage == 0.0)
        assert np.array_equal(res.aligned_rank, [0, 0])
        assert np.all(np.sqrt(res.nmse) < 1e-9)

    def test_validates_config(self):
        cfg = config_for(1, 2)
        with pytest.raises(ConfigError, match="M=1 yields zero AirComp DoF"):
            run_trial(cfg, 0)

    def test_degenerate_channels_after_budget(self, monkeypatch):
        def always_deficient(channels, reference):
            raise RankDeficient("forced")

        monkeypatch.setattr("aircomp_sia.engine.build_sia_matrices",
                            always_deficient)
        cfg = config_for(4, 2)
        with pytest.raises(DegenerateChannels):
            run_trial(cfg, 0)


class TestAnalyticNoiseMse:
    """The noise-only prediction sigma^2 / K each trial reports: recovered
    noise power sigma^2 * dof over the expected target power K * dof."""

    def test_unit_case(self):
        res = run_trial(config_for(4, 1, seed=6), 0, snr_db=0.0)
        assert res.analytic_nmse[0] == float(res.noise_std[0]) ** 2

    def test_scales_with_streams_and_power(self):
        for k in (1, 2, 5):
            cfg = config_for(4, k, seed=6)
            lo = run_trial(cfg, 0, snr_db=10.0)
            hi = run_trial(cfg, 0, snr_db=20.0)
            assert np.isclose(lo.analytic_nmse[0] * k, lo.noise_std[0] ** 2, rtol=1e-12)
            assert np.isclose(lo.analytic_nmse[0], 10 * hi.analytic_nmse[0], rtol=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(0)
        m, k = 6, 3
        part = partition(m)
        reference = build_reference_matrices(m, rng)
        beam = build_aggregation_beamformers(reference)[0]
        res = run_trial(config_for(m, k, seed=1), 0, snr_db=5.0)
        sigma, want, reps = res.noise_std[0], res.analytic_nmse[0], 20000
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


class TestBatchRanges:
    def test_even_and_ragged(self):
        assert _batch_ranges(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert _batch_ranges(8, 2) == [(0, 4), (4, 8)]

    def test_more_workers_than_trials(self):
        assert _batch_ranges(3, 8) == [(0, 1), (1, 2), (2, 3)]

    def test_covers_every_trial(self):
        for trials in (1, 5, 17):
            for workers in (1, 2, 3, 16):
                ranges = _batch_ranges(trials, workers)
                flat = [t for a, b in ranges for t in range(a, b)]
                assert flat == list(range(trials))


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
        # a one-point run_trial at that SNR, bit for bit.
        grid = (0.0, 7.5, 15.0, 22.5, 30.0)
        cfg = config_for(4, 3, scheme=scheme, trials=1, seed=8, snr_db_grid=grid)
        result = run_sweep(cfg, workers=1)
        for pt, snr_db in zip(result.points, grid):
            res = run_trial(cfg, 0, snr_db=snr_db)
            assert pt.nmse_mean == float(res.err_power[0].sum() / res.sig_power.sum())
            assert pt.analytic_nmse == float(res.analytic_nmse[0])

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


def sweep_body(result):
    text = io.StringIO()
    write_result_csv(result, RunManifest.create("run", result.config.to_flat()), text)
    return "".join(ln for ln in text.getvalue().splitlines(True) if not ln.startswith("#"))


def chunk_arrays(chunk):
    return {name: value for name, value in vars(chunk).items() if name != "redraws"}


def assert_trial_matches_chunk_of_one(cfg, chunk, trials, grid):
    for t, trial in enumerate(trials):
        alone = engine._run_chunk(cfg, [trial], grid)
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
        assert engine._chunk_trials(cfg) == 1
        alone = run_sweep(cfg, workers=1)
        monkeypatch.setattr(engine, "CHUNK_ELEMENTS", 10**9)
        assert engine._chunk_trials(cfg) >= cfg.trials
        together = run_sweep(cfg, workers=1)
        assert sweep_body(alone) == sweep_body(together)
        assert alone.points == together.points
        assert alone.max_residual == together.max_residual

    def test_chunk_cap(self):
        # 4*K*M^2 channel elements plus the scored grid per trial.
        assert engine._chunk_trials(config_for(4, 200)) == 1
        assert engine._chunk_trials(config_for(2, 1)) == engine.CHUNK_ELEMENTS // (16 + 6)

    def test_guard_rejection_matches_chunk_of_one(self, monkeypatch):
        # A low condition limit makes the guard redraw many matrices; each
        # redraw comes from its own trial's stream, as if the trial ran alone.
        monkeypatch.setattr("aircomp_sia.system.COND_LIMIT", 4.0)
        cfg = config_for(2, 2, seed=3)
        grid = np.asarray(cfg.snr_db_grid)
        trials = range(6)
        chunk = engine._run_chunk(cfg, trials, grid)
        assert chunk.redraws > 0
        assert_trial_matches_chunk_of_one(cfg, chunk, trials, grid)

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
        clean = engine._run_chunk(cfg, trials, grid)
        planted["done"] = False
        chunk = engine._run_chunk(cfg, trials, grid)
        assert planted["done"]
        assert chunk.redraws == clean.redraws + 1
        for t in trials:
            same = np.array_equal(chunk.err_power[t], clean.err_power[t])
            assert same == (t != 2)
        for t in trials:
            planted["done"] = False
            alone = engine._run_chunk(cfg, [t], grid)
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
        worst = max(float(run_trial(cfg, t).residual) for t in range(3))
        assert run_sweep(cfg, workers=1).max_residual == worst
        res = run_trial(cfg, 1)
        assert res.residual == np.sqrt(res.err_power[0].sum() / res.sig_power.sum())
