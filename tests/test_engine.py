import concurrent.futures
import ctypes
import functools
import io
import math
import multiprocessing
import os
import platform
import tracemalloc
from concurrent.futures import BrokenExecutor, Executor, Future, ProcessPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest

from aircomp_sia import baselines, engine, sia, system
from aircomp_sia.engine import (
    TrialResult,
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
    DomainError,
    RankDeficient,
    SizeMismatch,
)
from aircomp_sia.functions import FunctionSpec, preprocess
from aircomp_sia.system import (
    ChannelSet,
    SystemConfig,
    draw_channels,
    partition,
    trial_normals,
    trial_states,
)

from helpers import (
    cn,
    noiseless_nmse,
    reference_pair,
    run_chunk,
    steady_faults,
    svd_guard,
)


def config_for(m, k, **kw):
    kw.setdefault("snr_db_grid", (0.0, 10.0, 20.0))
    kw.setdefault("trials", 4)
    return SystemConfig(antennas=m, devices=k, **kw)


class TestRunTrial:
    def test_noiseless_recovery(self):
        cfg = config_for(4, 3)
        res = run_trials(cfg, [0])
        assert np.all(np.sqrt(noiseless_nmse(res)) < 1e-8)
        assert np.all(res.leakage < 1e-9)
        assert np.array_equal(res.aligned_rank, [[2, 2]])
        assert res.err_power.shape == (1, 2, 3)
        assert res.noiseless.shape == (1, 2, 2)

    def test_deterministic(self):
        cfg = config_for(5, 2, seed=11)
        a = run_trials(cfg, [7])
        b = run_trials(cfg, [7])
        assert np.array_equal(a.err_power / a.sig_power[..., None],
                              b.err_power / b.sig_power[..., None])
        assert np.array_equal(a.err_power, b.err_power)
        assert np.array_equal(a.noise_std, b.noise_std)

    def test_trial_index_moves_channels(self):
        cfg = config_for(4, 2)
        a = run_trials(cfg, [0])
        b = run_trials(cfg, [1])
        assert not np.array_equal(a.err_power, b.err_power)

    def test_noise_fields_scale_with_snr(self):
        cfg = config_for(4, 2, seed=3)
        lo = run_trials(replace(cfg, snr_db_grid=(10.0,)), [0])
        hi = run_trials(replace(cfg, snr_db_grid=(20.0,)), [0])
        # Channel-dependent fields are shared, noise power drops 10x.
        assert np.array_equal(lo.leakage, hi.leakage)
        assert np.array_equal(lo.aligned_rank, hi.aligned_rank)
        assert np.array_equal(lo.sig_power, hi.sig_power)
        assert np.isclose(lo.noise_std**2, 10 * hi.noise_std**2, rtol=1e-12)
        assert np.all(lo.err_power > hi.err_power)

    def test_no_ia_leaks(self):
        cfg = config_for(4, 2, scheme="no_ia")
        res = run_trials(cfg, range(50))
        hits = np.all(res.leakage > 1e-3, axis=1).sum()
        assert hits >= 49

    def test_genie_is_clean(self):
        cfg = config_for(4, 2, scheme="genie")
        res = run_trials(cfg, [0])
        assert np.all(res.leakage == 0.0)
        assert np.array_equal(res.aligned_rank, [[0, 0]])
        assert np.all(np.sqrt(noiseless_nmse(res)) < 1e-9)

    def test_validates_config(self):
        with pytest.raises(ConfigError, match="M=1 yields zero AirComp DoF"):
            run_trials(config_for(1, 2), [0])

    def test_degenerate_channels_after_budget(self, monkeypatch):
        def always_deficient(channels, *bases):
            raise RankDeficient("forced", failed=np.ones(len(channels.direct), dtype=bool))

        monkeypatch.setattr("aircomp_sia.engine.build_sia_matrices",
                            always_deficient)
        cfg = config_for(4, 2)
        with pytest.raises(DegenerateChannels):
            run_trials(cfg, [0])


@pytest.mark.parametrize("scheme, m", [
    # Each id keeps the QR count of the days when a wide right inverse
    # took a second QR, so the names match earlier runs'.
    pytest.param(scheme, m, id=f"{scheme}-{m}-{old}") for scheme, m, old in [
        ("sia", 2, 1), ("sia", 4, 1), ("sia", 16, 1), ("sia", 3, 2), ("sia", 5, 2),
        ("no_ia", 4, 2), ("no_ia", 5, 2), ("genie", 4, 2)]
] + [pytest.param(scheme, 2, id=f"{scheme}-2") for scheme in ("no_ia", "genie")])
def test_qr_calls_per_chunk(monkeypatch, scheme, m):
    # One complete QR builds both alignment bases of every trial of the
    # chunk; no right inverse takes one, wide or square. At M = 2 each
    # basis is one vector, whose QR is closed-form: no LAPACK call.
    calls = []
    real = np.linalg.qr

    def counting(a, *args, **kw):
        calls.append(np.shape(a)[:-2])
        return real(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "qr", counting)
    cfg = config_for(m, 3, scheme=scheme)
    chunk = run_chunk(cfg, range(4))
    assert not chunk.redraws.any()
    assert calls == ([] if m == 2 else [(4, 2)])


@pytest.mark.parametrize("scheme, m", [
    # sia's cases are named by M alone, so their names match earlier runs'.
    pytest.param(scheme, m, id=str(m) if scheme == "sia" else f"{scheme}-{m}")
    for scheme in ("sia", "no_ia", "genie") for m in (2, 3, 4, 5, 16)
])
def test_solve_and_inv_calls_per_chunk(monkeypatch, svd_calls, scheme, m):
    # The IA stage inverts the chunk's (T, K, 2) cross stack, the only
    # matrices anything solves against. Where they are 2x2 or 4x4 (sia at
    # M = 2 and 4) the inverse is closed-form and certifies itself, with no
    # LAPACK call; at other M it is one solve, after one slogdet over that
    # stack alone, its conditioning test. Every SA stage inverts one
    # dof x dof matrix per device: the effective channel when square (sia
    # at even M), its Gram when wide (sia at odd M, no_ia, genie). Up to
    # dof = 2 (M <= 5) that inverse is closed-form; above it takes one inv,
    # after its own slogdet over the whole stack. None gets a cross
    # channel. Any later slogdet is a Gram certificate of the one
    # aligned-rank check, at most two (its Y blocks, its whole blocks), over
    # one matrix per trial and cell, both cells in one stack; genie's
    # aligned stacks are zero, and take neither that nor an SVD.
    calls = {"solve": [], "inv": [], "slogdet": []}
    real = {name: getattr(np.linalg, name) for name in calls}

    def counting(name):
        def call(a, *args, **kw):
            calls[name].append(np.shape(a))
            return real[name](a, *args, **kw)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name))
    cfg = config_for(m, 3, scheme=scheme)
    chunk = run_chunk(cfg, range(4))
    assert not chunk.redraws.any()
    dof = partition(m).signal_dim
    ia = [(4, 3, 2, m, m)] if scheme == "sia" and m not in (2, 4) else []
    sa = [] if dof <= 2 else [(4, 3, 2, dof, dof)]
    assert calls["solve"] == ia
    assert [shape[-2:] for shape in calls["inv"]] == [(dof, dof)] * len(sa)
    assert calls["slogdet"][:len(ia) + len(sa)] == ia + sa
    grams = calls["slogdet"][len(ia) + len(sa):]
    assert len(grams) <= 2 and all(len(shape) == 3 and shape[0] <= 8 for shape in grams)
    if scheme == "sia" and m in (2, 4):
        assert grams == []
    if scheme == "genie":
        assert grams == [] and svd_calls == []


def per_trial_elements(cfg):
    """Chunk elements one trial takes, as _chunk_trials counts them."""
    points = len(cfg.snr_db_grid)
    return 4 * cfg.devices * cfg.antennas**2 + 2 * points * partition(cfg.antennas).signal_dim


def record_chunk_sizes(monkeypatch):
    """The trial count of every _run_chunk call from now on, in order."""
    sizes = []
    real = engine._run_chunk

    def recording(config, states, *args):
        sizes.append(len(states))
        return real(config, states, *args)

    monkeypatch.setattr(engine, "_run_chunk", recording)
    return sizes


def assert_matches_alone(cfg, together, trials, symbols=None):
    """Every field of each trial in `together`, its redraws included,
    equals the same trial run alone as a chunk of one, bit for bit."""
    for i, t in enumerate(trials):
        alone = run_chunk(cfg, [t], None if symbols is None else symbols[i:i + 1])
        for f in fields(alone):
            assert np.array_equal(getattr(together, f.name)[i],
                                  getattr(alone, f.name)[0]), (t, f.name)


class TestRunTrials:
    """run_trials splits the trials it is given into chunks; each trial
    must come out as it does alone, in the order given."""

    @pytest.mark.parametrize("scheme", ["sia", "no_ia", "genie"])
    def test_chunked_order_matches_trials_alone(self, monkeypatch, scheme):
        cfg = config_for(4, 2, scheme=scheme, seed=3, snr_db_grid=(0.0, 20.0, 40.0))
        monkeypatch.setattr(engine, "CHUNK_ELEMENTS", 3 * per_trial_elements(cfg))
        assert engine._chunk_trials(cfg) == 3
        trials = [5, 2, 9, 0]
        together = run_trials(cfg, trials)
        assert together.noiseless.shape == together.noise.shape == (4, 2, 2)
        assert together.err_power.shape == (4, 2, 3)
        assert_matches_alone(cfg, together, trials)

    def test_planted_symbols_reach_their_trials(self):
        # Planting lives in _run_chunk, which run_functional_trial calls on
        # one trial; a chunk of several gives each trial its own block.
        cfg = config_for(4, 2, seed=5)
        trials = [3, 1, 4, 0, 2]
        symbols = cn(np.random.default_rng(0), (5, 2, 2, 2))
        together = run_chunk(cfg, trials, symbols)
        assert np.array_equal(together.target, symbols.sum(axis=1))
        assert_matches_alone(cfg, together, trials, symbols)

    def test_chunks_are_sized_from_the_given_grid(self, monkeypatch):
        # Chunks are sized from the config's own grid: under a cap of two
        # 1-point trials, a 1-point config runs two trials per chunk and a
        # 3-point config one.
        narrow = config_for(4, 2, snr_db_grid=(0.0,))
        monkeypatch.setattr(engine, "CHUNK_ELEMENTS", 2 * per_trial_elements(narrow))
        sizes = record_chunk_sizes(monkeypatch)
        run_trials(narrow, range(4))
        assert sizes == [2, 2]
        sizes.clear()
        run_trials(config_for(4, 2), range(4))
        assert sizes == [1, 1, 1, 1]

    @pytest.mark.parametrize("trials, cap", [(200, 167), (10, 3), (7, 7), (8, 1), (9, 4),
                                             (401, 184), (400, 46)])
    def test_chunks_are_balanced(self, monkeypatch, trials, cap):
        # The fewest chunks under the cap, their sizes within one of each
        # other: no runt chunk.
        cfg = config_for(2, 1)
        monkeypatch.setattr(engine, "CHUNK_ELEMENTS", cap * per_trial_elements(cfg))
        sizes = record_chunk_sizes(monkeypatch)
        res = run_trials(cfg, range(trials))
        assert len(res.residual) == sum(sizes) == trials
        assert len(sizes) == -(-trials // cap)
        assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1

    def test_small_dense_sweep_is_one_chunk(self, monkeypatch):
        cfg = config_for(2, 1, trials=200, snr_db_grid=tuple(float(s) for s in range(41)))
        sizes = record_chunk_sizes(monkeypatch)
        run_trials(cfg, range(cfg.trials))
        assert sizes == [200]

    def test_many_devices_chunks_hold_several_trials(self, monkeypatch):
        cfg = SystemConfig(antennas=4, devices=200, trials=10)
        sizes = record_chunk_sizes(monkeypatch)
        run_trials(cfg, range(cfg.trials))
        assert sum(sizes) == 10 and min(sizes) >= 2

    def test_empty_trial_list(self):
        with pytest.raises(ConfigError, match="at least one trial"):
            run_trials(config_for(4, 2), [])

    @pytest.mark.parametrize("grid", [(), ("a",)], ids=["empty", "text"])
    def test_rejects_bad_grid(self, grid):
        # run_trials scores the config's own grid, so an empty or
        # non-numeric grid is refused before any trial is drawn.
        with pytest.raises(ConfigError, match="snr_db_grid must"):
            run_trials(config_for(2, 1, snr_db_grid=grid), [0])

    @pytest.mark.parametrize("scheme", ["sia", "no_ia", "genie"])
    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_planted_symbols_draw_what_drawn_ones_do(self, monkeypatch, scheme, m):
        # A trial draws its symbols whether or not they are planted, so
        # run_functional_trial's trial t is sweep trial t: the same set
        # redraws under a low condition limit, and the same noise. Only
        # sia's IA stage tests the limit; no_ia and genie never redraw.
        monkeypatch.setattr("aircomp_sia.linalg.COND_LIMIT", 10.0)
        cfg = config_for(m, 1, scheme=scheme, seed=3)
        symbols = cn(np.random.default_rng(2), (1, 1, 2, partition(m).signal_dim))
        redraws = 0
        for t in range(6):
            drawn = run_trials(cfg, [t])
            planted = run_chunk(cfg, [t], symbols)
            for name in ("noise", "redraws", "aligned_rank"):
                assert np.array_equal(getattr(planted, name), getattr(drawn, name)), (t, name)
            assert np.array_equal(planted.target[0], symbols[0].sum(axis=0))
            redraws += int(drawn.redraws[0])
        assert (redraws > 0) == (scheme == "sia")

    def test_lone_part_is_not_copied(self):
        res = run_trials(config_for(2, 1), [0])
        assert engine._concat([res]) is res


def one_trial_oracle(cfg, grid):
    """A one-trial sweep's analytic_nmse per point of `grid`, and the
    trial's noise_std there."""
    cfg = replace(cfg, trials=1, snr_db_grid=grid)
    points = run_sweep(cfg, workers=1).points
    return [pt.analytic_nmse for pt in points], run_trials(cfg, [0]).noise_std[0]


class TestAnalyticNoiseMse:
    """The noise-only prediction sigma^2 / K a sweep reports: recovered
    noise power sigma^2 * dof over the expected target power K * dof."""

    def test_unit_case(self):
        (analytic,), (sigma,) = one_trial_oracle(config_for(4, 1, seed=6), (0.0,))
        assert analytic == float(np.square(sigma))

    def test_scales_with_streams_and_power(self):
        for k in (1, 2, 5):
            (lo, hi), sigma = one_trial_oracle(config_for(4, k, seed=6), (10.0, 20.0))
            assert np.isclose(lo * k, sigma[0] ** 2, rtol=1e-12)
            assert np.isclose(lo, 10 * hi, rtol=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(0)
        m, k = 6, 3
        part = partition(m)
        beam = reference_pair(rng, m)[1][0]
        (want,), (sigma,) = one_trial_oracle(config_for(m, k, seed=1), (5.0,))
        reps = 20000
        noise = sigma * cn(rng, (reps, m))
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

    @pytest.mark.parametrize("snr, nmse, lo", [
        ([0.0, 10.0, 20.0], [1.0, 0.0, -1.0], None),  # one positive NMSE
        ([0.0, 10.0, 20.0], [1.0, np.inf, np.nan], None),
        ([0.0, 10.0, 20.0], [1.0, 0.1, 0.01], 20.0),  # one point from lo up
        ([5.0], [0.3], None),
        ([10.0, 10.0], [1.0, 0.1], None),  # two points, one SNR
    ])
    def test_fewer_than_two_usable_points_is_nan(self, snr, nmse, lo):
        assert np.isnan(fit_nmse_slope(snr, nmse, lo=lo))

    @pytest.mark.parametrize("n", [2, 9, 41])
    def test_matches_polyfit(self, n):
        rng = np.random.default_rng(n)
        snr = np.sort(rng.uniform(-10.0, 50.0, n))
        nmse = 10.0 ** (-snr / 10.0 + rng.normal(0.0, 0.3, n))
        for i, bad in zip(range(1, n - 1, 2), [np.nan, 0.0, -1.0, np.inf]):
            nmse[i] = bad
        for lo in (None, float(snr[n // 3])):
            keep = np.isfinite(nmse) & (nmse > 0) & (snr >= (snr[0] if lo is None else lo))
            want = np.polyfit(snr[keep], np.log10(nmse[keep]), 1)[0]
            assert abs(fit_nmse_slope(snr, nmse, lo=lo) - want) <= 1e-12 * abs(want)


class FakePools:
    """Stands in for ProcessPoolExecutor: records every pool made and shut
    down, and every future submitted. No process is started."""

    def __init__(self):
        self.sizes = []
        self.shutdowns = []
        self.futures = []
        self.broken = False

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return FakePool(self, max_workers)


class LazyFuture(Future):
    """A future whose call runs in this process when its result is first
    asked for, so one cancelled before then never runs, as one still
    queued in a pool."""

    def __init__(self, fn, args):
        super().__init__()
        self._call = functools.partial(fn, *args)

    def result(self, timeout=None):
        if not self.done():
            self.set_running_or_notify_cancel()
            try:
                self.set_result(self._call())
            except Exception as exc:
                self.set_exception(exc)
        return super().result(timeout)


class FakePool(Executor):
    """An Executor whose map is the stdlib's own, over LazyFutures."""

    def __init__(self, record, size):
        self.record = record
        self.size = size

    def submit(self, fn, /, *args):
        if self.record.broken:
            raise BrokenExecutor("planted")
        future = LazyFuture(fn, args)
        self.record.futures.append(future)
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.record.shutdowns.append(self.size)


@pytest.fixture
def fake_pools(monkeypatch):
    # The engine keeps its pool across sweeps; start from none and put the
    # previous one back afterwards. It imports the pool class from
    # concurrent.futures when it makes a pool, so the fake stands there.
    record = FakePools()
    monkeypatch.setattr(engine, "_pool", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
    return record


@pytest.fixture
def batches(monkeypatch, fake_pools):
    """Trial indices of every run_trials call a sweep makes, in this
    process or submitted to the (fake) pool."""
    calls = []
    real = engine.run_trials

    def recording(config, trials):
        calls.append([int(t) for t in trials])
        return real(config, trials)

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

    def test_failed_batch_leaves_none_queued(self, monkeypatch, fake_pools):
        # A sweep whose first range raises runs no other range: the pool's
        # map cancels the three still queued, so none is left in the kept pool.
        ran = []

        def failing(config, trials):
            ran.append([int(t) for t in trials])
            raise DegenerateChannels("planted")

        monkeypatch.setattr(engine, "run_trials", failing)
        with pytest.raises(DegenerateChannels, match="planted"):
            run_sweep(config_for(2, 1, trials=8), workers=4)
        assert ran == [[0, 1]]
        assert len(fake_pools.futures) == 4
        assert sum(f.cancelled() for f in fake_pools.futures) == 3


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

    @pytest.mark.parametrize("workers", [0, -2, 2.5, "2", True, np.bool_(True), np.float64(2.0),
                                         np.array(1.5)])
    def test_sweep_rejects_bad_worker_count(self, fake_pools, workers):
        with pytest.raises(ConfigError, match="workers must be None or an integer"):
            run_sweep(config_for(2, 1, trials=4), workers=workers)
        assert fake_pools.sizes == []

    def test_sweep_takes_numpy_worker_count(self, fake_pools):
        cfg = config_for(2, 1, trials=4)
        assert run_sweep(cfg, workers=np.int64(2)).points == run_sweep(cfg, workers=1).points
        assert fake_pools.sizes == [2]

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

    def test_exit_hook_shuts_the_kept_pool_down(self, monkeypatch, fake_pools):
        # One hook for the process, registered with its first pool. The
        # cache is cleared on both sides, so a real pool made later in this
        # process registers the real hook again.
        hooks = []
        monkeypatch.setattr(engine.atexit, "register", hooks.append)
        engine._close_pool_at_exit.cache_clear()
        try:
            run_sweep(config_for(2, 1, trials=4), workers=2)
            run_sweep(config_for(2, 1, trials=4), workers=3)
            assert len(hooks) == 1
            hooks[0]()
        finally:
            engine._close_pool_at_exit.cache_clear()
        assert fake_pools.shutdowns == [2, 3]
        assert engine._pool is None
        hooks[0]()
        assert fake_pools.shutdowns == [2, 3]

    def test_broken_pool_is_replaced(self, fake_pools):
        cfg = config_for(2, 1, trials=4)
        fake_pools.broken = True
        with pytest.raises(BrokenExecutor):
            run_sweep(cfg, workers=2)
        assert fake_pools.shutdowns == [2]
        fake_pools.broken = False
        run_sweep(cfg, workers=2)
        assert fake_pools.sizes == [2, 2]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is set through glibc's mallopt")
class TestFreedMemoryKept:
    """run_trials pins glibc's malloc thresholds, so each chunk reuses the
    heap pages the chunk before freed rather than faulting fresh ones in.
    Without it the call below took 550 to 4,400 minor faults after its
    warm-up, chunk arrays of 128 KiB and more being returned to the kernel."""

    CONFIG = SystemConfig(antennas=4, devices=200, trials=40)  # eight 5-trial chunks
    FAULTS = 32

    def test_steady_chunks_take_no_faults(self):
        assert steady_faults(self.CONFIG, range(40)) <= self.FAULTS

    def test_spawned_worker_sets_it_itself(self):
        # A spawned (or forkserver) worker inherits no allocator settings:
        # its own first run_trials must set them.
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(1, mp_context=spawn) as pool:
            assert pool.submit(steady_faults, self.CONFIG, range(40)).result() <= self.FAULTS

    def test_without_mallopt_nothing_changes(self, monkeypatch):
        cfg = config_for(4, 3)
        want = run_trials(cfg, range(4))
        opened = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or object())
        engine._keep_freed_memory.cache_clear()
        try:
            got = run_trials(cfg, range(4))
        finally:
            engine._keep_freed_memory.cache_clear()
        assert opened == [None]
        for f in fields(want):
            assert getattr(got, f.name).tobytes() == getattr(want, f.name).tobytes(), f.name


class TestTrialResultLayout:
    """Every TrialResult field leads with the trial axis, and none holds
    both a grid and a dof axis: a sweep keeps O(T * P) reals, not each
    trial's error at every grid point. The grid axis is last, stored
    contiguous, on one chunk, joined chunks and pooled batches alike."""

    # T = 7, P = 5 and dof = 3 (M = 6) differ from each other and from the
    # cell axis.
    CFG = config_for(6, 2, trials=7, seed=3, snr_db_grid=(0.0, 10.0, 20.0, 30.0, 40.0))

    def assert_layout(self, res):
        t, p, dof = 7, 5, 3
        for f in fields(TrialResult):
            shape = getattr(res, f.name).shape
            assert shape[0] == t, f.name
            assert not (p in shape[1:] and dof in shape[1:]), f.name
        assert res.err_power.shape == (t, 2, p)
        assert res.err_power.flags.c_contiguous

    @pytest.mark.parametrize("chunks", [1, 2])
    def test_run_trials(self, monkeypatch, chunks):
        cfg = self.CFG
        if chunks == 2:
            monkeypatch.setattr(engine, "CHUNK_ELEMENTS", 4 * per_trial_elements(cfg))
        sizes = record_chunk_sizes(monkeypatch)
        self.assert_layout(run_trials(cfg, range(cfg.trials)))
        assert len(sizes) == chunks

    def test_pooled_sweep(self, monkeypatch):
        merged = []
        real = engine._concat

        def recording(parts):
            merged.append((len(parts), real(parts)))
            return merged[-1][1]

        monkeypatch.setattr(engine, "_concat", recording)
        run_sweep(self.CFG, workers=2)
        (parts, res), = merged
        assert parts == 2
        self.assert_layout(res)

    def test_sweep_memory_per_trial_is_bounded(self):
        # At M = 16, K = 1 and 41 grid points, each trial's complex error
        # at every point would take 10.5 KB; the scored powers take 1.3 KB.
        # One and two full chunks: the chunks are the same size, so the
        # difference is what the sweep keeps per trial, not a chunk's growth.
        grid = tuple(float(s) for s in range(41))
        per_chunk = engine._chunk_trials(config_for(16, 1, snr_db_grid=grid))
        run_sweep(config_for(16, 1, trials=per_chunk, snr_db_grid=grid), workers=1)
        peaks = []
        tracemalloc.start()
        try:
            for trials in (per_chunk, 2 * per_chunk):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                run_sweep(config_for(16, 1, trials=trials, snr_db_grid=grid), workers=1)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / per_chunk <= 8000, peaks


class TestRunSweep:
    @pytest.mark.parametrize("scheme", ["sia", "no_ia"])
    def test_points_match_run_trial(self, scheme):
        # The sweep scores the whole grid in one pass; each point must equal
        # a one-point run_trials at that SNR, bit for bit. A cell's dof
        # entries are added in order on any grid, so this holds at dof = 8
        # (M=16) too, where np.sum would add a one-point grid's pairwise.
        grid = (0.0, 7.5, 15.0, 22.5, 30.0)
        for m in (2, 4, 16):
            cfg = config_for(m, 3, scheme=scheme, trials=3, seed=8, snr_db_grid=grid)
            result = run_sweep(cfg, workers=1)
            full = run_trials(cfg, range(3))
            for p, (pt, snr_db) in enumerate(zip(result.points, grid)):
                res = run_trials(replace(cfg, snr_db_grid=(snr_db,)), range(3))
                for name in ("err_power", "noise_std"):
                    assert np.array_equal(getattr(full, name)[..., p], getattr(res, name)[..., 0])
                for name in ("target", "noiseless", "noise", "residual", "redraws"):
                    assert np.array_equal(getattr(full, name), getattr(res, name))
                # The stored vectors give the error the point was scored on;
                # its dof entries are added in order.
                power = np.abs(full.noiseless + full.noise_std[:, p, None, None] * full.noise) ** 2
                in_order = functools.reduce(np.add, np.moveaxis(power, -1, 0))
                assert np.array_equal(full.err_power[..., p], in_order)
                cells = res.err_power[:, 0, 0] + res.err_power[:, 1, 0]
                assert pt.nmse_mean == float(cells.sum() / res.sig_power.sum())
                assert pt.nmse_median == float(np.median(res.err_power / res.sig_power[..., None]))
                assert pt.analytic_nmse == float((np.square(res.noise_std[:, 0]) / 3).mean())

    @pytest.mark.parametrize("chunks", [1, 2])
    @pytest.mark.parametrize("m, k", [(2, 1), (4, 3)])
    def test_reductions_match_full_axis_sums(self, monkeypatch, chunks, m, k):
        # nmse_mean and oracle_gap are reduced from per-trial cell sums,
        # nmse_median from the (T * 2, P) rows; they must equal the plain
        # reductions over contiguous (T, P, 2) copies, bit for bit, on one
        # chunk and on joined chunks alike.
        grid = tuple(float(s) for s in range(0, 41, 4))
        cfg = config_for(m, k, trials=6, seed=4, snr_db_grid=grid)
        if chunks == 2:
            monkeypatch.setattr(engine, "CHUNK_ELEMENTS", 3 * per_trial_elements(cfg))
        sizes = record_chunk_sizes(monkeypatch)
        seen = []
        real = engine.run_trials

        def spy(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(engine, "run_trials", spy)
        result = run_sweep(cfg, workers=1)
        res, = seen
        assert len(sizes) == chunks
        dof = partition(m).signal_dim
        assert res.noiseless.shape == res.noise.shape == (6, 2, dof)
        assert res.err_power.shape == (6, 2, len(grid))
        err_power = np.ascontiguousarray(res.err_power.swapaxes(1, 2))
        nmse_mean = err_power.sum(axis=(0, 2)) / res.sig_power.sum()
        nmse_median = np.median(err_power / res.sig_power[:, None, :], axis=(0, 2))
        gap = err_power.mean(axis=2) / (k * dof) - np.square(res.noise_std) / k
        se = gap.std(axis=0, ddof=1) / math.sqrt(cfg.trials)
        for p, pt in enumerate(result.points):
            assert pt.nmse_mean == float(nmse_mean[p])
            assert pt.nmse_median == float(nmse_median[p])
            assert pt.oracle_gap == float(gap[:, p].mean())
            assert pt.oracle_gap_se == float(se[p])

    def test_median_matches_numpy_on_planted_rows(self, monkeypatch):
        # Each point's median is np.median's, bit for bit, on rows that hold
        # ties, NaN and infinities of either sign.
        grid = tuple(float(s) for s in range(0, 45, 5))
        cfg = config_for(2, 1, trials=7, seed=3, snr_db_grid=grid)
        res = run_trials(cfg, range(7))
        err = res.err_power.copy()
        err[:, :, 1] = 0.25
        err[:, :, 2] = np.arange(14).reshape(7, 2) % 3 * res.sig_power
        err[3, 1, 3] = np.nan
        err[:, :, 4] = np.inf
        err[:4, :, 5] = np.inf
        err[:, 0, 6], err[:, 1, 6] = -np.inf, np.inf
        err[:, :, 7] = np.nan
        err[:2, 0, 8], err[5:, 1, 8] = -np.inf, np.inf
        monkeypatch.setattr(engine, "run_trials", lambda *args: replace(res, err_power=err))
        with np.errstate(all="ignore"):
            result = run_sweep(cfg, workers=1)
            want = np.median(err / res.sig_power[..., None], axis=(0, 1))
        got = np.array([pt.nmse_median for pt in result.points])
        assert got.tobytes() == want.tobytes()
        assert np.isnan(got[[3, 6, 7]]).all() and got[4] == got[5] == np.inf

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
        # K = 20 puts more than 8 devices on the device axis, where numpy
        # would sum a contiguous run pairwise rather than in order.
        for k in (3, 20):
            cfg = config_for(4, k, trials=5, seed=2)
            serial = run_sweep(cfg, workers=1)
            pooled = run_sweep(cfg, workers=2)
            for a, b in zip(serial.points, pooled.points):
                assert a == b
            assert serial.dof_slope == pooled.dof_slope
            assert sweep_body(serial) == sweep_body(pooled)

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

    @pytest.mark.parametrize("snr_db,grid", [(None, (0.0,)), (20.0, (20.0,))])
    def test_chunk_scores_one_point(self, monkeypatch, snr_db, grid):
        # Only the one point the estimate may read is scored, never the
        # config's whole grid; tools/body_digest.py pins the estimates' bits.
        grids = []
        real = engine._run_chunk

        def recording(config, states, *args):
            grids.append(config.snr_db_grid)
            return real(config, states, *args)

        monkeypatch.setattr(engine, "_run_chunk", recording)
        run_functional_trial(config_for(4, 2), "mean", np.ones((2, 2, 2)), snr_db=snr_db)
        assert grids == [grid]

    def test_shape_validation(self):
        cfg = config_for(4, 2)
        with pytest.raises(SizeMismatch):
            run_functional_trial(cfg, "mean", np.ones((2, 2, 3)))

    def test_nan_snr_raises(self):
        # None is the one way to ask for a noise-free estimate.
        # A bool is no number of dB either; float() would run it at 1 dB.
        for snr_db in (math.nan, math.inf, True, np.True_):
            with pytest.raises(ConfigError, match="snr_db"):
                run_functional_trial(config_for(4, 2), "mean", np.ones((2, 2, 2)), snr_db=snr_db)

    def test_complex_data_raises(self):
        # Complex data would be cut to its real part; it is refused instead.
        with pytest.raises(DomainError, match="real"):
            run_functional_trial(config_for(4, 2), "sum", (1 + 1j) * np.ones((2, 2, 2)))
        with pytest.raises(DomainError, match="real"):
            preprocess(FunctionSpec("sum", 2), [1 + 0j, 2.0])

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
        # without a divide-by-zero warning, and the stored residual is the
        # inf or nan that the division gives.
        cfg = config_for(4, 2)
        data = np.broadcast_to(np.array(values)[:, None, None], (2, 2, 2))
        assert np.allclose(run_functional_trial(cfg, kind, data), want, rtol=0, atol=1e-12)
        symbols = preprocess(FunctionSpec(kind, 2), data)[None]
        res = run_chunk(cfg, [0], symbols)
        assert np.all(res.sig_power == 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            residual = np.sqrt(np.sum(np.abs(res.noiseless) ** 2, axis=(-2, -1)) / 0.0)
        assert np.array_equal(res.residual, residual, equal_nan=True)


def sweep_body(result):
    text = io.StringIO()
    write_result_csv(result, RunManifest.create("run", result.config.to_flat()), text)
    return "".join(ln for ln in text.getvalue().splitlines(True) if not ln.startswith("#"))


def assert_trial_matches_chunk_of_one(cfg, chunk, trials):
    for t, trial in enumerate(trials):
        alone = run_chunk(cfg, [trial])
        for name, value in vars(chunk).items():
            assert np.array_equal(value[t], getattr(alone, name)[0]), (trial, name)


class TestChunks:
    """Trials run in stacked chunks; a trial's result must not depend on
    the chunk it ran in."""

    # K = 20: a device axis longer than 8, where numpy's sums go pairwise.
    @pytest.mark.parametrize("scheme", ["sia", "no_ia", "genie"])
    @pytest.mark.parametrize("m, k", [(2, 1), (4, 5), (4, 20), (5, 3), (6, 2)])
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
        # 4*K*M^2 channel elements plus the scored grid per trial; a K = 200
        # chunk holds several trials.
        k200 = engine._chunk_trials(config_for(4, 200))
        assert k200 == engine.CHUNK_ELEMENTS // (12800 + 12) == 10
        assert engine._chunk_trials(config_for(2, 1)) == engine.CHUNK_ELEMENTS // (16 + 6)

    def test_guard_rejection_matches_chunk_of_one(self, monkeypatch):
        # A low condition limit makes the IA stage reject many sets; each
        # is redrawn from its own trial's stream, as if the trial ran alone.
        monkeypatch.setattr("aircomp_sia.linalg.COND_LIMIT", 4.0)
        cfg = config_for(2, 2, seed=3)
        trials = range(6)
        chunk = run_chunk(cfg, trials)
        assert chunk.redraws.any()
        assert_trial_matches_chunk_of_one(cfg, chunk, trials)

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
        marked = reference_pair(np.random.default_rng([cfg.seed, 4]), m)[0]
        rng = np.random.default_rng(9)
        nearly_rank_one = np.outer(cn(rng, (m,)), cn(rng, (m,))) + 1e-8 * cn(rng, (m, m))
        real = engine.build_sia_matrices

        def planted(channels, reference, beamformer):
            hit = np.all(reference == marked, axis=(-3, -2, -1))
            channels.direct[hit, 1, 0] = nearly_rank_one
            return real(channels, reference, beamformer)

        monkeypatch.setattr(engine, "build_sia_matrices", planted)
        trials = range(6)
        chunk = run_chunk(cfg, trials)
        assert not chunk.redraws.any()
        # The planted matrix's inverse, then the aligned rank of trial 4's
        # planted cell: the inverse's large precoder puts that cell's Y
        # beyond the Gram certificate. Every other rank certifies. At M = 5
        # two other effective channels of the chunk lie beyond cond 31.6,
        # where a wide matrix's Gram clears, and take the SVD with it.
        assert svd_calls == [(3 if m == 5 else 1,), (1,)]
        assert_trial_matches_chunk_of_one(cfg, chunk, trials)
        one, two = run_sweep(cfg, workers=1), run_sweep(cfg, workers=2)
        assert fake_pools.sizes == [2]
        assert sweep_body(one) == sweep_body(two)
        assert one.points == two.points

    @pytest.mark.parametrize("scheme", ["sia", "no_ia"])
    def test_rank_loss_matches_chunk_of_one(self, monkeypatch, scheme):
        # Plant one rank failure on trial 2's first channel set: only that
        # trial redraws its set, and gets what it would get alone.
        cfg = config_for(4, 3, scheme=scheme, seed=6)
        marked = reference_pair(np.random.default_rng([cfg.seed, 2]), 4)[0]
        name = "build_sia_matrices" if scheme == "sia" else "build_no_ia_precoders"
        real = getattr(engine, name)
        planted = {"done": True}

        def flaky(channels, *bases):
            reference = planted["reference"]
            hit = np.all(reference == marked, axis=(-3, -2, -1))
            if hit.any() and not planted["done"]:
                planted["done"] = True
                raise RankDeficient("planted", failed=hit)
            return real(channels, *bases)

        real_refs = engine.build_reference_matrices

        def remember(*args):
            bases = real_refs(*args)
            planted["reference"] = bases[0]
            return bases

        monkeypatch.setattr(engine, "build_reference_matrices", remember)
        monkeypatch.setattr(engine, name, flaky)
        trials = range(5)
        clean = run_chunk(cfg, trials)
        planted["done"] = False
        chunk = run_chunk(cfg, trials)
        assert planted["done"]
        assert np.array_equal(chunk.redraws - clean.redraws, np.arange(5) == 2)
        for t in trials:
            same = np.array_equal(chunk.err_power[t], clean.err_power[t])
            assert same == (t != 2)
        for t in trials:
            planted["done"] = False
            alone = run_chunk(cfg, [t])
            assert planted["done"] == (t == 2)
            for field, value in vars(chunk).items():
                assert np.array_equal(value[t], getattr(alone, field)[0]), (t, field)


def first_draws(cfg, g):
    """What a trial draws from its Generator `g` before any set redraw,
    one draw at a time: the (reference, beamformer) pair, the channel set,
    the symbols and the noise."""
    bases = reference_pair(g, cfg.antennas)
    channels = draw_channels(cfg, g)
    drawn = cn(g, (cfg.devices, 2, partition(cfg.antennas).signal_dim))
    return bases, channels, drawn, cn(g, (2, cfg.antennas))


def oracle_chunk(monkeypatch, cfg, trials, symbols=None, rank_losses=()):
    """The chunk as each trial's Generator draws it alone, the reference
    for `draw_trials`. Trial t's `default_rng([seed, t])` gives its
    first draws, then its set redraws: once for each time t is in
    `rank_losses` (a planted failure of the chunk's first build), then,
    for sia alone, while an SVD rejects a cross matrix of the set. The
    engine then scores those draws with the real builders, `symbols`, when
    given, in place of the drawn ones."""
    refs, beams, sets, drawn, noise, redraws = [], [], [], [], [], []
    for t in trials:
        g = np.random.default_rng([cfg.seed, t])
        (reference, beamformer), channels, trial_symbols, trial_noise = first_draws(cfg, g)
        redraws.append(list(rank_losses).count(t))
        for _ in range(redraws[-1]):
            channels = draw_channels(cfg, g)
        while cfg.scheme == "sia" and svd_guard(channels):
            channels = draw_channels(cfg, g)
            redraws[-1] += 1
        refs.append(reference)
        beams.append(beamformer)
        sets.append(channels)
        drawn.append(trial_symbols)
        noise.append(trial_noise)
    stacked = ChannelSet(np.stack([c.direct for c in sets]), np.stack([c.cross for c in sets]))
    with monkeypatch.context() as patch:
        patch.setattr(engine, "build_reference_matrices",
                      lambda *args: (np.stack(refs), np.stack(beams)))
        patch.setattr(engine, "draw_trials",
                      lambda *args: (None, stacked, np.stack(drawn), np.stack(noise)))
        patch.setattr(engine, "build_sia_matrices", sia.build_sia_matrices)
        patch.setattr(engine, "build_no_ia_precoders", baselines.build_no_ia_precoders)
        result = run_chunk(cfg, trials, symbols)
    assert not result.redraws.any()
    result.redraws = np.array(redraws, dtype=result.redraws.dtype)
    return result


def plant_rank_loss(monkeypatch, scheme, trial):
    """Make the chunk's first build fail for `trial` alone; returns the
    list of the chunk sizes each build saw."""
    name = "build_sia_matrices" if scheme == "sia" else "build_no_ia_precoders"
    real = getattr(engine, name)
    builds = []

    def flaky(channels, *bases):
        builds.append(len(channels.direct))
        if len(builds) == 1:
            raise RankDeficient("planted", failed=np.arange(len(channels.direct)) == trial)
        return real(channels, *bases)

    monkeypatch.setattr(engine, name, flaky)
    return builds


def assert_same_bits(got, want):
    for f in fields(TrialResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


class TestPrefetchedStreams:
    """A chunk drawn by draw_trials equals, bit for bit in every field and
    in its redraws, the chunk each trial's Generator draws alone, however
    many set redraws the trials need."""

    def assert_same_chunk(self, monkeypatch, cfg, trials, symbols=None, rank_losses=()):
        chunk = run_chunk(cfg, trials, symbols)
        oracle = oracle_chunk(monkeypatch, cfg, trials, symbols, rank_losses)
        assert_same_bits(chunk, oracle)
        return chunk

    @pytest.mark.parametrize("scheme", ["sia", "no_ia", "genie"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_matches_plain_streams(self, monkeypatch, scheme, m):
        cfg = config_for(m, 2, scheme=scheme, seed=7)
        assert not self.assert_same_chunk(monkeypatch, cfg, range(6)).redraws.any()

    @pytest.mark.parametrize("scheme", ["sia", "no_ia", "genie"])
    @pytest.mark.parametrize("m, limit", [(2, 4.0), (3, 6.0), (4, 10.0), (5, 10.0)])
    def test_guard_redraws(self, monkeypatch, scheme, m, limit):
        # A low condition limit makes sia's IA stage reject many sets, each
        # redrawn from its own trial's Generator; 16 trials redraw 17-38
        # sets at these limits, 8 as few as 5. One device per cell keeps
        # a set's acceptance (p^2 for a cross-matrix acceptance p of
        # 0.53-0.69) well inside the set budget. no_ia and genie invert no
        # cross channel, so the limit redraws none of their sets.
        monkeypatch.setattr("aircomp_sia.linalg.COND_LIMIT", limit)
        cfg = config_for(m, 1, scheme=scheme, seed=3)
        redraws = self.assert_same_chunk(monkeypatch, cfg, range(16)).redraws.sum()
        if scheme == "sia":
            assert redraws > 8
        else:
            assert redraws == 0

    @pytest.mark.parametrize("scheme", ["sia", "no_ia", "genie"])
    @pytest.mark.parametrize("m, limit", [(2, 4.0), (3, 6.0), (4, 10.0), (5, 10.0)])
    def test_public_setter_matches_state_write(self, monkeypatch, scheme, m, limit):
        # Where the probe finds no state bytes, every state goes through
        # PCG64's public setter: one per trial, and one per trial that
        # re-derives its Generator for set redraws (sia's, at these limits).
        monkeypatch.setattr("aircomp_sia.linalg.COND_LIMIT", limit)
        cfg = config_for(m, 1, scheme=scheme, seed=3)
        fast = run_trials(cfg, range(16))
        writes, real = [], system._set_state
        monkeypatch.setattr(system, "_word_order", lambda: None)
        monkeypatch.setattr(system, "_set_state",
                            lambda bg, words: writes.append(words) or real(bg, words))
        assert_same_bits(run_trials(cfg, range(16)), fast)
        assert len(writes) == 16 + np.count_nonzero(fast.redraws)
        assert (scheme == "sia") == fast.redraws.any()

    @pytest.mark.parametrize("scheme", ["sia", "no_ia"])
    def test_set_redraw(self, monkeypatch, scheme):
        # The first build fails for trial 2 alone, which redraws its set.
        builds = plant_rank_loss(monkeypatch, scheme, trial=2)
        cfg = config_for(4, 3, scheme=scheme, seed=6)
        chunk = self.assert_same_chunk(monkeypatch, cfg, range(5), rank_losses=[2])
        assert builds == [5, 5]
        assert chunk.redraws.tolist() == [0, 0, 1, 0, 0]

    @pytest.mark.parametrize("scheme", ["sia", "no_ia"])
    def test_set_redraw_keeps_symbols_and_noise(self, monkeypatch, scheme):
        # Trial 2's new set comes after its first draws, so its
        # symbols and noise are those of the clean run and only its
        # channels change; the other trials do not change at all.
        cfg = config_for(4, 3, scheme=scheme, seed=6)
        clean = run_chunk(cfg, range(5))
        plant_rank_loss(monkeypatch, scheme, trial=2)
        chunk = run_chunk(cfg, range(5))
        assert (clean.redraws.tolist(), chunk.redraws.tolist()) == ([0] * 5, [0, 0, 1, 0, 0])
        assert np.array_equal(chunk.target[2], clean.target[2])
        assert not np.array_equal(chunk.err_power[2], clean.err_power[2])
        for name, value in vars(chunk).items():
            rest = [0, 1, 3, 4]
            assert value[rest].tobytes() == getattr(clean, name)[rest].tobytes(), name

    @pytest.mark.parametrize("m", [2, 5])
    def test_planted_symbols(self, monkeypatch, m):
        # run_functional_trial's path: the drawn symbols are replaced.
        cfg = config_for(m, 3, seed=8)
        symbols = cn(np.random.default_rng(1), (4, 3, 2, partition(m).signal_dim))
        chunk = self.assert_same_chunk(monkeypatch, cfg, range(4), symbols)
        assert np.array_equal(chunk.target, symbols.sum(axis=1))

    @pytest.mark.parametrize("planted", [False, True])
    @pytest.mark.parametrize("scheme", ["sia", "no_ia", "genie"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_prefetch_is_what_a_trial_draws(self, scheme, m, planted):
        # A trial's first draws take exactly trial_normals values, so a
        # chunk whose rows are that wide draws what its trials draw alone.
        cfg = config_for(m, 3, scheme=scheme, seed=2)
        symbols = (cn(np.random.default_rng(1), (4, 3, 2, partition(m).signal_dim))
                   if planted else None)
        count = trial_normals(cfg)
        for t in range(4):
            g = np.random.default_rng([cfg.seed, t])
            first_draws(cfg, g)
            oracle = np.random.default_rng([cfg.seed, t])
            oracle.standard_normal(count)
            assert g.bit_generator.state == oracle.bit_generator.state, t
        chunk = engine._run_chunk(cfg, trial_states(cfg.seed, range(4)), symbols)
        assert not chunk.redraws.any()


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
        worst = float(run_trials(cfg, range(3)).residual.max())
        assert run_sweep(cfg, workers=1).max_residual == worst
        res = run_trials(cfg, [1])
        assert res.residual[0] == np.sqrt(np.sum(np.abs(res.noiseless[0]) ** 2)
                                          / res.sig_power[0].sum())


def plant(monkeypatch, field, index, value):
    """Make every run_trials call of a sweep return `value` at `index` of
    its TrialResult's `field`, as a construction fault in one trial would."""
    real = engine.run_trials

    def planted(config, trials):
        result = real(config, trials)
        getattr(result, field)[index] = value
        return result

    monkeypatch.setattr(engine, "run_trials", planted)


class TestClaim:
    """engine.claim_problems states the paper's claim once, for every
    trial of a sia sweep: the sweep's columns, a max and a mean, may hide
    the one trial that breaks it."""

    ALIGNED = "; interference alignment failed"

    @pytest.mark.parametrize("field, index, value, problem", [
        ("residual", (2,), 1e-7,
         "noiseless residual 1.000e-07 exceeds 1e-08; exact recovery failed"),
        ("aligned_rank", (3, 1), 1, "aligned interference rank 1 is below 2" + ALIGNED),
        ("aligned_rank", (0, 0), 3, "aligned interference rank 3 exceeds 2" + ALIGNED),
        ("aligned_rank", ..., 0, "aligned interference rank 0 is below 2" + ALIGNED),
        ("leakage", (1, 0), 2e-20, "interference leakage 2.000e-20 exceeds 1e-20"),
    ], ids=["residual", "low_rank", "high_rank", "zero_rank", "leakage"])
    def test_planted_fault_in_one_trial(self, monkeypatch, field, index, value, problem):
        cfg = config_for(4, 3, trials=5)
        assert run_sweep(cfg, workers=1).problems == []
        plant(monkeypatch, field, index, value)
        result = run_sweep(cfg, workers=1)
        assert result.problems == [problem]
        # Neither column shows a low rank in one trial or a leak in one
        # cell of one trial.
        if (field, value) == ("aligned_rank", 1):
            assert [p.aligned_rank for p in result.points] == [2] * 3
        if field == "leakage":
            assert result.points[0].leakage_mean < engine.LEAKAGE_BOUND

    @pytest.mark.parametrize("m, rank", [(3, 1), (5, 2)])
    def test_rank_below_n_prime_holds_the_claim(self, m, rank):
        # One device gives min(N', K * dof) = dof < N' aligned dimensions.
        result = run_sweep(config_for(m, 1, trials=10), workers=1)
        assert result.problems == []
        assert result.points[0].aligned_rank == rank < partition(m).interference_dim

    @pytest.mark.parametrize("scheme", ["no_ia", "genie"])
    def test_other_schemes_have_no_claim(self, scheme):
        cfg = config_for(4, 3, scheme=scheme)
        trials = run_trials(cfg, range(4))
        assert engine.claim_problems(cfg, trials) == []
        trials.residual[:], trials.aligned_rank[:], trials.leakage[:] = 1.0, 0, 1.0
        assert engine.claim_problems(cfg, trials) == []
        assert engine.claim_problems(replace(cfg, scheme="sia"), trials) != []
