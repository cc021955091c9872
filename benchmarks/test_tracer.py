"""Tests of the outside-in tracer.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import io

import pytest

import tracer as tracer_module
import workloads

workloads.use_checkout_source()

import numpy  # noqa: E402

from aircomp_sia import SystemConfig, engine, run_sweep, sia  # noqa: E402
from aircomp_sia.output import RunManifest, write_result_csv  # noqa: E402
from gate import csv_body  # noqa: E402
from tracer import Tracer  # noqa: E402

TRIALS = 5


def body(result):
    text = io.StringIO()
    write_result_csv(result, RunManifest.create("run", result.config.to_flat()), text)
    return csv_body(text.getvalue())


def traced_sweep(config):
    tracer = Tracer()
    with tracer.active():
        result = run_sweep(config, workers=1)
    return tracer, result


@pytest.mark.parametrize("scheme, svd_calls, beamformer_calls", [
    ("sia", 10, 2),
    ("no_ia", 8, 1),
])
def test_counts_per_trial_are_exact(scheme, svd_calls, beamformer_calls):
    config = SystemConfig(antennas=4, devices=3, scheme=scheme, trials=TRIALS, seed=2)
    tracer, _ = traced_sweep(config)
    layers = tracer.layers
    assert layers["linalg.svd"].calls == svd_calls * TRIALS
    assert layers["linalg.pinv"].calls == 2 * TRIALS
    assert layers["linalg.qr"].calls == 2 * TRIALS
    assert layers["sia.build_aggregation_beamformers"].calls == beamformer_calls * TRIALS
    assert layers["system.draw_channels"].calls == TRIALS
    assert tracer.absent == []


def test_self_times_partition_the_covered_time():
    tracer, _ = traced_sweep(SystemConfig(antennas=2, devices=1, trials=TRIALS, seed=1))
    total_self = sum(stats.self_s for stats in tracer.layers.values())
    assert total_self == pytest.approx(tracer.covered_s, rel=1e-9)
    assert all(stats.self_s >= 0.0 for stats in tracer.layers.values())


def test_traced_body_equals_untraced_and_wrappers_are_removed():
    config = SystemConfig(antennas=4, devices=2, trials=TRIALS, seed=3)
    originals = (engine.draw_channels, sia.build_aggregation_beamformers, numpy.linalg.svd)
    _, traced = traced_sweep(config)
    assert (engine.draw_channels, sia.build_aggregation_beamformers, numpy.linalg.svd) == originals
    assert body(traced) == body(run_sweep(config, workers=1))


def test_missing_target_is_reported_absent(monkeypatch):
    targets = tracer_module.TARGETS + (
        ("aircomp_sia.engine", "no_such_function", "linalg.svd", None),
        ("aircomp_sia.no_such_module", "draw_channels", "system.draw_channels", None),
    )
    monkeypatch.setattr(tracer_module, "TARGETS", targets)
    tracer, result = traced_sweep(SystemConfig(antennas=2, devices=1, trials=TRIALS, seed=4))
    assert tracer.absent == ["aircomp_sia.engine.no_such_function",
                             "aircomp_sia.no_such_module.draw_channels"]
    assert tracer.layers["linalg.svd"].calls == 10 * TRIALS
    assert len(result.points) == len(result.config.snr_db_grid)


def test_failures_are_counted_and_reraised(monkeypatch):
    from aircomp_sia.errors import RankDeficient

    calls = []

    def flaky(channels, reference):
        calls.append(1)
        if len(calls) == 1:
            raise RankDeficient("planted")
        return sia.build_sia_matrices(channels, reference)

    monkeypatch.setattr(engine, "build_sia_matrices", flaky)
    tracer, _ = traced_sweep(SystemConfig(antennas=2, devices=1, trials=TRIALS, seed=4))
    assert tracer.layers["sia.build_sia_matrices"].failures == 1
    assert tracer.layers["sia.build_sia_matrices"].calls == TRIALS + 1
