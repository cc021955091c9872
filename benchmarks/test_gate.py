"""Tests of the benchmark's correctness gate and reference comparison.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import dataclasses
import io

import pytest

import workloads

workloads.use_checkout_source()

from aircomp_sia import SystemConfig, run_sweep  # noqa: E402
from aircomp_sia.output import RunManifest, write_result_csv  # noqa: E402
from gate import check_sweep, compare_to_reference, csv_body  # noqa: E402

NAN = float("nan")


def render(result):
    text = io.StringIO()
    write_result_csv(result, RunManifest.create("run", result.config.to_flat()), text)
    return csv_body(text.getvalue())


def plant(result, index=None, **changes):
    """Copy of `result` with `changes` applied to point `index` (every point if None)."""
    points = [dataclasses.replace(pt, **changes) if index in (None, i) else pt
              for i, pt in enumerate(result.points)]
    return dataclasses.replace(result, points=points)


def problems(result):
    return check_sweep(result, render(result), result.config)


@pytest.fixture(scope="module")
def sia():
    config = SystemConfig(antennas=2, devices=1, snr_db_grid=(0.0, 10.0, 20.0, 30.0, 40.0),
                          trials=60, seed=5)
    return run_sweep(config, workers=1)


@pytest.fixture(scope="module")
def no_ia():
    return run_sweep(SystemConfig(antennas=4, devices=5, scheme="no_ia", trials=40, seed=5),
                     workers=1)


def test_unmodified_sweeps_pass(sia, no_ia):
    assert problems(sia) == []
    assert problems(no_ia) == []


@pytest.mark.parametrize("changes", [
    {"aligned_rank": 2},
    {"aligned_rank": 0},
    {"nmse_mean": NAN},
    {"nmse_median": NAN},
    {"nmse_mean": -1.0},
    {"analytic_nmse": float("inf")},
    {"leakage_mean": 1e-3},
    {"leakage_mean": NAN},
    {"oracle_gap_se": 0.0},
    {"oracle_gap": NAN},
    {"trials": 59},
    {"snr_db": 11.0},
])
def test_planted_sia_fault_fails(sia, changes):
    assert problems(plant(sia, index=2, **changes))


def test_sia_nmse_off_the_oracle_fails(sia):
    point = sia.points[3]
    assert problems(plant(sia, index=3, oracle_gap=5.0 * point.oracle_gap_se))
    assert problems(plant(sia, index=3, oracle_gap=-5.0 * point.oracle_gap_se))


@pytest.mark.parametrize("slope", [-0.08, -0.12, NAN])
def test_sia_wrong_dof_slope_fails(sia, slope):
    assert problems(dataclasses.replace(sia, dof_slope=slope))


def test_missing_or_extra_point_fails(sia):
    assert problems(dataclasses.replace(sia, points=sia.points[:-1]))
    assert problems(dataclasses.replace(sia, points=sia.points + sia.points[-1:]))


def test_no_ia_without_interference_fails(no_ia):
    assert problems(plant(no_ia, leakage_mean=0.0))
    assert problems(plant(no_ia, index=4, leakage_mean=0.05))


def test_no_ia_without_interference_floor_fails(no_ia):
    top = no_ia.points[-1]
    assert problems(plant(no_ia, index=len(no_ia.points) - 1, nmse_mean=2.0 * top.analytic_nmse))
    assert problems(plant(no_ia, index=len(no_ia.points) - 1, nmse_mean=NAN))


def test_reference_accepts_identical_and_last_digit_changes(sia):
    body = render(sia)
    assert compare_to_reference(body, body) == []
    nudged = plant(sia, index=0, nmse_mean=sia.points[0].nmse_mean * (1 + 1e-11))
    assert compare_to_reference(render(nudged), body) == []
    assert compare_to_reference(render(plant(sia, leakage_mean=5e-31)), body) == []


def test_reference_rejects_changed_results(sia):
    body = render(sia)
    moved = plant(sia, index=1, nmse_mean=sia.points[1].nmse_mean * (1 + 1e-7))
    assert compare_to_reference(render(moved), body)
    assert compare_to_reference(render(plant(sia, index=1, nmse_median=NAN)), body)
    assert compare_to_reference(render(plant(sia, index=0, aligned_rank=2)), body)
    assert compare_to_reference(render(plant(sia, leakage_mean=1e-19)), body)
    assert compare_to_reference(render(dataclasses.replace(sia, points=sia.points[1:])), body)


def test_reference_tolerates_added_columns_only(sia):
    body = render(sia)
    widened = "".join(line + ",7\n" for line in body.splitlines())
    assert compare_to_reference(widened, body) == []
    narrowed = "".join(line.rsplit(",", 1)[0] + "\n" for line in body.splitlines())
    assert compare_to_reference(narrowed, body)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_default_seed_passes_gate_and_matches_reference(name):
    config = workloads.make_config(name, workloads.DEFAULT_SEED)
    result = run_sweep(config, workers=1)
    body = render(result)
    assert check_sweep(result, body, config) == []
    reference = workloads.load_reference(name, workloads.DEFAULT_SEED)
    assert compare_to_reference(body, reference) == []
