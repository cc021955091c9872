"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single verdict line (run with -s to see them all).
Shared Monte Carlo banks are module-scoped fixtures so every criterion
stays runnable in isolation.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from aircomp_sia.baselines import efficiency_report
from aircomp_sia.cli import main
from aircomp_sia.engine import (
    fit_nmse_slope,
    run_functional_trial,
    run_sweep,
    run_trials,
)
from aircomp_sia.system import SystemConfig, partition

RECOVERY_PAIRS = [(m, k) for m in (2, 3, 4, 5, 6, 8) for k in (1, 2, 5, 20, 50)]
ALIGNMENT_PAIRS = [(4, 1), (4, 3), (5, 1), (5, 4), (8, 2)]
TRIALS_PER_PAIR = 100
NOISELESS = [math.inf]


def report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def sweep_config(m, k, **kw):
    kw.setdefault("snr_db_grid", tuple(float(s) for s in range(0, 41, 5)))
    kw.setdefault("trials", 200)
    kw.setdefault("seed", 1)
    return SystemConfig(antennas=m, devices=k, **kw)


def trial_bank(pairs):
    """100 noiseless seeded trials per (M, K): worst errors and leakages."""
    bank = {"rel_err": [], "leakage": [], "rank_hits": {}, "seconds": 0.0}
    start = time.perf_counter()
    for m, k in pairs:
        cfg = SystemConfig(antennas=m, devices=k, snr_db_grid=(0.0,),
                           trials=1, seed=7)
        part = partition(m)
        expected_rank = min(k * part.signal_dim, part.interference_dim)
        res = run_trials(cfg, range(TRIALS_PER_PAIR), NOISELESS)
        bank["rel_err"].append(np.sqrt(res.nmse).max())
        bank["leakage"].append(res.leakage.max())
        bank["rank_hits"][(m, k)] = int(np.all(res.aligned_rank == expected_rank, axis=1).sum())
    bank["seconds"] = time.perf_counter() - start
    return bank


@pytest.fixture(scope="module")
def recovery_bank():
    return trial_bank(RECOVERY_PAIRS)


@pytest.fixture(scope="module")
def alignment_bank():
    return trial_bank(ALIGNMENT_PAIRS)


def test_criterion_1_exact_recovery(recovery_bank):
    worst = max(recovery_bank["rel_err"])
    seconds = recovery_bank["seconds"]
    ok = worst < 1e-8 and seconds < 60.0
    report(1, ok,
           f"max relative recovery error {worst:.3e} over "
           f"{len(RECOVERY_PAIRS)} (M,K) pairs x {TRIALS_PER_PAIR} noiseless "
           f"trials in {seconds:.1f}s")


def test_criterion_2_device_count_independence():
    worst = {}
    for k in (1, 200):
        cfg = SystemConfig(antennas=4, devices=k, snr_db_grid=(0.0,),
                           trials=1, seed=3)
        worst[k] = np.sqrt(run_trials(cfg, range(20), NOISELESS).nmse).max()
    ok = worst[1] < 1e-8 and worst[200] < 1e-8
    report(2, ok,
           f"2 streams recovered at M=4; max error {worst[1]:.3e} (K=1) "
           f"vs {worst[200]:.3e} (K=200), same 1e-8 threshold")


def test_criterion_3_aligned_dimension(alignment_bank):
    hits = alignment_bank["rank_hits"]
    ok = all(hits[pair] == TRIALS_PER_PAIR for pair in ALIGNMENT_PAIRS)
    summary = ", ".join(f"({m},{k})={hits[(m, k)]}/100"
                        for m, k in ALIGNMENT_PAIRS)
    report(3, ok, f"aligned_rank == min(K*N_ac, N') in {summary}")


def test_criterion_4_interference_nulling(recovery_bank, alignment_bank):
    worst_sia = max(max(recovery_bank["leakage"]), max(alignment_bank["leakage"]))
    cfg = SystemConfig(antennas=4, devices=2, snr_db_grid=(0.0,),
                       trials=1, seed=7, scheme="no_ia")
    floor_hits = np.all(run_trials(cfg, range(100), NOISELESS).leakage > 1e-3, axis=1).sum()
    ok = worst_sia < 1e-9 and floor_hits >= 99
    report(4, ok,
           f"max SIA leakage {worst_sia:.3e} over all trials above; "
           f"no_ia leakage > 1e-3 in {floor_hits}/100 trials at (4,2)")


def test_criterion_5_dof_slope():
    sia = run_sweep(sweep_config(4, 5), workers=1)
    no_ia = run_sweep(sweep_config(4, 5, scheme="no_ia"), workers=1)
    floor_slope = fit_nmse_slope([pt.snr_db for pt in no_ia.points],
                                 [pt.nmse_mean for pt in no_ia.points],
                                 lo=30.0)
    ok = abs(sia.dof_slope + 0.100) <= 0.005 and abs(floor_slope) < 0.02
    report(5, ok,
           f"SIA slope {sia.dof_slope:.4f} dB^-1 over 20-40 dB "
           f"(target -0.100 +/- 0.005); no_ia floor slope "
           f"{floor_slope:+.4f} over 30-40 dB")


def test_criterion_6_noise_oracle():
    worst_ratio = 0.0
    for k in (1, 4):
        cfg = sweep_config(4, k, snr_db_grid=(0.0, 10.0, 20.0),
                           trials=10_000, seed=2)
        result = run_sweep(cfg, workers=1)
        for pt in result.points:
            worst_ratio = max(worst_ratio, abs(pt.oracle_gap) / pt.oracle_gap_se)
    ok = worst_ratio <= 3.0
    report(6, ok,
           f"MC NMSE vs analytic prediction within {worst_ratio:.2f} standard "
           f"errors (limit 3) at 10^4 trials, M=4, K in {{1,4}}")


def test_criterion_7_efficiency_formulas():
    exact = True
    for k in range(1, 101):
        exact &= efficiency_report("conventional_ia", 8, k).efficiency == Fraction(1, k + 1)
    for m in range(2, 65, 2):
        exact &= efficiency_report("sia", m, 1).efficiency == Fraction(1, 2)
    for m in range(3, 64, 2):
        exact &= efficiency_report("sia", m, 1).efficiency == Fraction(1, 2) - Fraction(1, 2 * m)
    report(7, exact,
           "exact rational equality: conventional 1/(K+1) for K=1..100, "
           "SIA 1/2 for even M=2..64 and 1/2 - 1/(2M) for odd M=3..63")


def test_criterion_8_optimal_partition():
    # Brute force over every split of the receive space: the balanced
    # split attains the max-min, and partition() returns it.
    ok = True
    for m in range(2, 65):
        best = max(min(m1, m - m1) for m1 in range(1, m))
        balanced = (m // 2, m - m // 2)
        part = partition(m)
        ok &= min(balanced) == best
        ok &= (part.signal_dim, part.interference_dim) == balanced
    report(8, ok,
           "brute-force search returns the balanced split with max-min DoF "
           "floor(M/2) for every M=2..64")


def test_criterion_9_functional_layer():
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in (1, 3, 10):
        data = rng.uniform(0.5, 2.0, size=(k, 2, 2))
        for kind in ("mean", "geomean"):
            cfg = SystemConfig(antennas=4, devices=k, snr_db_grid=(0.0,), trials=1, seed=13)
            got = run_functional_trial(cfg, kind, data)
            if kind == "mean":
                want = data.mean(axis=0)
            else:
                want = np.prod(data, axis=0) ** (1.0 / k)
            worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    ok = worst <= 1e-6
    report(9, ok,
           f"noiseless mean and geometric mean match direct computation, "
           f"max relative error {worst:.3e} for K in {{1,3,10}}")


def test_criterion_10_worker_determinism(capsys, monkeypatch):
    argv = ["run", "--antennas", "4", "--devices", "3", "--snr-db", "0,10,20",
            "--trials", "30", "--seed", "17"]
    bodies = {}
    for workers in ("1", "4"):
        monkeypatch.setenv("AIRCOMP_WORKERS", workers)
        assert main(argv) == 0
        out = capsys.readouterr().out
        bodies[workers] = "\n".join(ln for ln in out.splitlines()
                                    if not ln.startswith("#"))
    ok = bodies["1"] == bodies["4"]
    with capsys.disabled():
        report(10, ok,
               "CSV bodies byte-identical for 1-worker and 4-worker runs "
               "(same seed and config)")
