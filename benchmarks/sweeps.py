"""Measuring process of the benchmark: timed or traced sweeps of one workload.

run.py starts this script in its own process, with BLAS pinned to one
thread, so that its peak memory is the workload's alone. The load is a
closed loop with one client: the next sweep starts when the previous one
has finished. Every sweep is gated (gate.py) and its CSV body must equal
the first sweep's byte for byte, whatever the worker count or tracing,
and the stored reference body when there is one for the seed. The last
line of standard output is one JSON object with the raw metrics.

    python3 benchmarks/sweeps.py --workload small_dense --seed 0 \
        --seconds 10 --trace 0 --outdir <scratch dir inside the checkout>
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import calibrated, calibration_s
from gate import check_sweep, compare_to_reference, csv_body
from tracer import Tracer

# Rounds always run, however short --seconds is, so every median has samples.
MIN_ROUNDS = 3
# Problems echoed to stderr per failed sweep.
SHOWN_PROBLEMS = 5


class Sweeper:
    """Runs and gates sweeps of one workload config."""

    def __init__(self, name, seed, outdir):
        self.config = workloads.make_config(name, seed)
        self.reference = workloads.load_reference(name, seed)
        self.path = Path(outdir) / "sweep.csv"
        self.first_body = None
        self.attempted = 0
        self.failed = 0

    def sweep(self, workers, tracer=None):
        """One operation. Returns (sweep_s, write_s, bytes), or None if it failed."""
        from aircomp_sia.engine import run_sweep
        from aircomp_sia.output import RunManifest, write_result_csv

        self.attempted += 1
        try:
            start = perf_counter()
            if tracer is None:
                result = run_sweep(self.config, workers)
            else:
                with tracer.active():
                    result = run_sweep(self.config, workers)
            swept = perf_counter()
            manifest = RunManifest.create(
                "run", self.config.to_flat(), workers=workers, output=self.path.name)
            with open(self.path, "w", encoding="utf-8", newline="") as fh:
                write_result_csv(result, manifest, fh)
            written = perf_counter()
            text = self.path.read_text(encoding="utf-8")
            problems = self._gate(result, csv_body(text), workers)
        except Exception:  # a crashing sweep is a failed operation; keep measuring
            traceback.print_exc()
            problems = ["sweep raised"]
        if problems:
            self.failed += 1
            for problem in problems[:SHOWN_PROBLEMS]:
                print(f"gate: workers={workers} traced={tracer is not None}: {problem}",
                      file=sys.stderr)
            return None
        return swept - start, written - swept, len(text.encode("utf-8"))

    def _gate(self, result, body, workers):
        problems = check_sweep(result, body, self.config)
        if self.first_body is None:
            self.first_body = body
        elif body != self.first_body:
            problems.append(f"CSV body at {workers} workers differs from the first sweep's")
        if self.reference is not None:
            problems += [f"reference: {p}" for p in compare_to_reference(body, self.reference)]
        return problems


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(sweeper, name, seconds):
    """End-to-end metrics: throughput per worker count at the reference
    speed (calibrate.py), and peak memory."""
    plan = workloads.worker_plan(name)
    trials = sweeper.config.trials
    calibration_s()
    for workers in plan:
        sweeper.sweep(workers)  # warm-up: lazy imports, first BLAS calls
    rates = {workers: [] for workers in plan}
    unscaled = {workers: [] for workers in plan}
    speeds = []
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        for workers in plan:
            timing, speed = calibrated(lambda: sweeper.sweep(workers))
            speeds.append(speed)
            if timing is not None:
                elapsed = timing[0] + timing[1]
                unscaled[workers].append(trials / elapsed)
                rates[workers].append(trials / (elapsed * speed))
        rounds += 1
    rate = _median(rates[plan[0]])
    rate_1w = _median(rates[1])
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "trials_per_s": rate,
        "trials_per_s_1w": rate_1w,
        "scaling_eff": rate / (plan[0] * rate_1w) if rate_1w else 0.0,
        "peak_rss_mib": peak_kib / 1024.0,
    }
    counts = {f"sweeps_{w}w": len(v) for w, v in rates.items()}
    counts.update({f"unscaled_trials_per_s_{w}w": _median(v) for w, v in unscaled.items()})
    return metrics, dict(counts, workers=list(plan), speed=_median(speeds))


def trace(sweeper, seconds):
    """Per-layer metrics from traced 1-worker sweeps, alternating with untraced ones."""
    tracer = Tracer()
    trials = sweeper.config.trials
    sweeper.sweep(1)  # warm-up
    plain, traced = [], []
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or perf_counter() < deadline:
        timing = sweeper.sweep(1)
        if timing is not None:
            plain.append(timing)
        timing = sweeper.sweep(1, tracer)
        if timing is not None:
            traced.append(timing)
        rounds += 1
    if tracer.absent:
        print(f"trace: absent, not traced: {', '.join(tracer.absent)}", file=sys.stderr)

    total = trials * len(traced) or 1
    wall_s = sum(t[0] for t in traced)
    layers = tracer.layers

    def ms(layer):
        return layers[layer].self_s * 1e3 / total

    def per_trial(layer, field):
        return getattr(layers[layer], field) / total

    metrics = {
        "system.draw_channels.ms_per_trial": ms("system.draw_channels"),
        "system.redraws_per_trial": per_trial("system.draw_channels", "items"),
        "system.draw_symbols.ms_per_trial": ms("system.draw_symbols"),
        "system.superpose.ms_per_trial": ms("system.superpose"),
        "sia.build_reference_matrices.ms_per_trial": ms("sia.build_reference_matrices"),
        "sia.build_aggregation_beamformers.calls_per_trial":
            per_trial("sia.build_aggregation_beamformers", "calls"),
        "sia.build_aggregation_beamformers.ms_per_trial": ms("sia.build_aggregation_beamformers"),
        "sia.build_sia_matrices.ms_per_trial": ms("sia.build_sia_matrices"),
        "sia.build_sia_matrices.failures_per_trial": per_trial("sia.build_sia_matrices", "failures"),
        "sia.aligned_interference_dimension.ms_per_trial": ms("sia.aligned_interference_dimension"),
        "baselines.build_no_ia_precoders.ms_per_trial": ms("baselines.build_no_ia_precoders"),
        "baselines.build_no_ia_precoders.failures_per_trial":
            per_trial("baselines.build_no_ia_precoders", "failures"),
        "linalg.svd_matrices_per_trial": per_trial("linalg.svd", "items"),
        "engine.self_ms_per_trial": (wall_s - tracer.covered_s) * 1e3 / total,
        "output.write_ms_per_sweep": _median([t[1] * 1e3 for t in traced]),
        "output.bytes_per_sweep": _median([t[2] for t in traced]),
        "trace.coverage": tracer.covered_s / wall_s if wall_s else 0.0,
        "trace.overhead": (_median([t[0] for t in traced]) / _median([t[0] for t in plain]) - 1.0
                           if plain and traced else 0.0),
    }
    for op in ("svd", "pinv", "inv", "qr"):
        metrics[f"linalg.{op}_calls_per_trial"] = per_trial(f"linalg.{op}", "calls")
        metrics[f"linalg.{op}.ms_per_trial"] = ms(f"linalg.{op}")
    counts = {"sweeps_traced": len(traced), "sweeps_untraced": len(plain),
              "absent": tracer.absent, "workers": [1]}
    return metrics, counts


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {key: os.environ.get(key) for key in workloads.BLAS_ENV},
        "nproc": workloads.nproc(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args(argv)

    workloads.use_checkout_source()
    sweeper = Sweeper(args.workload, args.seed, args.outdir)
    if args.trace:
        metrics, counts = trace(sweeper, args.seconds)
    else:
        metrics, counts = measure(sweeper, args.workload, args.seconds)
    print(json.dumps({
        "attempted": sweeper.attempted,
        "failed": sweeper.failed,
        "metrics": metrics,
        "counts": dict(counts, trials_per_sweep=sweeper.config.trials,
                       reference_compared=sweeper.reference is not None),
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
