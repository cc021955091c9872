"""Benchmark of the aircomp-sia Monte Carlo simulator.

    python3 benchmarks/run.py --workload small_dense --seed 0 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all

Run from the root of a checkout; the program is imported from its src/.
One operation is one sweep (`run_sweep` then `write_result_csv`), run as a
closed loop with one client in a process of its own (sweeps.py). With
--trace 0 it reports the end-to-end metrics named in BENCHMARK.json:
median trials/s at a reference machine speed (calibrate.py; the unscaled
medians are printed with the environment), set-up time (median of fresh
`python -m aircomp_sia --version` interpreters) and peak memory. With
--trace 1 it reports the per-layer metrics, from spans set around public
functions from outside the program. Every sweep is checked (gate.py); a
sweep that fails the check counts as failed. The run environment is
printed with the result, and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload in both modes and ends with one
combined object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import workloads

# Timed set-up launches on each side of the sweeps, so their median spans
# the run; one untimed launch first fills the bytecode cache.
SETUP_LAUNCHES = 8
CHILD_TIMEOUT_S = 150       # a run must end within 180 s, set-up included
SETUP_TIMEOUT_S = 30


def child_env():
    env = dict(os.environ, **workloads.BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(workloads.SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_times(launches):
    """Wall times of fresh interpreters running `python -m aircomp_sia --version`,
    which imports every module."""
    command = [sys.executable, "-m", "aircomp_sia", "--version"]
    times = []
    for _ in range(launches):
        start = perf_counter()
        done = subprocess.run(command, cwd=workloads.ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - start)
        if done.returncode != 0 or "aircomp" not in done.stdout:
            raise RuntimeError(f"{' '.join(command[1:])} failed: {done.stderr.strip()}")
    return times


def run_child(workload, seed, seconds, trace):
    outdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=workloads.ROOT)
    try:
        command = [sys.executable, str(workloads.HERE / "sweeps.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--outdir", outdir]
        done = subprocess.run(command, cwd=workloads.ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"sweeps.py exited with {done.returncode}")
    return json.loads(lines[-1])


def source_identity():
    """git revision when the checkout is a repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(workloads.SRC)).encode())
        digest.update(path.read_bytes())
    try:
        done = subprocess.run(
            ["git", "-C", str(workloads.ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(workloads.ROOT.parent)))
        rev = done.stdout.strip() if done.returncode == 0 else None
    except OSError:
        rev = None
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def declared_metrics(trace):
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(workload, seed, seconds, trace):
    """One benchmark run: prints the report, returns the result object."""
    raw = {}
    if not trace:
        setup_times(1)
        setup = setup_times(SETUP_LAUNCHES)
    child = run_child(workload, seed, seconds, trace)
    if not trace:
        raw["setup_s"] = statistics.median(setup + setup_times(SETUP_LAUNCHES))
    raw.update(child["metrics"])
    metrics = {}
    for spec in declared_metrics(trace):
        metrics[spec["name"]] = {"value": raw.pop(spec["name"]), "unit": spec["unit"]}
    if raw:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {', '.join(sorted(raw))}")

    env = dict(child["env"], **source_identity(), workload=workload, seed=seed,
               seconds=seconds, trace=trace, **child["counts"])
    attempted, failed = child["attempted"], child["failed"]
    print(f"[{workload} trace={trace}] env {json.dumps(env, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"[{workload} trace={trace}] {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"[{workload} trace={trace}] fail_ratio = {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} sweeps)")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")

    problem = workloads.checkout_problem()
    if problem is not None:
        print(f"benchmark: {problem}; run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in workloads.WORKLOADS:
                for trace in (0, 1):
                    part = run_workload(workload, args.seed, args.seconds, trace)
                    result["correct"] &= part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    result["metrics"].update(
                        {f"{workload}/{k}": v for k, v in part["metrics"].items()})
    except (RuntimeError, OSError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"benchmark: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
