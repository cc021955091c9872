"""The benchmark's workloads and the checkout they run against.

One operation is one complete sweep: `run_sweep(config, workers)` followed
by `write_result_csv` to a file, the same library calls `aircomp run`
makes. The workload seed is a benchmark argument; the program only ever
receives the `SystemConfig` built here.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

# Seeds whose CSV bodies are stored under reference/; the default seed is the first.
REFERENCE_SEEDS = tuple(range(16))
DEFAULT_SEED = REFERENCE_SEEDS[0]

# Pinned for every process the benchmark starts, so busy threads stay at
# most the worker count and BLAS threading cannot vary between runs.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def nproc():
    """CPUs this process may run on (the affinity mask, not the machine)."""
    return len(os.sched_getaffinity(0))


# Why each workload was chosen is recorded in BENCHMARK.json. `trials` sizes
# one sweep at roughly 0.3-0.6 s on a 2-vCPU Xeon VM, so a run times
# dozens of sweeps and reports their median.
WORKLOADS = {
    "small_dense": {
        "config": {"scheme": "sia", "antennas": 2, "devices": 1,
                   "snr_db_grid": tuple(float(s) for s in range(41)), "trials": 200},
        "pool": False,
    },
    "many_devices": {
        "config": {"scheme": "sia", "antennas": 4, "devices": 200, "trials": 40},
        "pool": False,
    },
    "no_ia_pool": {
        "config": {"scheme": "no_ia", "antennas": 4, "devices": 5, "trials": 400},
        "pool": True,
    },
}


def worker_plan(name):
    """Worker counts one round of the closed loop runs, in order."""
    return (nproc(), 1) if WORKLOADS[name]["pool"] else (1,)


def checkout_problem():
    """Why the checkout cannot be benchmarked, or None when it can."""
    if not (SRC / "aircomp_sia" / "__init__.py").is_file():
        return f"no program source at {SRC / 'aircomp_sia'}"
    return None


def use_checkout_source():
    """Import the program from this checkout's src/, never from elsewhere."""
    problem = checkout_problem()
    if problem is not None:
        raise SystemExit(f"benchmark: {problem}")
    sys.path.insert(0, str(SRC))
    import aircomp_sia

    origin = Path(aircomp_sia.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"benchmark: imported aircomp_sia from {origin}, not {SRC}")
    return aircomp_sia


def load_reference(name, seed):
    """The stored CSV body for (workload, seed), or None when none is stored."""
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["bodies"].get(str(seed))


def make_config(name, seed):
    from aircomp_sia import SystemConfig

    return SystemConfig(seed=seed, **WORKLOADS[name]["config"]).validate()
