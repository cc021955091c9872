"""One sha256 over the CSV bodies of a fixed set of 90 sweeps, and one
over the outputs of 108 functional trials.

    python3 tools/body_digest.py --workers 2 [--bodies bodies.json]

The sweeps are the 16 reference seeds of each of the three benchmark
workload configs (read from benchmarks/workloads.py), then sia, no_ia and
genie at (M, K) in {(2,1), (3,2), (4,5), (4,20), (5,3), (6,2), (16,5)},
seeds 0 and 1, with the default SNR grid and trial count. K = 20 puts
more than 8 devices on the device axis, where numpy would sum a
contiguous run pairwise rather than in order. Each sweep's CSV is
written as `aircomp run` writes it, and its body (the # block stripped) is
hashed in that order. Equal digests at two worker counts, or for two
checkouts on one machine, mean byte-identical bodies on every sweep.
With `--bodies PATH` the 90 (config, body) pairs are also written to PATH
as a JSON list of {"config": flat config, "body": CSV body}, in hashing
order, for tools/body_deviation.py to compare two checkouts column by
column.

The functional trials are `run_functional_trial` for sia, no_ia and genie
at (M, K) in {(2,1), (4,3), (5,2), (16,2)}, each of sum, mean and geomean,
noiseless and at 0 and 17.5 dB, on data drawn from default_rng([M, K]).
Their float64 estimates are hashed in that order, on the second line;
they do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import workloads  # noqa: E402
from gate import csv_body  # noqa: E402

SCHEMES = ("sia", "no_ia", "genie")
SHAPES = ((2, 1), (3, 2), (4, 5), (4, 20), (5, 3), (6, 2), (16, 5))
SEEDS = (0, 1)
FUNCTIONAL_SHAPES = ((2, 1), (4, 3), (5, 2), (16, 2))
FUNCTIONAL_SNRS = (None, 0.0, 17.5)


def configs():
    """The 90 sweep configs, in hashing order."""
    from aircomp_sia import SystemConfig

    for name in workloads.WORKLOADS:
        for seed in workloads.REFERENCE_SEEDS:
            yield workloads.make_config(name, seed)
    for scheme in SCHEMES:
        for m, k in SHAPES:
            for seed in SEEDS:
                yield SystemConfig(antennas=m, devices=k, scheme=scheme, seed=seed)


def digest(workers):
    """(sha256 hex digest, the (flat config, body) pairs in hashing order)."""
    from aircomp_sia.engine import run_sweep
    from aircomp_sia.output import RunManifest, write_result_csv

    sha = hashlib.sha256()
    pairs = []
    for config in configs():
        text = io.StringIO()
        manifest = RunManifest.create("run", config.to_flat(), workers=workers)
        write_result_csv(run_sweep(config, workers), manifest, text)
        body = csv_body(text.getvalue())
        sha.update(body.encode("utf-8"))
        pairs.append({"config": config.to_flat(), "body": body})
    return sha.hexdigest(), pairs


def functional_digest():
    import numpy as np

    from aircomp_sia import SystemConfig
    from aircomp_sia.engine import run_functional_trial
    from aircomp_sia.functions import FUNCTIONS
    from aircomp_sia.system import partition

    sha = hashlib.sha256()
    count = 0
    for scheme in SCHEMES:
        for m, k in FUNCTIONAL_SHAPES:
            config = SystemConfig(antennas=m, devices=k, scheme=scheme)
            data = np.random.default_rng([m, k]).uniform(0.5, 2.0, (k, 2, partition(m).signal_dim))
            for function in FUNCTIONS:
                for snr_db in FUNCTIONAL_SNRS:
                    estimate = run_functional_trial(config, function, data, snr_db=snr_db)
                    sha.update(estimate.tobytes())
                    count += 1
    return sha.hexdigest(), count


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1, help="worker processes per sweep")
    parser.add_argument("--bodies", type=Path,
                        help="also write the (config, body) pairs here as JSON")
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be positive")
    workloads.use_checkout_source()
    hexdigest, pairs = digest(args.workers)
    print(f"{hexdigest}  {len(pairs)} sweeps, {args.workers} worker(s)")
    if args.bodies is not None:
        args.bodies.write_text(json.dumps(pairs, indent=1) + "\n", encoding="utf-8")
    hexdigest, count = functional_digest()
    print(f"{hexdigest}  {count} functional trials")


if __name__ == "__main__":
    main()
