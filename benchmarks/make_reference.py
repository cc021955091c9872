"""Regenerate the stored reference CSV bodies, one JSON file per workload.

    python3 benchmarks/make_reference.py

Each file maps a seed to the CSV body a 1-worker sweep of the workload
writes. The benchmark compares every sweep of a stored seed against it
(gate.compare_to_reference). Regenerating is a change to the benchmark:
do it only together with a declared change of results.
"""

from __future__ import annotations

import io
import json

import workloads
from gate import csv_body


def main():
    workloads.use_checkout_source()
    from aircomp_sia.engine import run_sweep
    from aircomp_sia.output import RunManifest, write_result_csv

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        bodies = {}
        for seed in workloads.REFERENCE_SEEDS:
            config = workloads.make_config(name, seed)
            text = io.StringIO()
            write_result_csv(run_sweep(config, 1), RunManifest.create("run", config.to_flat()), text)
            bodies[str(seed)] = csv_body(text.getvalue())
        path = workloads.REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "config": workloads.WORKLOADS[name]["config"],
                       "bodies": bodies}, fh, indent=1)
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
