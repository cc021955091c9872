"""Alternating start-up launches of two checkouts, summarised as launch wall times.

    python3 tools/launch_pairs.py --parent ../base --change . --launches 40

Each pair launches `python -m aircomp_sia --version` once from each
checkout's root, with that checkout's src/ first on PYTHONPATH and the
BLAS thread pins of benchmarks/workloads.py, the environment in which
benchmarks/run.py times its set-up: the parent first in even pairs, the
change first in odd ones. One untimed launch per checkout fills the
bytecode cache first. The summary gives both sides' medians, quartiles
and ranges in milliseconds, the change of the median in percent, and the
pairs in which the change started faster. The exit status is 1 when any
launch exits non-zero or does not print the tool's name.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from ab_pairs import ROOT, _stats

COMMAND = [sys.executable, "-m", "aircomp_sia", "--version"]


def blas_env():
    """The benchmark's BLAS thread pins, read from its workloads module."""
    path = ROOT / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BLAS_ENV


def launch(checkout, env):
    """Wall seconds of one launch in `checkout`, and whether it succeeded."""
    src = str(Path(checkout).resolve() / "src")
    env = dict(env, PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    start = perf_counter()
    done = subprocess.run(COMMAND, cwd=checkout, env=env, capture_output=True, text=True)
    elapsed = perf_counter() - start
    return elapsed, done.returncode == 0 and "aircomp" in done.stdout


def summarise(pairs):
    """Both sides' statistics in ms, the median's change in percent and the
    pairs where the change was strictly faster, from (parent, change) seconds."""
    parent = _stats([1e3 * p for p, _ in pairs])
    change = _stats([1e3 * c for _, c in pairs])
    return {"pairs": len(pairs), "wins": sum(c < p for p, c in pairs), "parent": parent,
            "change": change, "change_pct": 100.0 * (change["median"] / parent["median"] - 1.0)}


def format_summary(row):
    def side(stats):
        return (f"{stats['median']:.1f} ms (quartiles {stats['q1']:.1f}-{stats['q3']:.1f}, "
                f"range {stats['min']:.1f}-{stats['max']:.1f})")

    return (f"launch: parent {side(row['parent'])} -> change {side(row['change'])}, "
            f"{row['change_pct']:+.1f}%, change faster in {row['wins']} of {row['pairs']} pairs")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="root of the changed checkout")
    parser.add_argument("--launches", type=int, default=40, help="timed launches per checkout")
    args = parser.parse_args(argv)
    if args.launches < 1:
        parser.error("--launches must be at least 1")

    env = dict(os.environ, **blas_env())
    ok = all(launch(checkout, env)[1] for checkout in (args.parent, args.change))
    pairs = []
    for i in range(args.launches):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        times = {}
        for name in order:
            times[name], good = launch(getattr(args, name), env)
            ok &= good
        pairs.append((times["parent"], times["change"]))
    print(format_summary(summarise(pairs)))
    if not ok:
        print("launch_pairs: a launch exited non-zero or did not print the tool's name",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
