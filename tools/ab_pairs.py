"""Alternating benchmark pairs of two checkouts, summarised per end-to-end metric.

    python3 tools/ab_pairs.py --parent ../base --change . --workload small_dense \\
        --pairs 6 --seconds 12 [--seed 0]

Each pair runs `benchmarks/run.py --workload W --seconds S --trace 0
--seed K` once in each checkout, from that checkout's root: the parent
first in even pairs, the change first in odd ones, so neither side always
runs on a warmer machine. The last line of each run's standard output is
its result object. For every end-to-end metric that BENCHMARK.json (next
to this tool) declares, the summary gives both sides' medians, quartiles
and ranges, the change of the median in percent, and the pairs in which
the change did better in the metric's declared direction. The exit status
is 1 when any run exits non-zero or does not report "correct": true.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_spec(path=ROOT / "BENCHMARK.json"):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def run_once(checkout, workload, seconds, seed):
    """One benchmark run in `checkout`: (its result object or None, ok)."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload,
               "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, False
    return result, done.returncode == 0 and result.get("correct") is True


def _values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def _stats(values):
    """Median, quartiles (numpy's default linear method) and range."""
    ordered = sorted(values)

    def quantile(q):
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return {"median": statistics.median(ordered), "q1": quantile(0.25), "q3": quantile(0.75),
            "min": ordered[0], "max": ordered[-1]}


def summarise(spec, pairs):
    """One row per declared metric from `pairs`, a list of (parent, change)
    metric dicts {name: value}; a side without the metric is left out of
    its medians and of the wins. Wins count the pairs where the change is
    strictly better in the metric's `better` direction."""
    rows = []
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        row = {"name": name, "unit": metric["unit"], "better": metric["better"],
               "pairs": len(both), "wins": sum((c > p) if higher else (c < p) for p, c in both)}
        for side, values in (("parent", [p for p, _ in both]), ("change", [c for _, c in both])):
            row[side] = _stats(values) if values else None
        if row["parent"] and row["change"] and row["parent"]["median"] != 0:
            row["change_pct"] = 100.0 * (row["change"]["median"] / row["parent"]["median"] - 1.0)
        else:
            row["change_pct"] = None
        rows.append(row)
    return rows


def format_summary(rows):
    def side(stats):
        if stats is None:
            return "n/a"
        return (f"{stats['median']:.6g} (quartiles {stats['q1']:.6g}-{stats['q3']:.6g}, "
                f"range {stats['min']:.6g}-{stats['max']:.6g})")

    lines = []
    for row in rows:
        pct = "n/a" if row["change_pct"] is None else f"{row['change_pct']:+.1f}%"
        lines.append(f"{row['name']} ({row['unit']}, {row['better']} is better): "
                     f"parent {side(row['parent'])} -> change {side(row['change'])}, {pct}, "
                     f"change better in {row['wins']} of {row['pairs']} pairs")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True, help="one benchmark workload, not 'all'")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        parser.error("--workload takes one workload")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = end_to_end_spec()
    pairs, ok = [], True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for name in order:
            result, good = run_once(getattr(args, name), args.workload, args.seconds, args.seed)
            ok &= good
            got[name] = result
            values = "" if result is None else json.dumps(_values(result), sort_keys=True)
            print(f"pair {i} {name}: {'ok' if good else 'FAILED'} {values}", flush=True)
        if got["parent"] is not None and got["change"] is not None:
            pairs.append((_values(got["parent"]), _values(got["change"])))
    for line in format_summary(summarise(spec, pairs)):
        print(line)
    if not ok:
        print("ab_pairs: a run exited non-zero or did not report \"correct\": true",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
