"""Largest deviation between two sets of CSV bodies, per scheme and column.

    python3 tools/body_digest.py --bodies parent.json   # in the parent checkout
    python3 tools/body_digest.py --bodies change.json   # in the changed one
    python3 tools/body_deviation.py parent.json change.json

Both files are `body_digest.py --bodies` dumps: JSON lists of
{"config": flat config, "body": CSV body}. For every scheme and float
column the report gives the largest deviation of B from A over all rows,
relative to A, but absolute for leakage_mean (its values are rounding
noise near 1e-31 on sia). It then counts the body lines that changed, and
compares every B body with its A body through benchmarks/gate.py's
compare_to_reference (rtol 1e-9, leakage to 1e-20 absolute, integer and
text cells exact). The exit status is 1 when the two files do not list
the same configs in the same order, or when any pair fails that gate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from gate import (  # noqa: E402
    ABS_TOL_COLUMNS,
    INT_COLUMNS,
    TEXT_COLUMNS,
    body_rows,
    compare_to_reference,
)


def _deviation(column, a, b):
    if a == b:
        return 0.0
    if column in ABS_TOL_COLUMNS:
        return abs(b - a)
    return abs(b - a) / abs(a) if a != 0.0 else math.inf


def compare(pairs_a, pairs_b):
    """(largest deviations {scheme: {column: value}}, changed body lines,
    total body lines of A, gate problems) of two dumps with equal configs."""
    largest = {}
    changed = total = 0
    problems = []
    for index, (a, b) in enumerate(zip(pairs_a, pairs_b)):
        lines_a, lines_b = a["body"].splitlines(), b["body"].splitlines()
        total += len(lines_a)
        changed += sum(x != y for x, y in zip(lines_a, lines_b)) + abs(len(lines_a) - len(lines_b))
        problems += [f"sweep {index} {a['config']}: {p}"
                     for p in compare_to_reference(b["body"], a["body"])]
        columns = largest.setdefault(a["config"]["scheme"], {})
        for row_a, row_b in zip(body_rows(a["body"]), body_rows(b["body"])):
            for column, value in row_a.items():
                if column in TEXT_COLUMNS or column in INT_COLUMNS or column not in row_b:
                    continue
                dev = _deviation(column, float(value), float(row_b[column]))
                columns[column] = max(columns.get(column, 0.0), dev)
    return largest, changed, total, problems


def report(largest, changed, total, problems):
    """The report's lines."""
    lines = [f"{'scheme':<7} {'column':<14} largest deviation"]
    for scheme, columns in largest.items():
        for column, dev in columns.items():
            kind = "absolute" if column in ABS_TOL_COLUMNS else "relative"
            lines.append(f"{scheme:<7} {column:<14} {dev:.2g} {kind}")
    lines.append(f"changed body lines: {changed} of {total}")
    lines.append(f"gate problems: {len(problems)}")
    lines += problems
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="body_digest.py --bodies dump, the baseline")
    parser.add_argument("b", type=Path, help="body_digest.py --bodies dump to compare with it")
    args = parser.parse_args(argv)
    pairs_a, pairs_b = (json.loads(p.read_text(encoding="utf-8")) for p in (args.a, args.b))
    if [p["config"] for p in pairs_a] != [p["config"] for p in pairs_b]:
        print(f"config lists differ: {len(pairs_a)} sweeps in {args.a}, "
              f"{len(pairs_b)} in {args.b}, or the same count in another order")
        return 1
    largest, changed, total, problems = compare(pairs_a, pairs_b)
    print("\n".join(report(largest, changed, total, problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
