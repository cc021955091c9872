import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

SPEC = [
    {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
    {"name": "scaling_eff", "unit": "ratio", "better": "higher", "bound": 0.25},
]


def run(trials_per_s, peak_rss_mib):
    return {"trials_per_s": trials_per_s, "peak_rss_mib": peak_rss_mib}


class TestSummarise:
    def test_medians_ranges_and_wins(self):
        pairs = [(run(100.0, 40.0), run(110.0, 40.0)),
                 (run(104.0, 41.0), run(103.0, 39.0)),
                 (run(98.0, 40.0), run(120.0, 42.0))]
        rows = {row["name"]: row for row in ab_pairs.summarise(SPEC, pairs)}
        speed = rows["trials_per_s"]
        assert speed["parent"] == {"median": 100.0, "q1": 99.0, "q3": 102.0,
                                   "min": 98.0, "max": 104.0}
        assert (speed["change"]["median"], speed["change"]["min"]) == (110.0, 103.0)
        assert speed["change_pct"] == pytest.approx(10.0)
        assert (speed["wins"], speed["pairs"]) == (2, 3)
        assert speed["pair_pct"] == pytest.approx([10.0, 100.0 * (103.0 / 104.0 - 1.0),
                                                   100.0 * (120.0 / 98.0 - 1.0)])
        # Lower is better, and a tie is no win.
        memory = rows["peak_rss_mib"]
        assert (memory["wins"], memory["pairs"]) == (1, 3)
        assert memory["change_pct"] == pytest.approx(0.0)

    def test_each_pair_is_printed(self):
        pairs = [(run(100.0, 40.0), run(110.0, 40.0)),
                 (run(104.0, 41.0), run(103.0, 39.0)),
                 (run(0.0, 40.0), run(120.0, 42.0))]
        lines = ab_pairs.format_summary(ab_pairs.summarise(SPEC[:2], pairs))
        assert lines[0].endswith(", +10.0%, change better in 2 of 3 pairs; "
                                 "per pair +10.0%, -1.0%, n/a")
        assert lines[1].endswith("change better in 1 of 3 pairs; per pair +0.0%, -4.9%, +5.0%")

    def test_missing_metric_is_left_out(self):
        rows = {row["name"]: row for row in ab_pairs.summarise(SPEC, [(run(1.0, 2.0),) * 2])}
        assert rows["scaling_eff"]["pairs"] == 0
        assert rows["scaling_eff"]["parent"] is None
        assert rows["scaling_eff"]["change_pct"] is None
        lines = ab_pairs.format_summary(ab_pairs.summarise(SPEC, [(run(1.0, 2.0),) * 2]))
        assert len(lines) == 3 and lines[2].endswith("n/a, change better in 0 of 0 pairs; "
                                                      "per pair n/a")

    def test_declared_metrics_are_read(self):
        names = [m["name"] for m in ab_pairs.end_to_end_spec()]
        assert "trials_per_s" in names and "peak_rss_mib" in names


def fake_checkout(root, correct, code=0):
    """A checkout whose benchmarks/run.py prints a fixed result object."""
    bench = root / "benchmarks"
    bench.mkdir(parents=True)
    result = {"correct": correct, "attempted": 1, "failed": 0 if correct else 1,
              "metrics": {"trials_per_s": {"value": 10.0, "unit": "1/s"}}}
    (bench / "run.py").write_text(
        f"import sys\nprint('report')\nprint({json.dumps(json.dumps(result))})\nsys.exit({code})\n")
    return root


class TestMain:
    def test_runs_alternate_and_pass(self, tmp_path, capsys):
        parent = fake_checkout(tmp_path / "a", True)
        change = fake_checkout(tmp_path / "b", True)
        code = ab_pairs.main(["--parent", str(parent), "--change", str(change),
                              "--workload", "small_dense", "--pairs", "2", "--seconds", "1"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [line.split(":")[0] for line in out[:4]] == [
            "pair 0 parent", "pair 0 change", "pair 1 change", "pair 1 parent"]
        assert out[4].endswith("change better in 0 of 2 pairs; per pair +0.0%, +0.0%")

    @pytest.mark.parametrize("correct, code", [(False, 0), (True, 3)])
    def test_failed_run_fails(self, tmp_path, capsys, correct, code):
        parent = fake_checkout(tmp_path / "a", True)
        change = fake_checkout(tmp_path / "b", correct, code)
        assert ab_pairs.main(["--parent", str(parent), "--change", str(change),
                              "--workload", "small_dense", "--pairs", "1"]) == 1
