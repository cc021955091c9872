import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "body_deviation.py"
_spec = importlib.util.spec_from_file_location("body_deviation", TOOL)
body_deviation = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(body_deviation)

HEADER = "scheme,M,K,snr_db,trials,nmse_mean,nmse_median,leakage_mean,aligned_rank\n"


def sweep(scheme, nmse, leakage, rank=1, seed="0"):
    rows = "".join(f"{scheme},2,1,{snr},3,{value},{value},{leakage},{rank}\n"
                   for snr, value in zip((0, 10), nmse))
    return {"config": {"scheme": scheme, "seed": seed}, "body": HEADER + rows}


def dump(tmp_path, name, pairs):
    path = tmp_path / name
    path.write_text(json.dumps(pairs), encoding="utf-8")
    return str(path)


BASE = [sweep("sia", (1.0, 0.1), 1e-31), sweep("no_ia", (2.0, 0.5), 0.25)]


def test_identical_dumps_report_zero(tmp_path, capsys):
    a = dump(tmp_path, "a.json", BASE)
    assert body_deviation.main([a, a]) == 0
    out = capsys.readouterr().out
    assert "changed body lines: 0 of 6" in out
    assert "gate problems: 0" in out


def test_largest_deviation_per_scheme_and_column(tmp_path, capsys):
    changed = [sweep("sia", (1.0 + 3e-12, 0.1), 4e-31), BASE[1]]
    a, b = dump(tmp_path, "a.json", BASE), dump(tmp_path, "b.json", changed)
    assert body_deviation.main([a, b]) == 0
    largest, lines, total, problems = body_deviation.compare(BASE, changed)
    assert largest["sia"]["nmse_mean"] == pytest.approx(3e-12, rel=1e-3)
    assert largest["sia"]["leakage_mean"] == pytest.approx(3e-31)
    assert largest["no_ia"]["nmse_mean"] == 0.0
    assert (lines, total, problems) == (2, 6, [])
    assert "sia     leakage_mean   3e-31 absolute" in capsys.readouterr().out


@pytest.mark.parametrize("changed", [
    [sweep("sia", (1.0 + 1e-6, 0.1), 1e-31), BASE[1]],   # beyond rtol 1e-9
    [sweep("sia", (1.0, 0.1), 1e-31, rank=2), BASE[1]],  # an integer cell
    [sweep("sia", (1.0, 0.1), 1e-19), BASE[1]],          # leakage beyond 1e-20
])
def test_gate_problem_fails(tmp_path, capsys, changed):
    a, b = dump(tmp_path, "a.json", BASE), dump(tmp_path, "b.json", changed)
    assert body_deviation.main([a, b]) == 1
    out = capsys.readouterr().out
    assert "gate problems: 0" not in out and "reference" in out


@pytest.mark.parametrize("other", [
    BASE[:1], BASE[::-1], [BASE[0], sweep("no_ia", (2.0, 0.5), 0.25, seed="1")],
])
def test_mismatched_configs_fail(tmp_path, capsys, other):
    a, b = dump(tmp_path, "a.json", BASE), dump(tmp_path, "b.json", other)
    assert body_deviation.main([a, b]) == 1
    assert "config lists differ" in capsys.readouterr().out
