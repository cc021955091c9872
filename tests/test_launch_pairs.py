import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def launch_pairs():
    """tools/launch_pairs.py, which imports its neighbour ab_pairs."""
    sys.path.insert(0, str(TOOLS))
    try:
        spec = importlib.util.spec_from_file_location("launch_pairs", TOOLS / "launch_pairs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(TOOLS))
    return module


def stub_checkout(root, code=0):
    """A checkout whose `python -m aircomp_sia --version` prints a version
    line and exits with `code`."""
    package = root / "src" / "aircomp_sia"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(f"import sys\nprint('aircomp 0.0')\nsys.exit({code})\n")
    return root


def test_summary_in_milliseconds(launch_pairs):
    pairs = [(0.100, 0.090), (0.104, 0.105), (0.098, 0.080), (0.110, 0.100)]
    row = launch_pairs.summarise(pairs)
    assert row["parent"] == pytest.approx({"median": 102.0, "q1": 99.5, "q3": 105.5,
                                           "min": 98.0, "max": 110.0})
    assert row["change"]["median"] == pytest.approx(95.0)
    assert row["change_pct"] == pytest.approx(100.0 * (95.0 / 102.0 - 1.0))
    assert (row["wins"], row["pairs"]) == (3, 4)
    line = launch_pairs.format_summary(row)
    assert line.startswith("launch: parent 102.0 ms (quartiles 99.5-105.5, range 98.0-110.0)")
    assert line.endswith("-6.9%, change faster in 3 of 4 pairs")


def test_reads_the_benchmark_environment(launch_pairs):
    assert launch_pairs.blas_env()["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("code, status", [(0, 0), (3, 1)])
def test_main_on_stub_checkouts(launch_pairs, tmp_path, capsys, code, status):
    parent = stub_checkout(tmp_path / "a")
    change = stub_checkout(tmp_path / "b", code)
    assert launch_pairs.main(["--parent", str(parent), "--change", str(change),
                              "--launches", "2"]) == status
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("launch: parent ")
    assert out[0].endswith(" of 2 pairs")
