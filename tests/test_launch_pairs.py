import importlib.util
import re
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


def test_summary_in_milliseconds(launch_pairs, monkeypatch, capsys):
    # Seconds per launch of each checkout, its untimed first launch first.
    times = {"a": iter([1.0, 0.100, 0.104, 0.098, 0.110]),
             "b": iter([1.0, 0.090, 0.105, 0.080, 0.100])}
    monkeypatch.setattr(launch_pairs, "launch",
                        lambda checkout, env: (next(times[str(checkout)]), True))
    assert launch_pairs.main(["--parent", "a", "--change", "b", "--launches", "4"]) == 0
    assert capsys.readouterr().out == (
        "launch_ms (ms, lower is better): parent 102 (quartiles 99.5-105.5, range 98-110) "
        "-> change 95 (quartiles 87.5-101.25, range 80-105), -6.9%, "
        "change better in 3 of 4 pairs; per pair -10.0%, +1.0%, -18.4%, -9.1%\n")


def test_reads_the_benchmark_environment(launch_pairs):
    assert launch_pairs.blas_env()["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("code, status", [(0, 0), (3, 1)])
def test_main_on_stub_checkouts(launch_pairs, tmp_path, capsys, code, status):
    parent = stub_checkout(tmp_path / "a")
    change = stub_checkout(tmp_path / "b", code)
    assert launch_pairs.main(["--parent", str(parent), "--change", str(change),
                              "--launches", "2"]) == status
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and out[0].startswith("launch_ms (ms, lower is better): parent ")
    assert re.search(r" of 2 pairs; per pair [+-]\d+\.\d%, [+-]\d+\.\d%$", out[0]), out[0]
