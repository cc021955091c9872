import functools
import importlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aircomp_sia
from aircomp_sia.engine import run_sweep
from aircomp_sia.output import RunManifest, write_result_csv


def test_all_is_unique_and_resolves():
    names = aircomp_sia.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(aircomp_sia, name)]
    assert missing == []


def _fresh(code):
    """Standard output words of `code` run in a new interpreter that imports
    this package from where the tests import it."""
    src = os.path.dirname(os.path.dirname(aircomp_sia.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=path))
    return done.stdout.split()


# Modules `aircomp --version` needs none of, with their import cost here:
# numpy.random about 17 ms; the process pool's machinery 17 ms and 2 MiB;
# fractions with decimal 3 ms; json 2 ms. Each loads at its first use.
DEFERRED = ["numpy.random", "multiprocessing", "concurrent.futures.process", "fractions",
            "decimal", "json", "csv", "tempfile"]
_LOADED = "import sys, {}; print(*(name in sys.modules for name in %r))" % (DEFERRED,)


@functools.cache
def _loaded(module):
    """Whether each DEFERRED module is loaded after a fresh `import module`."""
    return dict(zip(DEFERRED, _fresh(_LOADED.format(module))))


@pytest.mark.parametrize("name", DEFERRED)
def test_import_leaves_module_unloaded(name):
    if _loaded("numpy")[name] == "True":
        pytest.skip(f"a bare `import numpy` loads {name} here")
    assert _loaded("aircomp_sia.cli")[name] == "False"


def test_one_worker_sweep_leaves_the_pool_unloaded():
    code = """
import sys
from aircomp_sia import SystemConfig, run_sweep
run_sweep(SystemConfig(antennas=2, devices=1, trials=4), workers=1)
print('multiprocessing' in sys.modules)
"""
    assert _fresh(code) == ["False"]


def test_sweeps_take_no_masked_arrays_and_m2_no_lapack_qr_or_lstsq():
    # np.median's first call imports numpy.ma, and np.polyfit runs lstsq;
    # a sweep reduces without either. At M = 2 every QR is closed-form.
    code = """
import sys
import numpy
eager = 'numpy.ma' in sys.modules
from aircomp_sia import SystemConfig
from aircomp_sia.engine import run_sweep
seen = set()
def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_name in ("qr", "lstsq"):
        seen.add(frame.f_code.co_name)
sys.setprofile(profile)
run_sweep(SystemConfig(antennas=2, devices=1, trials=20), workers=1)
sys.setprofile(None)
run_sweep(SystemConfig(antennas=4, devices=2, trials=20), workers=1)
print(len(seen), eager, 'numpy.ma' in sys.modules)
"""
    lapack_calls, eager, masked = _fresh(code)
    assert lapack_calls == "0"
    if eager == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert masked == "False"


def _benchmark_module(monkeypatch, name):
    """benchmarks/<name>.py, loaded by path without writing bytecode."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


# Tracer targets whose function left the package on purpose: both
# alignment bases now come from sia.build_reference_matrices, whose layer
# covers them, and the symbols from system.draw_trials, which draws a
# chunk's every first value and is not traced. The tracer reports them
# absent until the benchmark drops them; this list is emptied then.
REMOVED_TARGETS = [("aircomp_sia.engine", "draw_symbols"),
                   ("aircomp_sia.engine", "build_aggregation_beamformers"),
                   ("aircomp_sia.sia", "build_aggregation_beamformers")]


def test_benchmark_tracer_targets_resolve(monkeypatch):
    # The benchmark wraps these names from outside the package; one renamed
    # or moved away drops its layer from every traced run.
    tracer = _benchmark_module(monkeypatch, "tracer")
    absent = [(module, attr) for module, attr, _, _ in tracer.TARGETS
              if not hasattr(importlib.import_module(module), attr)]
    assert tracer.TARGETS and absent == REMOVED_TARGETS


@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_reference_bodies(monkeypatch, seed):
    # Every benchmark workload's sweep matches its stored reference body,
    # as the benchmark's gate compares them, so a change to any stream's
    # values fails here and not only in a benchmark run.
    workloads = _benchmark_module(monkeypatch, "workloads")
    gate = _benchmark_module(monkeypatch, "gate")
    for name in workloads.WORKLOADS:
        config = workloads.make_config(name, seed)
        result = run_sweep(config, workers=1)
        text = io.StringIO()
        write_result_csv(result, RunManifest.create("run", config.to_flat()), text)
        reference = workloads.load_reference(name, seed)
        assert reference is not None, name
        assert gate.compare_to_reference(gate.csv_body(text.getvalue()), reference) == [], name
