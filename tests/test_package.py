import os
import subprocess
import sys

import pytest

import aircomp_sia


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


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs about 17 ms to import, and `aircomp --version`
    # needs none of it; streams import it at first use.
    eager, = _fresh("import sys, numpy; print('numpy.random' in sys.modules)")
    if eager == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    loaded, = _fresh("import sys, aircomp_sia; print('numpy.random' in sys.modules)")
    assert loaded == "False"
