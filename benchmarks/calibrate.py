"""Machine-speed calibration for the timed metrics.

The machines the benchmark runs on may share their CPUs with other
tenants, whose load can move the speed by 30% and more over minutes (a
shared 2-vCPU Xeon VM timed a fixed pure-Python loop at 16 to 40 ms
within ten seconds). A median over one run cannot remove a shift that
lasts longer than the run, so every timed sweep runs between two bursts
of a fixed calibration kernel and its throughput is reported at the
reference speed: elapsed time times REFERENCE_S over the mean burst time.
On 5 runs the same VM measured the spread of the run medians (IQR
over median) at 4.3% scaled against 8.2% unscaled on small_dense, and
1.5% against 8.3% on many_devices. Set-up time is not scaled: a 0.25 s
interpreter launch tracked the bursts beside it too loosely to gain.
The kernel uses only the interpreter and numpy, never the program, so a
change to the program cannot move it. It mixes the work the sweeps do:
interpreted Python, many small numpy calls, and batched small SVDs.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Calibration kernel time that defines the reference speed: about the
# kernel's median on the 2-vCPU Xeon VM the benchmark was sized on.
REFERENCE_S = 0.005

_rng = np.random.default_rng(20010309)
_SMALL = _rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2))
_STACK = _rng.standard_normal((64, 4, 4)) + 1j * _rng.standard_normal((64, 4, 4))


def calibration_s():
    """Wall time of one run of the fixed calibration kernel."""
    start = perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += (i * 0.5) % 7
    for _ in range(200):
        np.linalg.svd(_SMALL, compute_uv=False)
        np.abs(_SMALL).sum()
    for _ in range(4):
        np.linalg.svd(_STACK, compute_uv=False)
    return perf_counter() - start


def calibrated(fn):
    """Run fn() between two calibration bursts.

    Returns (result, speed): speed is REFERENCE_S over the mean burst time,
    above 1 when the machine ran faster than the reference. A time t
    measured in fn reads t * speed at the reference speed.
    """
    before = calibration_s()
    result = fn()
    after = calibration_s()
    return result, 2.0 * REFERENCE_S / (before + after)
