"""Differential test of `run_trials` against the textbook trial in
reference_impl.py, trial by trial."""

import numpy as np
import pytest

from aircomp_sia.engine import RESIDUAL_BOUND, run_trials
from aircomp_sia.system import SystemConfig

from reference_impl import reference_trial

GRID = (0.0, 20.0, 40.0)
TRIALS = 6
SEED = 1


@pytest.mark.parametrize("scheme, m, k", [
    (scheme, m, k) for scheme in ("sia", "no_ia", "genie")
    for m, k in [(2, 1), (3, 2), (4, 5), (5, 3), (16, 5)]
] + [
    # The many_devices shape: sia's closed-form 2x2 inverses and the
    # aligned-rank certificate decide every trial there.
    ("sia", 4, 200),
])
def test_run_trials_matches_reference(scheme, m, k):
    config = SystemConfig(antennas=m, devices=k, scheme=scheme, seed=SEED, snr_db_grid=GRID)
    result = run_trials(config, range(TRIALS))
    assert not result.redraws.any()
    for t in range(TRIALS):
        want = reference_trial(config, t)
        np.testing.assert_allclose(result.nmse[t], want["nmse"], rtol=1e-9, atol=0)
        assert np.array_equal(result.aligned_rank[t], want["aligned_rank"])
        if scheme == "no_ia":
            np.testing.assert_allclose(result.leakage[t], want["leakage"], rtol=1e-9, atol=0)
            np.testing.assert_allclose(result.residual[t], want["residual"], rtol=1e-9, atol=0)
        else:
            assert result.leakage[t].max() <= 1e-20 and want["leakage"].max() <= 1e-20
            assert result.residual[t] <= RESIDUAL_BOUND and want["residual"] <= RESIDUAL_BOUND
