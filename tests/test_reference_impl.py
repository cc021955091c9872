"""Differential test of `run_trials` against the textbook trial in
reference_impl.py, trial by trial."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircomp_sia.engine import RESIDUAL_BOUND, run_trials
from aircomp_sia.system import SCHEMES, SystemConfig

from reference_impl import reference_trial

GRID = (0.0, 20.0, 40.0)
TRIALS = 6
SEED = 1


# Every cell of the path table in `linalg`'s docstring has a case: the IA
# cross matrix in closed form at M = 2, 4 and by bound and solve at every
# other M; sia's square right inverse in closed form at M = 2, 4, 8 and by
# bound and inv at M = 6, 16; the wide right inverses' Grams in closed form
# at M = 3, 5, 9 (sia) and 2-5, 8, 9 (no_ia, genie), by bound and inv at
# M = 7 (sia) and 6, 7, 16 (no_ia, genie); the aligned-rank Gram in closed
# form up to r = 2 and by bound above it.
@pytest.mark.parametrize("scheme, m, k", [
    (scheme, m, k) for scheme in ("sia", "no_ia", "genie")
    for m, k in [(2, 1), (3, 2), (4, 5), (5, 3), (6, 2), (7, 2), (8, 2), (9, 2), (16, 5)]
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
        assert_matches_reference(config, result, t)


@settings(max_examples=25)
@given(scheme=st.sampled_from(SCHEMES), m=st.integers(2, 10), k=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_drawn_case_matches_reference(scheme, m, k, seed):
    # Any case, not only the table's: each trial that keeps its first set
    # agrees with the textbook trial, and each equals itself run alone.
    config = SystemConfig(antennas=m, devices=k, scheme=scheme, seed=seed, snr_db_grid=GRID)
    result = run_trials(config, range(3))
    for t in range(3):
        if not result.redraws[t]:
            assert_matches_reference(config, result, t)
        alone = run_trials(config, [t])
        for f in fields(alone):
            assert np.array_equal(getattr(result, f.name)[t], getattr(alone, f.name)[0]), f.name


def assert_matches_reference(config, result, t):
    want = reference_trial(config, t)
    nmse = result.err_power[t] / result.sig_power[t][:, None]
    np.testing.assert_allclose(nmse, want["nmse"], rtol=1e-9, atol=0)
    assert np.array_equal(result.aligned_rank[t], want["aligned_rank"])
    if config.scheme == "no_ia":
        np.testing.assert_allclose(result.leakage[t], want["leakage"], rtol=1e-9, atol=0)
        np.testing.assert_allclose(result.residual[t], want["residual"], rtol=1e-9, atol=0)
    else:
        assert result.leakage[t].max() <= 1e-20 and want["leakage"].max() <= 1e-20
        assert result.residual[t] <= RESIDUAL_BOUND and want["residual"] <= RESIDUAL_BOUND
