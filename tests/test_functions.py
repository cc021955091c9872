import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aircomp_sia.engine import run_functional_trial
from aircomp_sia.errors import DomainError
from aircomp_sia.functions import FunctionSpec, postprocess, preprocess
from aircomp_sia.system import SystemConfig


class TestFunctionSpec:
    def test_valid(self):
        spec = FunctionSpec("geomean", 4)
        assert spec.kind == "geomean"
        assert spec.devices == 4

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            FunctionSpec("max", 2)

    def test_rejects_nonpositive_devices(self):
        with pytest.raises(DomainError):
            FunctionSpec("sum", 0)


class TestPreprocess:
    def test_sum_and_mean_pass_through(self):
        data = np.array([2.0, 4.0])
        for kind in ("sum", "mean"):
            out = preprocess(FunctionSpec(kind, 2), data)
            assert out.dtype == np.complex128
            assert np.array_equal(out, np.array([2 + 0j, 4 + 0j]))

    def test_geomean_takes_log(self):
        data = np.array([1.0, np.e, np.e**2])
        out = preprocess(FunctionSpec("geomean", 3), data)
        assert np.allclose(out, np.array([0.0, 1.0, 2.0]), atol=1e-12)

    def test_geomean_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            preprocess(FunctionSpec("geomean", 2), np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            preprocess(FunctionSpec("geomean", 2), np.array([1.0, -3.0]))

    def test_rejects_nonfinite(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(DomainError, match="finite"):
                preprocess(FunctionSpec("sum", 2), np.array([1.0, bad]))
        cfg = SystemConfig(antennas=2, devices=1, snr_db_grid=(0.0,), trials=1)
        with pytest.raises(DomainError, match="finite"):
            run_functional_trial(cfg, "sum", np.full((1, 2, 1), np.inf))


class TestPostprocess:
    def test_sum_returns_real_aggregate(self):
        got = postprocess(FunctionSpec("sum", 3), np.array([6.0 + 1e-12j]))
        assert np.allclose(got, 6.0)
        assert got.dtype == np.float64

    def test_mean_divides_by_devices(self):
        got = postprocess(FunctionSpec("mean", 4), np.array([6.0 + 0j]))
        assert np.allclose(got, 1.5)

    def test_geomean_hand_case(self):
        # Two devices holding 1 and 8: geometric mean is 2*sqrt(2).
        aggregate = np.array([np.log(1.0) + np.log(8.0) + 0j])
        got = postprocess(FunctionSpec("geomean", 2), aggregate)
        assert np.allclose(got, 2 * np.sqrt(2), atol=1e-12)


class TestRoundTrip:
    @pytest.mark.parametrize("devices", [1, 3, 10])
    @pytest.mark.parametrize("kind", ["sum", "mean", "geomean"])
    def test_lossless_aggregation(self, kind, devices):
        rng = np.random.default_rng(devices)
        data = rng.uniform(0.5, 3.0, size=(devices, 6))
        spec = FunctionSpec(kind, devices)
        aggregate = np.sum([preprocess(spec, row) for row in data], axis=0)
        got = postprocess(spec, aggregate)
        if kind == "sum":
            want = data.sum(axis=0)
        elif kind == "mean":
            want = data.mean(axis=0)
        else:
            want = np.prod(data, axis=0) ** (1.0 / devices)
        assert np.allclose(got, want, rtol=1e-10)

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=8))
    def test_geomean_matches_direct_product(self, values):
        data = np.array(values)[:, None]
        spec = FunctionSpec("geomean", len(values))
        aggregate = np.sum([preprocess(spec, row) for row in data], axis=0)
        got = postprocess(spec, aggregate)
        want = np.prod(data[:, 0]) ** (1.0 / len(values))
        assert np.allclose(got, want, rtol=1e-9)
