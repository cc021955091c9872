from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aircomp_sia.baselines import (
    ConventionalPartition,
    build_no_ia_precoders,
    communication_efficiency,
    conventional_ia_array_size,
    conventional_partition_dimensions,
    efficiency_report,
    genie_channels,
    optimal_partition_search,
    sia_array_size,
)
from aircomp_sia.engine import run_trial
from aircomp_sia.sia import build_aggregation_beamformers, build_reference_matrices
from aircomp_sia.system import SystemConfig, draw_channels, partition


class TestArraySizes:
    @pytest.mark.parametrize("streams,devices,expected", [
        (1, 1, 2),
        (2, 4, 10),
        (3, 2, 9),
        (1, 100, 101),
    ])
    def test_conventional(self, streams, devices, expected):
        assert conventional_ia_array_size(streams, devices) == expected

    @pytest.mark.parametrize("streams,expected", [(1, 2), (2, 4), (7, 14)])
    def test_sia(self, streams, expected):
        assert sia_array_size(streams) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            conventional_ia_array_size(0, 3)
        with pytest.raises(ValueError):
            conventional_ia_array_size(1, 0)
        with pytest.raises(ValueError):
            sia_array_size(0)

    @given(st.integers(1, 50), st.integers(1, 200))
    def test_conventional_grows_with_devices(self, streams, devices):
        smaller = conventional_ia_array_size(streams, devices)
        larger = conventional_ia_array_size(streams, devices + 1)
        assert larger == smaller + streams


class TestEfficiency:
    @pytest.mark.parametrize("devices,expected", [
        (1, Fraction(1, 2)),
        (3, Fraction(1, 4)),
        (9, Fraction(1, 10)),
    ])
    def test_conventional_fraction(self, devices, expected):
        assert communication_efficiency("conventional_ia", 8, devices) == expected

    def test_conventional_ignores_antennas(self):
        assert (communication_efficiency("conventional_ia", 4, 3)
                == communication_efficiency("conventional_ia", 40, 3))

    @pytest.mark.parametrize("antennas,expected", [
        (2, Fraction(1, 2)),
        (4, Fraction(1, 2)),
        (64, Fraction(1, 2)),
        (3, Fraction(1, 3)),
        (5, Fraction(2, 5)),
        (7, Fraction(3, 7)),
    ])
    def test_sia_fraction(self, antennas, expected):
        assert communication_efficiency("sia", antennas) == expected

    def test_sia_odd_formula(self):
        for m in range(3, 64, 2):
            got = communication_efficiency("sia", m)
            assert got == Fraction(1, 2) - Fraction(1, 2 * m)

    @given(st.integers(1, 500))
    def test_conventional_shrinks_with_devices(self, devices):
        a = communication_efficiency("conventional_ia", 6, devices)
        b = communication_efficiency("conventional_ia", 6, devices + 1)
        assert b < a

    @given(st.integers(1, 32), st.integers(1, 100))
    def test_sia_independent_of_devices(self, half, devices):
        m = 2 * half
        assert communication_efficiency("sia", m, devices) == Fraction(1, 2)

    def test_rejects_unknown_scheme_and_small_arrays(self):
        with pytest.raises(ValueError):
            communication_efficiency("mrc", 4)
        with pytest.raises(ValueError):
            communication_efficiency("sia", 1)


class TestOptimalPartition:
    @pytest.mark.parametrize("antennas,expected", [
        (2, (1, 1, 1)),
        (4, (2, 2, 2)),
        (5, (2, 3, 2)),
        (7, (3, 4, 3)),
        (8, (4, 4, 4)),
    ])
    def test_examples(self, antennas, expected):
        assert optimal_partition_search(antennas) == expected

    def test_matches_floor_rule(self):
        for m in range(2, 65):
            m1, m2, dof = optimal_partition_search(m)
            assert m1 + m2 == m
            assert dof == m // 2
            assert dof == partition(m).signal_dim

    def test_rejects_single_antenna(self):
        with pytest.raises(ValueError):
            optimal_partition_search(1)


class TestConventionalPartition:
    def test_integral_case(self):
        part = conventional_partition_dimensions(6, 2)
        assert part == ConventionalPartition(Fraction(4), Fraction(2), True)

    def test_fractional_case(self):
        part = conventional_partition_dimensions(5, 2)
        assert part.signal_dim == Fraction(10, 3)
        assert part.interference_dim == Fraction(5, 3)
        assert not part.integral

    @given(st.integers(2, 64), st.integers(1, 50))
    def test_dims_sum_to_array_size(self, antennas, devices):
        part = conventional_partition_dimensions(antennas, devices)
        assert part.signal_dim + part.interference_dim == antennas
        assert part.signal_dim == devices * part.interference_dim


class TestEfficiencyReport:
    def test_sia_report(self):
        rep = efficiency_report("sia", 5, 3)
        assert rep.streams == Fraction(2)
        assert rep.efficiency == Fraction(2, 5)

    def test_conventional_report(self):
        rep = efficiency_report("conventional_ia", 8, 3)
        assert rep.streams == Fraction(2)
        assert rep.efficiency == Fraction(1, 4)

    def test_conventional_fractional_streams(self):
        rep = efficiency_report("conventional_ia", 5, 1)
        assert rep.streams == Fraction(5, 2)


class TestNoIaPrecoder:
    def test_inverts_direct_path(self):
        cfg = SystemConfig(antennas=4, devices=3, snr_db_grid=(0.0,), trials=1)
        rng = np.random.default_rng(1)
        part = partition(4)
        reference = build_reference_matrices(4, part.interference_dim, rng)
        beam = build_aggregation_beamformers(reference)
        channels = draw_channels(cfg, rng)
        stacked = build_no_ia_precoders(channels, beam)
        assert stacked.shape == (3, 2, 4, part.signal_dim)
        for k in range(3):
            for i in (0, 1):
                # Per-device oracle: zero-force the home link alone.
                single = np.linalg.pinv(beam[i] @ channels.direct[k, i])
                assert np.allclose(single, stacked[k, i], atol=1e-12)
                eff = beam[i] @ channels.direct[k, i] @ single
                assert np.linalg.norm(eff - np.eye(part.signal_dim)) < 1e-8


class TestGenieChannels:
    def test_zeroes_cross_only(self):
        cfg = SystemConfig(antennas=4, devices=2, snr_db_grid=(0.0,), trials=1)
        channels = draw_channels(cfg, np.random.default_rng(3))
        clean = genie_channels(channels)
        assert np.array_equal(clean.direct, channels.direct)
        assert np.all(clean.cross == 0)
        assert clean.redraws == channels.redraws

    def test_noiseless_recovery(self):
        cfg = SystemConfig(antennas=4, devices=3, snr_db_grid=(0.0,),
                           trials=1, scheme="genie")
        result = run_trial(cfg, 0)
        assert np.all(np.sqrt(result.nmse) < 1e-9)
        assert np.all(result.leakage < 1e-12)
