import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aircomp_sia.baselines import (
    build_no_ia_precoders,
    efficiency_report,
    genie_channels,
)
from aircomp_sia.engine import run_trials
from aircomp_sia.errors import ConfigError
from aircomp_sia.sia import build_aggregation_beamformers, build_reference_matrices
from aircomp_sia.system import Partition, SystemConfig, draw_channels, partition


class TestArraySizes:
    """The array a scheme needs for its streams is M = streams / efficiency
    on its comparison row: streams * (K + 1) for conventional IA, and
    2 * streams for sia, whatever K is."""

    @pytest.mark.parametrize("streams,devices,expected", [
        (1, 1, 2),
        (2, 4, 10),
        (3, 2, 9),
        (1, 100, 101),
    ])
    def test_conventional(self, streams, devices, expected):
        rep = efficiency_report("conventional_ia", expected, devices)
        assert rep.streams == streams
        assert rep.streams / rep.efficiency == expected

    @pytest.mark.parametrize("streams,expected", [(1, 2), (2, 4), (7, 14)])
    def test_sia(self, streams, expected):
        for devices in (1, 5, 50):
            rep = efficiency_report("sia", expected, devices)
            assert rep.streams == streams
            assert rep.streams / rep.efficiency == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            efficiency_report("conventional_ia", 0, 3)
        with pytest.raises(ValueError):
            efficiency_report("conventional_ia", 3, 0)
        with pytest.raises(ValueError):
            efficiency_report("sia", 0, 1)

    @given(st.integers(1, 50), st.integers(1, 200))
    def test_conventional_grows_with_devices(self, streams, devices):
        smaller = efficiency_report("conventional_ia", streams * (devices + 1), devices)
        larger = efficiency_report("conventional_ia", streams * (devices + 2), devices + 1)
        assert smaller.streams == larger.streams == streams
        assert (larger.streams / larger.efficiency
                == smaller.streams / smaller.efficiency + streams)


class TestEfficiency:
    @pytest.mark.parametrize("devices,expected", [
        (1, Fraction(1, 2)),
        (3, Fraction(1, 4)),
        (9, Fraction(1, 10)),
    ])
    def test_conventional_fraction(self, devices, expected):
        assert efficiency_report("conventional_ia", 8, devices).efficiency == expected

    def test_conventional_ignores_antennas(self):
        assert (efficiency_report("conventional_ia", 4, 3).efficiency
                == efficiency_report("conventional_ia", 40, 3).efficiency)

    @pytest.mark.parametrize("antennas,expected", [
        (2, Fraction(1, 2)),
        (4, Fraction(1, 2)),
        (64, Fraction(1, 2)),
        (3, Fraction(1, 3)),
        (5, Fraction(2, 5)),
        (7, Fraction(3, 7)),
    ])
    def test_sia_fraction(self, antennas, expected):
        assert efficiency_report("sia", antennas, 1).efficiency == expected

    def test_sia_odd_formula(self):
        for m in range(3, 64, 2):
            got = efficiency_report("sia", m, 1).efficiency
            assert got == Fraction(1, 2) - Fraction(1, 2 * m)

    @given(st.integers(1, 500))
    def test_conventional_shrinks_with_devices(self, devices):
        a = efficiency_report("conventional_ia", 6, devices).efficiency
        b = efficiency_report("conventional_ia", 6, devices + 1).efficiency
        assert b < a

    @given(st.integers(1, 32), st.integers(1, 100))
    def test_sia_independent_of_devices(self, half, devices):
        m = 2 * half
        assert efficiency_report("sia", m, devices).efficiency == Fraction(1, 2)

    def test_rejects_unknown_scheme_and_small_arrays(self):
        with pytest.raises(ValueError):
            efficiency_report("mrc", 4, 1).efficiency
        with pytest.raises(ValueError):
            efficiency_report("sia", 1, 1).efficiency


def max_min_splits(antennas):
    """Brute force over every split m1 + m2 = M of the receive space: the
    largest min(m1, m2) and the splits (m1, m2) that attain it."""
    splits = [(m1, antennas - m1) for m1 in range(1, antennas)]
    best = max(min(split) for split in splits)
    return best, {split for split in splits if min(split) == best}


class TestOptimalPartition:
    """partition() is the balanced split, which attains the brute-force
    max-min signal dimension."""

    @pytest.mark.parametrize("antennas,expected", [
        (2, (1, 1, 1)),
        (4, (2, 2, 2)),
        (5, (2, 3, 2)),
        (7, (3, 4, 3)),
        (8, (4, 4, 4)),
    ])
    def test_examples(self, antennas, expected):
        part = partition(antennas)
        best, splits = max_min_splits(antennas)
        assert (part.signal_dim, part.interference_dim, best) == expected
        assert (part.signal_dim, part.interference_dim) in splits

    def test_matches_floor_rule(self):
        for m in range(2, 65):
            part = partition(m)
            best, splits = max_min_splits(m)
            assert part.signal_dim + part.interference_dim == m
            assert best == m // 2
            assert best == part.signal_dim
            assert (part.signal_dim, part.interference_dim) in splits

    def test_rejects_single_antenna(self):
        # One antenna has no split: no signal dimension is left, and a
        # configuration with M = 1 is refused.
        assert partition(1) == Partition(0, 1)
        with pytest.raises(ConfigError):
            SystemConfig(antennas=1, devices=1)


class TestConventionalPartition:
    """Conventional IA splits M receive dimensions into K * M / (K + 1) for
    signal and M / (K + 1) for interference; the per-user streams on its
    comparison row are the interference share."""

    def test_integral_case(self):
        rep = efficiency_report("conventional_ia", 6, 2)
        assert (rep.devices * rep.streams, rep.streams) == (Fraction(4), Fraction(2))
        assert rep.streams.denominator == 1

    def test_fractional_case(self):
        rep = efficiency_report("conventional_ia", 5, 2)
        assert rep.devices * rep.streams == Fraction(10, 3)
        assert rep.streams == Fraction(5, 3)
        assert rep.streams.denominator != 1

    @given(st.integers(2, 64), st.integers(1, 50))
    def test_dims_sum_to_array_size(self, antennas, devices):
        rep = efficiency_report("conventional_ia", antennas, devices)
        assert devices * rep.streams + rep.streams == antennas


class TestEfficiencyReport:
    def test_rejects_with_config_error(self):
        for args in (("mrc", 4, 1), ("sia", 1, 1), ("conventional_ia", 4, 0)):
            with pytest.raises(ConfigError):
                efficiency_report(*args)

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
        reference = build_reference_matrices(4, rng)
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
        result = run_trials(cfg, [0], [math.inf])
        assert np.all(np.sqrt(result.nmse) < 1e-9)
        assert np.all(result.leakage < 1e-12)
