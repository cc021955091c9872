import numpy as np
import pytest

from aircomp_sia.errors import RankDeficient, SizeMismatch
from aircomp_sia.sia import (
    aligned_interference_dimension,
    build_aggregation_beamformers,
    build_reference_matrices,
    build_sia_matrices,
)
from aircomp_sia.system import (
    ChannelSet,
    SystemConfig,
    draw_channels,
    draw_symbols,
    partition,
    superpose,
)


def config_for(m, k, **kw):
    kw.setdefault("snr_db_grid", (0.0,))
    kw.setdefault("trials", 1)
    return SystemConfig(antennas=m, devices=k, **kw)


def sia_setup(m, k, seed=0):
    cfg = config_for(m, k)
    rng = np.random.default_rng(seed)
    part = partition(m)
    reference = build_reference_matrices(m, rng)
    channels = draw_channels(cfg, rng)
    matrices = build_sia_matrices(channels, reference)
    return cfg, rng, channels, matrices


def identity_reference(m, n):
    """Identity-column references for hand checks: the first n coordinates
    for cell 1, the last n for cell 2."""
    eye = np.eye(m, dtype=np.complex128)
    return np.stack([eye[:, :n], eye[:, m - n:]])


def precoder_oracle(device, cell, channels, beamformer, reference):
    """Per-device cascade, one matrix at a time: ia inverts the cross
    channel, sa right-inverts the effective channel, full = ia @ ref @ sa."""
    ia = np.linalg.inv(channels.cross[device, cell])
    effective = beamformer @ channels.direct[device, cell] @ ia @ reference
    sa = np.linalg.pinv(effective)
    return ia, sa, ia @ (reference @ sa)


class TestReferenceMatrices:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8])
    def test_shapes_and_orthonormal_columns(self, m):
        part = partition(m)
        ref = build_reference_matrices(m, np.random.default_rng(0))
        assert ref.shape == (2, m, part.interference_dim)
        for i in (0, 1):
            gram = ref[i].conj().T @ ref[i]
            assert np.allclose(gram, np.eye(part.interference_dim), atol=1e-10)

    def test_deterministic(self):
        a = build_reference_matrices(4, np.random.default_rng(9))
        b = build_reference_matrices(4, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_fixed_variant(self):
        # Hand check with identity-column references at odd M, where the two
        # cells' spans share coordinate 3: each beamformer keeps exactly the
        # coordinates outside the other cell's span.
        ref = identity_reference(5, 3)
        beam = build_aggregation_beamformers(ref)
        assert np.all(beam[0] @ ref[1] == 0)
        assert np.all(beam[1] @ ref[0] == 0)
        assert np.all(beam[0][:, 2:] == 0)
        assert np.all(beam[1][:, :3] == 0)
        assert np.allclose(beam[0] @ beam[0].conj().T, np.eye(2), atol=1e-14)


class TestAggregationBeamformers:
    def test_coordinate_case(self):
        # With reference subspaces on coordinate axes the beamformers pick
        # out the complementary coordinates exactly.
        eye = np.eye(4, dtype=complex)
        reference = np.stack([eye[:, 2:], eye[:, :2]])
        beam = build_aggregation_beamformers(reference)
        assert beam.shape == (2, 2, 4)
        assert np.all(beam[0] @ reference[1] == 0)
        assert np.all(beam[1] @ reference[0] == 0)
        assert np.all(beam[0][:, :2] == 0)  # cell 1 lives on coords 3,4

    @pytest.mark.parametrize("m", [2, 3, 6, 9])
    def test_annihilation_and_orthonormal_rows(self, m):
        part = partition(m)
        rng = np.random.default_rng(m)
        reference = build_reference_matrices(m, rng)
        beam = build_aggregation_beamformers(reference)
        assert beam.shape == (2, part.signal_dim, m)
        for i in (0, 1):
            other = reference[1 - i]
            assert np.abs(beam[i] @ other).max() <= 1e-10 * np.linalg.norm(other)
            assert np.allclose(beam[i] @ beam[i].conj().T,
                               np.eye(part.signal_dim), atol=1e-10)

    def test_bad_shape(self):
        with pytest.raises(SizeMismatch):
            build_aggregation_beamformers(np.zeros((3, 4, 2), dtype=complex))


class TestBuildPrecoder:
    """Per-device precoders of build_sia_matrices."""

    @pytest.mark.parametrize("m,k", [(2, 1), (4, 2), (5, 3)])
    def test_per_device_signal_alignment(self, m, k):
        cfg, rng, channels, mats = sia_setup(m, k, seed=m * 10 + k)
        dof = mats.beamformer.shape[1]
        for kk in range(k):
            for i in (0, 1):
                w = mats.precoder[kk, i]
                eff = mats.beamformer[i] @ channels.direct[kk, i] @ w
                assert np.linalg.norm(eff - np.eye(dof)) < 1e-8

    def test_matches_batched_construction(self):
        cfg, rng, channels, mats = sia_setup(5, 3, seed=4)
        for kk in range(3):
            for i in (0, 1):
                ia, sa, w = precoder_oracle(kk, i, channels, mats.beamformer[i],
                                            mats.reference[i])
                assert np.allclose(ia, mats.ia_component[kk, i], atol=1e-12)
                assert np.allclose(sa, mats.sa_component[kk, i],
                                   atol=1e-12 * np.linalg.norm(sa))
                assert np.allclose(w, mats.precoder[kk, i],
                                   atol=1e-12 * np.linalg.norm(w))

    def test_cascade_identity(self):
        # The full precoder is the literal product of its stages.
        cfg, rng, channels, mats = sia_setup(4, 2, seed=8)
        for kk in range(2):
            for i in (0, 1):
                product = mats.ia_component[kk, i] @ (
                    mats.reference[i] @ mats.sa_component[kk, i])
                assert np.array_equal(product, mats.precoder[kk, i])

    def test_swap_channels_degenerate(self):
        # A direct channel that maps one reference subspace onto the other
        # zeroes the effective channel, which must be caught.
        m = 2
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        direct = np.broadcast_to(swap, (1, 2, m, m)).copy()
        cross = np.broadcast_to(np.eye(m, dtype=complex), (1, 2, m, m)).copy()
        channels = ChannelSet(direct, cross)
        reference = identity_reference(m, 1)
        beam = build_aggregation_beamformers(reference)
        effective = beam[0] @ swap @ reference[0]
        assert np.all(effective == 0)
        with pytest.raises(RankDeficient):
            build_sia_matrices(channels, reference)


class TestSiaMatrices:
    @pytest.mark.parametrize("m,k", [(2, 1), (3, 2), (4, 3), (5, 2), (6, 4), (8, 2)])
    def test_shapes(self, m, k):
        cfg, rng, channels, mats = sia_setup(m, k, seed=m + k)
        part = partition(m)
        assert mats.reference.shape == (2, m, part.interference_dim)
        assert mats.beamformer.shape == (2, part.signal_dim, m)
        assert mats.ia_component.shape == (k, 2, m, m)
        assert mats.sa_component.shape == (k, 2, part.interference_dim, part.signal_dim)
        assert mats.precoder.shape == (k, 2, m, part.signal_dim)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_interference_nulling(self, m):
        k = 3
        cfg, rng, channels, mats = sia_setup(m, k, seed=m)
        x = draw_symbols(cfg, rng)
        _, interference = superpose(channels, mats.precoder, x)
        for i in (0, 1):
            leaked = np.linalg.norm(mats.beamformer[i] @ interference[i])
            assert leaked < 1e-9 * np.linalg.norm(interference[i])

    def test_cross_blocks_live_in_reference_span(self):
        # Each interference block equals reference @ sa exactly in exact
        # arithmetic; numerically to rounding error.
        cfg, rng, channels, mats = sia_setup(4, 2, seed=3)
        for kk in range(2):
            for i in (0, 1):
                block = channels.cross[kk, i] @ mats.precoder[kk, i]
                target = mats.reference[i] @ mats.sa_component[kk, i]
                assert np.allclose(block, target, atol=1e-9 * np.linalg.norm(target))


class TestAlignedDimension:
    @pytest.mark.parametrize("m,k,expected", [
        (4, 3, 2),   # confined to the 2-dim reference subspace
        (4, 1, 2),
        (5, 1, 2),   # only K*dof = 2 of the 3 reference dims are used
        (5, 4, 3),
        (8, 2, 4),
    ])
    def test_matches_min_rule(self, m, k, expected):
        cfg, rng, channels, mats = sia_setup(m, k, seed=7 * m + k)
        part = partition(m)
        assert expected == min(k * part.signal_dim, part.interference_dim)
        for i in (0, 1):
            assert aligned_interference_dimension(i, channels, mats.precoder) == expected


class TestRecover:
    """Recovery is the aggregation beamformer's projection of the received
    vector, as the engine applies it."""

    @pytest.mark.parametrize("m,k", [(2, 1), (4, 5), (5, 3)])
    def test_noiseless_sum(self, m, k):
        cfg, rng, channels, mats = sia_setup(m, k, seed=m * 3 + k)
        x = draw_symbols(cfg, rng)
        desired, interference = superpose(channels, mats.precoder, x)
        for i in (0, 1):
            estimate = mats.beamformer[i] @ (desired[i] + interference[i])
            target = x[:, i, :].sum(axis=0)
            assert np.linalg.norm(estimate - target) < 1e-8 * np.linalg.norm(target)

    def test_single_device_passthrough(self):
        cfg, rng, channels, mats = sia_setup(4, 1, seed=2)
        x = draw_symbols(cfg, rng)
        y1, _ = np.stack(superpose(channels, mats.precoder, x)).sum(axis=0), None
        estimate = mats.beamformer[0] @ y1[0]
        assert np.allclose(estimate, x[0, 0], atol=1e-10 * np.linalg.norm(x[0, 0]))

    def test_device_count_independence(self):
        # The same array recovers the aggregate for 1 and for 200 devices.
        for k in (1, 2, 5, 20, 50, 200):
            cfg, rng, channels, mats = sia_setup(4, k, seed=k)
            x = draw_symbols(cfg, rng)
            desired, interference = superpose(channels, mats.precoder, x)
            for i in (0, 1):
                estimate = mats.beamformer[i] @ (desired[i] + interference[i])
                target = x[:, i, :].sum(axis=0)
                rel = np.linalg.norm(estimate - target) / np.linalg.norm(target)
                assert rel < 1e-8, f"K={k}, cell {i}: rel={rel:.2e}"

    def test_noise_passes_through_orthonormally(self):
        cfg, rng, channels, mats = sia_setup(4, 1, seed=5)
        sigma = 0.5
        reps = 5000
        dof = mats.beamformer.shape[1]
        noise = sigma * (rng.standard_normal((reps, 4)) +
                         1j * rng.standard_normal((reps, 4))) / np.sqrt(2)
        powers = np.abs(noise @ mats.beamformer[0].conj().T) ** 2
        total = powers.sum(axis=1)
        expected = sigma**2 * dof
        se = expected / np.sqrt(dof * reps)
        assert abs(total.mean() - expected) < 3 * se
