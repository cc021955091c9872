import numpy as np
import pytest

from aircomp_sia.baselines import build_no_ia_precoders, genie_channels
from aircomp_sia.errors import RankDeficient
from aircomp_sia.linalg import numerical_rank
from aircomp_sia.sia import (
    aligned_interference_dimension,
    build_reference_matrices,
    build_sia_matrices,
)
from aircomp_sia.system import ChannelSet, SystemConfig, draw_channels, partition, superpose

from helpers import (
    cn,
    complement_beamformer,
    draw_chunk,
    reference_pair,
    span_residual,
    svd_guard,
)


def config_for(m, k, **kw):
    kw.setdefault("snr_db_grid", (0.0,))
    kw.setdefault("trials", 1)
    return SystemConfig(antennas=m, devices=k, **kw)


def sia_setup(m, k, seed=0):
    cfg = config_for(m, k)
    rng = np.random.default_rng(seed)
    reference, beam = reference_pair(rng, m)
    channels = draw_channels(cfg, rng)
    precoder = build_sia_matrices(channels, reference, beam)
    return cfg, rng, channels, reference, beam, precoder


def symbols_for(cfg, rng):
    """A trial's symbols (K, 2, signal_dim) from one Generator."""
    return cn(rng, (cfg.devices, 2, partition(cfg.antennas).signal_dim))


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
    return ia @ (reference @ np.linalg.pinv(effective))


def herm(a):
    return a.conj().swapaxes(-1, -2)


def assert_alignment_bases(reference, beam, m):
    """The builder's contract on a (reference, beamformer) pair with any
    leading axes: the shapes, orthonormal reference columns and beamformer
    rows, and each beamformer annihilating the other cell's reference."""
    n = partition(m).interference_dim
    lead = reference.shape[:-3]
    assert reference.shape == lead + (2, m, n)
    assert beam.shape == lead + (2, m - n, m)
    # A strided view would round the engine's products differently, and
    # change CSV bodies in their last digits, or slow them down.
    assert reference.flags.c_contiguous and beam.flags.c_contiguous
    assert np.abs(herm(reference) @ reference - np.eye(n)).max() <= 1e-14
    assert np.abs(beam @ herm(beam) - np.eye(m - n)).max() <= 1e-14
    assert np.abs(beam @ reference[..., ::-1, :, :]).max() <= 1e-14


class TestReferenceMatrices:
    """The (reference, beamformer) pair of build_reference_matrices, from
    one pair of draws."""

    @pytest.mark.parametrize("m", range(2, 17))
    def test_shapes_and_orthonormal_columns(self, m):
        g = np.random.default_rng(m)
        draws = np.stack([cn(g, (m, partition(m).interference_dim)) for _ in range(2)])
        reference, beam = build_reference_matrices(draws)
        assert_alignment_bases(reference, beam, m)
        # The reference is the reduced QR of the same draws: bitwise here,
        # but other BLAS builds may round the complete QR differently.
        assert np.abs(reference - np.linalg.qr(draws)[0]).max() <= 1e-15

    def test_deterministic(self):
        a = reference_pair(np.random.default_rng(9), 4)
        b = reference_pair(np.random.default_rng(9), 4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_fixed_variant(self):
        # Hand check with identity-column draws at odd M, where the two
        # cells' spans share coordinate 3: each beamformer keeps exactly the
        # coordinates outside the other cell's span.
        ref, beam = build_reference_matrices(identity_reference(5, 3))
        assert np.all(beam[0] @ ref[1] == 0)
        assert np.all(beam[1] @ ref[0] == 0)
        assert np.all(beam[0][:, 2:] == 0)
        assert np.all(beam[1][:, :3] == 0)
        assert np.allclose(beam[0] @ beam[0].conj().T, np.eye(2), atol=1e-14)


class TestAggregationBeamformers:
    """The beamformer half of the pair, and both halves on a chunk's
    stacked streams."""

    def test_coordinate_case(self):
        # With reference draws on coordinate axes the beamformers pick
        # out the complementary coordinates exactly.
        eye = np.eye(4, dtype=complex)
        reference, beam = build_reference_matrices(np.stack([eye[:, 2:], eye[:, :2]]))
        assert beam.shape == (2, 2, 4)
        assert np.all(beam[0] @ reference[1] == 0)
        assert np.all(beam[1] @ reference[0] == 0)
        assert np.all(beam[0][:, :2] == 0)  # cell 1 lives on coords 1,2

    @pytest.mark.parametrize("m", range(2, 17))
    def test_annihilation_and_orthonormal_rows(self, m):
        # A chunk's pairs, stacked, are each what the trial's own
        # Generator gives alone.
        cfg = config_for(m, 1, seed=m)
        reference, beam = build_reference_matrices(draw_chunk(cfg, range(3))[0])
        assert_alignment_bases(reference, beam, m)
        for t in range(3):
            alone = reference_pair(np.random.default_rng([cfg.seed, t]), m)
            assert np.array_equal(reference[t], alone[0])
            assert np.array_equal(beam[t], alone[1])

    def test_rank_deficient_reference_is_annihilated(self):
        # A complete QR annihilates a rank-deficient draw too.
        draws = np.ones((2, 4, 2), dtype=complex)  # duplicate columns
        _, beam = build_reference_matrices(draws)
        assert beam.shape == (2, 2, 4)
        assert np.abs(beam[0] @ draws[1]).max() <= 1e-15


class TestCellSwap:
    """Metamorphic: the two cells are interchangeable, so reversing the
    cell axis of every input reverses every output, bit for bit."""

    @pytest.mark.parametrize("m, k", [(2, 1), (4, 5), (5, 3), (16, 4)])
    def test_swap_reverses_precoders_and_superposition(self, m, k):
        cfg = config_for(m, k, seed=m + k)
        draws, channels, symbols, _ = draw_chunk(cfg, range(3))
        reference, beam = build_reference_matrices(draws)
        assert not svd_guard(channels).any()

        def swap(a, axis=-3):
            return np.ascontiguousarray(np.flip(a, axis))

        precoder = build_sia_matrices(channels, reference, beam)
        swapped_channels = ChannelSet(swap(channels.direct), swap(channels.cross))
        swapped = build_sia_matrices(swapped_channels, swap(reference), swap(beam))
        assert np.array_equal(swapped, swap(precoder))
        outputs = superpose(channels, precoder, symbols)
        swapped_outputs = superpose(swapped_channels, swapped, swap(symbols, -2))
        for got, want in zip(swapped_outputs, outputs):
            assert np.array_equal(got, swap(want, -2))


def chunk_draws(m, k):
    """A stack of 3 trials' alignment bases, accepted channel sets and
    symbols, drawn as a chunk draws them."""
    cfg = config_for(m, k, seed=m + k)
    draws, channels, symbols, _ = draw_chunk(cfg, range(3))
    assert not svd_guard(channels).any()
    return *build_reference_matrices(draws), channels, symbols


def build_precoders(scheme, channels, reference, beam):
    if scheme == "sia":
        return build_sia_matrices(channels, reference, beam)
    return build_no_ia_precoders(channels, beam)


class TestDevicePermutation:
    """Metamorphic: the devices of a cell are interchangeable, so
    reordering one cell's devices reorders their precoders bit for bit,
    and the received vectors, which sum over the devices, to rounding."""

    @pytest.mark.parametrize("scheme", ["sia", "no_ia"])
    @pytest.mark.parametrize("m, k", [(2, 1), (4, 5), (5, 3), (16, 4)])
    def test_permutation_reorders_precoders(self, scheme, m, k):
        reference, beam, channels, symbols = chunk_draws(m, k)
        precoder = build_precoders(scheme, channels, reference, beam)
        outputs = superpose(channels, precoder, symbols)
        order = np.arange(k)[::-1]

        for cell in (0, 1):
            def permute(a):
                out = a.copy()
                out[:, :, cell] = a[:, order, cell]
                return out

            permuted_channels = ChannelSet(permute(channels.direct), permute(channels.cross))
            permuted = build_precoders(scheme, permuted_channels, reference, beam)
            assert np.array_equal(permuted, permute(precoder))
            got = superpose(permuted_channels, permuted, permute(symbols))
            for a, b in zip(got, outputs):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


class TestCommonScale:
    """Metamorphic: scaling every channel by c scales every precoder by
    1/c, so the received vectors do not change: bit for bit at a power of
    two, to rounding otherwise."""

    @pytest.mark.parametrize("scheme", ["sia", "no_ia"])
    @pytest.mark.parametrize("m, k", [(2, 1), (4, 5), (5, 3), (16, 4)])
    @pytest.mark.parametrize("c, rtol", [(2.0**10, 0.0), (3.0, 1e-12)])
    def test_scale_leaves_superposition(self, scheme, m, k, c, rtol):
        reference, beam, channels, symbols = chunk_draws(m, k)
        outputs = superpose(channels, build_precoders(scheme, channels, reference, beam), symbols)
        scaled_channels = ChannelSet(c * channels.direct, c * channels.cross)
        scaled = build_precoders(scheme, scaled_channels, reference, beam)
        for a, b in zip(superpose(scaled_channels, scaled, symbols), outputs):
            if rtol == 0.0:
                assert np.array_equal(a, b)
            else:
                np.testing.assert_allclose(a, b, rtol=rtol, atol=0)


class TestBuildPrecoder:
    """Per-device precoders of build_sia_matrices."""

    @pytest.mark.parametrize("m,k", [(2, 1), (4, 2), (5, 3)])
    def test_per_device_signal_alignment(self, m, k):
        cfg, rng, channels, reference, beam, precoder = sia_setup(m, k, seed=m * 10 + k)
        dof = beam.shape[1]
        for kk in range(k):
            for i in (0, 1):
                w = precoder[kk, i]
                eff = beam[i] @ channels.direct[kk, i] @ w
                assert np.linalg.norm(eff - np.eye(dof)) < 1e-8

    def test_matches_batched_construction(self):
        cfg, rng, channels, reference, beam, precoder = sia_setup(5, 3, seed=4)
        for kk in range(3):
            for i in (0, 1):
                w = precoder_oracle(kk, i, channels, beam[i], reference[i])
                assert np.allclose(w, precoder[kk, i], atol=1e-12 * np.linalg.norm(w))

    def test_cascade_identity(self):
        # A stack of draws, as the engine builds a chunk of trials: every
        # device's beamformer @ direct @ precoder is the identity.
        m, k, trials = 5, 3, 4
        cfg = config_for(m, k, seed=8)
        draws, channels, _, _ = draw_chunk(cfg, range(trials))
        reference, beam = build_reference_matrices(draws)
        precoder = build_sia_matrices(channels, reference, beam)
        assert beam.shape == (trials, 2, 2, m)
        assert precoder.shape == (trials, k, 2, m, 2)
        cascade = beam[:, None] @ channels.direct @ precoder
        assert np.abs(cascade - np.eye(2)).max() < 1e-9

    def test_swap_channels_degenerate(self):
        # A direct channel that maps one reference subspace onto the other
        # zeroes the effective channel, which must be caught.
        m = 2
        swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        direct = np.broadcast_to(swap, (1, 2, m, m)).copy()
        cross = np.broadcast_to(np.eye(m, dtype=complex), (1, 2, m, m)).copy()
        channels = ChannelSet(direct, cross)
        reference = identity_reference(m, 1)
        beam = complement_beamformer(reference)
        effective = beam[0] @ swap @ reference[0]
        assert np.all(effective == 0)
        with pytest.raises(RankDeficient):
            build_sia_matrices(channels, reference, beam)


class TestSiaMatrices:
    @pytest.mark.parametrize("m,k", [(2, 1), (3, 2), (4, 3), (5, 2), (6, 4), (8, 2)])
    def test_shapes(self, m, k):
        cfg, rng, channels, reference, beam, precoder = sia_setup(m, k, seed=m + k)
        part = partition(m)
        assert beam.shape == (2, part.signal_dim, m)
        assert precoder.shape == (k, 2, m, part.signal_dim)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_interference_nulling(self, m):
        k = 3
        cfg, rng, channels, reference, beam, precoder = sia_setup(m, k, seed=m)
        x = symbols_for(cfg, rng)
        _, interference = superpose(channels, precoder, x)
        for i in (0, 1):
            leaked = np.linalg.norm(beam[i] @ interference[i])
            assert leaked < 1e-9 * np.linalg.norm(interference[i])

    def test_cross_blocks_live_in_reference_span(self):
        # Each device's interference block cross @ precoder lies in its
        # cell's reference span: projecting onto the span leaves nothing.
        cfg, rng, channels, reference, beam, precoder = sia_setup(4, 2, seed=3)
        for kk in range(2):
            for i in (0, 1):
                block = channels.cross[kk, i] @ precoder[kk, i]
                assert span_residual(reference[i], block) < 1e-12


class TestAlignedDimension:
    @pytest.mark.parametrize("m,k,expected", [
        (4, 3, 2),   # confined to the 2-dim reference subspace
        (4, 1, 2),
        (5, 1, 2),   # only K*dof = 2 of the 3 reference dims are used
        (5, 4, 3),
        (8, 2, 4),
    ])
    def test_matches_min_rule(self, m, k, expected):
        cfg, rng, channels, reference, beam, precoder = sia_setup(m, k, seed=7 * m + k)
        part = partition(m)
        assert expected == min(k * part.signal_dim, part.interference_dim)
        got = aligned_interference_dimension(channels, precoder, reference, beam)
        assert np.array_equal(got, [expected, expected])

    @pytest.mark.parametrize("scheme", ["sia", "no_ia", "genie"])
    @pytest.mark.parametrize("m", [2, 4, 5])
    def test_break_in_one_cell(self, svd_calls, scheme, m):
        # A 1e-6 nudge to one entry of cell 0's first precoder adds one
        # direction outside sia's N' reference dimensions in cell 0 alone.
        # Each cell must be ranked on its own blocks and its own basis: a
        # swapped cell moves the N' + 1, and an unflipped beamformer is no
        # unitary basis, so sia's intact cell 1 would take the SVD too.
        trials = 3
        cfg = config_for(m, 3, scheme=scheme)
        draws, channels, _, _ = draw_chunk(cfg, range(trials))
        reference, beam = build_reference_matrices(draws)
        if scheme == "sia":
            precoders = build_sia_matrices(channels, reference, beam)
        else:
            if scheme == "genie":
                channels = genie_channels(channels)
            precoders = build_no_ia_precoders(channels, beam)
        precoders[:, 0, 0, 0, 0] += 1e-6
        got = aligned_interference_dimension(channels, precoders, reference, beam)
        svd_matrices = sum(np.prod(shape, dtype=int) for shape in svd_calls)
        blocks = channels.cross @ precoders
        own = [[numerical_rank(np.hstack(list(blocks[t, :, i]))) for i in (0, 1)]
               for t in range(trials)]
        assert got.shape == (trials, 2) and np.array_equal(got, own)
        if scheme == "sia":
            n = partition(m).interference_dim
            assert np.array_equal(got, [[n + 1, n]] * trials)
            assert svd_matrices <= trials


class TestRecover:
    """Recovery is the aggregation beamformer's projection of the received
    vector, as the engine applies it."""

    @pytest.mark.parametrize("m,k", [(2, 1), (4, 5), (5, 3)])
    def test_noiseless_sum(self, m, k):
        cfg, rng, channels, _, beam, precoder = sia_setup(m, k, seed=m * 3 + k)
        x = symbols_for(cfg, rng)
        desired, interference = superpose(channels, precoder, x)
        for i in (0, 1):
            estimate = beam[i] @ (desired[i] + interference[i])
            target = x[:, i, :].sum(axis=0)
            assert np.linalg.norm(estimate - target) < 1e-8 * np.linalg.norm(target)

    def test_single_device_passthrough(self):
        cfg, rng, channels, _, beam, precoder = sia_setup(4, 1, seed=2)
        x = symbols_for(cfg, rng)
        y1, _ = np.stack(superpose(channels, precoder, x)).sum(axis=0), None
        estimate = beam[0] @ y1[0]
        assert np.allclose(estimate, x[0, 0], atol=1e-10 * np.linalg.norm(x[0, 0]))

    def test_device_count_independence(self):
        # The same array recovers the aggregate for 1 and for 200 devices.
        for k in (1, 2, 5, 20, 50, 200):
            cfg, rng, channels, _, beam, precoder = sia_setup(4, k, seed=k)
            x = symbols_for(cfg, rng)
            desired, interference = superpose(channels, precoder, x)
            for i in (0, 1):
                estimate = beam[i] @ (desired[i] + interference[i])
                target = x[:, i, :].sum(axis=0)
                rel = np.linalg.norm(estimate - target) / np.linalg.norm(target)
                assert rel < 1e-8, f"K={k}, cell {i}: rel={rel:.2e}"

    def test_noise_passes_through_orthonormally(self):
        cfg, rng, channels, _, beam, precoder = sia_setup(4, 1, seed=5)
        sigma = 0.5
        reps = 5000
        dof = beam.shape[1]
        noise = sigma * (rng.standard_normal((reps, 4)) +
                         1j * rng.standard_normal((reps, 4))) / np.sqrt(2)
        powers = np.abs(noise @ beam[0].conj().T) ** 2
        total = powers.sum(axis=1)
        expected = sigma**2 * dof
        se = expected / np.sqrt(dof * reps)
        assert abs(total.mean() - expected) < 3 * se
