import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aircomp_sia.baselines import build_no_ia_precoders
from aircomp_sia.errors import DegenerateChannels, RankDeficient, SizeMismatch
from aircomp_sia.linalg import COND_LIMIT, left_null_space_basis, numerical_rank
from aircomp_sia.sia import (
    build_aggregation_beamformers,
    build_reference_matrices,
    build_sia_matrices,
)
from aircomp_sia.system import (
    ChannelSet,
    _complex_normal,
    _guard_conditioning,
    superpose,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def gaussian(rng, rows, cols):
    return _complex_normal(rng, (rows, cols))


def ia_stage(cross):
    """The IA stage of build_sia_matrices for a stack of M x M cross channels."""
    m = cross.shape[-1]
    stack = np.broadcast_to(cross, (1, 2, m, m)).copy()
    channels = ChannelSet(np.broadcast_to(np.eye(m, dtype=complex), (1, 2, m, m)).copy(), stack)
    reference = build_reference_matrices(m, m - m // 2, rng_for(0))
    return build_sia_matrices(channels, reference).ia_component[0, 0]


def no_ia(effective_rows, direct):
    """no_ia precoders of one device whose beamformer rows are `effective_rows`."""
    dof, m = effective_rows.shape
    beam = np.stack([effective_rows, effective_rows])
    channels = ChannelSet(np.broadcast_to(direct, (1, 2, m, m)).copy(),
                          np.zeros((1, 2, m, m), dtype=complex))
    return build_no_ia_precoders(channels, beam)[0, 0]


class TestGaussianMatrix:
    """The complex Gaussian draw every channel, reference and noise uses."""

    def test_shape_and_dtype(self):
        a = gaussian(rng_for(0), 3, 2)
        assert a.shape == (3, 2)
        assert a.dtype == np.complex128

    def test_rejects_non_positive_dims(self):
        # Reference draws take their size from the partition of M.
        with pytest.raises(ValueError):
            build_reference_matrices(0, 0, rng_for(0))
        with pytest.raises(ValueError):
            build_reference_matrices(2, 0, rng_for(0))

    def test_moments(self):
        # Sample mean of each part has sd sqrt(0.5/n); |z|^2 is Exp(1).
        n = 100_000
        z = gaussian(rng_for(42), n, 1).ravel()
        bound = 3 * np.sqrt(0.5 / n)
        assert abs(z.real.mean()) < bound
        assert abs(z.imag.mean()) < bound
        power = np.abs(z) ** 2
        assert abs(power.mean() - 1.0) < 3 / np.sqrt(n)

    def test_full_rank_census(self):
        hits = sum(
            numerical_rank(gaussian(rng_for(seed), 4, 4)) == 4
            for seed in range(1000)
        )
        assert hits >= 999

    def test_deterministic(self):
        a = gaussian(rng_for(7), 5, 5)
        b = gaussian(rng_for(7), 5, 5)
        assert np.array_equal(a, b)


class TestInverse:
    """Cross-channel inversion: the IA stage of build_sia_matrices, behind
    the draw-time conditioning guard."""

    def test_identity(self):
        eye = np.eye(4, dtype=complex)
        assert np.allclose(ia_stage(eye), eye, atol=1e-15)

    def test_diagonal(self):
        a = np.diag([2.0 + 0j, 4.0j])
        expected = np.diag([0.5 + 0j, -0.25j])
        assert np.allclose(ia_stage(a), expected, atol=1e-15)

    def test_residual_random(self):
        a = gaussian(rng_for(3), 4, 4)
        x = ia_stage(a)
        assert np.abs(a @ x - np.eye(4)).max() < 1e-9 * np.linalg.norm(a)

    def test_involution(self):
        for seed in range(10):
            a = gaussian(rng_for(seed), 5, 5)
            back = ia_stage(ia_stage(a))
            rel = np.linalg.norm(back - a) / np.linalg.norm(a)
            assert rel < 1e-6

    def test_non_square_raises(self):
        wide = np.ones((1, 2, 2, 3), dtype=complex)
        channels = ChannelSet(wide, wide.copy())
        with pytest.raises(SizeMismatch):
            superpose(channels, np.zeros((1, 2, 3, 1)), np.zeros((1, 2, 1)))

    def test_near_singular_raises(self):
        mats = np.diag([1.0 + 0j, 1e-13 + 0j])[None].copy()
        with pytest.raises(DegenerateChannels):
            _guard_conditioning(mats, rng_for(0), budget=0)
        assert _guard_conditioning(mats, rng_for(0)) >= 1
        assert np.linalg.cond(mats[0]) <= COND_LIMIT

    def test_zero_matrix_raises(self):
        mats = np.zeros((1, 3, 3), dtype=complex)
        with pytest.raises(DegenerateChannels):
            _guard_conditioning(mats, rng_for(0), budget=0)
        assert _guard_conditioning(mats, rng_for(0)) >= 1
        assert numerical_rank(mats[0]) == 3

    def test_non_finite_raises(self):
        a = np.eye(2, dtype=complex)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            numerical_rank(a)
        with pytest.raises(ValueError):
            left_null_space_basis(a[:, :1])


class TestRightInverse:
    """Minimum-norm right inversion: the no_ia precoders, one device at a time."""

    def test_selector_matrix_exact(self):
        a = np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)
        expected = np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(no_ia(a, np.eye(3, dtype=complex)), expected)

    def test_residual(self):
        rng = rng_for(11)
        beam = build_aggregation_beamformers(build_reference_matrices(5, 3, rng))[0]
        direct = gaussian(rng, 5, 5)
        x = no_ia(beam, direct)
        a = beam @ direct
        assert np.linalg.norm(a @ x - np.eye(2)) < 1e-8 * np.linalg.norm(a)

    def test_square_matches_inverse(self):
        # For even M the SA stage right-inverts a square effective channel.
        rng = rng_for(5)
        m, dof = 4, 2
        reference = build_reference_matrices(m, dof, rng)
        channels = ChannelSet(_complex_normal(rng, (3, 2, m, m)), _complex_normal(rng, (3, 2, m, m)))
        mats = build_sia_matrices(channels, reference)
        for k in range(3):
            for i in (0, 1):
                effective = (mats.beamformer[i] @ channels.direct[k, i]
                             @ mats.ia_component[k, i] @ reference[i])
                assert np.allclose(mats.sa_component[k, i], np.linalg.inv(effective), atol=1e-9)

    def test_minimum_norm(self):
        # Any other right inverse differs by columns from the null space
        # of a and cannot have smaller Frobenius norm.
        rng = rng_for(9)
        beam = build_aggregation_beamformers(build_reference_matrices(4, 2, rng))[0]
        direct = gaussian(rng, 4, 4)
        a = beam @ direct
        x = no_ia(beam, direct)
        null_proj = np.eye(4) - np.linalg.pinv(a) @ a
        for _ in range(5):
            other = x + null_proj @ gaussian(rng, 4, 2)
            assert np.linalg.norm(a @ other - np.eye(2)) < 1e-8
            assert np.linalg.norm(x) <= np.linalg.norm(other) + 1e-12

    def test_more_rows_than_cols_raises(self):
        with pytest.raises(SizeMismatch):
            no_ia(np.ones((3, 2), dtype=complex), np.eye(2, dtype=complex))

    def test_rank_deficient_raises(self):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], dtype=complex)
        with pytest.raises(RankDeficient):
            no_ia(a, np.eye(3, dtype=complex))


class TestLeftNullSpaceBasis:
    def test_coordinate_columns(self):
        b = np.eye(4, dtype=complex)[:, :2]
        a = left_null_space_basis(b)
        assert a.shape == (2, 4)
        assert np.all(a @ b == 0)
        assert np.all(a[:, :2] == 0)
        assert np.allclose(a @ a.conj().T, np.eye(2), atol=1e-14)

    def test_single_vector(self):
        b = np.array([[1.0], [0.0], [0.0]], dtype=complex)
        a = left_null_space_basis(b)
        assert a.shape == (2, 3)
        assert np.all(a @ b == 0)
        assert np.all(a[:, 0] == 0)
        assert numerical_rank(a[:, 1:]) == 2

    def test_random_annihilation(self):
        b = gaussian(rng_for(2), 6, 3)
        a = left_null_space_basis(b)
        assert a.shape == (3, 6)
        assert np.abs(a @ b).max() <= 1e-10 * np.linalg.norm(b)
        assert np.allclose(a @ a.conj().T, np.eye(3), atol=1e-10)

    def test_not_tall_raises(self):
        with pytest.raises(SizeMismatch):
            left_null_space_basis(np.ones((2, 2), dtype=complex))

    def test_rank_deficient_raises(self):
        b = np.ones((4, 2), dtype=complex)  # duplicate columns
        with pytest.raises(RankDeficient):
            left_null_space_basis(b)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(5, dtype=complex)) == 5

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 4), dtype=complex)) == 0

    def test_outer_product(self):
        rng = rng_for(1)
        u = gaussian(rng, 5, 1)
        v = gaussian(rng, 1, 7)
        assert numerical_rank(u @ v) == 1

    def test_tol_domain(self):
        a = np.eye(2, dtype=complex)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                numerical_rank(a, tol=bad)

    def test_scale_invariance(self):
        a = gaussian(rng_for(8), 4, 6)
        assert numerical_rank(a) == numerical_rank(1e9 * a) == numerical_rank(1e-9 * a)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        a = gaussian(rng, 4, 3)
        q, _ = np.linalg.qr(gaussian(rng, 4, 4))
        assert numerical_rank(q @ a) == numerical_rank(a)

    def test_permutation_invariance(self):
        rng = rng_for(12)
        a = gaussian(rng, 4, 6)
        r = numerical_rank(a)
        perm_rows = rng.permutation(4)
        perm_cols = rng.permutation(6)
        assert numerical_rank(a[perm_rows][:, perm_cols]) == r


def test_condition_number_diag():
    # The guard keeps a matrix at exactly COND_LIMIT and redraws anything
    # worse, including a singular one (condition number inf).
    at_limit = np.diag([COND_LIMIT + 0j, 1.0 + 0j])[None].copy()
    assert _guard_conditioning(at_limit, rng_for(0), budget=0) == 0
    for worse in (np.diag([1.01 * COND_LIMIT + 0j, 1.0 + 0j]), np.zeros((2, 2), dtype=complex)):
        with pytest.raises(DegenerateChannels):
            _guard_conditioning(worse[None].copy(), rng_for(0), budget=0)
