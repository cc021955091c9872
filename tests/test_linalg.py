import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aircomp_sia import baselines, engine, linalg, sia
from aircomp_sia.baselines import build_no_ia_precoders
from aircomp_sia.errors import DegenerateChannels, RankDeficient, SizeMismatch
from aircomp_sia.linalg import (
    COND_LIMIT,
    FULL_RANK_RTOL,
    RANK_RTOL,
    aligned_rank,
    certified_solve,
    complete_qr,
    mm,
    numerical_rank,
    right_inverse,
)
from aircomp_sia.sia import build_reference_matrices, build_sia_matrices
from aircomp_sia.system import (
    ChannelSet,
    SystemConfig,
    draw_trials,
    superpose,
)

from helpers import cn, reference_pair, run_chunk, solve_rejects, span_residual, trial_streams


def rng_for(seed):
    return np.random.default_rng(seed)


def gaussian(rng, rows, cols):
    return cn(rng, (rows, cols))


def build_with_cross(cfg, cell, matrix):
    """engine._build on a chunk of two trials whose first channel set
    holds `matrix` as trial 1's cross channel of device 0 in `cell`."""
    states = trial_streams(cfg.seed, range(2))
    draws, channels, _, _ = draw_trials(cfg, states)
    channels.cross[1, 0, cell] = matrix
    return engine._build(cfg, channels, states, *build_reference_matrices(draws))


def ia_setup(cross):
    """References, beamformers and the first device's precoder for a
    channel set whose cross channels are all `cross` and whose direct
    channels are I."""
    m = cross.shape[-1]
    stack = np.broadcast_to(cross, (1, 2, m, m)).copy()
    channels = ChannelSet(np.broadcast_to(np.eye(m, dtype=complex), (1, 2, m, m)).copy(), stack)
    reference, beam = reference_pair(rng_for(0), m)
    return reference, beam, build_sia_matrices(channels, reference, beam)[0, 0]


def cross_leak(cross):
    """Part of cross @ precoder outside the reference span, relative to its
    norm, for ia_setup's device. The IA stage maps the reference through
    the cross channel's inverse, so this is zero up to rounding."""
    reference, _, precoder = ia_setup(cross)
    return span_residual(reference[0], cross @ precoder)


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
        for antennas in (0, -1):
            with pytest.raises(ValueError):
                reference_pair(rng_for(0), antennas)

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
    """Cross-channel inversion: the IA stage of build_sia_matrices, seen on
    the precoder, whose cross block lies in the reference span, and the
    conditioning test that certifies its cross channels."""

    def test_identity(self):
        assert cross_leak(np.eye(4, dtype=complex)) < 1e-15

    def test_diagonal(self):
        assert cross_leak(np.diag([2.0 + 0j, 4.0j])) < 1e-15

    def test_residual_random(self):
        for seed in range(10):
            assert cross_leak(gaussian(rng_for(seed), 5, 5)) < 1e-12

    def test_involution(self):
        # The IA stage of inv(a) is a again, so the precoder built on the
        # cross channel inv(a) is a @ reference @ pinv(beam @ a @ reference).
        for seed in range(10):
            a = gaussian(rng_for(seed), 5, 5)
            reference, beam, precoder = ia_setup(np.linalg.inv(a))
            aligned = a @ reference[0]
            expected = aligned @ np.linalg.pinv(beam[0] @ aligned)
            rel = np.linalg.norm(precoder - expected) / np.linalg.norm(expected)
            assert rel < 1e-6

    def test_non_square_raises(self):
        wide = np.ones((1, 2, 2, 3), dtype=complex)
        channels = ChannelSet(wide, wide.copy())
        with pytest.raises(SizeMismatch):
            superpose(channels, np.zeros((1, 2, 3, 1)), np.zeros((1, 2, 1)))

    @pytest.mark.parametrize("m", [2, 4])
    def test_solved_where_closed_form_does_not_clear(self, m, monkeypatch, svd_calls):
        # At M = 2 and 4 the closed form inverts what its certificate
        # clears. At a limit of 1e4 it leaves a cond-100 cross matrix to
        # the SVD test, which passes it, and to a solve: the precoder is
        # the closed form's to rounding.
        cross = planted_wide(rng_for(m), m, m, 100.0, 1.0, False)
        closed = ia_setup(cross)[2]
        assert svd_calls == []
        monkeypatch.setattr(linalg, "COND_LIMIT", 1e4)
        solved = ia_setup(cross)[2]
        assert svd_calls == [(2,)]
        assert np.abs(solved - closed).max() <= 1e-13 * np.abs(closed).max()

    def test_near_singular_raises(self, monkeypatch):
        # The IA stage rejects the set holding a near-singular cross
        # channel; its trial redraws the set, and with no redraw left the
        # run is degenerate (exit 3).
        cfg = SystemConfig(antennas=2, devices=2)
        channels, _, redraws = build_with_cross(cfg, 1, np.diag([1.0, 1e-13]))
        assert redraws.tolist() == [0, 1]
        assert np.linalg.cond(channels.cross[1, 0, 1]) <= COND_LIMIT
        monkeypatch.setattr(engine, "SET_REDRAW_BUDGET", 1)
        with pytest.raises(DegenerateChannels):
            build_with_cross(cfg, 1, np.diag([1.0, 1e-13]))

    def test_zero_matrix_raises(self, monkeypatch):
        # sia redraws the set holding a zero cross channel; no_ia, which
        # inverts no cross channel, keeps it.
        cfg = SystemConfig(antennas=3, devices=2)
        channels, _, redraws = build_with_cross(cfg, 0, np.zeros((3, 3)))
        assert redraws.tolist() == [0, 1]
        assert numerical_rank(channels.cross[1, 0, 0]) == 3
        no_ia_channels, _, no_ia_redraws = build_with_cross(
            SystemConfig(antennas=3, devices=2, scheme="no_ia"), 0, np.zeros((3, 3)))
        assert no_ia_redraws.tolist() == [0, 0]
        assert not no_ia_channels.cross[1, 0, 0].any()
        monkeypatch.setattr(engine, "SET_REDRAW_BUDGET", 1)
        with pytest.raises(DegenerateChannels):
            build_with_cross(cfg, 0, np.zeros((3, 3)))

    def test_non_finite_raises(self):
        a = np.eye(2, dtype=complex)
        a[0, 0] = np.nan
        with pytest.raises(ValueError):
            numerical_rank(a)


class TestRightInverse:
    """Minimum-norm right inversion: the no_ia precoders, one device at a time."""

    def test_selector_matrix_exact(self):
        a = np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)
        expected = np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(no_ia(a, np.eye(3, dtype=complex)), expected)

    def test_residual(self):
        rng = rng_for(11)
        beam = reference_pair(rng, 5)[1][0]
        direct = gaussian(rng, 5, 5)
        x = no_ia(beam, direct)
        a = beam @ direct
        assert np.linalg.norm(a @ x - np.eye(2)) < 1e-8 * np.linalg.norm(a)

    def test_square_matches_inverse(self):
        # For even M the SA stage right-inverts a square effective channel,
        # so the precoder is ia @ reference @ inv(effective).
        rng = rng_for(5)
        m = 4
        reference, beam = reference_pair(rng, m)
        channels = ChannelSet(cn(rng, (3, 2, m, m)), cn(rng, (3, 2, m, m)))
        precoder = build_sia_matrices(channels, reference, beam)
        for k in range(3):
            for i in (0, 1):
                aligned = np.linalg.inv(channels.cross[k, i]) @ reference[i]
                effective = beam[i] @ channels.direct[k, i] @ aligned
                expected = aligned @ np.linalg.inv(effective)
                assert np.allclose(precoder[k, i], expected, atol=1e-9 * np.abs(expected).max())

    def test_minimum_norm(self):
        # Any other right inverse differs by columns from the null space
        # of a and cannot have smaller Frobenius norm.
        rng = rng_for(9)
        beam = reference_pair(rng, 4)[1][0]
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


def svd_right_inverse(a, message):
    """right_inverse as one SVD of every matrix: the reference for its
    decisions (raise and `failed` mask)."""
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    deficient = s[..., -1] <= FULL_RANK_RTOL * s[..., 0]
    if np.any(deficient):
        raise RankDeficient(message, failed=deficient.any(axis=(-2, -1)))
    return vh.conj().swapaxes(-1, -2) @ (u.conj().swapaxes(-1, -2) / s[..., :, None])


def svd_deficient(a):
    """right_inverse's exact rank test on one matrix, as a brute-force oracle."""
    s = np.linalg.svd(a, full_matrices=False)[1]
    return bool(s[-1] <= FULL_RANK_RTOL * s[0])


def assert_matches_pinv(x, a):
    """x is A^+ up to what any backward-stable inverse achieves: rtol 1e-12
    plus 100 u per unit of cond(A), as the forward error grows with cond(A)."""
    p = np.linalg.pinv(a)
    s = np.linalg.svd(a, compute_uv=False)
    assert x.shape == p.shape
    assert np.abs(x - p).max() <= (1e-12 + 1e-14 * s[0] / s[-1]) * np.abs(p).max()


def planted_wide(rng, rows, cols, cond, scale, clustered):
    """scale * U diag(s) V^H of shape rows x cols with s_1 / s_rows = cond;
    the middle singular values sit at s_1 or spread geometrically."""
    u = np.linalg.qr(gaussian(rng, rows, rows))[0]
    v = np.linalg.qr(gaussian(rng, cols, rows))[0]
    if clustered:
        s = np.ones(rows)
        s[-1] = 1.0 / cond
    else:
        s = np.logspace(0.0, -np.log10(cond), rows)
    return scale * (u * s) @ v.conj().T


SHAPES = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (2, 4), (3, 5), (4, 5)]


class TestRightInverseDecisions:
    """`right_inverse` skips the SVD of each matrix a bound certifies, and
    must raise, and mark channel sets, exactly where an SVD of every
    matrix finds one deficient."""

    LIMIT = 1.0 / FULL_RANK_RTOL
    CONDS = (1.0, 10.0, 1e3, 1e6, 1e7, 1e8, 1e9, LIMIT * (1 - 1e-3), LIMIT,
             LIMIT * (1 + 1e-3), 1e11, 1e13, 1e15, 1e17)
    # At 1e+-110 ||A||_F^2 stays inside the range cond_bound_clears and the
    # 2x2 closed form take unscaled, but leaves the 4x4 one's 2^+-400; at
    # 1e+-170 it leaves both and the matrix is rescaled first.
    SCALES = (1e-170, 1e-110, 1.0, 1e110, 1e170)
    # Around the edge where a wide matrix's Gram clears (cond 31.6).
    EDGE = (10.0, 30.0, 100.0, 300.0, 3e3)

    @staticmethod
    def check_stack(mats, sets, devices=1, cells=2):
        """Call on mats stacked as (sets, devices, cells): raise with the
        oracle's mask over channel sets, or match pinv on every matrix."""
        rows, cols = mats.shape[-2:]
        stack = mats.reshape(sets, devices, cells, rows, cols)
        expected = np.array([svd_deficient(a) for a in mats]).reshape(stack.shape[:-2])
        if expected.any():
            with pytest.raises(RankDeficient) as info:
                right_inverse(stack, "planted")
            failed = info.value.failed
            assert failed.dtype == bool and failed.shape == (sets,)
            assert np.array_equal(failed, expected.any(axis=(-2, -1)))
        else:
            x = right_inverse(stack, "planted")
            for xi, a in zip(x.reshape(-1, cols, rows), mats):
                assert_matches_pinv(xi, a)
        return expected.reshape(-1)

    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_planted_spectra(self, rows, cols, svd_calls):
        rng = np.random.default_rng([rows, cols])
        cases = [(cond, scale, clustered) for cond in self.CONDS for scale in self.SCALES
                 for clustered in (True, False)]
        mats = np.array([planted_wide(rng, rows, cols, *case) for case in cases])
        expected = self.check_stack(mats, 14, devices=len(self.SCALES))
        assert expected.any() == (rows > 1) and not expected.all()
        # Each matrix alone gets the oracle's verdict.
        for a, bad in zip(mats, expected):
            assert self.check_stack(a[None], 1, cells=1).tolist() == [bad]
        # Well inside the limit the bound decides at every scale, without an
        # SVD; it is within sqrt(rows - 1) of cond when s_1 = ... = s_(rows-1).
        # A wide matrix's limit is its Gram's, cond(A) <= 31.6.
        conds = np.array([case[0] for case in cases])
        flat_top = np.array([case[2] for case in cases])
        well = mats[flat_top & (conds <= (1e6 if rows == cols else 10.0))]
        del svd_calls[:]
        x = right_inverse(well.reshape(-1, 1, 2, rows, cols), "planted")
        assert svd_calls == []
        for xi, a in zip(x.reshape(-1, cols, rows), well):
            assert_matches_pinv(xi, a)

    @pytest.mark.parametrize("rows, cols", [s for s in SHAPES if s[0] < s[1]])
    def test_gram_edge(self, rows, cols, svd_calls):
        # A wide matrix is certified on its Gram, which clears only up to
        # cond(A) = 31.6. Around that edge, at every scale, the verdict and
        # mask are the SVD test's and each inverse matches pinv, whichever
        # path it takes; the SVD takes each matrix beyond the edge and none
        # well inside it.
        rng = np.random.default_rng([30, rows, cols])
        cases = [(cond, scale, clustered) for cond in self.EDGE for scale in self.SCALES
                 for clustered in (True, False)]
        mats = np.array([planted_wide(rng, rows, cols, *case) for case in cases])
        sets = len(self.EDGE)
        assert not self.check_stack(mats, sets, devices=len(self.SCALES)).any()
        for case, a in zip(cases, mats):
            del svd_calls[:]
            x = right_inverse(a[None, None, None], "planted")[0, 0, 0]
            # The AM-GM bound on a 4x4 Gram clears a spread spectrum only
            # up to cond(A) of about 8, a flat-top one up to 31.6.
            if (case[0] <= 10.0 and (rows < 4 or case[2])) or case[0] >= 100.0:
                assert svd_calls == ([(1,)] if case[0] >= 100.0 else [])
            assert_matches_pinv(x, a)
        # A deficient matrix in the second set: the mask marks that set alone.
        mats[len(mats) // sets + 3] = planted_wide(rng, rows, cols, 1e13, 1e170, True)
        assert self.check_stack(mats, sets, devices=len(self.SCALES)).sum() == 1

    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_each_inverse_ignores_its_neighbours(self, rows, cols, svd_calls):
        # Matrices the bound cannot certify (cond 1e8 and 1e9; 1e2 and 1e3
        # when wide, beyond the Gram's limit) take the SVD among certified
        # ones, and every inverse is bit-identical to that of its matrix
        # alone.
        rng = np.random.default_rng([20, rows, cols])
        if rows == 1:
            conds = [1.0] * 6
        elif rows == cols:
            conds = [1.0, 1e8, 10.0, 1e9, 1e3, 1e2]
        else:  # a 4x4 Gram's bound clears a spread spectrum up to cond(A) ~ 8
            conds = [1.0, 1e2, 10.0 if rows < 4 else 5.0, 1e3, 3.0, 2.0]
        mats = np.array([planted_wide(rng, rows, cols, c, 1.0, False) for c in conds])
        x = right_inverse(mats.reshape(3, 1, 2, rows, cols), "planted")
        assert svd_calls == ([(2,)] if rows > 1 else [])
        for xi, a in zip(x.reshape(-1, cols, rows), mats):
            assert np.array_equal(xi, right_inverse(a[None, None, None], "planted")[0, 0, 0])
            assert_matches_pinv(xi, a)

    @pytest.mark.parametrize("rows, cols", SHAPES)
    def test_degenerate(self, rows, cols):
        rng = np.random.default_rng([10, rows, cols])
        rank_one = np.outer(cn(rng, (rows,)), cn(rng, (cols,)))
        singular = gaussian(rng, rows, cols)
        singular[-1] = singular[0]
        plants = [np.zeros((rows, cols), dtype=complex), rank_one, singular,
                  gaussian(rng, rows, cols)]
        assert [svd_deficient(a) for a in plants] == [True, rows > 1, rows > 1, False]
        for plant in plants:
            # One planted matrix among Gaussian ones, in the second of three sets.
            mats = cn(rng, (12, rows, cols))
            mats[5] = plant
            self.check_stack(mats, 3, devices=2)


class TestClosedFormCertificate:
    """The 4x4 closed form clears a matrix only where its determinant,
    less the 16u ||A||_F^4 its rounding may reach, proves the bound."""

    @pytest.mark.parametrize("scale", [1e-170, 1e-110, 1.0, 1e110, 1e170])
    def test_singular_never_clears(self, scale):
        # Row 3 repeats row 0, so det A is exactly 0, while the computed
        # one is mostly rounding. At an infinite limit the rounding term is
        # all the threshold holds, and it still rejects every matrix.
        mats = scale * cn(rng_for(40), (400, 4, 4))
        mats[:, 3] = mats[:, 0]
        assert np.count_nonzero(linalg._adjugate4(mats / scale)[0]) > 200
        clear, x = linalg._certified_inverse(mats, np.inf)
        assert not clear.any() and np.isfinite(x).all()


class TestRealStacks:
    """A real matrix or stack, matrix-ordered or stored as entry planes, is
    certified as the same matrices taken as complex, and inverted in its
    own dtype: at each closed-form size and at one taking bound and inv."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("lead", [(), (1,), (3,)])
    @pytest.mark.parametrize("planes", [True, False])
    def test_matches_complex(self, n, lead, planes):
        real = np.moveaxis(rng_for(60 + n).standard_normal((n, n) + lead), (0, 1), (-2, -1))
        real = real if planes else np.ascontiguousarray(real)
        want = np.ones(lead, dtype=bool)
        if lead == (3,):
            real[1] = 0.0  # a zero matrix: nothing certifies it
            want[1] = False
        as_complex = real.astype(np.complex128)
        clears = linalg.cond_bound_clears(real, COND_LIMIT)
        assert np.array_equal(clears, linalg.cond_bound_clears(as_complex, COND_LIMIT))
        clear, x = linalg._certified_inverse(real, COND_LIMIT)
        assert np.array_equal(clear, want)
        assert np.array_equal(clear, linalg._certified_inverse(as_complex, COND_LIMIT)[0])
        assert x.dtype == np.float64
        assert np.allclose(x[clear], np.linalg.inv(real[clear]), rtol=1e-12, atol=0)


class TestRightInverseSvdCount:
    """On Gaussian draws a sia or no_ia chunk takes almost no SVD: neither
    the beamformers, nor the aligned-rank checks, nor any right inverse
    but the odd wide one whose Gram the certificate cannot clear."""

    @pytest.mark.parametrize("scheme, m, k, trials, svds", [
        # sia's 2 x 3 effective channels at M = 5 are products of draws; one
        # of this chunk's 24 lies beyond cond 31.6, the Gram's limit.
        pytest.param(*case, id="-".join(map(str, case[:4])))
        for case in [("sia", 4, 200, 1, []), ("sia", 5, 3, 4, [(1,)]), ("no_ia", 4, 5, 4, [])]
    ])
    def test_gaussian_chunk(self, svd_calls, scheme, m, k, trials, svds):
        cfg = SystemConfig(antennas=m, devices=k, scheme=scheme, trials=trials)
        chunk = run_chunk(cfg, range(trials))
        assert not chunk.redraws.any()
        assert svd_calls == svds

    @pytest.mark.parametrize("scheme", ["sia", "no_ia"])
    def test_planted_deficient_matches_svd_only(self, monkeypatch, scheme):
        # A rank-one direct channel planted after the draw makes one
        # effective channel deficient: that matrix falls back to the SVD,
        # and the call marks the same set as the SVD-only path, which then
        # redraws it.
        cfg = SystemConfig(antennas=4, devices=5, scheme=scheme, seed=6, trials=4)
        module = sia if scheme == "sia" else baselines
        real_trials, real_redraw = engine.draw_trials, engine.draw_channels
        rank_one = np.outer(gaussian(rng_for(1), 4, 1), gaussian(rng_for(2), 1, 4))

        def run(inverse):
            draws, masks = [], []

            def planted_draw(*args):
                drawn = real_trials(*args)
                drawn[1].direct[2, 3, 1] = rank_one
                draws.append(drawn[1].direct.shape[:-4])
                return drawn

            def redraw(*args):
                channels = real_redraw(*args)
                draws.append(channels.direct.shape[:-4])
                return channels

            def recording(a, message):
                try:
                    return inverse(a, message)
                except RankDeficient as exc:
                    masks.append(exc.failed.tolist())
                    raise

            monkeypatch.setattr(engine, "draw_trials", planted_draw)
            monkeypatch.setattr(engine, "draw_channels", redraw)
            monkeypatch.setattr(module, "right_inverse", recording)
            chunk = run_chunk(cfg, range(4))
            return chunk, draws, masks

        fast, fast_draws, fast_masks = run(right_inverse)
        slow, slow_draws, slow_masks = run(svd_right_inverse)
        assert fast_masks == slow_masks == [[False, False, True, False]]
        assert fast_draws == slow_draws == [(4,), ()]
        assert fast.redraws.tolist() == slow.redraws.tolist() == [0, 0, 1, 0]
        assert np.array_equal(fast.aligned_rank, slow.aligned_rank)
        # The rebuild after the redraw takes a certified inverse where the
        # SVD-only path takes the SVD, so the results agree to rounding, not
        # to the bit.
        for name, value in vars(fast).items():
            np.testing.assert_allclose(value, getattr(slow, name), rtol=1e-9, atol=1e-12,
                                       err_msg=name)


def planted_spectrum(rng, rows, cols, s):
    """rows x cols with the nonzero singular values s, random singular vectors."""
    u = np.linalg.qr(gaussian(rng, rows, len(s)))[0]
    v = np.linalg.qr(gaussian(rng, cols, len(s)))[0]
    return (u * s) @ v.conj().T


class TestAlignedRankDecisions:
    """`aligned_rank` certifies a rank without an SVD only where the SVD
    test agrees, so every rank equals `numerical_rank`'s, near each of
    the certificates' limits and at the cutoff RANK_RTOL itself."""

    NEAR = (1 - 1e-3, 1 + 1e-3)
    # cond(Y) where its Gram sits at the certificate's limit, cond(G) = 1e8,
    # and where s_r / s_1 sits at the cutoff.
    CONDS = (1.0, 10.0, 1e4 * NEAR[0], 1e4 * NEAR[1], 1e8 * NEAR[0], 1e8 * NEAR[1])
    # X is rescaled first at 1e+-170, and its Gram's entries reach 1e+-220
    # at 1e+-110.
    SCALES = (1e-170, 1e-110, 1.0, 1e110, 1e170)

    @staticmethod
    def aligned(rng, m, dim, n, cond, leak):
        """X = V S + W^H T in one random unitary [V, W^H], as `basis`:
        S (dim x n) has singular values from 1 down to 1/cond; T adds one
        singular value `leak` along a null vector of S when n > dim.
        leak ("z", f) is f times the leak at which the Z test flips."""
        q = np.linalg.qr(gaussian(rng, m, m))[0]
        r = min(dim, n)
        s = planted_spectrum(rng, dim, n, np.logspace(0.0, -np.log10(cond), r))
        if isinstance(leak, tuple):
            leak = leak[1] * RANK_RTOL * np.linalg.norm(s) / (np.sqrt(r) * 1e3)
        g = cn(rng, (n,))
        null = g - np.linalg.pinv(s) @ (s @ g)
        t = np.outer(cn(rng, (m - dim,)), null.conj())
        t *= leak / np.linalg.norm(t) if n > dim else 0.0
        return q[:, :dim] @ s + q[:, dim:] @ t, q.conj().T

    def check(self, mats, bases, dim):
        """Ranks of the stack and of each matrix alone, against the SVD's."""
        expected = numerical_rank(mats)
        assert np.array_equal(aligned_rank(mats, bases, dim), expected)
        for x, basis, rank in zip(mats, bases, expected):
            assert aligned_rank(x, basis, dim) == rank
        return expected

    @pytest.mark.parametrize("m, dim, n", [(2, 1, 1), (4, 2, 6), (4, 2, 400), (5, 3, 2),
                                           (5, 3, 6), (16, 8, 24)])
    def test_planted_split(self, m, dim, n, svd_calls):
        rng = np.random.default_rng([m, dim, n])
        leaks = [0.0, ("z", self.NEAR[0]), ("z", self.NEAR[1]),
                 RANK_RTOL * self.NEAR[0], RANK_RTOL * self.NEAR[1]]
        cases = [(c, leak) for c in self.CONDS for leak in leaks]
        planted = [self.aligned(rng, m, dim, n, *case) for case in cases]
        mats, bases = (np.array(part) for part in zip(*planted))
        r = min(dim, n)
        for scale in self.SCALES:
            expected = self.check(scale * mats, bases, dim)
            assert set(expected.tolist()) <= {r - 1, r, r + 1} and r in expected
        if n > dim:  # a leak at the cutoff flips the SVD's verdict
            assert {r, r + 1} <= set(self.check(mats, bases, dim).tolist())
        # Well inside both limits the certificate decides, at every scale.
        well = [i for i, (c, leak) in enumerate(cases)
                if c <= 10.0 and (leak == 0.0 or leak == ("z", self.NEAR[0]))]
        del svd_calls[:]
        for scale in self.SCALES:
            assert np.all(aligned_rank(scale * mats[well], bases[well], dim) == r)
        assert svd_calls == []

        def svd_taken(case):
            i = cases.index(case)
            del svd_calls[:]
            aligned_rank(mats[i], bases[i], dim)
            return bool(svd_calls)

        # Each limit sits where stated: a leak just inside the Z test clears
        # and one just outside takes the SVD, as does a 2 x 2 Gram outside.
        if n > dim:
            assert not svd_taken((1.0, ("z", self.NEAR[0])))
            assert svd_taken((1.0, ("z", self.NEAR[1])))
        if r == 2:
            assert not svd_taken((self.CONDS[2], 0.0)) and svd_taken((self.CONDS[3], 0.0))

    def test_full_rank(self, svd_calls):
        # The no_ia shape: X spans all M = 4 dimensions, not V's, and M <= n;
        # the Gram of X decides near its limit and at the cutoff.
        rng = np.random.default_rng(44)
        bases = np.array([np.linalg.qr(gaussian(rng, 4, 4))[0] for _ in self.CONDS])
        mats = np.array([planted_spectrum(rng, 4, 10, np.logspace(0.0, -np.log10(c), 4))
                         for c in self.CONDS])
        for scale in self.SCALES:
            assert self.check(scale * mats, bases, 2).tolist() == [4] * 5 + [3]
        del svd_calls[:]
        assert np.all(aligned_rank(mats[:2], bases[:2], 2) == 4)
        assert svd_calls == []

    def test_zero(self):
        # genie: no cross channel, so nothing reaches the other AP.
        bases = np.array([np.linalg.qr(gaussian(rng_for(3), 4, 4))[0]] * 2)
        for n in (3, 6):
            assert self.check(np.zeros((2, 4, n), dtype=complex), bases, 2).tolist() == [0, 0]


class TestCompleteQr:
    """A stack of 2 x 1 draws takes LAPACK's Householder QR in closed form;
    only the draws it cannot take in that form reach LAPACK. The phase
    convention is also pinned end to end: no_ia's NMSE at M = 2 depends on
    it, and test_reference_impl's no_ia M = 2 case fails when beta's sign
    flips."""

    @staticmethod
    def lapack(a):
        return np.linalg.qr(a, mode="complete")[0]

    @pytest.fixture
    def qr_calls(self, monkeypatch):
        calls = []
        real = np.linalg.qr

        def counting(a, *args, **kw):
            calls.append(np.array(a))
            return real(a, *args, **kw)

        monkeypatch.setattr(np.linalg, "qr", counting)
        return calls

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_lapack(self, qr_calls, seed):
        # Same reflector, same phase: every entry within a few ulps of 1.
        a = cn(rng_for(seed), (500, 2, 2, 1))
        want = self.lapack(a)
        qr_calls.clear()
        q = complete_qr(a)
        assert qr_calls == []
        assert np.abs(q - want).max() <= 8 * 2.0 ** -52
        assert np.abs(q[..., 0] - a[..., 0] / np.linalg.qr(a, mode="r")[..., 0, :1]).max() <= 1e-15

    def test_degenerate_draws_take_lapack(self, qr_calls):
        # a1 = 0 under a real a0 (LAPACK's tau = 0), a zero draw, and draws
        # whose norm leaves [2^-400, 2^400] match LAPACK exactly.
        planted = np.array([[0.75, 0.0], [0.0, 0.0], [2.0 ** 600 * (1 + 1j), -(2.0 ** 600)],
                            [2.0 ** -600, 2.0 ** -600 * 1j], [-(2.0 ** 599) * 1j, 3.0]])
        a = cn(rng_for(4), (9, 2, 1))
        where = [0, 2, 5, 6, 8]
        a[where, :, 0] = planted
        want = self.lapack(a)
        qr_calls.clear()
        q = complete_qr(a)
        assert len(qr_calls) == 1 and np.array_equal(qr_calls[0], a[where])
        assert np.array_equal(q[where], want[where])
        assert np.array_equal(q[0], np.eye(2))
        gaussian_draws = np.setdiff1d(np.arange(9), where)
        assert np.abs(q[gaussian_draws] - want[gaussian_draws]).max() <= 8 * 2.0 ** -52

    def test_other_shapes_are_lapack(self, qr_calls):
        for shape in [(3, 2, 2), (3, 4, 2), (3, 3, 1)]:
            a = cn(rng_for(5), shape)
            assert np.array_equal(complete_qr(a), self.lapack(a))
        assert len(qr_calls) == 6


class TestLeftNullSpaceBasis:
    """AP 0's beamformer is an orthonormal basis of the left null space of
    cell 1's draw, the trailing columns of its complete QR; `basis` takes
    the draw `b` for both cells."""

    @staticmethod
    def basis(b):
        return build_reference_matrices(np.stack([b, b]))[1][0]

    def test_coordinate_columns(self):
        b = np.eye(4, dtype=complex)[:, :2]
        a = self.basis(b)
        assert a.shape == (2, 4)
        assert np.all(a @ b == 0)
        assert np.all(a[:, :2] == 0)
        assert np.allclose(a @ a.conj().T, np.eye(2), atol=1e-14)

    def test_single_vector(self):
        b = np.array([[1.0], [0.0]], dtype=complex)
        a = self.basis(b)
        assert a.shape == (1, 2)
        assert np.all(a @ b == 0)
        assert np.all(a[:, 0] == 0)
        assert numerical_rank(a[:, 1:]) == 1

    def test_random_annihilation(self):
        # A raw Gaussian b at a scale far from the unit-variance draws.
        b = 1e3 * gaussian(rng_for(2), 6, 3)
        a = self.basis(b)
        assert a.shape == (3, 6)
        assert np.abs(a @ b).max() <= 1e-10 * np.linalg.norm(b)
        assert np.allclose(a @ a.conj().T, np.eye(3), atol=1e-10)


class TestMm:
    # (T, 1, 2) against (T, K, 2) leading axes on either side: the left
    # operand spread as beamformer[..., None, :, :, :] meets the direct
    # stack, the right one as reference[..., None, :, :, :] meets the cross
    # channels' closed-form inverses in the IA stage.
    SPREAD, STACK = (3, 1, 2), (3, 5, 2)

    @pytest.mark.parametrize("inner", [1, 2, 3, 4])
    @pytest.mark.parametrize("rows, cols", [(2, 4), (4, 2), (4, 1)])
    @pytest.mark.parametrize("broadcast_left", [True, False])
    def test_broadcast_sums_match_matmul(self, inner, rows, cols, broadcast_left):
        rng = rng_for(inner)
        lead_a, lead_b = (self.SPREAD, self.STACK) if broadcast_left else (self.STACK, self.SPREAD)
        a = cn(rng, lead_a + (rows, inner))
        b = cn(rng, lead_b + (inner, cols))
        want = np.matmul(a, b)
        got = mm(a, b)
        assert got.shape == want.shape == self.STACK + (rows, cols)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("inner", [1, 2, 4])
    def test_single_matrices(self, inner):
        # No stack axes: each output entry is a 0-d plane.
        rng = rng_for(inner)
        a, b = cn(rng, (3, inner)), cn(rng, (inner, 2))
        np.testing.assert_allclose(mm(a, b), a @ b, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("inner", [5, 16])
    def test_larger_inner_is_matmul(self, inner):
        rng = rng_for(inner)
        a = cn(rng, self.SPREAD + (4, inner))
        b = cn(rng, self.STACK + (inner, 2))
        assert np.array_equal(mm(a, b), a @ b)

    def test_strided_right_operand(self):
        # right_inverse's wide path: the Gram B @ B^H, the right operand a
        # swapped-axes view that is not C-contiguous.
        rng = rng_for(7)
        b = cn(rng, self.STACK + (2, 3))
        bh = b.conj().swapaxes(-1, -2)
        assert not bh.flags.c_contiguous
        np.testing.assert_allclose(mm(b, bh), b @ bh, rtol=1e-13, atol=0)
        assert np.array_equal(mm(b, bh), mm(b, np.ascontiguousarray(bh)))

    def test_strided_left_operand(self):
        # ... and then B^H @ inv(G), the left operand the same view.
        rng = rng_for(8)
        bh = cn(rng, self.STACK + (2, 3)).conj().swapaxes(-1, -2)
        g_inv = np.linalg.inv(cn(rng, self.STACK + (2, 2)))
        np.testing.assert_allclose(mm(bh, g_inv), bh @ g_inv, rtol=1e-13, atol=0)
        assert np.array_equal(mm(bh, g_inv), mm(np.ascontiguousarray(bh), g_inv))


def is_entry_planes(x):
    """The view with the two matrix axes first is C-contiguous: each matrix
    entry is one contiguous plane over the stack."""
    return np.moveaxis(x, (-2, -1), (0, 1)).flags.c_contiguous


def planes_cn(rng, shape):
    """CN(0, 1) draws of `shape` stored as entry planes."""
    planes = cn(rng, shape[-2:] + shape[:-2])
    return np.moveaxis(planes, (0, 1), (-2, -1))


class TestEntryPlanes:
    """The layout `linalg`'s docstring states: the channel draws at M <= 4,
    and on entry-plane inputs the closed-form inverses and mm's products,
    are entry planes, so that no stage mixes layouts and no pass runs along
    a matrix axis; on matrix-ordered inputs, as above M = 4, they stay
    matrix-ordered."""

    @pytest.mark.parametrize("m, k", [(2, 1), (4, 20), (5, 3)])
    def test_draws(self, m, k):
        cfg = SystemConfig(antennas=m, devices=k)
        _, channels, _, _ = draw_trials(cfg, trial_streams(0, range(3)))
        for stack in (channels.direct, channels.cross):
            assert is_entry_planes(stack) == (m <= linalg._MM_INNER_MAX)
            assert (linalg.plane_order(stack.shape) is None) == (m > linalg._MM_INNER_MAX)

    @pytest.mark.parametrize("planes", [True, False])
    @pytest.mark.parametrize("n", linalg.CLOSED_FORM_SIZES)
    def test_closed_form_inverse(self, n, planes):
        mats = planes_cn(rng_for(n), (3, 5, 2, n, n))
        clear, inverse = linalg._certified_inverse(mats if planes else np.ascontiguousarray(mats),
                                                   1e10)
        assert clear.all()
        assert is_entry_planes(inverse) if planes else inverse.flags.c_contiguous
        assert np.array_equal(inverse, linalg._certified_inverse(np.ascontiguousarray(mats),
                                                                 1e10)[1])

    @pytest.mark.parametrize("inner", [1, 2, 3, 4])
    @pytest.mark.parametrize("lead_a, lead_b", [((3, 5, 2), (3, 5, 2)), ((3, 1, 2), (3, 5, 2)),
                                                ((3, 5, 2), (3, 1, 2))])
    def test_mm_product(self, inner, lead_a, lead_b):
        rng = rng_for(inner)
        a, b = planes_cn(rng, lead_a + (4, inner)), planes_cn(rng, lead_b + (inner, 2))
        got = mm(a, b)
        assert is_entry_planes(got)
        matrix_ordered = mm(np.ascontiguousarray(a), np.ascontiguousarray(b))
        assert matrix_ordered.flags.c_contiguous
        assert np.array_equal(got, matrix_ordered)

    @pytest.mark.parametrize("scheme", ["sia", "no_ia"])
    @pytest.mark.parametrize("m", [4, 5, 9])
    def test_matmul_sees_no_planes(self, monkeypatch, scheme, m):
        # mm hands inner dimensions above _MM_INNER_MAX to matmul, which
        # rounds differently off BLAS, as on operands with no unit-stride
        # matrix axis. Only matrix-ordered stacks may reach it.
        real, blas_ready = linalg.mm, []

        def checked(a, b):
            if a.shape[-1] > linalg._MM_INNER_MAX:
                blas_ready.append(all(min(x.strides[-2:]) <= x.itemsize for x in (a, b)))
            return real(a, b)

        for module in (linalg, sia, baselines, engine):
            monkeypatch.setattr(module, "mm", checked)
        run_chunk(SystemConfig(antennas=m, devices=3, scheme=scheme), range(4))
        assert all(blas_ready) and bool(blas_ready) == (m > linalg._MM_INNER_MAX)

    @pytest.mark.parametrize("planes", [True, False])
    def test_stack_sum_adds_in_order(self, planes):
        # 20 devices: a reduce along a contiguous run this long adds pairwise.
        x = planes_cn(rng_for(20), (3, 20, 2, 4, 1))
        x = x if planes else np.ascontiguousarray(x)
        want = x[:, 0].copy()
        for k in range(1, 20):
            want += x[:, k]
        got = linalg.stack_sum(x, -4)
        assert got.flags.c_contiguous and np.array_equal(got, want)

    @pytest.mark.parametrize("lead_b, bound", [((5, 200, 2), 1.2), ((5, 1, 2), 2.2)])
    def test_mm_peak_memory(self, lead_b, bound):
        # A many_devices chunk's IA product, (5, 200, 2, 4, 4) @ (5, 200, 2, 4, 2):
        # the product and one plane's temporary. The IA stage shares each
        # cell's reference among its devices, (5, 1, 2, 4, 2) in matrix
        # order, which is spread to the full stack first: one result more.
        rng = rng_for(9)
        a = planes_cn(rng, (5, 200, 2, 4, 4))
        b = planes_cn(rng, lead_b + (4, 2))
        b = b if lead_b == a.shape[:-2] else np.ascontiguousarray(b)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = mm(a, b)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= bound * out.nbytes, (peak, out.nbytes)


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
    # The conditioning test keeps and solves a matrix at exactly COND_LIMIT
    # and rejects anything worse, including a singular one (condition
    # number inf).
    mats = np.array([np.diag([COND_LIMIT, 1.0]), np.diag([1.01 * COND_LIMIT, 1.0]),
                     np.zeros((2, 2))], dtype=complex)
    assert solve_rejects(mats).tolist() == [False, True, True]
    x = certified_solve(mats[:1, None, None], np.eye(2), "planted")
    np.testing.assert_allclose(x[0, 0, 0], np.diag([1.0 / COND_LIMIT, 1.0]), rtol=1e-15, atol=0)
