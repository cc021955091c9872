import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aircomp_sia import linalg, system
from aircomp_sia.engine import run_trials
from aircomp_sia.errors import ConfigError, DegenerateChannels, SizeMismatch
from aircomp_sia.linalg import numerical_rank
from aircomp_sia.system import (
    ChannelSet,
    SystemConfig,
    _complex_normal,
    _guard_conditioning,
    _ill_conditioned,
    draw_channels,
    draw_symbols,
    parse_config_file,
    partition,
    superpose,
    trial_streams,
)


def config_for(m, k, **kw):
    kw.setdefault("snr_db_grid", (0.0, 10.0))
    kw.setdefault("trials", 2)
    return SystemConfig(antennas=m, devices=k, **kw)


class TestPartition:
    @pytest.mark.parametrize("m,expected", [
        (1, (0, 1)), (2, (1, 1)), (3, (1, 2)), (4, (2, 2)),
        (5, (2, 3)), (8, (4, 4)), (63, (31, 32)),
    ])
    def test_examples(self, m, expected):
        p = partition(m)
        assert (p.signal_dim, p.interference_dim) == expected

    @given(m=st.integers(1, 256))
    def test_parts_cover_the_space(self, m):
        p = partition(m)
        assert p.signal_dim + p.interference_dim == m
        assert p.signal_dim == m // 2
        assert 0 <= p.interference_dim - p.signal_dim <= 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            partition(0)


class TestConfigValidation:
    def test_m1_message(self):
        with pytest.raises(ConfigError, match="M=1 yields zero AirComp DoF"):
            config_for(1, 2)

    @pytest.mark.parametrize("kw", [
        {"devices": 0},
        {"trials": 0},
        {"snr_db_grid": ()},
        {"snr_db_grid": (10.0, 0.0)},
        {"snr_db_grid": (0.0, 0.0)},
        {"scheme": "zf"},
        {"snr_db_grid": (0.0, float("inf"))},
        {"antennas": 4.0},
        {"seed": -1},
        {"devices": True},
        {"trials": 1.5},
        {"seed": 3.0},
        {"antennas": "4"},
        {"snr_db_grid": None},
        {"snr_db_grid": 5.0},
        {"snr_db_grid": ("a",)},
    ])
    def test_rejects(self, kw):
        base = dict(antennas=4, devices=2, snr_db_grid=(0.0,), trials=1)
        base.update(kw)
        with pytest.raises(ConfigError):
            SystemConfig(**base)

    def test_accepts_defaults(self):
        cfg = SystemConfig(antennas=4, devices=2, seed=3).validate()
        assert cfg.snr_db_grid[-1] == 40.0
        assert cfg.trials == 200

    def test_frozen(self):
        cfg = config_for(4, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.antennas = 1
        assert cfg.antennas == 4

    def test_grid_is_stored_as_float_tuple(self):
        # A list handed in cannot be changed under the validated config.
        grid = [0, 5, 10]
        cfg = config_for(4, 2, snr_db_grid=grid)
        grid.append(-5)
        assert cfg.snr_db_grid == (0.0, 5.0, 10.0)
        assert all(type(s) is float for s in cfg.snr_db_grid)


class TestConfigSerialisation:
    def test_flat_roundtrip(self):
        cfg = SystemConfig(antennas=5, devices=7, snr_db_grid=(0.0, 2.5, 10.0),
                           trials=50, seed=99, scheme="no_ia")
        again = SystemConfig.from_flat(cfg.to_flat())
        assert again == cfg

    def test_unknown_key(self):
        # Older config files may still set num_cells, fixed_reference or function.
        for key, value in (("power", "5"), ("num_cells", "2"), ("fixed_reference", "false"),
                           ("function", "mean")):
            with pytest.raises(ConfigError, match="unknown"):
                SystemConfig.from_flat({"antennas": "4", "devices": "2", key: value})

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing"):
            SystemConfig.from_flat({"antennas": "4"})

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            SystemConfig.from_flat({"antennas": "four", "devices": "2"})

    def test_config_file(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# comment\n\nantennas = 4\ndevices=2\nsnr_db_grid=0,5,10\nseed=3\n")
        cfg = SystemConfig.from_flat(parse_config_file(path))
        assert cfg.antennas == 4
        assert cfg.snr_db_grid == (0.0, 5.0, 10.0)

    def test_config_file_garbage_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("antennas 4\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)


class TestDrawChannels:
    def test_shapes_and_rank(self):
        cfg = config_for(4, 2, seed=0)
        ch = draw_channels(cfg, np.random.default_rng(0))
        assert ch.direct.shape == (2, 2, 4, 4)
        assert ch.cross.shape == (2, 2, 4, 4)
        for stack in (ch.direct, ch.cross):
            for k in range(2):
                for i in range(2):
                    assert numerical_rank(stack[k, i]) == 4

    def test_deterministic(self):
        cfg = config_for(4, 3)
        a = draw_channels(cfg, np.random.default_rng(5))
        b = draw_channels(cfg, np.random.default_rng(5))
        assert np.array_equal(a.direct, b.direct)
        assert np.array_equal(a.cross, b.cross)

    def test_redraw_census(self):
        # The conditioning guard should essentially never fire for
        # Gaussian draws at this size.
        cfg = config_for(16, 4)
        total = 0
        for seed in range(25):
            total += draw_channels(cfg, np.random.default_rng(seed)).redraws
        assert total / (25 * 4 * 4) < 1e-3


def svd_rejects(a):
    """The guard's exact test on one matrix, as a brute-force oracle."""
    s = np.linalg.svd(a, compute_uv=False)
    return not (s[0] != 0.0 and s[0] <= linalg.COND_LIMIT * s[-1])


def svd_guard(mats, rng):
    """Reference guard: an SVD of every matrix and of every redraw candidate."""
    redraws = 0
    m = mats.shape[-1]
    bad = np.array([svd_rejects(a) for a in mats.reshape(-1, m, m)]).reshape(mats.shape[:-2])
    for idx in zip(*np.nonzero(bad)):
        stream = rng if isinstance(rng, np.random.Generator) else rng[idx[0]]
        for _ in range(system.MATRIX_REDRAW_BUDGET):
            redraws += 1
            candidate = _complex_normal(stream, (m, m))
            if not svd_rejects(candidate):
                mats[idx] = candidate
                break
        else:
            raise DegenerateChannels("budget")
    return redraws


def planted(rng, m, cond, scale, clustered):
    """scale * U diag(s) V^H with s_1 / s_M = cond; the middle singular
    values sit at s_1 (where the bound is tightest) or spread geometrically."""
    u = np.linalg.qr(_complex_normal(rng, (m, m)))[0]
    v = np.linalg.qr(_complex_normal(rng, (m, m)))[0]
    if clustered:
        s = np.ones(m)
        s[-1] = 1.0 / cond
    else:
        s = np.logspace(0.0, -np.log10(cond), m)
    return scale * (u * s) @ v.conj().T


def assert_matches_oracle(mats):
    expected = np.array([svd_rejects(a) for a in mats])
    got = _ill_conditioned(mats)
    assert got.dtype == bool and got.shape == expected.shape
    assert np.array_equal(got, expected), np.nonzero(got != expected)
    return expected


class TestConditioningBound:
    """`_ill_conditioned` clears most matrices on a log-determinant bound and
    must give the exact SVD test's verdict on every matrix."""

    CONDS = (1.0, 10.0, 1e3, 1e6, 1e8, 1e9, 3e9, 1e10, 1e11,
             linalg.COND_LIMIT * (1 - 1e-3), linalg.COND_LIMIT,
             linalg.COND_LIMIT * (1 + 1e-3), 1e13, 1e15, 1e17)
    SCALES = (1e-170, 1.0, 1e170)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 16])
    def test_planted_spectra(self, m, svd_calls):
        rng = np.random.default_rng(m)
        conds = np.repeat(self.CONDS, len(self.SCALES) * 2 * 2)
        flat_top = np.tile(np.repeat([True, False], 2), len(self.CONDS) * len(self.SCALES))
        mats = np.array([planted(rng, m, cond, scale, clustered)
                         for cond in self.CONDS for scale in self.SCALES
                         for clustered in (True, False) for _ in range(2)])
        expected = assert_matches_oracle(mats)
        assert expected.any() and not expected.all()
        # Each matrix alone gets the verdict it gets in the stack.
        for a, bad in zip(mats, expected):
            assert _ill_conditioned(a[None])[0] == bad
        # Well inside the limit the bound decides at every scale, without an
        # SVD; it is within sqrt(M - 1) of cond when s_1 = ... = s_(M-1).
        del svd_calls[:]
        assert not _ill_conditioned(mats[flat_top & (conds <= 1e6)]).any()
        assert svd_calls == []

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_degenerate(self, m):
        rng = np.random.default_rng(10 + m)
        rank_one = np.outer(_complex_normal(rng, (m,)), _complex_normal(rng, (m,)))
        singular = _complex_normal(rng, (m, m))
        singular[-1] = singular[0]
        diag = np.diag(np.r_[np.ones(m - 1), 0.0]).astype(complex)
        mats = np.array([np.zeros((m, m), dtype=complex), rank_one, singular, diag,
                         _complex_normal(rng, (m, m))])
        assert assert_matches_oracle(mats).tolist() == [True] * 4 + [False]

    def test_low_limit_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(linalg, "COND_LIMIT", 4.0)
        rng = np.random.default_rng(3)
        for m in (2, 4):
            mats = np.array([planted(rng, m, cond, 1.0, clustered)
                             for cond in (1.0, 2.0, 3.9, 4.0, 4.1, 10.0)
                             for clustered in (True, False)])
            expected = assert_matches_oracle(mats)
            assert expected.any() and not expected.all()

    def test_gaussian_draws(self):
        for m in (2, 4, 16):
            mats = _complex_normal(np.random.default_rng(m), (300, m, m))
            assert not assert_matches_oracle(mats).any()


class TestGuardFastPath:
    def test_well_conditioned_stack_takes_no_svd(self, svd_calls):
        rng = [np.random.default_rng(0)]
        mats = _complex_normal(rng, (200, 2, 4, 4))
        assert mats.shape == (1, 200, 2, 4, 4)
        before = mats.copy()
        assert _guard_conditioning(mats, rng) == 0
        assert svd_calls == []
        assert np.array_equal(mats, before)

    def test_planted_matrices_match_svd_guard(self, svd_calls):
        rngs = [np.random.default_rng([7, t]) for t in range(2)]
        mats = _complex_normal(rngs, (200, 2, 4, 4))
        mats[0, 17, 1] = np.diag([1.0, 1.0, 1.0, 1e-13])
        mats[1, 150, 0] = 0.0
        reference = mats.copy()
        reference_rngs = copy.deepcopy(rngs)

        redraws = _guard_conditioning(mats, rngs)
        # Only the two planted matrices are unsure; the redraws are cleared
        # on the bound.
        assert svd_calls == [(2,)]
        assert redraws == svd_guard(reference, reference_rngs) == 2
        assert np.array_equal(mats, reference)
        for g, ref in zip(rngs, reference_rngs):
            assert g.bit_generator.state == ref.bit_generator.state

    def test_low_limit_redraws_match_svd_guard(self, monkeypatch):
        # With COND_LIMIT = 4 many draws are rejected; the redraw count and
        # the accepted matrices equal those of the SVD-only guard.
        monkeypatch.setattr(linalg, "COND_LIMIT", 4.0)
        cfg = config_for(2, 3)
        fast = draw_channels(cfg, [np.random.default_rng([3, t]) for t in range(4)])
        monkeypatch.setattr(system, "_guard_conditioning", svd_guard)
        slow = draw_channels(cfg, [np.random.default_rng([3, t]) for t in range(4)])
        assert fast.redraws == slow.redraws > 10
        assert np.array_equal(fast.direct, slow.direct)
        assert np.array_equal(fast.cross, slow.cross)


class TestDrawSymbols:
    def test_shape(self):
        cfg = config_for(4, 3)
        x = draw_symbols(cfg, np.random.default_rng(1))
        assert x.shape == (3, 2, 2)

    def test_deterministic(self):
        cfg = config_for(6, 2)
        a = draw_symbols(cfg, np.random.default_rng(3))
        b = draw_symbols(cfg, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_unit_variance(self):
        cfg = config_for(4, 25000)
        x = draw_symbols(cfg, np.random.default_rng(6)).ravel()
        n = x.size
        assert n == 100_000
        assert abs((np.abs(x) ** 2).mean() - 1.0) < 3 / np.sqrt(n)


class TestTrialStreams:
    """trial_streams reimplements numpy's SeedSequence hash; every stream
    must equal default_rng([seed, t]) bit for bit, so an oracle pins it.
    The seeds and indices cross the one-word/two-word boundary of both."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    INDICES = [0, 1, 2, 2**32 - 1, 2**32, 2**33, 2**64 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_default_rng(self, seed):
        streams = trial_streams(seed, self.INDICES)
        assert len(streams) == len(self.INDICES)
        for t, stream in zip(self.INDICES, streams):
            oracle = np.random.default_rng([seed, t])
            assert stream.bit_generator.state == oracle.bit_generator.state, (seed, t)
            assert np.array_equal(stream.standard_normal(50), oracle.standard_normal(50)), (seed, t)

    def test_empty(self):
        assert trial_streams(0, []) == []

    @pytest.mark.parametrize("bad", [1.5, -1, 2**64, "3", None])
    def test_rejects_bad_index(self, bad):
        with pytest.raises(ConfigError, match="trial index"):
            trial_streams(0, [0, bad])

    @pytest.mark.parametrize("bad", [1.5, -1, 2**64])
    def test_rejects_bad_seed(self, bad):
        with pytest.raises(ConfigError, match="seed"):
            trial_streams(bad, [0])

    def test_numpy_integer_index(self):
        stream, = trial_streams(np.uint64(7), [np.int64(3)])
        assert stream.bit_generator.state == np.random.default_rng([7, 3]).bit_generator.state

    def test_only_pcg64_seeding_is_answered(self):
        stream, = trial_streams(0, [0])
        words = stream.bit_generator._seed_seq
        with pytest.raises(ValueError):
            words.generate_state(4)
        with pytest.raises(ValueError):
            words.generate_state(8, np.uint64)


def identity_channels(m, k):
    eye = np.broadcast_to(np.eye(m, dtype=complex), (k, 2, m, m)).copy()
    return ChannelSet(eye, eye.copy())


def received(channels, precoders, symbols):
    """Noise-free received vectors (y_1, y_2): both cells' superposition."""
    desired, interference = superpose(channels, precoders, symbols)
    y = desired + interference
    return y[0], y[1]


class TestReceive:
    def test_zero_symbols_zero_noise(self):
        cfg = config_for(4, 2)
        ch = draw_channels(cfg, np.random.default_rng(0))
        w = np.zeros((2, 2, 4, 2), dtype=complex)
        x = np.zeros((2, 2, 2), dtype=complex)
        y1, y2 = received(ch, w, x)
        assert np.all(y1 == 0) and np.all(y2 == 0)

    def test_identity_channel_hand_case(self):
        # With identity channels and selector precoders each AP sees the
        # padded symbols of its own cell plus the other cell's.
        m, k = 4, 1
        ch = identity_channels(m, k)
        sel = np.zeros((k, 2, m, 2), dtype=complex)
        sel[:, :, :2, :] = np.eye(2)
        x = np.arange(1, 5, dtype=complex).reshape(k, 2, 2)
        y1, y2 = received(ch, sel, x)
        pad = np.zeros(m, dtype=complex)
        pad1 = pad.copy(); pad1[:2] = x[0, 0]
        pad2 = pad.copy(); pad2[:2] = x[0, 1]
        assert np.allclose(y1, pad1 + pad2, atol=1e-15)
        assert np.allclose(y2, pad1 + pad2, atol=1e-15)

    def test_brute_force_oracle(self):
        # Re-derive the superposition with explicit scalar loops.
        m, k = 3, 2
        cfg = config_for(m, k)
        rng = np.random.default_rng(13)
        ch = draw_channels(cfg, rng)
        dof = partition(m).signal_dim
        w = (rng.standard_normal((k, 2, m, dof))
             + 1j * rng.standard_normal((k, 2, m, dof)))
        x = (rng.standard_normal((k, 2, dof))
             + 1j * rng.standard_normal((k, 2, dof)))

        expected = np.zeros((2, m), dtype=complex)
        for i in range(2):
            j = 1 - i
            for kk in range(k):
                for row in range(m):
                    acc = 0.0 + 0.0j
                    for col in range(m):
                        for d in range(dof):
                            acc += ch.direct[kk, i, row, col] * w[kk, i, col, d] * x[kk, i, d]
                            acc += ch.cross[kk, j, row, col] * w[kk, j, col, d] * x[kk, j, d]
                    expected[i, row] += acc

        y1, y2 = received(ch, w, x)
        scale = np.linalg.norm(expected)
        assert np.linalg.norm(y1 - expected[0]) < 1e-12 * scale
        assert np.linalg.norm(y2 - expected[1]) < 1e-12 * scale

    def test_linearity_in_symbols(self):
        m, k = 4, 2
        cfg = config_for(m, k)
        rng = np.random.default_rng(21)
        ch = draw_channels(cfg, rng)
        dof = partition(m).signal_dim
        w = (rng.standard_normal((k, 2, m, dof))
             + 1j * rng.standard_normal((k, 2, m, dof)))
        xa = (rng.standard_normal((k, 2, dof)) + 1j * rng.standard_normal((k, 2, dof)))
        xb = (rng.standard_normal((k, 2, dof)) + 1j * rng.standard_normal((k, 2, dof)))
        ya = np.stack(received(ch, w, xa))
        yb = np.stack(received(ch, w, xb))
        yab = np.stack(received(ch, w, 2.0 * xa - 0.5 * xb))
        assert np.allclose(yab, 2.0 * ya - 0.5 * yb, atol=1e-10 * np.linalg.norm(ya))

    def test_zero_cross_isolates_cells(self):
        m, k = 4, 2
        cfg = config_for(m, k)
        rng = np.random.default_rng(31)
        ch = draw_channels(cfg, rng)
        ch.cross[:] = 0
        dof = partition(m).signal_dim
        w = (rng.standard_normal((k, 2, m, dof)) + 0j)
        x = (rng.standard_normal((k, 2, dof)) + 0j)
        y1_before, _ = received(ch, w, x)
        x2 = x.copy()
        x2[:, 1, :] *= -3.0
        y1_after, _ = received(ch, w, x2)
        assert np.allclose(y1_before, y1_after, atol=1e-14)

    def test_noise_statistics(self):
        # Each trial adds noise_std times unit-variance noise per antenna;
        # orthonormal beamformer rows keep dof of those dimensions per
        # cell, so the error power over both cells is noise_std^2 times a
        # Gamma(2 * dof) draw (mean and variance 2 * dof = 4).
        cfg = config_for(4, 1, scheme="genie")
        reps = 400
        res = run_trials(cfg, range(reps), [0.0])
        ratios = res.err_power.sum(axis=(1, 2)) / res.noise_std[:, 0] ** 2
        assert abs(ratios.mean() - 4.0) < 3 * 2.0 / np.sqrt(reps)

    def test_shape_checks(self):
        ch = identity_channels(4, 2)
        good_w = np.zeros((2, 2, 4, 2), dtype=complex)
        good_x = np.zeros((2, 2, 2), dtype=complex)
        with pytest.raises(SizeMismatch):
            superpose(ch, good_w[:1], good_x)
        with pytest.raises(SizeMismatch):
            superpose(ch, good_w, good_x[:, :, :1])
