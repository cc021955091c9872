import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aircomp_sia import linalg, system
from aircomp_sia.engine import run_trials
from aircomp_sia.errors import ConfigError, RankDeficient, SizeMismatch
from aircomp_sia.linalg import certified_solve, numerical_rank
from aircomp_sia.sia import build_reference_matrices, build_sia_matrices
from aircomp_sia.system import (
    ChannelSet,
    SystemConfig,
    _complex_normal,
    draw_channels,
    draw_trials,
    parse_config_file,
    partition,
    superpose,
    trial_normals,
    trial_states,
)

from helpers import (
    cn,
    draw_chunk,
    reference_pair,
    solve_rejects,
    svd_guard,
    svd_rejects,
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
        {"seed": 2**64},
        {"seed": 1.5},
        {"snr_db_grid": "12"},
        {"snr_db_grid": "059"},
        {"snr_db_grid": b"12"},
        {"antennas": np.True_},
        {"antennas": np.float64(4.0)},
        {"snr_db_grid": (float("nan"),)},
        {"snr_db_grid": (-float("inf"),)},
        {"snr_db_grid": [[0.0, 10.0]]},
        {"snr_db_grid": (True, 2.0)},
        {"snr_db_grid": (1.0, np.True_)},
        {"snr_db_grid": np.array([False, True])},
        {"antennas": np.array(4.0)},
    ])
    def test_rejects(self, kw):
        base = dict(antennas=4, devices=2, snr_db_grid=(0.0,), trials=1)
        base.update(kw)
        with pytest.raises(ConfigError):
            SystemConfig(**base)

    @pytest.mark.parametrize("grid", ["12", "059", b"12"])
    def test_string_grid_is_not_split_into_characters(self, grid):
        with pytest.raises(ConfigError, match="sequence of numbers"):
            config_for(4, 2, snr_db_grid=grid)

    @pytest.mark.parametrize("grid", [{0: "a", 10: "b"}, {20, 10}, frozenset({0, 10}),
                                      {0: "a", 10: "b"}.keys()],
                             ids=["dict", "set", "frozenset", "keys"])
    def test_keyed_and_unordered_grids_are_rejected(self, grid):
        # A mapping would give its keys, a set its hash order.
        with pytest.raises(ConfigError, match="sequence of numbers"):
            config_for(4, 2, snr_db_grid=grid)

    @pytest.mark.parametrize("grid", [[0, 10], (0.0, 10.0), range(0, 20, 10),
                                      np.array([0.0, 10.0]), (s for s in (0, 10)),
                                      ("0", "10")],
                             ids=["list", "tuple", "range", "array", "generator", "strings"])
    def test_sequences_are_accepted(self, grid):
        # A tuple of strings is what from_flat hands over.
        assert config_for(4, 2, snr_db_grid=grid).snr_db_grid == (0.0, 10.0)

    def test_numpy_integers_are_stored_as_int(self):
        cfg = SystemConfig(antennas=np.int64(4), devices=np.uint8(2), trials=np.int32(3),
                           seed=np.uint64(2**63))
        plain = SystemConfig(antennas=4, devices=2, trials=3, seed=2**63)
        assert all(type(getattr(cfg, name)) is int
                   for name in ("antennas", "devices", "trials", "seed"))
        assert cfg == plain and hash(cfg) == hash(plain)
        assert cfg.to_flat() == plain.to_flat()

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
        # The IA stage's conditioning test should essentially never fire
        # for Gaussian cross channels at this size.
        cfg = config_for(16, 4)
        rejected = [solve_rejects(draw_channels(cfg, np.random.default_rng(seed)).cross
                                  .reshape(-1, 16, 16)).any()
                    for seed in range(25)]
        assert not any(rejected)


def planted(rng, m, cond, scale, clustered):
    """scale * U diag(s) V^H with s_1 / s_M = cond; the middle singular
    values sit at s_1 (where the bound is tightest) or spread geometrically."""
    u = np.linalg.qr(cn(rng, (m, m)))[0]
    v = np.linalg.qr(cn(rng, (m, m)))[0]
    if clustered:
        s = np.ones(m)
        s[-1] = 1.0 / cond
    else:
        s = np.logspace(0.0, -np.log10(cond), m)
    return scale * (u * s) @ v.conj().T


def assert_matches_oracle(mats):
    expected = np.array([svd_rejects(a) for a in mats])
    got = solve_rejects(mats)
    assert got.dtype == bool and got.shape == expected.shape
    assert np.array_equal(got, expected), np.nonzero(got != expected)
    return expected


class TestConditioningBound:
    """`certified_solve` clears most matrices on a certificate (the closed
    form at M = 2 and 4, a log-determinant bound elsewhere) and must give
    the exact SVD test's verdict on every matrix."""

    CONDS = (1.0, 10.0, 1e3, 1e6, 1e8, 1e9, 3e9, 1e10, 1e11,
             linalg.COND_LIMIT * (1 - 1e-3), linalg.COND_LIMIT,
             linalg.COND_LIMIT * (1 + 1e-3), 1e13, 1e15, 1e17)
    # At 1e+-110 ||A||_F^2 stays inside the range cond_bound_clears takes
    # unscaled; at 1e+-170 it leaves it and the matrix is rescaled first.
    SCALES = (1e-170, 1e-110, 1.0, 1e110, 1e170)

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
            assert solve_rejects(a[None])[0] == bad
        # Well inside the limit the certificate decides at every scale,
        # without an SVD; the bound is within sqrt(M - 1) of cond when
        # s_1 = ... = s_(M-1).
        del svd_calls[:]
        assert not solve_rejects(mats[flat_top & (conds <= 1e6)]).any()
        assert svd_calls == []

    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_degenerate(self, m):
        rng = np.random.default_rng(10 + m)
        rank_one = np.outer(cn(rng, (m,)), cn(rng, (m,)))
        singular = cn(rng, (m, m))
        singular[-1] = singular[0]
        diag = np.diag(np.r_[np.ones(m - 1), 0.0]).astype(complex)
        mats = np.array([np.zeros((m, m), dtype=complex), rank_one, singular, diag,
                         cn(rng, (m, m))])
        assert assert_matches_oracle(mats).tolist() == [True] * 4 + [False]

    @pytest.mark.parametrize("m", [2, 4, 16])
    def test_one_huge_entry(self, m):
        # ||A||_F^2 is about 1e400: out of range, so rescaled, and the small
        # entries underflow against the huge one.
        rng = np.random.default_rng(20 + m)
        mats = np.array([cn(rng, (m, m)) for _ in range(3)])
        mats[0, 0, 0] = 1e200
        mats[1, -1, 0] = -1e200j
        assert assert_matches_oracle(mats).tolist() == [True, True, False]

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
            mats = cn(np.random.default_rng(m), (300, m, m))
            assert not assert_matches_oracle(mats).any()
            # What it solves is the inverse, here against the identity.
            x = certified_solve(mats[:, None, None], np.eye(m), "planted")[:, 0, 0]
            np.testing.assert_allclose(x @ mats, np.broadcast_to(np.eye(m), mats.shape),
                                       rtol=0, atol=1e-9)


def sia_rejects(channels, reference, beamformer):
    """The `failed` mask of build_sia_matrices on a channel set or stack,
    all False when it builds."""
    try:
        build_sia_matrices(channels, reference, beamformer)
    except RankDeficient as exc:
        return exc.failed
    return np.zeros(channels.cross.shape[:-4], dtype=bool)


class TestGuardFastPath:
    """The IA stage rejects a set exactly when the SVD test rejects one of
    its cross matrices, and takes an SVD only of the matrices near the
    limit. Direct matrices are not tested: the SA right inverse certifies
    what it inverts."""

    def test_well_conditioned_stack_takes_no_svd(self, svd_calls):
        cfg = config_for(4, 200)
        draws, channels = draw_chunk(cfg, range(3))[:2]
        bases = build_reference_matrices(draws)
        assert sia_rejects(channels, *bases).tolist() == [False] * 3
        assert svd_calls == []

    def test_planted_matrices_match_svd_guard(self, svd_calls):
        k, m = 200, 4
        cfg = config_for(m, k, seed=7)
        draws, channels = draw_chunk(cfg, range(3))[:2]
        bases = build_reference_matrices(draws)
        assert svd_calls == []
        channels.direct[0, 17, 1] = np.diag([1.0, 1.0, 1.0, 1e-13])
        channels.cross[2, 150, 0] = 0.0
        # Only the planted cross matrix is unsure, and one SVD takes it;
        # the stage raises before the SA stage sees the planted direct one.
        assert sia_rejects(channels, *bases).tolist() == [False, False, True]
        assert svd_calls == [(1,)]
        assert svd_guard(channels).tolist() == [False, False, True]
        # A direct matrix at cond 1e13 alone marks no set.
        channels.cross[2, 150, 0] = np.eye(m)
        assert sia_rejects(channels, *bases).tolist() == [False] * 3

    @pytest.mark.parametrize("m", [2, 4])
    def test_planted_spectra(self, m, svd_calls):
        # At M = 2 and 4 the IA stage's certificate is the closed-form
        # inverse's own. Planted cross matrices at every condition number
        # and scale (1e+-110 inside the 2x2 window but rescaled at 4x4,
        # 1e+-170 rescaled at both) get the SVD test's mask, stacked and one set at a time, with no
        # overflow or invalid operation. Each direct channel equals its
        # cross channel, so the effective channel is beamformer @ reference
        # and the SA stage certifies it without an SVD.
        bound = TestConditioningBound
        rng = np.random.default_rng(30 + m)
        cases = [(cond, scale, clustered) for cond in bound.CONDS for scale in bound.SCALES
                 for clustered in (True, False)]
        cross = np.array([[planted(rng, m, *case) for _ in range(2)] for case in cases])
        channels = ChannelSet(cross.copy()[:, None], cross[:, None])
        bases = reference_pair(rng, m)
        expected = svd_guard(channels)
        assert expected.any() and not expected.all()
        assert np.array_equal(sia_rejects(channels, *bases), expected)
        for i, bad in enumerate(expected):
            alone = ChannelSet(channels.direct[i], channels.cross[i])
            assert sia_rejects(alone, *bases) == bad
        # Well inside the limit the certificate decides at every scale.
        well = np.array([clustered and cond <= 1e6 for cond, _, clustered in cases])
        del svd_calls[:]
        build_sia_matrices(ChannelSet(channels.direct[well], channels.cross[well]), *bases)
        assert svd_calls == []

    def test_low_limit_redraws_match_svd_guard(self, monkeypatch):
        # With COND_LIMIT = 4 many sets are rejected, each as the SVD-only
        # test of its cross matrices rejects it, from a chunk's streams or
        # from one Generator.
        monkeypatch.setattr(linalg, "COND_LIMIT", 4.0)
        cfg = config_for(2, 1, seed=3)
        draws, chunk = draw_chunk(cfg, range(8))[:2]
        failed = sia_rejects(chunk, *build_reference_matrices(draws))
        assert np.array_equal(failed, svd_guard(chunk))
        assert failed.any() and not failed.all()
        for seed in range(8):
            g = np.random.default_rng(seed)
            bases = reference_pair(g, 2)
            alone = draw_channels(cfg, g)
            failed = sia_rejects(alone, *bases)
            assert failed.shape == ()
            assert failed == svd_guard(alone)


class TestDrawSymbols:
    def test_shape(self):
        cfg = config_for(4, 3)
        x = draw_chunk(cfg, range(2))[2]
        assert x.shape == (2, 3, 2, 2)

    def test_deterministic(self):
        cfg = config_for(6, 2)
        a = draw_chunk(cfg, range(3))[2]
        b = draw_chunk(cfg, range(3))[2]
        assert np.array_equal(a, b)

    def test_unit_variance(self):
        x = cn(np.random.default_rng(6), (25000, 2, 2)).ravel()
        n = x.size
        assert n == 100_000
        assert abs((np.abs(x) ** 2).mean() - 1.0) < 3 / np.sqrt(n)


class TestTrialStreams:
    """trial_states reimplements numpy's SeedSequence hash, then PCG64's
    seeding; every state it makes must equal
    default_rng([seed, t])'s bit for bit, so an oracle pins it. The seeds
    and indices cross the one-word/two-word boundary of both, and the 2^64
    wrap of the sums and the product. SystemConfig alone validates seeds."""

    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]
    INDICES = [0, 1, 2, 2**32 - 1, 2**32, 2**33, 2**64 - 2, 2**64 - 1]

    @staticmethod
    def state(row):
        state_lo, state_hi, inc_lo, inc_hi = (int(w) for w in row)
        return {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_default_rng(self, seed):
        states = trial_states(seed, self.INDICES)
        assert (states.dtype, states.shape) == (np.uint64, (len(self.INDICES), 4))
        for t, row, stream in zip(self.INDICES, states, system._seeded(states)):
            oracle = np.random.default_rng([seed, t])
            assert self.state(row) == oracle.bit_generator.state["state"], (seed, t)
            assert np.array_equal(stream.standard_normal(50), oracle.standard_normal(50)), (seed, t)

    def test_empty(self):
        assert trial_states(0, []).shape == (0, 4)
        assert trial_states(0, np.arange(0)).shape == (0, 4)

    def test_single(self):
        row, = trial_states(9, [5])
        assert self.state(row) == np.random.default_rng([9, 5]).bit_generator.state["state"]

    @pytest.mark.parametrize("bad", [1.5, -1, 2**64, "3", None, True])
    def test_rejects_bad_index(self, bad):
        with pytest.raises(ConfigError, match="trial index"):
            trial_states(0, [0, bad])

    @pytest.mark.parametrize("bad", [np.array([0, -1]), np.array([0, -(2**63)]),
                                     np.array([0, 1.5]), np.array([False, True]),
                                     np.array([[0, 1]])])
    def test_rejects_bad_index_array(self, bad):
        # An integer array is checked at once, with the message the
        # index-by-index check gives; other arrays go index by index.
        with pytest.raises(ConfigError, match="trial index"):
            trial_states(0, bad)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.uint8])
    def test_index_array_matches_list(self, dtype):
        indices = np.array([0, 1, 2, 100, np.iinfo(dtype).max], dtype=dtype)
        want = trial_states(3, indices.tolist())
        assert trial_states(3, indices).tobytes() == want.tobytes()
        assert trial_states(3, indices[::-2]).tobytes() == want[::-2].tobytes()

    @pytest.mark.parametrize("bad", [1.5, -1, 2**64])
    def test_rejects_bad_seed(self, bad):
        # A seed reaches trial_states only through a SystemConfig; one read
        # from a config file or the command line is refused there.
        with pytest.raises(ConfigError, match="seed"):
            SystemConfig.from_flat({"antennas": "4", "devices": "2", "seed": str(bad)})

    def test_numpy_integer_index(self):
        row, = trial_states(np.uint64(7), [np.int64(3)])
        assert self.state(row) == np.random.default_rng([7, 3]).bit_generator.state["state"]


class TestStateWrite:
    """One Generator takes a chunk's states by writing them into its
    PCG64's state bytes, once a probe has found them; where it finds them
    in neither word order, the public setter takes every state."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux builds only")
    def test_probe_accepts_installed_numpy(self):
        # Every numpy the tests run under on Linux stores the state inside
        # the PCG64 object, so the fast path must not fall away unseen.
        assert system._word_order() in [(0, 1, 2, 3), (1, 0, 3, 2)]

    @pytest.mark.parametrize("stored", [None, bytes(32)])
    def test_probe_rejects_unknown_layout(self, monkeypatch, stored):
        # No state bytes inside the object, or bytes that hold the known
        # state in neither order.
        monkeypatch.setattr(system, "_state_bytes",
                            lambda bg: None if stored is None else memoryview(bytearray(stored)))
        assert system._word_order.__wrapped__() is None

    @pytest.mark.parametrize("fallback", [False, True])
    def test_resume_continues_after_the_row(self, monkeypatch, fallback):
        if fallback:
            monkeypatch.setattr(system, "_word_order", lambda: None)
        cfg = config_for(3, 2)
        states = trial_states(4, [0, 2**40])
        for t, row in zip([0, 2**40], states):
            oracle = np.random.default_rng([4, t])
            oracle.standard_normal(trial_normals(cfg))
            got = system.resume(cfg, row)
            assert got.bit_generator.state == oracle.bit_generator.state, t
            assert got.standard_normal(7).tobytes() == oracle.standard_normal(7).tobytes(), t


class TestPrefetchedStreams:
    """draw_trials gives each trial of a chunk, stacked, the draws its own
    stream gives alone, block by block in `_layout` order; `resume` then
    gives the stream after its row."""

    def test_draws_follow_each_stream(self):
        k, m = 2, 3
        cfg = config_for(m, k)
        states = trial_states(3, range(4))
        reference, channels, symbols, noise = draw_trials(cfg, states)
        assert not svd_guard(channels).any()
        part = partition(m)
        for t in range(4):
            g = np.random.default_rng([3, t])
            want = [np.stack([cn(g, (m, part.interference_dim)) for _ in range(2)]),
                    cn(g, (k, 2, m, m)), cn(g, (k, 2, m, m)),
                    cn(g, (k, 2, part.signal_dim)), cn(g, (2, m))]
            got = [reference[t], channels.direct[t], channels.cross[t], symbols[t], noise[t]]
            for a, b in zip(got, want):
                assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), t
            resumed = system.resume(cfg, states[t])
            assert resumed.standard_normal(3).tobytes() == g.standard_normal(3).tobytes()

    @pytest.mark.parametrize("shape", [(3, 2, 4, 4), (5, 2, 2)])
    def test_matches_complex_division(self, shape):
        # The parts are scaled in place; the old formula divided the
        # assembled complex array by sqrt(2). On Gaussian parts, none of
        # them an exact zero, the two agree bit for bit.
        def divided(parts):
            d = np.empty(parts.shape[1:], dtype=np.complex128)
            d.real = parts[0]
            d.imag = parts[1]
            d /= np.sqrt(2.0)
            return d

        got = cn(np.random.default_rng(5), shape)
        want = divided(np.random.default_rng(5).standard_normal((2,) + shape))
        assert got.tobytes() == want.tobytes()
        # Two blocks over four trials: each block is its real parts, then
        # its imaginary parts.
        normals = np.random.default_rng(6).standard_normal((4, 2 * 2 * got.size))
        got = _complex_normal(normals, 2, shape)
        parts = normals.reshape((4, 2, 2) + shape)
        assert got.tobytes() == divided(np.moveaxis(parts, 2, 0)).tobytes()


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
        cfg = config_for(4, 1, scheme="genie", snr_db_grid=(0.0,))
        reps = 400
        res = run_trials(cfg, range(reps))
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
