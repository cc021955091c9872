"""Shared test helpers."""

import math

import numpy as np

from aircomp_sia import engine, linalg
from aircomp_sia.errors import RankDeficient
from aircomp_sia.sia import build_reference_matrices
from aircomp_sia.system import (
    _complex_normal,
    draw_trials,
    partition,
    trial_states,
)


def trial_streams(seed, trials):
    """Each trial index's seeded PCG64 state, (T, 4) uint64, the state of
    `np.random.default_rng([seed, t])`: the rows `run_trials` gives its
    chunks."""
    return trial_states(seed, trials)


def cn(g, shape):
    """CN(0, 1) draws of `shape` from one Generator `g`, as a trial draws
    one block: all real parts, then all imaginary parts."""
    shape = tuple(shape)
    return _complex_normal(g.standard_normal(2 * math.prod(shape)), 1, shape)[0]


def reference_pair(g, antennas):
    """build_reference_matrices on the reference draws a trial takes first
    from its Generator `g`, one (M, N') block per cell."""
    shape = (antennas, partition(antennas).interference_dim)
    return build_reference_matrices(np.stack([cn(g, shape) for _ in range(2)]))


def draw_chunk(config, trials):
    """`draw_trials` on a chunk of trial indices `trials` as `run_trials`
    draws it, from config.seed's states: (reference draws, ChannelSet,
    symbols, noise)."""
    return draw_trials(config, trial_streams(config.seed, trials))


def run_chunk(config, trials, symbols=None):
    """`engine._run_chunk` on one chunk of trial indices `trials`, as
    `run_trials` runs it, on config.seed's states."""
    return engine._run_chunk(config, trial_streams(config.seed, trials), symbols)


def steady_faults(config, trials):
    """Minor page faults this process takes in one `run_trials` call on
    `trials`, after two warm-up calls on them."""
    import resource  # POSIX only

    for _ in range(2):
        engine.run_trials(config, trials)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    engine.run_trials(config, trials)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def noiseless_nmse(result):
    """Per-trial, per-cell noise-free NMSE of a TrialResult, (T, 2):
    sum |noiseless|^2 over the dof axis, over the cell's target power."""
    return np.sum(np.abs(result.noiseless) ** 2, axis=-1) / result.sig_power


def complement_beamformer(reference):
    """Beamformers for a planted reference pair (..., 2, M, N'): block i is
    the trailing columns of a complete QR of reference[1 - i], conjugate-transposed."""
    q = np.linalg.qr(reference[..., ::-1, :, :], mode="complete")[0]
    return q[..., reference.shape[-1]:].conj().swapaxes(-1, -2)


def span_residual(reference, block):
    """Part of `block` outside the span of the orthonormal `reference`,
    relative to the norm of `block`: zero, up to rounding, when the span
    holds it."""
    leak = block - reference @ (reference.conj().T @ block)
    return np.linalg.norm(leak) / np.linalg.norm(block)


def svd_rejects(a):
    """The conditioning test's exact verdict on one matrix, as a
    brute-force oracle."""
    s = np.linalg.svd(a, compute_uv=False)
    return not (s[0] != 0.0 and s[0] <= linalg.COND_LIMIT * s[-1])


def solve_rejects(mats):
    """`linalg.certified_solve`'s verdict on each matrix of an (n, M, M)
    stack: each is passed as a channel set of its own, so `failed` is that
    matrix's verdict. All False when the stack is solved."""
    try:
        linalg.certified_solve(mats[:, None, None], np.eye(mats.shape[-1]), "planted")
    except RankDeficient as exc:
        return exc.failed
    return np.zeros(len(mats), dtype=bool)


def svd_guard(channels):
    """Reference for the IA stage's certificate: the mask of sets holding a
    cross matrix that an SVD of every cross matrix rejects. Only sia tests
    it; no_ia and genie invert no square channel."""
    cross = channels.cross
    m = cross.shape[-1]
    bad = np.array([svd_rejects(a) for a in cross.reshape(-1, m, m)]).reshape(cross.shape[:-2])
    return bad.any(axis=(-2, -1))
