"""Shared test helpers."""

import numpy as np

from aircomp_sia.system import streams, trial_words


def trial_streams(seed, trials):
    """One Generator per trial index, in the state of
    `np.random.default_rng([seed, t])`: the streams `run_trials` gives its
    chunks."""
    return streams(trial_words(seed, trials))


def span_residual(reference, block):
    """Part of `block` outside the span of the orthonormal `reference`,
    relative to the norm of `block`: zero, up to rounding, when the span
    holds it."""
    leak = block - reference @ (reference.conj().T @ block)
    return np.linalg.norm(leak) / np.linalg.norm(block)
