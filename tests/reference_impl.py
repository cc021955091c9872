"""A textbook reference implementation of one trial, for differential
testing of `engine.run_trials`.

Everything is taken one trial, one device and one matrix at a time, with
no stacking and none of the engine's certificates or shortcuts:

- trial t draws from `np.random.default_rng([seed, t])` in the documented
  order: cell 0's reference draw, cell 1's, the direct stack, the cross
  stack, the symbols and the noise, each complex draw as all its real
  parts, then all its imaginary parts, divided by sqrt(2);
- each reference is the reduced QR of its cell's draw, and AP i's
  beamformer the trailing columns of a complete QR of the other cell's
  reference alone, conjugate-transposed;
- each device's precoder is built with `pinv`, and the received vectors
  and errors are explicit sums over the devices and cells.

A trial whose set the IA stage would reject (sia only: a cross channel
whose condition number exceeds COND_LIMIT, the one matrix the scheme
solves against), or whose construction would lose rank, is not modelled:
`reference_trial` raises instead, so the test only uses trials that keep
their first set. Direct channels are not tested for conditioning, and
no_ia and genie test no channel at all.
"""

from __future__ import annotations

import math

import numpy as np

from aircomp_sia.linalg import COND_LIMIT, FULL_RANK_RTOL, RANK_RTOL

from helpers import complement_beamformer


class NeedsRedraw(Exception):
    """The trial's first channel set would be redrawn by the engine."""


def _cn(g, shape):
    parts = g.standard_normal((2,) + shape)
    return (parts[0] + 1j * parts[1]) / math.sqrt(2.0)


def _check_conditioning(a, what):
    s = np.linalg.svd(a, compute_uv=False)
    if not (s[0] != 0.0 and s[0] <= COND_LIMIT * s[-1]):
        raise NeedsRedraw(f"{what} fails the conditioning test")


def _pinv_full_row_rank(a, what):
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= FULL_RANK_RTOL * s[0]:
        raise NeedsRedraw(f"{what} lost row rank")
    return np.linalg.pinv(a)


def _rank(a):
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > RANK_RTOL * s[0])) if s[0] > 0.0 else 0


def reference_trial(config, t):
    """Trial t of `config` scored at every point of config.snr_db_grid, as
    a dict of nmse (2, P), leakage (2,), aligned_rank (2,) and residual."""
    m, k = config.antennas, config.devices
    dof = m // 2
    n = m - dof
    g = np.random.default_rng([config.seed, t])

    reference = np.stack([np.linalg.qr(_cn(g, (m, n)))[0] for _ in range(2)])
    beamformer = complement_beamformer(reference)
    direct = _cn(g, (k, 2, m, m))
    cross = _cn(g, (k, 2, m, m))
    symbols = _cn(g, (k, 2, dof))
    noise = _cn(g, (2, m))
    if config.scheme == "genie":
        cross = np.zeros_like(cross)

    precoder = np.empty((k, 2, m, dof), dtype=complex)
    for dev in range(k):
        for i in (0, 1):
            what = f"trial {t}: device ({dev}, {i})"
            if config.scheme == "sia":
                _check_conditioning(cross[dev, i], f"trial {t}: cross[{dev}, {i}]")
                aligned = np.linalg.inv(cross[dev, i]) @ reference[i]
                effective = beamformer[i] @ direct[dev, i] @ aligned
                precoder[dev, i] = aligned @ _pinv_full_row_rank(effective, what)
            else:
                effective = beamformer[i] @ direct[dev, i]
                precoder[dev, i] = _pinv_full_row_rank(effective, what)

    desired = np.zeros((2, m), dtype=complex)
    interference = np.zeros((2, m), dtype=complex)
    target = np.zeros((2, dof), dtype=complex)
    for i in (0, 1):
        for dev in range(k):
            desired[i] += direct[dev, i] @ (precoder[dev, i] @ symbols[dev, i])
            interference[i] += cross[dev, 1 - i] @ (precoder[dev, 1 - i] @ symbols[dev, 1 - i])
            target[i] += symbols[dev, i]

    signal_power = sum(np.vdot(desired[i], desired[i]).real for i in (0, 1)) / (2 * m)
    nmse = np.empty((2, len(config.snr_db_grid)))
    leakage = np.empty(2)
    aligned_rank = np.empty(2, dtype=int)
    noiseless_power = target_power = 0.0
    for i in (0, 1):
        tp = np.vdot(target[i], target[i]).real
        for p, snr in enumerate(config.snr_db_grid):
            sigma = math.sqrt(signal_power / 10.0 ** (snr / 10.0))
            err = beamformer[i] @ (desired[i] + interference[i] + sigma * noise[i]) - target[i]
            nmse[i, p] = np.vdot(err, err).real / tp
        noiseless = beamformer[i] @ (desired[i] + interference[i]) - target[i]
        noiseless_power += np.vdot(noiseless, noiseless).real
        target_power += tp
        ip = np.vdot(interference[i], interference[i]).real
        leak = beamformer[i] @ interference[i]
        leakage[i] = np.vdot(leak, leak).real / ip if ip > 0.0 else 0.0
        blocks = np.hstack([cross[dev, i] @ precoder[dev, i] for dev in range(k)])
        aligned_rank[i] = _rank(blocks)
    return {"nmse": nmse, "leakage": leakage, "aligned_rank": aligned_rank,
            "residual": math.sqrt(noiseless_power / target_power)}
