"""Correctness gate applied to every benchmarked sweep.

`check_sweep` returns a list of problems (empty when the sweep passes).
The sia checks are the paper's central claim: exact noiseless recovery,
with interference confined to M - floor(M/2) dimensions for any K, and
NMSE on the analytic noise-only prediction. The no_ia checks confirm the
interference floor that SIA removes is present. Every comparison is
written so that NaN fails it.
"""

from __future__ import annotations

import csv
import io
import math

SIA_LEAKAGE_MAX = 1e-20      # measured ~1e-31: numerical noise only
ORACLE_Z_MAX = 4.0           # |oracle_gap / oracle_gap_se| at every SNR point
SLOPE_TARGET = -0.1          # log10(NMSE) per dB when only noise remains
SLOPE_TOL = 0.01
NO_IA_LEAKAGE_MIN = 0.1
NO_IA_FLOOR_FACTOR = 10.0    # top-SNR NMSE over the noise-only prediction

TEXT_COLUMNS = {"scheme"}
INT_COLUMNS = {"M", "K", "trials", "aligned_rank"}
# Columns compared with an absolute tolerance; every other float uses REFERENCE_RTOL.
ABS_TOL_COLUMNS = {"leakage_mean": 1e-20}
REFERENCE_RTOL = 1e-9


def csv_body(text):
    """The deterministic part of a result CSV: everything below the # block."""
    return "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))


def body_rows(body):
    return list(csv.DictReader(io.StringIO(body)))


def _float(row, column):
    try:
        return float(row[column])
    except (KeyError, TypeError, ValueError):
        return float("nan")


def check_sweep(result, body, config):
    """Gate one sweep: its SweepResult and the CSV body written from it."""
    problems = []
    grid = [float(s) for s in config.snr_db_grid]
    rows = body_rows(body)
    if len(rows) != len(grid) or len(result.points) != len(grid):
        return [f"expected {len(grid)} rows, body has {len(rows)}, "
                f"result has {len(result.points)}"]
    for i, (row, snr) in enumerate(zip(rows, grid)):
        expected = {"scheme": config.scheme, "M": str(config.antennas),
                    "K": str(config.devices), "trials": str(config.trials)}
        for column, value in expected.items():
            if row.get(column) != value:
                problems.append(f"row {i}: {column}={row.get(column)!r}, expected {value!r}")
        if not _float(row, "snr_db") == snr:
            problems.append(f"row {i}: snr_db={row.get('snr_db')!r}, expected {snr}")
        for column in ("nmse_mean", "nmse_median", "analytic_nmse", "leakage_mean"):
            value = _float(row, column)
            if not (math.isfinite(value) and value >= 0.0):
                problems.append(f"row {i}: {column}={row.get(column)!r} is not finite and >= 0")
    if config.scheme == "sia":
        problems += _check_sia(result, rows, config)
    elif config.scheme == "no_ia":
        problems += _check_no_ia(rows)
    return problems


def _check_sia(result, rows, config):
    problems = []
    aligned = config.antennas - config.antennas // 2
    for i, row in enumerate(rows):
        if row.get("aligned_rank") != str(aligned):
            problems.append(f"row {i}: aligned_rank={row.get('aligned_rank')!r}, expected {aligned}")
        if not _float(row, "leakage_mean") <= SIA_LEAKAGE_MAX:
            problems.append(f"row {i}: leakage_mean={row.get('leakage_mean')} > {SIA_LEAKAGE_MAX}")
        slope = _float(row, "dof_slope")
        if not abs(slope - SLOPE_TARGET) <= SLOPE_TOL:
            problems.append(f"row {i}: dof_slope={slope} not within {SLOPE_TOL} of {SLOPE_TARGET}")
    for pt in result.points:
        z = pt.oracle_gap / pt.oracle_gap_se if pt.oracle_gap_se > 0 else float("nan")
        if not abs(z) <= ORACLE_Z_MAX:
            problems.append(f"snr {pt.snr_db}: NMSE {z:.3g} standard errors from the "
                            f"noise-only prediction (limit {ORACLE_Z_MAX})")
    return problems


def _check_no_ia(rows):
    problems = []
    for i, row in enumerate(rows):
        if not _float(row, "leakage_mean") >= NO_IA_LEAKAGE_MIN:
            problems.append(f"row {i}: leakage_mean={row.get('leakage_mean')} < {NO_IA_LEAKAGE_MIN}")
    top = rows[-1]
    if not _float(top, "nmse_mean") >= NO_IA_FLOOR_FACTOR * _float(top, "analytic_nmse"):
        problems.append(f"top SNR: nmse_mean={top.get('nmse_mean')} is under "
                        f"{NO_IA_FLOOR_FACTOR}x analytic_nmse={top.get('analytic_nmse')}: "
                        "no interference floor")
    return problems


def compare_to_reference(body, reference):
    """Compare a CSV body with a stored one, column by column.

    Every reference column must be present; columns added since the
    reference was stored are ignored. Text and integer cells match
    exactly, leakage_mean to 1e-20 absolute, other floats to rtol 1e-9.
    """
    rows, ref_rows = body_rows(body), body_rows(reference)
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    if not ref_rows:
        return []
    missing = [c for c in ref_rows[0] if c not in rows[0]]
    if missing:
        return [f"columns missing against the reference: {', '.join(missing)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for column, want in ref.items():
            got = row[column]
            if column in TEXT_COLUMNS or column in INT_COLUMNS:
                same = got == want
            elif column in ABS_TOL_COLUMNS:
                same = abs(_float(row, column) - _float(ref, column)) <= ABS_TOL_COLUMNS[column]
            else:
                same = math.isclose(_float(row, column), _float(ref, column),
                                    rel_tol=REFERENCE_RTOL, abs_tol=0.0)
            if not same:
                problems.append(f"row {i}: {column}={got}, reference {want}")
    return problems
