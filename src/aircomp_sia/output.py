"""Result serialisation: manifest-stamped CSV and JSON, plus CSV reading.

The CSV body (header plus data rows) is deterministic for a given seed
and config; run provenance lives in leading # comment lines so it never
perturbs the body.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

from . import __about__

RESULT_COLUMNS = (
    "scheme", "M", "K", "snr_db", "trials", "nmse_mean", "nmse_median",
    "leakage_mean", "aligned_rank", "analytic_nmse", "dof_slope",
)
# fmt's rendering of a data row, in one format string: the float columns to
# 12 significant digits, the others verbatim.
_CSV_ROW = ",".join("{:.12g}" if column in ("snr_db", "nmse_mean", "nmse_median", "leakage_mean",
                                            "analytic_nmse", "dof_slope") else "{}"
                    for column in RESULT_COLUMNS)
COMPARE_COLUMNS = ("scheme", "M", "K", "streams", "efficiency_num", "efficiency_den")
SCHEMA_VERSION = 1


def fmt(value):
    """Render a cell: integers verbatim, floats with 12 significant digits."""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


@dataclass
class RunManifest:
    tool: str
    version: str
    generated: str
    command: str
    config: dict
    workers: int | None = None
    output: str | None = None

    @classmethod
    def create(cls, command, config_flat, workers=None, output=None):
        stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        return cls(
            tool=__about__.TOOL_NAME,
            version=__about__.__version__,
            generated=stamp,
            command=command,
            config=dict(config_flat),
            workers=workers,
            output=output,
        )

    def comment_lines(self):
        """The manifest as # key=value lines, config keys last, values escaped to one line."""
        data = self.to_dict()
        data.update({f"config.{key}": value for key, value in data.pop("config").items()})
        return [f"# {key}={value}".replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")
                for key, value in data.items()]

    def to_dict(self):
        """Every field in declaration order; optional fields left unset are omitted."""
        return {key: value for key, value in asdict(self).items() if value is not None}


def sweep_rows(result):
    """Flatten a SweepResult into one dict per SNR point, keys in RESULT_COLUMNS order."""
    config = result.config
    rows = []
    for pt in result.points:
        rows.append({
            "scheme": config.scheme,
            "M": config.antennas,
            "K": config.devices,
            "snr_db": float(pt.snr_db),
            "trials": pt.trials,
            "nmse_mean": pt.nmse_mean,
            "nmse_median": pt.nmse_median,
            "leakage_mean": pt.leakage_mean,
            "aligned_rank": pt.aligned_rank,
            "analytic_nmse": pt.analytic_nmse,
            "dof_slope": result.dof_slope,
        })
    return rows


def write_result_csv(result, manifest, stream):
    lines = manifest.comment_lines() + [",".join(RESULT_COLUMNS)]
    lines += [_CSV_ROW.format(*row.values()) for row in sweep_rows(result)]
    stream.write("\n".join(lines) + "\n")


def write_result_json(result, manifest, stream):
    rows = []
    for row in sweep_rows(result):
        clean = {}
        for col in RESULT_COLUMNS:
            value = row[col]
            if isinstance(value, float):
                # Strict JSON has no NaN or Infinity; a one-point grid has no slope.
                value = float(fmt(value)) if math.isfinite(value) else None
            clean[col] = value
        rows.append(clean)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest.to_dict(),
        "columns": list(RESULT_COLUMNS),
        "rows": rows,
    }
    json.dump(payload, stream, indent=2, allow_nan=False)
    stream.write("\n")


def write_compare_csv(reports, manifest, stream):
    for line in manifest.comment_lines():
        stream.write(line + "\n")
    stream.write(",".join(COMPARE_COLUMNS) + "\n")
    for rep in reports:
        streams = str(rep.streams.numerator) if rep.streams.denominator == 1 else str(rep.streams)
        cells = (rep.scheme, str(rep.antennas), str(rep.devices), streams,
                 str(rep.efficiency.numerator), str(rep.efficiency.denominator))
        stream.write(",".join(cells) + "\n")


def read_result_rows(path):
    """Read back a results CSV, tolerating concatenated files.

    Comment lines are skipped and repeated header lines (from merging two
    outputs) are ignored. Raises ValueError on malformed or empty input.
    """
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if header is None:
                header = next(csv.reader(io.StringIO(stripped)))
                missing = {"scheme", "snr_db", "nmse_mean"} - set(header)
                if missing:
                    raise ValueError(f"missing columns: {', '.join(sorted(missing))}")
                continue
            cells = next(csv.reader(io.StringIO(stripped)))
            if cells == header:
                continue
            if len(cells) != len(header):
                raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
            rows.append(dict(zip(header, cells)))
    if header is None or not rows:
        raise ValueError("no data rows")
    return rows
