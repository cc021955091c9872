"""Command line front end: run sweeps, compare efficiency, plot results.

Exit codes: 0 success, 2 configuration or input validation failure,
3 degenerate channels (set redraw budget exhausted), 4 a sia run that breaks
`engine.claim_problems`' three conditions of the paper's claim (exact recovery,
aligned rank, leakage), each printed as an error; its result is still written.

Files named by --out are written to a temporary file in the same
directory, created as open() creates a file (0666 less the umask), and
renamed over the target, so a failed write leaves any previous file intact.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import fields

from .__about__ import TOOL_NAME, __version__
from .baselines import SCHEME_NAMES, efficiency_report
from .engine import run_sweep, worker_count
from .errors import ConfigError, DegenerateChannels
from .output import (
    RunManifest,
    read_result_rows,
    write_compare_csv,
    write_result_csv,
    write_result_json,
)
from .plotting import render_nmse_svg
from .system import SCHEMES, SystemConfig, parse_config_file

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_INEXACT = 4


def _int_list(raw, flag):
    parts = [p for p in raw.split(",") if p.strip() != ""]
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers, got {raw!r}") from exc
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    return values


def build_parser():
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Two-cell multi-antenna AirComp simulator with "
                    "simultaneous signal-and-interference alignment.")
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Monte Carlo SNR sweep")
    run.add_argument("--antennas", type=int, default=None, help="antennas per node (M)")
    run.add_argument("--devices", type=int, default=None, help="devices per cell (K)")
    run.add_argument("--snr-db", dest="snr_db_grid", metavar="SNR_DB", default=None,
                     help="comma-separated SNR grid in dB (default 0,5,...,40)")
    run.add_argument("--trials", type=int, default=None, help="trials per SNR point")
    run.add_argument("--seed", type=int, default=None, help="base RNG seed (required)")
    run.add_argument("--scheme", choices=SCHEMES, default=None)
    run.add_argument("--config", default=None, help="flat key=value config file")
    run.add_argument("--out", default=None, help="output path (default stdout)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")

    cmp_ = sub.add_parser("compare", help="exact efficiency table")
    cmp_.add_argument("--antennas-list", required=True, help="comma-separated M values")
    cmp_.add_argument("--devices-list", required=True, help="comma-separated K values")
    cmp_.add_argument("--out", default=None, help="output path (default stdout)")

    plot = sub.add_parser("plot", help="render a results CSV to SVG")
    plot.add_argument("--in", dest="infile", required=True, help="results CSV from `run`")
    plot.add_argument("--out", required=True, help="SVG output path")
    return parser


def _resolve_run_config(args):
    values = {}
    if args.config is not None:
        values.update(parse_config_file(args.config))
    # Each run flag's dest is its SystemConfig field.
    for field in fields(SystemConfig):
        value = getattr(args, field.name)
        if value is not None:
            values[field.name] = str(value)
    for key in ("antennas", "devices", "seed"):
        if key not in values:
            raise ConfigError(f"--{key} is required (flag or config file)")
    return SystemConfig.from_flat(values)


def _write_atomic(path, write):
    """Call write(stream) on a temporary file beside `path`, then rename it
    over `path`; on any failure the temporary file is removed."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    print(f"wrote {path}", file=sys.stderr)


def _emit(out, write):
    if out is None:
        write(sys.stdout)
    else:
        _write_atomic(out, write)


def cmd_run(args):
    config = _resolve_run_config(args)
    workers = worker_count()
    result = run_sweep(config, workers=workers)
    manifest = RunManifest.create(
        "run", config.to_flat(), workers=workers, output=args.out)
    writer = write_result_csv if args.format == "csv" else write_result_json
    _emit(args.out, lambda fh: writer(result, manifest, fh))
    for problem in result.problems:
        print(f"error: {problem}", file=sys.stderr)
    return EXIT_INEXACT if result.problems else EXIT_OK


def cmd_compare(args):
    antennas = _int_list(args.antennas_list, "--antennas-list")
    devices = _int_list(args.devices_list, "--devices-list")
    reports = [efficiency_report(scheme, m, k)
               for m in antennas for k in devices for scheme in SCHEME_NAMES]
    manifest = RunManifest.create(
        "compare",
        {"antennas_list": ",".join(map(str, antennas)),
         "devices_list": ",".join(map(str, devices))},
        output=args.out)
    _emit(args.out, lambda fh: write_compare_csv(reports, manifest, fh))
    return EXIT_OK


def cmd_plot(args):
    try:
        rows = read_result_rows(args.infile)
        svg = render_nmse_svg(rows)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot plot {args.infile}: {exc}") from exc
    _emit(args.out, lambda fh: fh.write(svg))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    handlers = {"run": cmd_run, "compare": cmd_compare, "plot": cmd_plot}
    try:
        return handlers[args.command](args)
    except (ConfigError, DegenerateChannels, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE if isinstance(exc, DegenerateChannels) else EXIT_CONFIG


def entrypoint():
    sys.exit(main())
