import json
import os
from dataclasses import fields

import numpy as np
import pytest

from aircomp_sia.cli import main
from aircomp_sia.errors import DegenerateChannels
from aircomp_sia.system import SystemConfig


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def body_lines(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


RUN_ARGS = ["run", "--antennas", "4", "--devices", "3", "--snr-db", "0,10,20",
            "--trials", "5", "--seed", "17"]


class TestRun:
    def test_stdout_csv(self, capsys, monkeypatch):
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        code, out, err = run_cli(RUN_ARGS, capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# tool=aircomp-sia")
        assert any(ln.startswith("# config.seed=17") for ln in lines)
        data = body_lines(out)
        assert data[0].startswith("scheme,M,K,snr_db,trials,")
        assert len(data) == 4
        assert data[1].startswith("sia,4,3,0,5,")

    def test_file_output(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        out_path = tmp_path / "res.csv"
        code, out, err = run_cli(RUN_ARGS + ["--out", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        assert f"wrote {out_path}" in err
        assert out_path.exists()

    def test_rerun_is_byte_identical(self, capsys, monkeypatch):
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        _, first, _ = run_cli(RUN_ARGS, capsys)
        _, second, _ = run_cli(RUN_ARGS, capsys)
        assert body_lines(first) == body_lines(second)

    def test_worker_count_changes_nothing(self, capsys, monkeypatch):
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        _, serial, _ = run_cli(RUN_ARGS, capsys)
        monkeypatch.setenv("AIRCOMP_WORKERS", "4")
        _, pooled, _ = run_cli(RUN_ARGS, capsys)
        assert body_lines(serial) == body_lines(pooled)
        assert "# workers=1" in serial
        # An explicit count above the usable CPUs is clamped to them.
        assert f"# workers={min(4, len(os.sched_getaffinity(0)))}" in pooled

    def test_json_format(self, capsys, monkeypatch):
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        code, out, _ = run_cli(RUN_ARGS + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 3
        assert payload["manifest"]["config"]["seed"] == "17"

    def test_config_file_with_flag_override(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "# small smoke sweep\n"
            "antennas = 4\n"
            "devices = 2\n"
            "snr_db_grid = 0,10\n"
            "trials = 4\n"
            "seed = 5\n",
            encoding="utf-8")
        code, out, _ = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 0
        assert body_lines(out)[1].startswith("sia,4,2,")
        code, out, _ = run_cli(
            ["run", "--config", str(cfg), "--devices", "6"], capsys)
        assert code == 0
        assert body_lines(out)[1].startswith("sia,4,6,")

    def test_single_antenna_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        code, _, err = run_cli(
            ["run", "--antennas", "1", "--devices", "2", "--seed", "0"], capsys)
        assert code == 2
        assert "M=1 yields zero AirComp DoF" in err

    def test_seed_required(self, capsys):
        code, _, err = run_cli(["run", "--antennas", "4", "--devices", "2"],
                               capsys)
        assert code == 2
        assert "--seed is required" in err

    def test_antennas_required(self, capsys):
        code, _, err = run_cli(["run", "--devices", "2", "--seed", "0"], capsys)
        assert code == 2
        assert "--antennas is required" in err

    def test_bad_snr_grid(self, capsys):
        base = ["run", "--antennas", "4", "--devices", "2", "--seed", "0"]
        code, _, err = run_cli(base + ["--snr-db", "0,ten"], capsys)
        assert code == 2
        assert "snr_db_grid" in err and "ten" in err
        code, _, err = run_cli(base + ["--snr-db", "20,10,0"], capsys)
        assert code == 2

    def test_function_flag_rejected(self, capsys):
        # The nomographic function never reached the CSV body, so it is not
        # a run setting.
        code, _, err = run_cli(RUN_ARGS + ["--function", "mean"], capsys)
        assert code == 2
        assert "--function" in err

    def test_degenerate_exit_code(self, capsys, monkeypatch):
        def explode(config, workers=None):
            raise DegenerateChannels("forced")

        monkeypatch.setattr("aircomp_sia.cli.run_sweep", explode)
        code, _, err = run_cli(RUN_ARGS, capsys)
        assert code == 3
        assert "forced" in err

    def test_inexact_recovery_exit_code(self, capsys, monkeypatch, tmp_path):
        # A planted precoder error breaks exact recovery: the run still
        # writes its result, then exits with its own code.
        from aircomp_sia import engine

        real = engine.build_sia_matrices

        def perturbed(*args):
            return real(*args) * (1.0 + 1e-6)

        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        monkeypatch.setattr(engine, "build_sia_matrices", perturbed)
        out_path = tmp_path / "res.csv"
        code, _, err = run_cli(RUN_ARGS + ["--out", str(out_path)], capsys)
        assert code == 4
        assert "exact recovery failed" in err
        assert len(body_lines(out_path.read_text(encoding="utf-8"))) == 4
        code, _, _ = run_cli(RUN_ARGS + ["--scheme", "no_ia"], capsys)
        assert code == 0

    def test_spread_interference_exit_code(self, capsys, monkeypatch, tmp_path):
        # Interference that spans more than the N' = 2 reference dimensions
        # at M = 4 breaks the other half of the claim: exit 4, result written.
        from aircomp_sia import engine

        def spread(channels, precoders, reference, beamformer):
            return np.full(channels.cross.shape[:-4] + (2,), 3)

        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        monkeypatch.setattr(engine, "aligned_interference_dimension", spread)
        out_path = tmp_path / "res.csv"
        code, _, err = run_cli(RUN_ARGS + ["--out", str(out_path)], capsys)
        assert code == 4
        assert "aligned interference rank 3 exceeds 2" in err
        assert "exact recovery failed" not in err
        header, *rows = body_lines(out_path.read_text(encoding="utf-8"))
        column = header.split(",").index("aligned_rank")
        assert [row.split(",")[column] for row in rows] == ["3"] * 3

    def test_broken_alignment_exit_code(self, capsys, monkeypatch, tmp_path):
        # The real check, not a stub: a 1e-6 nudge to one entry of every
        # trial's first precoder adds one direction outside the N' = 2
        # reference dimensions at M = 4. The certificate cannot clear that
        # stack, so its SVD counts rank 3: exit 4, result written.
        from aircomp_sia import engine

        real = engine.build_sia_matrices

        def nudged(channels, reference, beamformer):
            precoders = real(channels, reference, beamformer)
            precoders[..., 0, :, 0, 0] += 1e-6
            return precoders

        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        monkeypatch.setattr(engine, "build_sia_matrices", nudged)
        out_path = tmp_path / "res.csv"
        code, _, err = run_cli(RUN_ARGS + ["--out", str(out_path)], capsys)
        assert code == 4
        assert "aligned interference rank 3 exceeds 2" in err
        header, *rows = body_lines(out_path.read_text(encoding="utf-8"))
        column = header.split(",").index("aligned_rank")
        assert [row.split(",")[column] for row in rows] == ["3"] * 3

    def test_planted_rank_zero_exit_code(self, capsys, monkeypatch):
        # A rank of 0 is no alignment at all, however far below N' = 2 it
        # sits; the CLI prints run_sweep's own problems, word for word.
        from aircomp_sia import engine

        def flat(channels, precoders, reference, beamformer):
            return np.zeros(channels.cross.shape[:-4] + (2,), dtype=int)

        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        monkeypatch.setattr(engine, "aligned_interference_dimension", flat)
        code, _, err = run_cli(RUN_ARGS, capsys)
        assert code == 4
        config = SystemConfig(antennas=4, devices=3, snr_db_grid=(0.0, 10.0, 20.0),
                              trials=5, seed=17)
        problems = engine.run_sweep(config, workers=1).problems
        assert problems == ["aligned interference rank 0 is below 2; "
                            "interference alignment failed"]
        assert err.splitlines() == [f"error: {problem}" for problem in problems]

    @pytest.mark.parametrize("antennas", ["3", "5"])
    def test_one_device_below_n_prime_exits_zero(self, capsys, monkeypatch, antennas):
        # K = 1 aligns dof = M // 2 < N' dimensions, as the claim says.
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        code, out, err = run_cli(["run", "--antennas", antennas, "--devices", "1",
                                  "--trials", "10", "--seed", "0"], capsys)
        assert (code, err) == (0, "")
        assert len(body_lines(out)) == 10

    def test_failed_write_keeps_previous_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        out_path = tmp_path / "res.csv"
        out_path.write_text("previous result\n", encoding="utf-8")

        def half_written(result, manifest, stream):
            stream.write("scheme,M,K\n")
            raise OSError("disk full")

        monkeypatch.setattr("aircomp_sia.cli.write_result_csv", half_written)
        code, _, err = run_cli(RUN_ARGS + ["--out", str(out_path)], capsys)
        assert code == 2
        assert "disk full" in err
        assert out_path.read_text(encoding="utf-8") == "previous result\n"
        fresh = tmp_path / "fresh.csv"
        code, _, _ = run_cli(RUN_ARGS + ["--out", str(fresh)], capsys)
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["res.csv"]

    def test_written_file_has_default_mode(self, capsys, monkeypatch, tmp_path):
        # The kernel masks the temporary file's 0666 at creation, so the
        # process umask is never read, nor set to 0 while other threads run.
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        umask = 0o027
        previous = os.umask(umask)

        def no_umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", no_umask)
        out_path = tmp_path / "res.csv"
        try:
            code, _, _ = run_cli(RUN_ARGS + ["--out", str(out_path)], capsys)
        finally:
            monkeypatch.undo()
            os.umask(previous)
        assert code == 0
        assert out_path.stat().st_mode & 0o777 == 0o666 & ~umask
        assert sorted(p.name for p in tmp_path.iterdir()) == ["res.csv"]

    def test_unwritable_output(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        target = tmp_path / "missing" / "res.csv"
        code, _, err = run_cli(RUN_ARGS + ["--out", str(target)], capsys)
        assert code == 2
        assert "error:" in err


# A changed config-file value for every SystemConfig field.
CHANGED_SETTING = {"antennas": "3", "devices": "2", "snr_db_grid": "0,10", "trials": "6",
                   "seed": "18", "scheme": "no_ia"}


class TestSettings:
    def test_every_setting_changes_the_body(self, capsys, monkeypatch, tmp_path):
        # A setting whose value the CSV body does not depend on is a no-op.
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        base = SystemConfig(antennas=4, devices=3, snr_db_grid=(0.0, 10.0, 20.0),
                            trials=5, seed=17).to_flat()
        path = tmp_path / "run.cfg"

        def body(values):
            path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()),
                            encoding="utf-8")
            code, out, _ = run_cli(["run", "--config", str(path)], capsys)
            assert code == 0
            return body_lines(out)

        baseline = body(base)
        for field in fields(SystemConfig):
            assert field.name in CHANGED_SETTING, f"no changed value for {field.name}"
            changed = body({**base, field.name: CHANGED_SETTING[field.name]})
            assert changed != baseline, f"setting {field.name} leaves the CSV body unchanged"


# The compare table for M in {2, 3, 4, 5, 8, 16} and K in {1, 5, 50}, pinned byte
# for byte below the provenance lines.
COMPARE_BODY = """\
scheme,M,K,streams,efficiency_num,efficiency_den
conventional_ia,2,1,1,1,2
sia,2,1,1,1,2
conventional_ia,2,5,1/3,1,6
sia,2,5,1,1,2
conventional_ia,2,50,2/51,1,51
sia,2,50,1,1,2
conventional_ia,3,1,3/2,1,2
sia,3,1,1,1,3
conventional_ia,3,5,1/2,1,6
sia,3,5,1,1,3
conventional_ia,3,50,1/17,1,51
sia,3,50,1,1,3
conventional_ia,4,1,2,1,2
sia,4,1,2,1,2
conventional_ia,4,5,2/3,1,6
sia,4,5,2,1,2
conventional_ia,4,50,4/51,1,51
sia,4,50,2,1,2
conventional_ia,5,1,5/2,1,2
sia,5,1,2,2,5
conventional_ia,5,5,5/6,1,6
sia,5,5,2,2,5
conventional_ia,5,50,5/51,1,51
sia,5,50,2,2,5
conventional_ia,8,1,4,1,2
sia,8,1,4,1,2
conventional_ia,8,5,4/3,1,6
sia,8,5,4,1,2
conventional_ia,8,50,8/51,1,51
sia,8,50,4,1,2
conventional_ia,16,1,8,1,2
sia,16,1,8,1,2
conventional_ia,16,5,8/3,1,6
sia,16,5,8,1,2
conventional_ia,16,50,16/51,1,51
sia,16,50,8,1,2
"""


class TestCompare:
    def test_table_values(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--antennas-list", "4,5", "--devices-list", "1"],
            capsys)
        assert code == 0
        data = body_lines(out)
        assert data[0] == "scheme,M,K,streams,efficiency_num,efficiency_den"
        assert "conventional_ia,4,1,2,1,2" in data
        assert "conventional_ia,5,1,5/2,1,2" in data
        assert "sia,4,1,2,1,2" in data
        assert "sia,5,1,2,2,5" in data

    def test_rows_cover_product(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--antennas-list", "2,4,8", "--devices-list", "1,3"],
            capsys)
        assert code == 0
        assert len(body_lines(out)) == 1 + 3 * 2 * 2

    def test_bad_lists(self, capsys):
        code, _, err = run_cli(
            ["compare", "--antennas-list", "", "--devices-list", "1"], capsys)
        assert code == 2
        code, _, err = run_cli(
            ["compare", "--antennas-list", "4,x", "--devices-list", "1"],
            capsys)
        assert code == 2
        # No scenario row is written for M = 0, M = 1 or K = 0.
        for antennas, devices in (("0", "1"), ("1", "1"), ("4", "0")):
            code, out, err = run_cli(
                ["compare", "--antennas-list", antennas, "--devices-list", devices], capsys)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")

    def test_body_is_pinned(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--antennas-list", "2,3,4,5,8,16", "--devices-list", "1,5,50"],
            capsys)
        assert code == 0
        assert "".join(ln for ln in out.splitlines(True) if not ln.startswith("#")) == COMPARE_BODY

    def test_file_output(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, err = run_cli(
            ["compare", "--antennas-list", "4", "--devices-list", "2",
             "--out", str(path)], capsys)
        assert code == 0
        assert path.exists()


class TestPlot:
    def make_results(self, capsys, monkeypatch, tmp_path, name="res.csv"):
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        path = tmp_path / name
        code, _, _ = run_cli(RUN_ARGS + ["--out", str(path)], capsys)
        assert code == 0
        return path

    def test_svg_output(self, capsys, monkeypatch, tmp_path):
        src = self.make_results(capsys, monkeypatch, tmp_path)
        out = tmp_path / "fig.svg"
        code, _, err = run_cli(
            ["plot", "--in", str(src), "--out", str(out)], capsys)
        assert code == 0
        svg = out.read_text(encoding="utf-8")
        assert svg.count("<polyline") == 1

    def test_merged_input(self, capsys, monkeypatch, tmp_path):
        src = self.make_results(capsys, monkeypatch, tmp_path)
        other = tmp_path / "no_ia.csv"
        code, _, _ = run_cli(
            ["run", "--antennas", "4", "--devices", "3", "--snr-db", "0,10,20",
             "--trials", "5", "--seed", "17", "--scheme", "no_ia",
             "--out", str(other)], capsys)
        assert code == 0
        merged = tmp_path / "merged.csv"
        merged.write_text(src.read_text(encoding="utf-8")
                          + other.read_text(encoding="utf-8"),
                          encoding="utf-8")
        out = tmp_path / "fig.svg"
        code, _, _ = run_cli(["plot", "--in", str(merged), "--out", str(out)],
                             capsys)
        assert code == 0
        assert out.read_text(encoding="utf-8").count("<polyline") == 2

    def test_newline_in_output_path(self, capsys, monkeypatch, tmp_path):
        # The path is escaped on its # line, so the body is a plain path's
        # and the file plots.
        odd = self.make_results(capsys, monkeypatch, tmp_path, name="x\ny.csv")
        plain = self.make_results(capsys, monkeypatch, tmp_path)
        text = odd.read_text(encoding="utf-8")
        assert body_lines(text) == body_lines(plain.read_text(encoding="utf-8"))
        assert f"# output={tmp_path}/x\\ny.csv" in text.splitlines()
        code, _, _ = run_cli(["plot", "--in", str(odd), "--out", str(tmp_path / "fig.svg")],
                             capsys)
        assert code == 0

    def test_missing_input(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["plot", "--in", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path / "fig.svg")], capsys)
        assert code == 2
        assert "cannot plot" in err

    def test_garbage_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,result\n1,2,3\n", encoding="utf-8")
        code, _, err = run_cli(
            ["plot", "--in", str(bad), "--out", str(tmp_path / "fig.svg")],
            capsys)
        assert code == 2


class TestParser:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert "aircomp-sia" in capsys.readouterr().out
