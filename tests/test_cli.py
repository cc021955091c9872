import json
import os
from dataclasses import fields

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

        def perturbed(channels, reference):
            matrices = real(channels, reference)
            matrices.precoder *= 1.0 + 1e-6
            return matrices

        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        monkeypatch.setattr(engine, "build_sia_matrices", perturbed)
        out_path = tmp_path / "res.csv"
        code, _, err = run_cli(RUN_ARGS + ["--out", str(out_path)], capsys)
        assert code == 4
        assert "exact recovery failed" in err
        assert len(body_lines(out_path.read_text(encoding="utf-8"))) == 4
        code, _, _ = run_cli(RUN_ARGS + ["--scheme", "no_ia"], capsys)
        assert code == 0

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
        monkeypatch.setenv("AIRCOMP_WORKERS", "1")
        out_path = tmp_path / "res.csv"
        code, _, _ = run_cli(RUN_ARGS + ["--out", str(out_path)], capsys)
        assert code == 0
        umask = os.umask(0)
        os.umask(umask)
        assert out_path.stat().st_mode & 0o777 == 0o666 & ~umask

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
        code, _, err = run_cli(
            ["compare", "--antennas-list", "1", "--devices-list", "1"], capsys)
        assert code == 2

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
