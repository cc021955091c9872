import dataclasses
import io
import json
from xml.etree import ElementTree

import numpy as np
import pytest

from aircomp_sia.baselines import efficiency_report
from aircomp_sia.engine import run_sweep
from aircomp_sia.output import (
    COMPARE_COLUMNS,
    RESULT_COLUMNS,
    RunManifest,
    fmt,
    read_result_rows,
    sweep_rows,
    write_compare_csv,
    write_result_csv,
    write_result_json,
)
from aircomp_sia.plotting import render_nmse_svg
from aircomp_sia.system import SystemConfig


@pytest.fixture(scope="module")
def small_result():
    cfg = SystemConfig(antennas=4, devices=2, snr_db_grid=(0.0, 10.0, 20.0),
                       trials=3, seed=1)
    return run_sweep(cfg, workers=1)


@pytest.fixture()
def manifest(small_result):
    return RunManifest.create("run --seed 1",
                              small_result.config.to_flat(), workers=1)


class TestFmt:
    def test_types(self):
        assert fmt(3) == "3"
        assert fmt(True) == "True"
        assert fmt("sia") == "sia"
        assert fmt(0.1) == "0.1"
        assert fmt(np.float64(0.1)) == "0.1"
        assert fmt(np.int64(7)) == "7"
        assert fmt(2**70) == str(2**70)
        assert fmt(None) == "None"

    def test_float_precision(self):
        assert fmt(1 / 3) == "0.333333333333"
        assert fmt(1.5e-17) == "1.5e-17"
        assert fmt(float("nan")) == "nan"


class TestManifest:
    def test_comment_lines(self, manifest):
        lines = manifest.comment_lines()
        assert all(line.startswith("# ") for line in lines)
        keys = [line[2:].split("=", 1)[0] for line in lines]
        assert keys[:4] == ["tool", "version", "generated", "command"]
        assert "config.antennas" in keys
        assert "config.seed" in keys

    def test_field_order(self):
        full = RunManifest.create("run", {"seed": "1"}, workers=2, output="o.csv")
        keys = [line[2:].split("=", 1)[0] for line in full.comment_lines()]
        assert keys == ["tool", "version", "generated", "command", "workers", "output",
                        "config.seed"]
        assert list(full.to_dict()) == ["tool", "version", "generated", "command", "config",
                                        "workers", "output"]

    def test_values_keep_to_their_line(self):
        odd = RunManifest.create("run", {"seed": "1\n2"}, output="a\\b\rc\nd.csv")
        assert odd.comment_lines()[-2:] == ["# output=a\\\\b\\rc\\nd.csv",
                                            "# config.seed=1\\n2"]

    def test_optional_fields(self, small_result):
        bare = RunManifest.create("compare", {})
        assert not any(line.startswith("# workers=")
                       for line in bare.comment_lines())
        assert "workers" not in bare.to_dict()

    @pytest.mark.parametrize("workers, output", [(None, None), (2, None), (None, "o.csv"),
                                                 (1, "a\\b\nc.csv")])
    def test_shallow_copy_matches_asdict(self, small_result, workers, output):
        # to_dict copies the config shallow where it once deep-copied the
        # whole manifest through dataclasses.asdict; every output is the same.
        made = RunManifest.create("run --seed 1", small_result.config.to_flat(),
                                  workers=workers, output=output)
        old = {key: value for key, value in dataclasses.asdict(made).items()
               if value is not None}
        assert made.to_dict() == old and list(made.to_dict()) == list(old)
        data = dict(old)
        data.update({f"config.{key}": value for key, value in data.pop("config").items()})
        assert made.comment_lines() == [
            f"# {key}={value}".replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r")
            for key, value in data.items()]
        text = io.StringIO()
        write_result_json(small_result, made, text)
        assert json.loads(text.getvalue())["manifest"] == json.loads(json.dumps(old))
        made.to_dict()["config"]["seed"] = "changed"
        assert made.config == old["config"]

    def test_timestamp_format(self, manifest):
        stamp = manifest.generated
        assert len(stamp) == 20
        assert stamp.endswith("Z")
        assert stamp[10] == "T"


class TestResultCsv:
    def test_header_and_shape(self, small_result, manifest):
        buf = io.StringIO()
        write_result_csv(small_result, manifest, buf)
        lines = buf.getvalue().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        assert data[0] == ",".join(RESULT_COLUMNS)
        assert data[0] == ("scheme,M,K,snr_db,trials,nmse_mean,nmse_median,"
                           "leakage_mean,aligned_rank,analytic_nmse,dof_slope")
        assert len(data) == 1 + 3
        first = data[1].split(",")
        assert first[:5] == ["sia", "4", "2", "0", "3"]

    def test_rows_follow_the_column_order(self, small_result):
        # write_result_csv writes each row's values in key order.
        assert all(tuple(row) == RESULT_COLUMNS for row in sweep_rows(small_result))

    @pytest.mark.parametrize("grid", [(0.0, 10.0, 20.0), (17.5,)])
    def test_rows_render_as_fmt(self, manifest, grid):
        # Each data row is fmt's rendering of its cells; a one-point grid
        # has no slope, so its dof_slope cell is nan.
        result = run_sweep(SystemConfig(antennas=5, devices=2, snr_db_grid=grid, trials=3,
                                        seed=2), workers=1)
        buf = io.StringIO()
        write_result_csv(result, manifest, buf)
        data = [ln for ln in buf.getvalue().splitlines() if not ln.startswith("#")][1:]
        assert data == [",".join(map(fmt, row.values())) for row in sweep_rows(result)]
        assert data[-1].endswith(",nan") == (len(grid) == 1)

    def test_roundtrip(self, small_result, manifest, tmp_path):
        path = tmp_path / "out.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_result_csv(small_result, manifest, fh)
        rows = read_result_rows(path)
        assert len(rows) == 3
        assert [float(r["snr_db"]) for r in rows] == [0.0, 10.0, 20.0]
        want = sweep_rows(small_result)
        for got, ref in zip(rows, want):
            assert float(got["nmse_mean"]) == pytest.approx(ref["nmse_mean"],
                                                            rel=1e-11)

    def test_merged_files_share_one_header(self, small_result, manifest, tmp_path):
        buf = io.StringIO()
        write_result_csv(small_result, manifest, buf)
        path = tmp_path / "merged.csv"
        path.write_text(buf.getvalue() + buf.getvalue(), encoding="utf-8")
        rows = read_result_rows(path)
        assert len(rows) == 6

    def test_read_rejects_garbage(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# only comments\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_result_rows(empty)
        missing = tmp_path / "missing.csv"
        missing.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing columns"):
            read_result_rows(missing)
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("scheme,snr_db,nmse_mean\nsia,0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="cells"):
            read_result_rows(ragged)


class TestResultJson:
    def test_schema(self, small_result, manifest):
        buf = io.StringIO()
        write_result_json(small_result, manifest, buf)
        payload = json.loads(buf.getvalue())
        assert payload["schema_version"] == 1
        assert payload["columns"] == list(RESULT_COLUMNS)
        assert payload["manifest"]["tool"] == manifest.tool
        assert len(payload["rows"]) == 3
        row = payload["rows"][0]
        assert row["scheme"] == "sia"
        assert row["M"] == 4
        assert isinstance(row["nmse_mean"], float)

    def test_values_match_csv_precision(self, small_result, manifest):
        buf = io.StringIO()
        write_result_json(small_result, manifest, buf)
        rows = json.loads(buf.getvalue())["rows"]
        for row, ref in zip(rows, sweep_rows(small_result)):
            assert row["nmse_mean"] == float(fmt(ref["nmse_mean"]))

    def test_one_point_grid_is_strict_json(self, manifest):
        # One SNR point leaves dof_slope undefined (NaN); it must be null.
        cfg = SystemConfig(antennas=4, devices=2, snr_db_grid=(10.0,), trials=2, seed=1)
        result = run_sweep(cfg, workers=1)
        buf = io.StringIO()
        write_result_json(result, manifest, buf)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        rows = json.loads(buf.getvalue(), parse_constant=reject)["rows"]
        assert rows[0]["dof_slope"] is None
        assert isinstance(rows[0]["nmse_mean"], float)


class TestCompareCsv:
    def test_rational_streams(self, tmp_path):
        reports = [
            efficiency_report("conventional_ia", 5, 1),
            efficiency_report("sia", 5, 1),
            efficiency_report("sia", 4, 3),
        ]
        buf = io.StringIO()
        write_compare_csv(reports, RunManifest.create("compare", {}), buf)
        data = [ln for ln in buf.getvalue().splitlines()
                if not ln.startswith("#")]
        assert data[0] == ",".join(COMPARE_COLUMNS)
        assert data[1] == "conventional_ia,5,1,5/2,1,2"
        assert data[2] == "sia,5,1,2,2,5"
        assert data[3] == "sia,4,3,2,1,2"


class TestSvg:
    def rows_for(self, schemes):
        rows = []
        for s, scheme in enumerate(schemes):
            for p, snr in enumerate((0.0, 10.0, 20.0)):
                rows.append({"scheme": scheme, "snr_db": str(snr),
                             "nmse_mean": str(10.0 ** -(p + s))})
        return rows

    def test_one_polyline_per_scheme(self):
        svg = render_nmse_svg(self.rows_for(("sia", "no_ia")))
        assert svg.count("<polyline") == 2
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "sia" in svg and "no_ia" in svg

    def test_legend_text_is_escaped(self):
        schemes = ("sia&<x>", "a > b")
        root = ElementTree.fromstring(render_nmse_svg(self.rows_for(schemes)))
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[-2:] == sorted(schemes)

    def test_vertices_match_points(self):
        svg = render_nmse_svg(self.rows_for(("sia",)))
        start = svg.index('points="') + len('points="')
        coords = svg[start:svg.index('"', start)].split()
        assert len(coords) == 3

    def test_accepts_csv_roundtrip(self, small_result, manifest, tmp_path):
        path = tmp_path / "rows.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_result_csv(small_result, manifest, fh)
        svg = render_nmse_svg(read_result_rows(path))
        assert svg.count("<polyline") == 1

    def test_rejects_empty_and_bad_nmse(self):
        with pytest.raises(ValueError):
            render_nmse_svg([])
        bad = [{"scheme": "sia", "snr_db": "0", "nmse_mean": "-1"}]
        with pytest.raises(ValueError):
            render_nmse_svg(bad)
        garbled = [{"scheme": "sia", "snr_db": "zero", "nmse_mean": "1"}]
        with pytest.raises(ValueError):
            render_nmse_svg(garbled)
