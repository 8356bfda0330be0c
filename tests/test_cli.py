"""Command-line interface: subcommands, config handling, exit codes,
and reproducible outputs."""

import json
import math

import numpy as np
import pytest

from nfdof.cli import RunConfig, main
from nfdof.figures import figure_params


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDofCommand:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "dof")
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "full"
        assert rep["m_int"] == 11
        assert rep["m_real"] == pytest.approx(10.70142500145332)
        assert rep["m_plus"] == pytest.approx(4.85071250072666)
        assert rep["l_R"] == 5.0
        assert rep["warnings"] == []

    def test_partial_case_flags(self, capsys):
        code, out, _ = run(capsys, "dof", "--theta-t", "1.4")
        rep = json.loads(out)
        assert code == 0
        assert rep["status"] == "partial-rx"
        assert rep["visible_endpoint"] == "R-"
        assert rep["l_R"] == pytest.approx(4.2247672583)
        assert rep["m_real"] == pytest.approx(2.70392844841)

    def test_degrees_flag(self, capsys):
        code_r, out_r, _ = run(capsys, "dof", "--theta-t", str(math.radians(25)))
        code_d, out_d, _ = run(capsys, "dof", "--theta-t", "25", "--deg",
                               "--theta-r", "180")
        assert code_r == code_d == 0
        assert json.loads(out_r)["m_real"] == pytest.approx(
            json.loads(out_d)["m_real"])

    def test_touching_reports_null_count(self, capsys):
        code, out, _ = run(capsys, "dof", "--theta-r", str(math.pi / 2),
                           "--x0", "0.5", "--y0", "0")
        rep = json.loads(out)
        assert code == 0
        assert rep["status"] == "touching"
        assert rep["m_int"] is None
        assert rep["m_real"] is None  # NaN serialized as null

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "dof", "--format", "csv")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0].startswith("status,")
        assert lines[1].startswith("full,")


class TestConfigHandling:
    def test_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"theta_T": 1.4}))
        code, out, _ = run(capsys, "dof", "--config", str(cfgfile))
        assert code == 0
        assert json.loads(out)["status"] == "partial-rx"

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"theta_T": 1.4}))
        code, out, _ = run(capsys, "dof", "--config", str(cfgfile),
                           "--theta-t", "0")
        assert json.loads(out)["status"] == "full"

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "dof", "--config", str(bad))
        assert code == 2
        assert "error" in err

    def test_unknown_field_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no_such_field": 1}))
        code, _, err = run(capsys, "dof", "--config", str(bad))
        assert code == 2

    def test_empty_config_exit_2(self, capsys):
        code, _, err = run(capsys, "dof", "--config", "/dev/null")
        assert code == 2


class TestSweepCommand:
    def test_theta_sweep_csv(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "sweep": {"parameter": "theta_T", "start": -0.5, "stop": 0.5,
                      "steps": 5}}))
        code, out, _ = run(capsys, "sweep", "--config", str(cfgfile))
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "theta_T,m_real,m_int,status"
        assert len(lines) == 6
        assert lines[3].split(",")[0] == "0"

    def test_x0_sweep_through_collinear_overlap(self, tmp_path, capsys):
        """At x0 = 0 the default link's arrays lie on one line and overlap."""
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "sweep": {"parameter": "x0", "start": -10, "stop": 10, "steps": 5}}))
        code, out, _ = run(capsys, "sweep", "--config", str(cfgfile))
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "x0,m_real,m_int,status"
        assert lines[3] == "0,nan,0,touching"
        assert lines[1].endswith(",no-visibility")
        assert lines[5].endswith(",11,full")

    def test_unknown_parameter_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "sweep": {"parameter": "bogus", "start": 0, "stop": 1, "steps": 2}}))
        code, _, err = run(capsys, "sweep", "--config", str(cfgfile))
        assert code == 2

    def test_missing_section_exit_2(self, capsys):
        code, _, err = run(capsys, "sweep")
        assert code == 2


class TestSvdCompareCommand:
    def test_summary_row(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "sweep": {"parameter": "theta_T", "start": 0.0, "stop": 1.0,
                      "steps": 3}}))
        code, out, _ = run(capsys, "svd-compare", "--config", str(cfgfile))
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "theta_T,m_int,effective_dof,abs_diff"
        assert lines[-1].startswith("max,")
        max_diff = int(lines[-1].split(",")[-1])
        assert max_diff <= 1

    def test_manifest_records_largest_grid(self, tmp_path, capsys):
        """The default link at theta_T = 0 is the largest matrix; facing
        away (theta_T = pi) it has no modes and no matrix."""
        for start, grid in ((0.0, {"rows": 2001, "cols": 81}),
                            (math.pi, {"rows": 0, "cols": 0})):
            cfgfile = tmp_path / "run.json"
            cfgfile.write_text(json.dumps({
                "sweep": {"parameter": "theta_T", "start": start,
                          "stop": math.pi, "steps": 2}}))
            out = tmp_path / "svd.csv"
            code, _, _ = run(capsys, "svd-compare", "--config", str(cfgfile),
                             "--out", str(out))
            assert code == 0
            manifest = json.loads((tmp_path / "svd.csv.manifest.json").read_text())
            assert manifest["svd_grid"] == grid


class TestKernelScanCommand:
    def test_columns_and_minima(self, capsys):
        code, out, _ = run(capsys, "kernel-scan")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "zeta,re,im,magnitude,magnitude_farfield,is_minimum"
        assert len(lines) == 1025
        n_minima = sum(int(l.split(",")[-1]) for l in lines[1:])
        assert n_minima == 8

    @pytest.mark.parametrize("flags", [
        ("--theta-t", "0.3"),
        ("--theta-r", "3.0"),
        ("--theta-t", "0.3", "--theta-r", "3.0", "--y0", "1"),
        ("--x0", "100"),
        ("--l-t", "2", "--x0", "10"),
    ])
    def test_rotated_and_distant_links_scan(self, capsys, flags):
        """Links whose error-function arguments once exceeded |z| = 50."""
        code, out, err = run(capsys, "kernel-scan", *flags)
        assert code == 0, err
        assert len(out.strip().split("\n")) == 1025

    def test_manifest_records_kernel(self, tmp_path, capsys):
        """With an odd sample count the centre sample is the reference
        point itself, the one sample taken in the sinc limit."""
        for n_samples, sinc in ((1024, 0), (257, 1)):
            cfgfile = tmp_path / "run.json"
            cfgfile.write_text(json.dumps({"n_samples": n_samples}))
            out = tmp_path / "k.csv"
            code, _, _ = run(capsys, "kernel-scan", "--config", str(cfgfile),
                             "--out", str(out))
            assert code == 0
            manifest = json.loads((tmp_path / "k.csv.manifest.json").read_text())
            assert manifest["kernel"] == {"samples": n_samples,
                                          "sinc_fallback": sinc}


class TestStatsCommand:
    def test_small_run(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "stats": {"R": 20.0, "scenario": "full-visibility",
                      "grid_points": 21, "mc_samples": 20000}}))
        code, out, _ = run(capsys, "stats", "--config", str(cfgfile))
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "mu_th,pdf,ccdf_analytic,ccdf_mc,mc_samples,seed"
        assert len(lines) == 22
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(1.0, abs=1e-9)
        last = lines[-1].split(",")
        assert float(last[2]) == pytest.approx(0.0, abs=1e-9)

    def test_manifest_records_quadrature(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "stats": {"R": 200.0, "scenario": "partial-r-plus",
                      "grid_points": 21, "mc_samples": 20000}}))
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "stats", "--config", str(cfgfile),
                           "--out", str(out))
        assert code == 0 and err == ""
        quad = json.loads((tmp_path / "s.csv.manifest.json").read_text())["quadrature"]
        assert quad["nodes"] == 48
        assert 0.0 <= quad["abs_error_estimate"] <= 1e-9

    def test_warns_on_large_error_estimate(self, tmp_path, capsys, monkeypatch):
        from dataclasses import replace
        from nfdof import statistics as stats
        real = stats.ccdf
        monkeypatch.setattr(stats, "ccdf", lambda *a, **k: replace(
            real(*a, **k), abs_error_estimate=2e-9))
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "stats": {"grid_points": 5, "mc_samples": 20000}}))
        code, _, err = run(capsys, "stats", "--config", str(cfgfile))
        assert code == 0
        assert "error estimate 2.00e-09" in err

    def test_bad_scenario_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"stats": {"scenario": "bogus"}}))
        code, _, err = run(capsys, "stats", "--config", str(cfgfile))
        assert code == 2


class TestFigureCommand:
    def test_spectrum_recipe_values(self, capsys):
        code, out, _ = run(capsys, "figure", "--id", "fig5")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "index,singular_value,normalized_power,cumulative_fraction"
        row10 = lines[10].split(",")
        row11 = lines[11].split(",")
        assert float(row10[2]) == pytest.approx(0.450, abs=0.01)
        assert float(row11[2]) == pytest.approx(0.172, abs=0.01)
        assert float(row10[3]) == pytest.approx(0.9715, abs=0.002)

    def test_unknown_id_exit_2(self, capsys):
        code, _, err = run(capsys, "figure", "--id", "fig99")
        assert code == 2

    def test_kernel_and_spectrum_manifests(self, tmp_path, capsys):
        for fig_id, key, record in (
                ("fig3a", "kernel", {"samples": 1024, "sinc_fallback": 0}),
                ("fig5", "svd_grid", {"rows": 1001, "cols": 41})):
            out = tmp_path / f"{fig_id}.csv"
            code, _, _ = run(capsys, "figure", "--id", fig_id, "--out", str(out))
            assert code == 0
            manifest = json.loads(
                (tmp_path / f"{fig_id}.csv.manifest.json").read_text())
            assert manifest[key] == record

    def test_curve_manifest_records_quadrature(self, tmp_path, capsys):
        out = tmp_path / "fig9b.csv"
        code, _, err = run(capsys, "figure", "--id", "fig9b", "--out", str(out))
        assert code == 0 and err == ""
        manifest = json.loads((tmp_path / "fig9b.csv.manifest.json").read_text())
        assert manifest["quadrature"]["nodes"] == 48
        assert 0.0 <= manifest["quadrature"]["abs_error_estimate"] <= 1e-9

    def test_curve_figure_warns_on_large_error_estimate(self, capsys, monkeypatch):
        from dataclasses import replace
        from nfdof import statistics as stats
        real = stats.ccdf
        monkeypatch.setattr(stats, "ccdf", lambda *a, **k: replace(
            real(*a, **k), abs_error_estimate=2e-9))
        code, _, err = run(capsys, "figure", "--id", "fig10")
        assert code == 0
        assert "error estimate 2.00e-09" in err


def _bindings_config(tmp_path, fig_id, **fields):
    """Config file holding a recipe's RunConfig-named bindings, its
    theta_R sweep as the sweep section, and ``fields`` on top."""
    bindings = figure_params(fig_id)
    cfg = {k: v for k, v in bindings.items() if k in RunConfig.__dataclass_fields__}
    if "theta_R_sweep" in bindings:
        lo, hi, n = bindings["theta_R_sweep"]
        cfg["sweep"] = {"parameter": "theta_R", "start": lo, "stop": hi, "steps": n}
    cfg.update(fields)
    path = tmp_path / f"{fig_id}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _data_rows(out):
    return [line.split(",") for line in out.strip().split("\n")[1:]]


class TestFigureParity:
    """Commands given a recipe's bindings reproduce its data rows."""

    def test_sweep_reproduces_fig4(self, tmp_path, capsys):
        _, fig, _ = run(capsys, "figure", "--id", "fig4")
        code, out, _ = run(capsys, "sweep", "--config",
                           _bindings_config(tmp_path, "fig4"))
        assert code == 0
        assert _data_rows(out) == _data_rows(fig)

    def test_kernel_scan_reproduces_fig3a(self, tmp_path, capsys):
        _, fig, _ = run(capsys, "figure", "--id", "fig3a")
        code, out, _ = run(capsys, "kernel-scan", "--config",
                           _bindings_config(tmp_path, "fig3a"))
        assert code == 0
        assert [[r[0], r[3], r[4], r[5]] for r in _data_rows(out)] == _data_rows(fig)

    def test_sweep_reproduces_fig8_block(self, tmp_path, capsys):
        _, fig, _ = run(capsys, "figure", "--id", "fig8")
        p = figure_params("fig8")
        ratio = p["x0_over_LR"][1]
        code, out, _ = run(capsys, "sweep", "--config", _bindings_config(
            tmp_path, "fig8", x0_m=ratio * p["L_R_m"]))
        assert code == 0
        block = [r[1:] for r in _data_rows(fig) if float(r[0]) == ratio]
        assert _data_rows(out) == block


class TestReproducibility:
    def test_rerun_byte_identical(self, tmp_path):
        """Identical inputs produce byte-identical data and manifest."""
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "stats": {"R": 20.0, "scenario": "full-visibility",
                      "grid_points": 11, "mc_samples": 20000}}))
        for out in (out1, out2):
            code = main(["stats", "--config", str(cfgfile), "--seed", "7",
                         "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = (tmp_path / "a.csv.manifest.json").read_bytes()
        m2 = (tmp_path / "b.csv.manifest.json").read_bytes()
        assert m1 == m2

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["dof", "--theta-t", "0.3", "--out", str(out)])
        assert code == 0
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["tool"] == "nfdof"
        assert manifest["command"] == "dof"
        assert manifest["parameters"]["theta_T"] == pytest.approx(0.3)
