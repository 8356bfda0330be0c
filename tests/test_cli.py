"""Command-line interface: subcommands, config handling, exit codes,
and reproducible outputs."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nfdof
from nfdof import cli, figures, svd_oracle
from nfdof import statistics as stats
from nfdof.cli import (DOMAINS, MAX_GRID_POINTS, MAX_MC_SAMPLES, MAX_SCAN_SAMPLES,
                       MAX_SWEEP_STEPS, REQUIRED, main)
from nfdof.constants import wavelength_from_frequency
from nfdof.figures import FIGURES, curve_rows


# a theta_R sweep with visible steps, and one without any
_THETA_R_SWEEP = {"sweep": {"parameter": "theta_R", "start": 2.5, "stop": 3.5,
                            "steps": 5}}
_UNSEEN_SWEEP = {"sweep": {"parameter": "theta_R", "start": -1, "stop": 1, "steps": 5}}
_X0_SWEEP = {"parameter": "x0", "start": 0, "stop": 1, "steps": 5}
_SMALL_STATS = {"grid_points": 3, "mc_samples": 0}


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

    @pytest.mark.parametrize("argv,radians", [
        (["dof"], ["dof"]),
        (["dof", "--format", "csv"], ["dof", "--format", "csv"]),
        (["kernel-scan", "--theta-t", "10"],
         ["kernel-scan", "--theta-t", str(math.radians(10))]),
    ], ids=["dof-json", "dof-csv", "kernel-scan"])
    def test_degrees_flag_leaves_default_angles(self, capsys, argv, radians):
        """--deg converts the angles that were given, never a default: the
        default theta_R stays pi rad, not pi degrees."""
        code_r, out_r, _ = run(capsys, *radians)
        code_d, out_d, err_d = run(capsys, *argv, "--deg")
        assert code_r == code_d == 0, err_d
        assert out_d == out_r

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


class TestFloatFlags:
    """Each float flag takes a value in exponent form, negative where the
    parameter is signed, as ``--flag=value`` takes it."""

    @pytest.mark.parametrize("flag,value,decimal", [
        ("--frequency-hz", "6e10", "60000000000"),
        ("--l-t", "4e-1", "0.4"),
        ("--l-r", "2.5e0", "2.5"),
        ("--x0", "-1e-3", "-0.001"),
        ("--y0", "-2e0", "-2"),
        ("--theta-t", "-1e-1", "-0.1"),
        ("--theta-r", "-3.1e0", "-3.1"),
    ])
    def test_exponent_form(self, capsys, flag, value, decimal):
        code, out, err = run(capsys, "dof", flag, value)
        assert code == 0, err
        assert (0, out, "") == run(capsys, "dof", f"{flag}={decimal}")
        assert out != run(capsys, "dof")[1]


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

    @pytest.mark.parametrize("name,text,message", [
        ("missing.json", None, "cannot read config"),
        ("list.json", "[1, 2]", "top level must be an object"),
    ], ids=["unreadable", "not-an-object"])
    def test_config_refusals_exit_2(self, tmp_path, capsys, name, text, message):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, "dof", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and message in err

    def test_empty_config_exit_2(self, capsys):
        code, _, err = run(capsys, "dof", "--config", "/dev/null")
        assert code == 2

    @pytest.mark.parametrize("command, config, key", [
        ("sweep", {"sweep": {"parameter": "x0", "start": 0, "stop": 1, "step": 5}},
         "step"),
        ("stats", {"stats": {"grid_point": 11, "mc_samples": 10000}}, "grid_point"),
    ], ids=["sweep", "stats"])
    def test_unknown_section_key_exit_2(self, tmp_path, capsys, command, config, key):
        """A misspelled section key is refused by name instead of falling
        back to the key's default."""
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(config))
        code, out, err = run(capsys, command, "--config", str(cfgfile))
        assert code == 2 and out == ""
        assert f"unknown key {key!r} in section {command!r}" in err

    @pytest.mark.parametrize("command, config", [
        ("sweep", {"sweep": {"parameter": "x0", "stop": 1, "steps": 5}}),
        ("sweep --deg", {"sweep": {"parameter": "theta_T", "stop": 1, "steps": 5}}),
        ("sweep", {"sweep": {"parameter": "x0", "start": 0, "stop": 1,
                             "steps": "abc"}}),
        ("sweep", {"sweep": "x0"}),
        ("stats", {"stats": [1]}),
        ("stats", {"stats": {"grid_points": "abc"}}),
        ("stats", {"stats": {"scenario": "conditional-on-x0", "x0": "ten"}}),
        ("dof", {"x0_m": "ten"}),
        ("dof", {"seed": None}),
        ("dof", {"seed": True}),
        ("dof", {"x0_m": False}),
    ], ids=["sweep-no-start", "deg-sweep-no-start", "sweep-steps-text",
            "sweep-not-object", "stats-not-object", "grid-points-text",
            "stats-x0-text", "x0-text", "seed-null", "seed-bool", "x0-bool"])
    def test_malformed_value_exit_2(self, tmp_path, capsys, command, config):
        """A missing or mistyped config value is a config error: exit 2
        with a message, not a traceback or a numeric failure."""
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(config))
        code, out, err = run(capsys, *command.split(), "--config", str(cfgfile))
        assert code == 2
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("command, config, key", [
        ("stats", {"seed": 1.5}, "seed"),
        ("stats", {"seed": -1}, "seed"),
        ("kernel-scan", {"n_samples": 100.7}, "n_samples"),
        ("kernel-scan", {"n_samples": 10}, "n_samples"),
        ("svd-compare", {"svd_threshold": 1.5, **_THETA_R_SWEEP}, "svd_threshold"),
        ("svd-compare", {"svd_threshold": 1.5, **_UNSEEN_SWEEP}, "svd_threshold"),
        ("svd-compare", {"svd_spacing": -0.001, **_THETA_R_SWEEP}, "svd_spacing"),
        # non-finite values, which once ran to a wrong answer or a numeric
        # failure: NaN geometry gave no-visibility rows with 0 modes
        ("dof", {"theta_T": math.nan}, "theta_T"),
        ("dof", {"x0_m": math.inf}, "x0_m"),
        ("dof --x0 nan", {}, "x0_m"),
        ("sweep", {"sweep": {**_X0_SWEEP, "start": math.nan}}, "sweep.start"),
        ("stats", {"stats": {"R": math.nan, **_SMALL_STATS}}, "stats.R"),
        ("kernel-scan", {"zeta_ref": math.nan}, "zeta_ref"),
        # counts past their caps, which once tried to take the memory
        ("sweep", {"sweep": {**_X0_SWEEP, "steps": MAX_SWEEP_STEPS + 1}},
         "sweep.steps"),
        ("kernel-scan", {"n_samples": MAX_SCAN_SAMPLES + 1}, "n_samples"),
        ("stats", {"stats": {"grid_points": MAX_GRID_POINTS + 1, "mc_samples": 0}},
         "stats.grid_points"),
        ("stats", {"stats": {"mc_samples": MAX_MC_SAMPLES + 1, "grid_points": 3}},
         "stats.mc_samples"),
        # section numbers are JSON numbers, counts JSON integers
        ("sweep", {"sweep": {**_X0_SWEEP, "steps": 5.7}}, "sweep.steps"),
        ("sweep", {"sweep": {**_X0_SWEEP, "steps": "5"}}, "sweep.steps"),
        ("stats", {"stats": {"R": "20", **_SMALL_STATS}}, "stats.R"),
        # a section is checked whether or not the command reads it
        ("dof", {"sweep": {"parameter": "bogus"}}, "sweep.parameter"),
        ("stats", {"stats": {"x0": -3.0, **_SMALL_STATS}}, "stats.x0"),
        # a value no step reads: only the conditional scenario reads x0
        ("stats", {"stats": {"scenario": "full-visibility", "x0": 5.0,
                             **_SMALL_STATS}}, "stats.x0"),
        # lengths and frequency, once refused by the link (exit 1)
        ("dof --l-t -1", {}, "L_T_m"),
        ("dof", {"frequency_hz": 0}, "frequency_hz"),
    ], ids=["seed-fraction", "seed-negative", "n-samples-fraction",
            "n-samples-few", "threshold-visible", "threshold-unseen",
            "spacing-negative", "theta-t-nan", "x0-inf", "x0-flag-nan",
            "sweep-start-nan", "stats-r-nan", "zeta-ref-nan", "steps-above-cap",
            "n-samples-above-cap", "grid-points-above-cap", "mc-samples-above-cap",
            "steps-fraction", "steps-text", "stats-r-text", "dof-bad-sweep",
            "stats-x0-negative-unused", "stats-x0-unread", "length-flag-negative",
            "frequency-zero"])
    def test_value_outside_domain_exit_2(self, tmp_path, capsys, command, config,
                                         key):
        """A field of the wrong kind or out of range exits 2 and names the
        field before any computation: no output is written, whether or not
        a step would have used the value."""
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(config))
        outfile = tmp_path / "out.csv"
        code, out, err = run(capsys, *command.split(), "--config", str(cfgfile),
                             "--out", str(outfile))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {key} must be ")
        assert not outfile.exists()
        assert not (tmp_path / "out.csv.manifest.json").exists()

    def test_domains_cover_every_field(self):
        """Every default, of a field and of a section key, is inside its
        domain or marks a section key without one."""
        for key, (domain, default) in DOMAINS.items():
            if isinstance(domain, dict):
                assert default is None, key
                for name, ((test, _), value) in domain.items():
                    assert value is REQUIRED or test(value), (key, name)
            else:
                assert domain[0](default), key

    @pytest.mark.parametrize("flag, key", [
        ("--seed", "seed"), ("--frequency-hz", "frequency_hz"), ("--l-t", "L_T_m"),
        ("--l-r", "L_R_m"), ("--x0", "x0_m"), ("--y0", "y0_m"),
        ("--theta-t", "theta_T"), ("--theta-r", "theta_R")])
    def test_flag_sets_its_field(self, tmp_path, capsys, flag, key):
        """Each flag sets its field, and only that one."""
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "dof", flag, "3", "--out", str(out))
        assert code == 0, err
        manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
        assert manifest["parameters"] == {
            **{name: default for name, (_, default) in DOMAINS.items()}, key: 3}

    def test_negative_seed_flag_exit_2(self, capsys):
        code, out, err = run(capsys, "dof", "--seed", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error: seed must be an integer >= 0")


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

    @pytest.mark.parametrize("parameter,start,stop", [
        ("theta_R", 150.0, 210.0), ("theta_T", -30.0, 30.0)])
    def test_angle_sweep_in_degrees(self, tmp_path, parameter, start, stop):
        """A sweep given in degrees writes the rows of the radian sweep
        between math.radians of its endpoints, and its manifest records
        the radians."""
        outs = []
        for deg, ends in ((True, (start, stop)),
                          (False, (math.radians(start), math.radians(stop)))):
            cfgfile = tmp_path / f"{deg}.json"
            cfgfile.write_text(json.dumps({"sweep": {
                "parameter": parameter, "start": ends[0], "stop": ends[1],
                "steps": 7}}))
            out = tmp_path / f"{deg}.csv"
            assert main(["sweep", "--config", str(cfgfile), "--out", str(out)]
                        + ["--deg"] * deg) == 0
            outs.append((out.read_text(),
                         json.loads(Path(f"{out}.manifest.json").read_text())))
        (rows_d, manifest_d), (rows_r, manifest_r) = outs
        assert rows_d == rows_r
        assert "full" in rows_d
        assert manifest_d == manifest_r
        assert manifest_d["parameters"]["sweep"]["start"] == math.radians(start)
        assert manifest_d["parameters"]["theta_R"] == math.pi

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

    def test_oversize_matrix_exit_1(self, tmp_path, capsys):
        """A spacing that asks for a matrix past the size cap is a numeric
        failure before anything is allocated, not a MemoryError."""
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"svd_spacing": 1e-9, **_THETA_R_SWEEP}))
        out = tmp_path / "svd.csv"
        code, stdout, err = run(capsys, "svd-compare", "--config", str(cfgfile),
                                "--out", str(out))
        assert code == 1 and stdout == ""
        assert err.startswith("numeric failure: a ") and "channel matrix exceeds" in err
        assert not out.exists()

    def test_run_cap_exit_1(self, tmp_path, capsys, monkeypatch):
        """A sweep whose counted steps would build more than
        ``MAX_RUN_ENTRIES`` entries together is a numeric failure naming
        the step count and the total, before the first count starts; at
        the cap the run goes through."""
        built, real = [], figures._count
        monkeypatch.setattr(figures, "_count",
                            lambda *a, **k: built.append(a) or real(*a, **k))
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(_THETA_R_SWEEP))
        out = tmp_path / "svd.csv"
        total = 5 * 2001 * 81  # five fully visible steps
        monkeypatch.setattr(svd_oracle, "MAX_RUN_ENTRIES", total - 1)
        code, stdout, err = run(capsys, "svd-compare", "--config", str(cfgfile),
                                "--out", str(out))
        assert (code, stdout, built) == (1, "", [])
        assert err == (f"numeric failure: 5 channel matrices of {total} entries "
                       f"together exceed {total - 1} entries per run\n")
        assert not out.exists()
        monkeypatch.setattr(svd_oracle, "MAX_RUN_ENTRIES", total)
        code, _, err = run(capsys, "svd-compare", "--config", str(cfgfile),
                           "--out", str(out))
        assert (code, err, len(built)) == (0, "", 5)


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
        real = stats.ccdf
        monkeypatch.setattr(stats, "ccdf", lambda *a, **k: replace(
            real(*a, **k), abs_error_estimate=2e-9))
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "stats": {"grid_points": 5, "mc_samples": 20000}}))
        code, _, err = run(capsys, "stats", "--config", str(cfgfile))
        assert code == 0
        assert "error estimate 2.00e-09" in err

    def test_manifest_records_what_the_curve_reads(self, tmp_path):
        """Flags that the curve ignores change neither the data nor the
        manifest."""
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"stats": {"grid_points": 5, "mc_samples": 0}}))
        outs = [tmp_path / "plain.csv", tmp_path / "flags.csv"]
        for out, flags in zip(outs, ([], ["--x0", "5", "--theta-t", "1"])):
            argv = ["stats", "--config", str(cfgfile), *flags, "--out", str(out)]
            assert main(argv) == 0
        plain, flags = (Path(f"{out}.manifest.json").read_bytes() for out in outs)
        assert plain == flags
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert sorted(json.loads(plain)["parameters"]) == sorted(
            ["L_T_m", "L_R_m", "frequency_hz", "seed", "stats"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scenario", [
        "partial-r-plus", "partial-r-minus", "full-visibility"])
    @pytest.mark.parametrize("R", [1e155, 1e-158, 1e-300])
    def test_radius_past_the_float_range(self, tmp_path, capsys, R, scenario):
        """A disk radius whose square overflows, or underflows to a
        subnormal or 0, leaves the deconditioned curve not finite: a
        numeric failure of one line that names R, C and L_R, with no numpy
        warning and no data file."""
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"stats": {"R": R, "scenario": scenario}}))
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "stats", "--config", str(cfgfile), "--out", str(out))
        C = 0.2 / wavelength_from_frequency(30e9)
        assert code == 1
        assert err == ("numeric failure: the analytic curve is not finite at "
                       f"R = {R!r}, C = L_T/lambda = {C!r}, L_R = 5.0\n")
        assert list(tmp_path.iterdir()) == [cfgfile]

    @pytest.mark.parametrize("frequency", ["1e300", "1e-200"])
    def test_frequency_past_the_float_range(self, tmp_path, capsys, frequency):
        """At these frequencies C = L_T/lambda is about 7e290 or 7e-210,
        and the curve at the default radius is not finite: the one line
        names C beside R and L_R, and no file is written."""
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, "stats", "--frequency-hz", frequency, "--out", str(out))
        C = 0.2 / wavelength_from_frequency(float(frequency))
        assert code == 1
        assert err == ("numeric failure: the analytic curve is not finite at R = 20.0, "
                       f"C = L_T/lambda = {C!r}, L_R = 5.0\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["stats", "dof"])
    def test_frequency_whose_wavelength_overflows(self, tmp_path, capsys, command):
        """At 1e-300 Hz the wavelength overflows: ``stats`` refuses it as
        ``dof`` does, a numeric failure of one line, and writes no file."""
        out = tmp_path / "s.csv"
        code, _, err = run(capsys, command, "--frequency-hz", "1e-300", "--out", str(out))
        assert code == 1
        assert err == "numeric failure: wavelength must be positive and finite\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_conditional_at_a_huge_radius(self, tmp_path, capsys):
        """At x0 = R = 1e155 the conditional laws stay finite: the full
        law's overflow lies outside its support and is masked, without a
        numpy warning, and the curve is written."""
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"stats": {
            "R": 1e155, "x0": 1e155, "scenario": "conditional-on-x0",
            "grid_points": 5, "mc_samples": 0}}))
        code, out, err = run(capsys, "stats", "--config", str(cfgfile))
        assert (code, err) == (0, "")
        assert [line.split(",")[2] for line in out.split()[1:]] == ["1", "0", "0", "0", "0"]

    def test_bad_scenario_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"stats": {"scenario": "bogus"}}))
        code, _, err = run(capsys, "stats", "--config", str(cfgfile))
        assert code == 2

    @pytest.mark.parametrize("mc_samples, code", [
        (100, 2), (-5, 2), (9999, 2), (0, 0), (10_000, 0)])
    def test_mc_samples_range(self, tmp_path, capsys, mc_samples, code):
        """Monte Carlo takes 0 draws (no overlay) or at least 1e4; other
        counts are a config error, not a numeric failure."""
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({
            "stats": {"grid_points": 3, "mc_samples": mc_samples}}))
        got, out, err = run(capsys, "stats", "--config", str(cfgfile))
        assert got == code
        if code:
            assert out == "" and "mc_samples" in err
        else:
            assert len(out.strip().split("\n")) == 4


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

    def test_manifest_records_bindings_and_seed_only(self, tmp_path, capsys):
        """A figure reads its bindings and the seed and nothing else, so a
        link flag changes neither its data nor its manifest."""
        outputs = []
        for name, flags in (("a", ("--x0", "5")), ("b", ())):
            out = tmp_path / f"{name}.csv"
            code, _, _ = run(capsys, "figure", "--id", "fig4", *flags,
                             "--out", str(out))
            assert code == 0
            outputs.append((out.read_bytes(),
                            (tmp_path / f"{name}.csv.manifest.json").read_bytes()))
        assert outputs[0] == outputs[1]
        manifest = json.loads(outputs[0][1])
        assert "parameters" not in manifest
        assert manifest["bindings"] == json.loads(json.dumps(FIGURES["fig4"][1]))
        assert manifest["seed"] == 0

    def test_conditional_curves_read_radius_and_scenario(self):
        """fig10's radius and scenario are bindings, so its manifest names
        them and its loop runs on them."""
        loop, bindings = FIGURES["fig10"]
        assert (bindings["R"], bindings["scenario"]) == (20.0, stats.CONDITIONAL_ON_X0)
        # x0 = 25 m lies inside R = 30 m but outside the bound 20 m
        p = {**bindings, "R": 30.0, "cases": [[25.0, 2.0]], "grid_points": 5,
             "mc_samples": 0}
        _, cols, _ = loop(p, 0)
        cfg = stats.ScenarioConfig(R=30.0, L_T=0.2, L_R=2.0, x0=25.0, frequency=30e9,
                                   scenario=stats.CONDITIONAL_ON_X0)
        expected = curve_rows(cfg, 5, 0, 0)[1]
        for got, want in zip(cols[2:], expected):
            np.testing.assert_array_equal(got, want)
        # a scenario that reads no x0 refuses the cases' x0
        with pytest.raises(ValueError, match="x0 must be given only"):
            loop({**p, "scenario": stats.FULL_VISIBILITY}, 0)

    def test_curve_figure_warns_on_large_error_estimate(self, capsys, monkeypatch):
        from dataclasses import replace
        real = stats._ccdfs   # a curve figure's family of curves
        monkeypatch.setattr(stats, "_ccdfs", lambda *a, **k: [
            replace(curve, abs_error_estimate=2e-9) for curve in real(*a, **k)])
        code, _, err = run(capsys, "figure", "--id", "fig10")
        assert code == 0
        assert "error estimate 2.00e-09" in err


class TestQuadratureWarning:
    @pytest.mark.parametrize("argv", [["stats"], ["figure", "--id", "fig10"]])
    def test_one_line_and_the_same_bytes(self, tmp_path, capsys, monkeypatch, argv):
        """With every estimate past the threshold, ``stats`` and a curve
        figure each print one warning line and write the bytes of a run
        that does not warn."""
        written = []
        for threshold in (cli.QUADRATURE_WARN_ABS, -1.0):
            monkeypatch.setattr(cli, "QUADRATURE_WARN_ABS", threshold)
            out = tmp_path / f"{len(written)}.csv"
            code, _, err = run(capsys, *argv, "--out", str(out))
            assert code == 0
            manifest = Path(f"{out}.manifest.json")
            written.append((out.read_bytes(), manifest.read_bytes()))
        assert written[0] == written[1]
        assert len(err.splitlines()) == 1
        assert err.startswith("warning: deconditioning error estimate ")


def _bindings_config(tmp_path, fig_id, **fields):
    """Config file holding a recipe's bindings named like ``DOMAINS``
    fields, its theta_R sweep as the sweep section, and ``fields`` on top."""
    bindings = FIGURES[fig_id][1]
    cfg = {k: v for k, v in bindings.items() if k in DOMAINS}
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
        p = FIGURES["fig8"][1]
        ratio = p["x0_over_LR"][1]
        code, out, _ = run(capsys, "sweep", "--config", _bindings_config(
            tmp_path, "fig8", x0_m=ratio * p["L_R_m"]))
        assert code == 0
        block = [r[1:] for r in _data_rows(fig) if float(r[0]) == ratio]
        assert _data_rows(out) == block

    def test_fig8_one_call_is_the_stacked_sweeps(self, capsys):
        """fig8's rows, one array-core call on every (ratio, theta_R) link,
        are the five per-ratio ``sweep_rows`` stacked behind their ratio:
        bitwise on every column, and as CSV text."""
        p = FIGURES["fig8"][1]
        header, columns, record = figures.figure_rows("fig8")
        blocks = [figures.sweep_rows(figures.link_params({**p, "x0_m": ratio * p["L_R_m"]}),
                                     "theta_R", figures._grid(p["theta_R_sweep"]))
                  for ratio in p["x0_over_LR"]]
        assert header == ["x0_over_LR"] + blocks[0][0] and record == {}
        stacked = [np.concatenate([np.full(len(cols[0]), ratio) for ratio, (_, cols, _)
                                   in zip(p["x0_over_LR"], blocks)])]
        stacked += [np.concatenate([np.asarray(cols[j]) for _, cols, _ in blocks])
                    for j in range(4)]
        for got, want in zip(columns, stacked, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        text = []
        for cols in (columns, stacked):
            cli._emit(header, cols, argparse.Namespace(format="csv", out=None), {})
            text.append(capsys.readouterr().out)
        assert text[0] == text[1]


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


_TOUCHING_SWEEP = {"sweep": {"parameter": "x0", "start": -10, "stop": 10, "steps": 3}}
_BIG_SWEEP = {"sweep": {"parameter": "theta_T", "start": -0.5, "stop": 0.5, "steps": 3}}
_SVD_SWEEP = {"sweep": {"parameter": "theta_T", "start": 0.0, "stop": 1.0, "steps": 2}}
_BIG = ("--l-t", "1e10", "--frequency-hz", "1e18")
_TOUCHING = ("--theta-r", "1.5707963267948966", "--x0", "0.5", "--y0", "0")
_DOF_HEADER = ("status,visible_endpoint,l_T,l_R,eta_c,zeta_c,a_plus,a_minus,"
               "a_zero,rho_c,m_plus,m_minus,m_real,m_int,warnings\n")


_EXTREME_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
                   1.7976931348623157e308, 1 / 3, 1e16]
# columns of every kind a loop hands to the writer, and cells that _fmt
# alone formats: None, lists, bools and numpy scalars among other kinds
_ORACLE_TABLES = {
    "kinds": (["py_float", "np_float", "py_int", "np_int64", "np_str", "mixed",
               "py_bool", "np_bool", "np_float_list", "lists", "float_or_none"], [
        _EXTREME_FLOATS, np.array(_EXTREME_FLOATS),
        [2 ** 64 + 1, -2 ** 70, -5, 0, 1, 2 ** 63, 2 ** 63 - 1, -1],
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -3, 0, 1, 2, 3, 4]),
        np.array(["full", "no-visibility", "", "a;b", "x", "touching", "partial-tx",
                  "max"]),
        [None, 3, 2.5, "max", [1, np.float64(0.25)], (), True, np.int64(7)],
        [True, False] * 4, np.array([True, False] * 4),
        [np.float64(x) for x in _EXTREME_FLOATS],
        [["w1", "w2"], [], [np.float64(-0.0)], [None], ["x"], [2 ** 70], [1.5], []],
        [None, 1.5, math.nan, None, -0.0, 2.0, None, 1e-300],
    ]),
    # numpy columns whose spec comes from their dtype alone
    "dtypes": (["np_float32", "np_int32", "np_bool", "np_unicode", "np_nan_zero"], [
        np.array(_EXTREME_FLOATS[:5] + [3.4028235e38, 1 / 3, 16777217.0],
                 dtype=np.float32),
        np.array([np.iinfo(np.int32).min, np.iinfo(np.int32).max, -1, 0, 1, 7, 8, 9],
                 dtype=np.int32),
        np.array([False, True] * 4),
        np.array(["full", "", "touching", "R+", "a;b", "max", "-0", "nan"]),
        np.array([math.nan, -0.0, 0.0, -math.nan, -0.0, math.nan, 1e-300, -2.5])]),
    "one-row": (["status", "m_real", "m_int", "warnings"],
                [["full"], [10.70142500145332], [11], [["a", "b"]]]),
}


class TestOutputFormat:
    """Cells of every kind, byte for byte: NaN, no value, -0, counts past
    2**63, the svd-compare ``max`` row and a ';'-joined warning list."""

    @pytest.mark.parametrize("argv, config, expected", [
        (("sweep",), _TOUCHING_SWEEP,
         "x0,m_real,m_int,status\n-10,0,0,no-visibility\n0,nan,0,touching\n"
         "10,10.701425,11,full\n"),
        (("sweep", *_BIG), _BIG_SWEEP,
         "theta_T,m_real,m_int,status\n-0.5,1,1,partial-tx\n"
         "0,1.61690417e+19,16169041669088864256,full\n0.5,1,1,partial-tx\n"),
        (("svd-compare",), _SVD_SWEEP,
         "theta_T,m_int,effective_dof,abs_diff\n0,11,10,1\n1,6,6,0\nmax,,,1\n"),
        (("dof", *_TOUCHING), None, _DOF_HEADER +
         "touching,,0,0,0,0,nan,nan,nan,nan,nan,nan,nan,,center distance 0.5 m "
         "below 6.24 m; constant-amplitude approximation may be unreliable\n"),
        (("dof", "--y0", "-0", "--theta-t", "-0"), None, _DOF_HEADER +
         "full,,0.2,5,0,0,-0.244978663,0.244978663,-0,0,4.8507125,-4.8507125,"
         "10.701425,11,\n"),
        (("dof", "--x0", "1"), None, _DOF_HEADER +
         "full,,0.2,5,0,0,-1.19028995,1.19028995,0,0,18.5695338,-18.5695338,"
         "38.1390676,38,center distance 1 m below 6.24 m; constant-amplitude "
         "approximation may be unreliable\n"),
    ], ids=["touching-sweep", "count-past-2**63", "svd-max-row", "touching-dof",
            "negative-zero", "warning"])
    def test_csv_bytes(self, tmp_path, capsys, argv, config, expected):
        assert run(capsys, *argv, *_config_args(tmp_path, config),
                   "--format", "csv") == (0, expected, "")

    @pytest.mark.parametrize("argv, config, expected", [
        (("sweep",), _TOUCHING_SWEEP, """[
  {
    "m_int": 0,
    "m_real": 0.0,
    "status": "no-visibility",
    "x0": -10.0
  },
  {
    "m_int": 0,
    "m_real": null,
    "status": "touching",
    "x0": 0.0
  },
  {
    "m_int": 11,
    "m_real": 10.70142500145332,
    "status": "full",
    "x0": 10.0
  }
]
"""),
        (("sweep", *_BIG), _BIG_SWEEP, """[
  {
    "m_int": 1,
    "m_real": 1.0,
    "status": "partial-tx",
    "theta_T": -0.5
  },
  {
    "m_int": 16169041669088864256,
    "m_real": 1.6169041669088864e+19,
    "status": "full",
    "theta_T": 0.0
  },
  {
    "m_int": 1,
    "m_real": 1.0,
    "status": "partial-tx",
    "theta_T": 0.5
  }
]
"""),
        (("svd-compare",), _SVD_SWEEP, """[
  {
    "abs_diff": 1,
    "effective_dof": 10,
    "m_int": 11,
    "theta_T": 0.0
  },
  {
    "abs_diff": 0,
    "effective_dof": 6,
    "m_int": 6,
    "theta_T": 1.0
  },
  {
    "abs_diff": 1,
    "effective_dof": "",
    "m_int": "",
    "theta_T": "max"
  }
]
"""),
    ], ids=["touching-sweep", "count-past-2**63", "svd-max-row"])
    def test_json_bytes(self, tmp_path, capsys, argv, config, expected):
        assert run(capsys, *argv, *_config_args(tmp_path, config),
                   "--format", "json") == (0, expected, "")

    @pytest.mark.parametrize("argv, line", [
        (("dof", "--y0", "-0", "--theta-t", "-0"), '  "a_zero": -0.0,\n'),
        (("dof", *_TOUCHING), '  "m_int": null,\n'),
        (("dof", *_TOUCHING), '  "m_real": null,\n'),
        (("dof", "--x0", "1"), '  "warnings": [\n    "center distance 1 m below '
         '6.24 m; constant-amplitude approximation may be unreliable"\n  ],\n'),
    ], ids=["negative-zero", "touching-count", "touching-nan", "warning"])
    def test_json_report_cells(self, capsys, argv, line):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and line in out

    @pytest.mark.parametrize("table", [
        *_ORACLE_TABLES, "fig3a", "fig4", "fig5", "fig8", "fig11"])
    def test_table_matches_cell_oracle(self, capsys, table):
        """The whole-table CSV text is ``_fmt`` on every cell, joined by
        ',' and '\\n': for every kind of column and the real loops."""
        header, columns = (_ORACLE_TABLES[table] if table in _ORACLE_TABLES
                           else figures.figure_rows(table)[:2])
        expected = [",".join(header), *(
            ",".join(map(cli._fmt, row)) for row in zip(*columns)), ""]
        cli._emit(header, columns, argparse.Namespace(format="csv", out=None), {})
        assert capsys.readouterr().out.split("\n") == expected


def _config_args(tmp_path, config):
    if config is None:
        return ()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    return ("--config", str(path))


_CONSOLE_ENTRY = "import sys; from nfdof.cli import main; sys.exit(main())"


def _fresh_process(argv, entry=_CONSOLE_ENTRY):
    """(exit code, stdout, stderr) of ``entry``, by default the console
    entry point, run as its own process with ``argv``."""
    src = str(Path(nfdof.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", entry, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120, check=False)
    return proc.returncode, proc.stdout, proc.stderr


class TestReentrancy:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        """A usage error, then a sweep, a figure and a stats call in this
        process give the exit codes and bytes of fresh processes."""
        stats_cfg = tmp_path / "stats.json"
        stats_cfg.write_text(json.dumps({"stats": {"grid_points": 11,
                                                   "mc_samples": 10000}}))
        fig = tmp_path / "fig4.csv"
        calls = [
            ["sweep", "--format", "xml"],
            ["sweep", *_config_args(tmp_path, _TOUCHING_SWEEP)],
            ["figure", "--id", "fig4", "--out", str(fig)],
            ["stats", "--config", str(stats_cfg), "--seed", "5"],
        ]
        outputs = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            out = capsys.readouterr()
            outputs.append((code, out.out, out.err))
        figure_bytes = fig.read_bytes(), Path(f"{fig}.manifest.json").read_bytes()
        assert [c for c, _, _ in outputs] == [2, 0, 0, 0]
        for argv, in_process in zip(calls, outputs):
            assert _fresh_process(argv) == in_process
        assert (fig.read_bytes(), Path(f"{fig}.manifest.json").read_bytes()) \
            == figure_bytes

    def test_stats_after_another_scenario_match_a_fresh_process(self, tmp_path):
        """Full visibility, then conditional on x0, then full visibility
        again in this process: the Monte Carlo workers keep their chunk
        buffers from call to call, and nothing of one curve may reach the
        next, so the first and third files are identical and equal a fresh
        process's."""
        full = _config_args(tmp_path, {"stats": {"scenario": "full-visibility",
                                                 "mc_samples": 200_000}})
        conditional = ("--config", str(tmp_path / "conditional.json"))
        Path(conditional[1]).write_text(json.dumps(
            {"stats": {"scenario": "conditional-on-x0", "x0": 10.0,
                       "mc_samples": 200_000}}))

        def written(name):
            out = tmp_path / name
            return out.read_bytes(), Path(f"{out}.manifest.json").read_bytes()

        for i, args in enumerate((full, conditional, full)):
            assert main(["stats", *args, "--out", str(tmp_path / f"{i}.csv")]) == 0
        code, _, err = _fresh_process(["stats", *full, "--out", str(tmp_path / "fresh.csv")])
        assert code == 0, err
        assert written("0.csv") == written("2.csv") == written("fresh.csv")
        assert written("1.csv")[0] != written("0.csv")[0]


class TestImports:
    @pytest.mark.parametrize("command, config", [
        (["sweep"], {"sweep": {"parameter": "theta_T", "start": -3.14,
                               "stop": 3.14, "steps": 721}}),
        (["kernel-scan", "--theta-t", "0.3"], None),
        (["figure", "--id", "fig3a"], None),
    ], ids=["sweep", "kernel-scan", "fig3a"])
    def test_sweep_loads_neither_scipy_nor_mpmath(self, tmp_path, command, config):
        """Importing the CLI and running a sweep, a kernel scan or a kernel
        figure loads neither scipy nor mpmath: only ``erfi``,
        ``integrate`` and the test references need them."""
        entry = ("import sys; from nfdof.cli import main; code = main(); "
                 "print(code, sorted(m for m in sys.modules "
                 "if m.partition('.')[0] in ('scipy', 'mpmath')))")
        argv = [*command, *_config_args(tmp_path, config),
                "--out", str(tmp_path / "out.csv")]
        assert _fresh_process(argv, entry) == (0, "0 []\n", "")
