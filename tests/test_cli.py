"""CLI harness: suites run, reports serialize, seeds reproduce."""

import contextlib
import csv
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scipy.special import kv

import eisenspec
from eisenspec import cli, gl3, parseval, truncation
from eisenspec.cli import (RunConfig, build_parser, config_from_args,
                           emit_csv, run)
from eisenspec.cli import main
from eisenspec.contour import line_step
from eisenspec.errors import DomainError
from eisenspec.parseval import SpectralReport
from eisenspec.zeta import completed_L


def test_run_combinatorics_suite(tmp_path):
    cfg = RunConfig(command="combinatorics",
                    json_path=str(tmp_path / "report.json"))
    report = run(cfg)
    assert report.all_passed
    blob = json.loads((tmp_path / "report.json").read_text())
    assert blob["schema"] == "eisenspec.verification_report/3"
    assert set(blob) == {"checks", "command", "schema", "seed", "summary",
                         "timestamp", "timing"}
    assert blob["summary"]["failed"] == 0
    assert all("anchor" in c for c in blob["checks"])


def test_run_volume_suite():
    report = run(RunConfig(command="volume"))
    assert report.all_passed
    assert [r.name for r in report.records] == ["volume-gl2", "volume-gl3"]


def test_volume_closed_form_is_independent_of_zeta(monkeypatch):
    # an error in L itself, in every module that calls it: only a closed
    # form computed outside eisenspec can see it, and a relative error of
    # 1e-11 trips every default check, whatever the size of the volume
    for module in (gl3, cli):
        monkeypatch.setattr(module, "completed_L",
                            lambda s: completed_L(s) * (1.0 + 1e-11))
    report = run(RunConfig(command="volume"))
    assert [(r.name, r.passed) for r in report.records] == [
        ("volume-gl2", False), ("volume-gl3", False)]


@pytest.mark.parametrize("check, command, route", [
    ("L-functional-equation-grid", "zeta", "completed_L"),
    ("ratio-unimodular-axis", "zeta", "zeta"),
    ("L-reflection-pair", "lfn", "completed_L"),
    ("gl2-m-closed-form", "m-scalar", "zeta"),
])
def test_reflection_checks_can_fail(monkeypatch, check, command, route):
    # completed_L takes L(1 - s) left of Re 1/2, so L(s) = L(1 - s) holds by
    # construction; each check holds one route to an independent value (the
    # direct Euler-Maclaurin zeta or an mpmath value), and a relative error
    # of 1e-7 in that route fails it; gl2-m-closed-form holds m, a ratio_L
    # value, to the direct L(sigma) over L(1 + sigma) in the same way
    original = getattr(cli, route)
    monkeypatch.setattr(cli, route, lambda s: original(s) * (1.0 + 1e-7))
    report = run(RunConfig(command=command))
    assert check in [r.name for r in report.records if not r.passed]


def test_residue_node_stability_can_fail(monkeypatch):
    # a branch cut at s = 1 defeats the trapezoid rule: the sized circle
    # and its twin of twice the nodes disagree, here by 2.6e-3
    monkeypatch.setattr(cli, "completed_L", lambda s: np.sqrt(s - 1.0 + 0j))
    report = run(RunConfig(command="zeta"))
    stability, = [r for r in report.records
                  if r.name == "residue-node-stability"]
    assert not stability.passed
    assert stability.residual > 1e3 * cli.TOLERANCES["node-stability"]


@pytest.fixture
def fresh_r1():
    """R1 = Res_{s=1} ratio_L is cached per root datum and circle: a test
    that mutates the kernel computes it afresh under the mutation, and
    leaves no mutated value behind."""
    cached = parseval._ratio_residue
    cached.cache_clear()
    yield
    cached.cache_clear()


@pytest.mark.parametrize("kernel", ["_gamma_raw", "_ratio_L_raw"])
def test_conjugation_equivariance_can_fail(monkeypatch, kernel, fresh_r1):
    # the check reads exactly 0 on every seed; Gamma off by a factor of
    # 1 + 1e-9 i breaks the symmetry in L and fails it, and so does the
    # quotient of ratio_L alone, which the check covers with zeta and L
    zeta_module = importlib.import_module("eisenspec.zeta")
    original = getattr(zeta_module, kernel)
    monkeypatch.setattr(zeta_module, kernel,
                        lambda *args: original(*args) * (1.0 + 1e-9j))
    report = run(RunConfig(command="zeta"))
    assert "conjugation-equivariance" in [r.name for r in report.records
                                          if not r.passed]
    monkeypatch.undo()
    clean, = [r for r in run(RunConfig(command="zeta")).records
              if r.name == "conjugation-equivariance"]
    assert clean.passed and clean.residual == 0.0


def test_parseval_suite_checks_kappa_unity():
    report = run(RunConfig(command="parseval"))
    unity, = [r for r in report.records if r.name == "parseval-kappa-unity"]
    assert unity.passed
    assert unity.tolerance == cli.TOLERANCES["kappa-spread"]


def test_b_form_equivalence_sees_an_off_column_entry(monkeypatch):
    # B's factored form reads only the first column of N(z): an entry off
    # it, scaled by 1 + 1e-3, moves the nine-term form alone
    def skewed(z):
        n = gl3.n_matrix(z)
        n[0, 1] *= 1.0 + 1e-3
        return n

    monkeypatch.setattr(parseval, "n_matrix", skewed)
    report = run(RunConfig(command="parseval"))
    bform, = [r for r in report.records if r.name == "b-form-equivalence"]
    assert bform.tolerance == cli.TOLERANCES["b-form"]
    assert not bform.passed


def test_parseval_kappa_unity_sees_the_line_step(monkeypatch):
    # kappa_B's pickup sums on the half steps of B's line nodes, so a
    # coarse line step moves B and the pickup apart: at 0.5 |kappa_B - 1|
    # reads 4.4e-7 at seed 42, far outside the kappa-spread gate
    monkeypatch.setattr(parseval, "_LINE_STEP", 0.5)
    report = run(RunConfig(command="parseval"))
    failed = [r.name for r in report.records if not r.passed]
    assert "parseval-kappa-unity" in failed


@pytest.mark.parametrize("name", ["volume_constant", "completed_L",
                                  "n_matrix"])
def test_parseval_kappa_unity_sees_a_relative_fault(monkeypatch, name):
    # C's volume, B's L(2) or B's kernel, scaled by 1 + 1e-7, moves kappa_C
    # or kappa_B by 1e-7.  R1 comes from a circle of ratio_L, not from
    # 1/L(2), so a fault in completed_L does not cancel in kappa_B
    scaled = getattr(parseval, name)
    monkeypatch.setattr(parseval, name,
                        lambda *args: scaled(*args) * (1.0 + 1e-7))
    report = run(RunConfig(command="parseval"))
    failed = [r.name for r in report.records if not r.passed]
    assert "parseval-kappa-unity" in failed


def _on_the_R1_circle(z) -> bool:
    radius, nodes = parseval._RESIDUE_CIRCLE
    return np.size(z) == nodes and np.allclose(np.abs(np.asarray(z) - 1.0),
                                               radius)


@pytest.mark.parametrize("fault", ["value", "kernel", "circle"])
def test_parseval_kappa_unity_sees_a_fault_in_R1(monkeypatch, fresh_r1,
                                                 fault):
    # R1 enters kappa_B and the plane's pole correction, and is cached per
    # root datum and circle: R1 itself or the kernel on its circle off by
    # 1e-7, or a coarse circle of 3 nodes (a new key; R1 off by 6.8e-7),
    # each moves kappa_B past its gate
    zeta_module = importlib.import_module("eisenspec.zeta")
    if fault == "value":
        residue = parseval._ratio_residue
        monkeypatch.setattr(parseval, "_ratio_residue",
                            lambda *args: residue(*args) * (1.0 + 1e-7))
    elif fault == "kernel":
        raw = zeta_module._ratio_L_raw
        monkeypatch.setattr(
            zeta_module, "_ratio_L_raw", lambda z, plus: raw(z, plus) * (
                1.0 + 1e-7 * (plus is None and _on_the_R1_circle(z))))
    else:
        monkeypatch.setattr(parseval, "_RESIDUE_CIRCLE", (0.1, 3))
    failed = [r.name for r in run(RunConfig(command="parseval")).records
              if not r.passed]
    assert "parseval-kappa-unity" in failed


def test_parseval_gl3_sees_a_coarse_plane_step(monkeypatch):
    # at 1.8 line_step(1.0) the corrected plane rule reads 5.5e-10 at seed
    # 42, 18x the gate.  At 1.3x it reads 2.1e-13: below any gate of at
    # least 100x the worst residual of seeds 0-31 (2.6e-13)
    report = run(RunConfig(command="parseval"))
    assert all(r.passed for r in report.records)
    monkeypatch.setattr(parseval, "_PLANE_STEP", 1.8 * line_step(1.0))
    report = run(RunConfig(command="parseval"))
    failed = [r.name for r in report.records if not r.passed]
    assert "parseval-gl3" in failed


def _without_clock(blob: dict) -> dict:
    """A report without the two fields that vary between runs."""
    return {k: v for k, v in blob.items() if k not in ("timestamp", "timing")}


def test_seed_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(RunConfig(command="lfn", seed=7, json_path=str(p1)))
    run(RunConfig(command="lfn", seed=7, json_path=str(p2)))
    a = json.loads(p1.read_text())
    b = json.loads(p2.read_text())
    assert len(a["timing"]["wall_ms"]) == len(a["checks"]) == 6
    assert _without_clock(a) == _without_clock(b)


def test_every_check_is_timed():
    report = run(RunConfig(command="lfn"))
    assert len(report.records) == 6
    assert all(r.wall_ms > 0 for r in report.records)


@pytest.mark.parametrize("command", ["su3", "bogus"])
def test_unknown_command_is_refused(command):
    with pytest.raises(DomainError, match="expected one of zeta, lfn"):
        run(RunConfig(command=command))


def test_fourier_check_sees_a_bessel_error(monkeypatch):
    # the two pointwise routes of E hold each other: K off by 1e-6 moves the
    # Fourier route by ~1e-9 on D, above the gate set from seeds 0-31
    def by_name(report):
        return {r.name: r for r in report.records}

    assert by_name(run(RunConfig(command="maass-selberg")))[
        "eisenstein-fourier-vs-theta"].passed
    monkeypatch.setattr(truncation, "kv",
                        lambda nu, x: kv(nu, x) * (1.0 + 1e-6))
    assert not by_name(run(RunConfig(command="maass-selberg")))[
        "eisenstein-fourier-vs-theta"].passed


def _no_constant(name):
    raise AssertionError(f"the report holds the non-JSON token {name}")


@pytest.mark.parametrize("argv, suite, error", [
    (["--command", "nmatrix", "--z", "1.5"], "nmatrix", "PoleProximity"),
    (["--command", "parseval", "--lambda0", "1.02,1.5"], "parseval",
     "DomainError"),
    # non-finite values parse as floats and are refused by the library
    (["--command", "maass-selberg", "--s1", "nan"], "maass-selberg",
     "DomainError"),
    (["--command", "maass-selberg", "--T", "nan"], "maass-selberg",
     "DomainError"),
    (["--command", "parseval", "--beta", "inf"], "parseval", "DomainError"),
    (["--command", "nmatrix", "--z", "nan"], "nmatrix", "DomainError"),
], ids=("nmatrix", "parseval", "s1-nan", "T-nan", "beta-inf", "z-nan"))
def test_library_error_is_a_failed_check(tmp_path, argv, suite, error):
    report = run(config_from_args(build_parser().parse_args(argv)))
    record = report.records[-1]
    assert record.name == f"{suite}-error"
    assert record.computed.startswith(f"{error}: ")
    assert not record.passed and record.residual == 1.0
    path = tmp_path / "report.json"
    assert main(argv + ["--json", str(path)]) == 1
    blob = json.loads(path.read_text(), parse_constant=_no_constant)
    assert blob["checks"][-1]["name"] == f"{suite}-error"
    assert blob["summary"]["failed"] == 1


@pytest.mark.parametrize("argv", [
    ["--command", "nmatrix", "--z", "abc"],
    ["--command", "parseval", "--lambda0", "x"],
    ["--command", "parseval", "--lambda0", "1.5,1.5,9"],
    ["--command", "zeta", "--seed", "-1"],
    ["--command", "zeta", "--seed", "1.5"],
], ids=("z", "lambda0", "lambda0-three-values", "seed-negative",
        "seed-fraction"))
def test_bad_flag_value_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {argv[2]}: " in capsys.readouterr().err


def test_lambda0_single_value_is_the_diagonal():
    args = build_parser().parse_args(["--lambda0", "1.7"])
    assert config_from_args(args).lambda0 == (1.7, 1.7)


def test_csv_changes_no_check(tmp_path):
    argv = ["--command", "maass-selberg"]
    path = tmp_path / "ms.csv"
    plain = run(config_from_args(build_parser().parse_args(argv)))
    with_csv = run(config_from_args(build_parser().parse_args(
        argv + ["--csv", str(path)])))
    assert [r.name for r in with_csv.records] == \
        [r.name for r in plain.records]
    assert path.exists()


def test_nmatrix_suite_csv(tmp_path):
    csv_path = tmp_path / "nmatrix.csv"
    cfg = RunConfig(command="nmatrix", csv_path=str(csv_path))
    report = run(cfg)
    assert report.all_passed
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "z_imag"
    assert rows[0][-1] == "minor_residual"
    assert len(rows) == 122
    assert all(float(r[-1]) < 1e-9 for r in rows[1:])


def test_emit_csv_roundtrip(tmp_path):
    path = tmp_path / "series.csv"
    emit_csv({"t": [0.0, 1.0], "value": [0.5235987755982988, 2.0]}, str(path))
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "t,value"
    assert "0.52359877559829882" in lines[1]


def test_emit_csv_empty_and_inconsistent(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv({"a": [], "b": []}, str(path))
    assert path.read_text() == "a,b\n"
    with pytest.raises(ValueError):
        emit_csv({"a": [1.0], "b": []}, str(path))


def test_parser_tolerance_flags(capsys):
    parser = build_parser()
    args = parser.parse_args(["--command", "zeta", "--lambda0", "1.4,1.6"])
    cfg = config_from_args(args)
    assert cfg.lambda0 == (1.4, 1.6)
    # gates are pinned in cli.TOLERANCES: no option overrides one
    with pytest.raises(SystemExit) as exit_info:
        main(["--command", "zeta", "--tol-functional-equation", "1e-9"])
    assert exit_info.value.code == 2
    assert "--tol-functional-equation" in capsys.readouterr().err
    # the CLI checks GL(2) and GL(3) only: no option selects a group
    with pytest.raises(SystemExit) as exit_info:
        main(["--command", "volume", "--group", "gl4"])
    assert exit_info.value.code == 2
    assert "--group" in capsys.readouterr().err


def test_spectral_json_round_trip():
    # complex values as [re, im]; built by hand, so no quadrature runs
    rep = SpectralReport(
        shifted=1.5 + 2e-14j, shifted_alt=1.5 - 1e-14j, A_direct=1.2 + 0j,
        A_symmetric=1.2 + 0j, B_direct=0.2 + 0j, B_factored=0.2 + 0j,
        C=0.1 + 0j, kappa_B=1.0, kappa_C=1.0, residual_abs=3e-14,
        residual_rel=2e-14, config={"lam0": [1.5, 1.5]})
    blob = json.loads(cli.spectral_json(rep))
    assert blob["schema"] == "eisenspec.spectral_report/2"
    assert isinstance(blob["shifted"], list) and len(blob["shifted"]) == 2
    assert blob["residual_rel"] <= 1e-4


def test_cli_exit_code_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "eisenspec.cli", "--command", "lfn"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all checks passed" in proc.stdout


def test_failing_tolerance_reported(monkeypatch):
    monkeypatch.setitem(cli.TOLERANCES, "volume", -1.0)  # unmeetable
    report = run(RunConfig(command="volume"))
    assert not report.all_passed
    blob = report.to_json_dict()
    assert blob["summary"]["failed"] > 0


def test_cli_exit_code_nonzero_on_failure():
    # z = 1.5 is a pole of N, so the nmatrix suite records nmatrix-error
    proc = subprocess.run(
        [sys.executable, "-m", "eisenspec.cli", "--command", "nmatrix",
         "--z", "1.5"],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout and "nmatrix-error" in proc.stdout


def test_print_table_follows_redirect_stdout(capsys):
    report = run(RunConfig(command="combinatorics"))
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        report.print_table()
    assert "-- 3 checks: all checks passed" in buffer.getvalue()
    assert capsys.readouterr().out == ""


def test_scipy_special_loads_only_where_it_is_used():
    # importing the package and its CLI leaves scipy.special unloaded; the
    # Bessel and incomplete-Gamma routes of one Maass-Selberg record load it
    code = ("import sys, eisenspec, eisenspec.cli\n"
            "print('scipy.special' in sys.modules)\n"
            "eisenspec.maass_selberg_record(1.2, 1.3, 1.0)\n"
            "print('scipy.special' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(eisenspec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
