"""CLI harness: suites run, reports serialize, seeds reproduce."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eisenspec
import eisenspec.zeta as zeta_module
from eisenspec import cli, gl3, parseval, truncation
from eisenspec.cli import RunConfig, build_parser, config_from_args, run
from eisenspec.cli import main
from eisenspec.contour import circle_nodes, line_step
from eisenspec.errors import DomainError, PoleProximity
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


@pytest.mark.parametrize("kernel", ["_gamma_raw", "_ratio_L_raw"])
def test_conjugation_equivariance_can_fail(monkeypatch, kernel, fresh_r1):
    # the check reads exactly 0 on every seed; Gamma off by a factor of
    # 1 + 1e-9 i breaks the symmetry in L and fails it, and so does the
    # quotient of ratio_L alone, which the check covers with zeta and L
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


def test_parseval_suite_checks_kappa_unity(tmp_path):
    path = tmp_path / "r.json"
    report = run(RunConfig(command="parseval", json_path=str(path)))
    unity, = [r for r in report.records if r.name == "parseval-kappa-unity"]
    assert unity.passed
    assert unity.tolerance == cli.TOLERANCES["kappa-spread"]
    # the run writes its --json report and nothing beside it
    assert list(tmp_path.iterdir()) == [path]


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
    """Whether every point of z is a node of the R1 circle, 1 + u, or the
    conjugate of one: ratio_L passes the kernel each distinct point of the
    circle once, up to conjugation, so the circle is found by its values."""
    circle = 1.0 + circle_nodes(*parseval._RESIDUE_CIRCLE)
    return np.size(z) > 1 and bool(np.all(np.isin(
        z, np.concatenate((circle, circle.conj())))))


@pytest.mark.parametrize("fault", ["value", "kernel", "circle"])
def test_parseval_kappa_unity_sees_a_fault_in_R1(monkeypatch, fresh_r1,
                                                 fault):
    # R1 enters kappa_B and the plane's pole correction, and is cached per
    # root datum (fresh_r1 empties the cache): R1 itself or the kernel on
    # its circle off by 1e-7, or a coarse circle of 3 nodes (R1 off by
    # 6.8e-7), each moves kappa_B past its gate
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
    real = truncation.kv
    monkeypatch.setattr(truncation, "kv",
                        lambda nu, x: real(nu, x) * (1.0 + 1e-6))
    assert not by_name(run(RunConfig(command="maass-selberg")))[
        "eisenstein-fourier-vs-theta"].passed


def _no_constant(name):
    raise AssertionError(f"the report holds the non-JSON token {name}")


def _raising(err):
    def fail(*args, **kwargs):
        raise err
    return fail


# Each suite's library error, raised by a library call the suite makes, with
# the message the library gives at the input named by the id: a suite's
# inputs are pinned, so no flag reaches one.
@pytest.mark.parametrize("suite, target, attr, err", [
    ("nmatrix", gl3, "n_matrix", PoleProximity(
        "ratio_L: argument (1+0j) within 1e-06 of pole at 1.0", 1.0, 1.0)),
    ("parseval", parseval, "parseval_check_gl3", DomainError(
        "contour base (1.02, 1.5) needs every coordinate >= 1.05")),
    ("maass-selberg", cli, "maass_selberg_record", DomainError(
        "the Fourier expansion needs real s > 1, got nan")),
    ("maass-selberg", truncation.TruncationParam, "__post_init__",
     DomainError("truncation needs T > 0 (y0 > 1), got nan")),
    ("parseval", parseval.PaleyWienerGaussian, "__post_init__",
     DomainError("PaleyWienerGaussian needs 0 < beta < inf")),
    ("nmatrix", gl3, "n_matrix", DomainError(
        "ratio_L: argument (nan-0j) is not finite")),
], ids=("nmatrix", "parseval", "s1-nan", "T-nan", "beta-inf", "z-nan"))
def test_library_error_is_a_failed_check(tmp_path, monkeypatch, suite,
                                         target, attr, err):
    monkeypatch.setattr(target, attr, _raising(err))
    error = type(err).__name__
    argv = ["--command", suite]
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


@pytest.mark.parametrize("argv, message", [
    # the points a check reads are constants of its suite: no flag moves
    # one, not even to its own value
    (["--command", "nmatrix", "--z", "0.7j"], "unrecognized arguments: --z"),
    (["--command", "parseval", "--lambda0", "1.5,1.5"],
     "unrecognized arguments: --lambda0"),
    (["--command", "parseval", "--beta", "0.5"],
     "unrecognized arguments: --beta"),
    (["--command", "maass-selberg", "--T", "1.0"],
     "unrecognized arguments: --T"),
    # a run's only output is its --json report
    (["--command", "nmatrix", "--csv", "x.csv"],
     "unrecognized arguments: --csv"),
    (["--command", "maass-selberg", "--s1", "1.2"],
     "unrecognized arguments: --s1"),
    (["--command", "maass-selberg", "--s2", "1.3"],
     "unrecognized arguments: --s2"),
    (["--command", "zeta", "--seed", "-1"], "argument --seed: "),
    (["--command", "zeta", "--seed", "1.5"], "argument --seed: "),
], ids=("z", "lambda0", "beta", "T", "csv", "s1", "s2", "seed-negative",
        "seed-fraction"))
def test_bad_flag_value_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("parseval", "--json"),
                                           ("lfn", "--json")])
def test_output_in_a_missing_directory_is_refused(tmp_path, capsys, command,
                                                  flag):
    # refused before any suite runs: the report's write would otherwise
    # raise FileNotFoundError after the checks
    path = str(tmp_path / "missing" / "out")
    with pytest.raises(DomainError, match="directory does not exist"):
        run(RunConfig(command=command, json_path=path))
    with pytest.raises(SystemExit) as exit_info:
        main(["--command", command, flag, path])
    assert exit_info.value.code == 2
    assert "directory does not exist" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_parser_tolerance_flags(capsys):
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
    # N(z) made to raise PoleProximity, so the nmatrix suite records
    # nmatrix-error; the module then runs as python -m eisenspec.cli does
    code = ("import runpy, sys\n"
            "from eisenspec import gl3\n"
            "from eisenspec.errors import PoleProximity\n"
            "def pole(z):\n"
            "    raise PoleProximity('ratio_L: pole at 1.0', 1.0, 1.0)\n"
            "gl3.n_matrix = pole\n"
            "sys.argv = ['eisenspec', '--command', 'nmatrix']\n"
            "runpy.run_module('eisenspec.cli', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", code],
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


def test_the_cli_runs_without_scipy():
    # K and the incomplete Gamma are the package's own rules, so a run of
    # every suite loads no scipy
    code = ("import sys, eisenspec.cli\n"
            "assert eisenspec.cli.main(['--command', 'all']) == 0\n"
            "print('scipy' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(eisenspec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"
