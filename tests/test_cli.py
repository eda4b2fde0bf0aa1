"""CLI contract: exit codes, report files, precedence, reproducibility."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import runpy
import sys
import tempfile
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_lab import __version__, cli, domain, solver, verify
from neumann_lab.cli import main
from neumann_lab.domain import DomainSpec, build_mesh
from neumann_lab.errors import ConfigError, DegenerateData


def run(args):
    return main(args)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_solve_manufactured(tmp_path):
    out = str(tmp_path)
    code = run(["solve", "--domain", "disk", "--f", "1", "--g", "0.5",
                "--nr", "32", "--ntheta", "64", "--compat", "project",
                "--exact", "r^2/4 - 1/8", "--out", out, "--format", "both"])
    assert code == 0
    doc = read_json(os.path.join(out, "solve_report.json"))
    assert doc["report"]["error_sup_vs_exact"] <= 1e-3
    assert doc["report"]["solve"]["residual"] <= 1e-10
    assert os.path.exists(os.path.join(out, "solve_report.csv"))
    assert "timestamp" in doc["meta"]


def test_solve_zero_problem(tmp_path):
    code = run(["solve", "--f", "0", "--g", "0", "--nr", "8", "--ntheta", "16",
                "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "solve_report.json")
    assert doc["report"]["solve"]["solution_sup"] <= 1e-10


def test_solve_incompatible_exits_2(tmp_path, capsys):
    code = run(["solve", "--f", "1", "--g", "0", "--nr", "8", "--ntheta", "16",
                "--compat", "reject", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "3.14" in err          # reported defect is the disk area


def test_solve_bad_expression_exits_4(tmp_path):
    assert run(["solve", "--f", "2x", "--g", "0", "--nr", "8", "--ntheta", "16",
                "--out", str(tmp_path)]) == 4


def test_solve_bad_domain_exits_4(tmp_path):
    assert run(["solve", "--domain", "star", "--f", "1", "--g", "0",
                "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize("entry", [{"strategy": "regularized"}, {"compat_policy": "ignore"}])
def test_problem_file_bad_solver_choice_exits_4(tmp_path, entry):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"f": "1", "g": "0.5", **entry}))
    assert run(["solve", "--problem", str(path), "--nr", "8", "--ntheta", "16",
                "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize("body", [
    [1, 2],
    {"domain": "disk"},
    {"f": 3, "g": 0},
    {"domain": {"kind": "star_shaped", "radius_coeffs": {"cos": "abc"}}, "f": "1", "g": "0"},
    {"domain": {"kind": "star_shaped", "resolution": "x"}, "f": "1", "g": "0"},
    {"domain": {"kind": "interval", "a": "q"}, "f": "1", "g": "0"}])
def test_malformed_problem_file_exits_4(tmp_path, capsys, body):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(body))
    assert run(["solve", "--problem", str(path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "bad configuration" in err and "Traceback" not in err


def test_problem_file_and_flag_precedence(tmp_path):
    problem = {
        "domain": {"kind": "interval", "a": 0.0, "b": 1.0, "resolution": [64]},
        "f": "2", "g": "1", "compat_policy": "reject",
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    # file g = "1" is wrong on an interval (defect 2 - 2 = 0 needs g0+g1 = 2;
    # constant g = 1 balances); flag overrides g and breaks compatibility
    code = run(["solve", "--problem", str(path), "--out", str(tmp_path)])
    assert code == 0
    code = run(["solve", "--problem", str(path), "--g", "0",
                "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize("problem", [{}, {"domain": {"kind": "star_shaped"}}])
def test_solve_without_a_resolution_uses_64_by_128(tmp_path, problem):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"f": "1", "g": "0.5", **problem}))
    assert run(["solve", "--problem", str(path), "--compat", "project",
                "--out", str(tmp_path)]) == 0
    domain = read_json(tmp_path / "solve_report.json")["report"]["config"]["domain"]
    assert domain["kind"] == "star_shaped" and domain["resolution"] == [64, 128]


def test_solve_report_reproducible(tmp_path):
    args = ["solve", "--f", "1", "--g", "0.5", "--nr", "16", "--ntheta", "32",
            "--compat", "project"]
    run(args + ["--out", str(tmp_path / "a")])
    run(args + ["--out", str(tmp_path / "b")])
    a = read_json(tmp_path / "a" / "solve_report.json")
    b = read_json(tmp_path / "b" / "solve_report.json")
    assert json.dumps(a["report"], sort_keys=True) == \
        json.dumps(b["report"], sort_keys=True)


def test_verify_degraded_single_level(tmp_path, capsys):
    code = run(["verify", "--count", "2", "--levels", "1", "--no-pinned",
                "--nr0", "12", "--ntheta0", "32", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "skipped" in captured.err     # degraded-mode warning
    assert "[SKIP]" in captured.out
    doc = read_json(tmp_path / "estimate_report.json")
    assert doc["report"]["passed"] is True
    # the peak memory of this process and of its largest reaped child, in
    # meta only: the report stays a function of the configuration and seed
    assert doc["meta"]["peak_rss_mib"] > 0.0 and doc["meta"]["child_peak_rss_mib"] >= 0.0
    assert not {"peak_rss_mib", "child_peak_rss_mib"} & set(doc["report"])


@pytest.mark.parametrize("flags", [["--alphas", "0.5,abc"],
                                   ["--alphas", "0.3,0.7", "--alpha", "0.5"],
                                   ["--alphas", "0.5,1.5"],
                                   ["--alphas", "0.5,0.5"]])
def test_verify_bad_alphas_exit_4(tmp_path, flags):
    assert run(["verify", "--count", "1", "--levels", "1", "--no-pinned",
                "--nr0", "12", "--ntheta0", "32", "--out", str(tmp_path)] + flags) == 4


@pytest.mark.parametrize("args", [["solve", "--strategy", "regularized", "--f", "1",
                                   "--g", "0.5"],
                                  ["verify", "--family", "manufactured_polynomial"],
                                  ["verify", "--pair-strategy", "pruned"],
                                  # the solver's tolerances are fixed: no flag sets them
                                  ["solve", "--f", "1", "--g", "0.5", "--tol-linear", "nan"],
                                  ["solve", "--f", "1", "--g", "0.5", "--tol-compat", "inf"],
                                  ["solve", "--f", "1", "--g", "0.5", "--tol-linear", "0"],
                                  # the study runs its instances serially
                                  ["verify", "--threads", "2"]])
def test_bad_flag_value_exits_4(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path)]) == 4
    assert "usage:" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("args, usage, unknown", [
    (["verify", "--threads", "2"], "usage: neumann-lab verify", "--threads 2"),
    (["solve", "--bogus", "1"], "usage: neumann-lab solve", "--bogus 1"),
    # a flag before the subcommand is the top-level parser's to report
    (["--bogus", "verify"], "usage: neumann-lab [-h]", "--bogus")])
def test_unknown_flag_is_reported_by_the_parser_that_owns_its_place(capsys, args, usage,
                                                                    unknown):
    assert run(args) == 4
    err = capsys.readouterr().err
    assert err.startswith(usage) and err.endswith(f"error: unrecognized arguments: {unknown}\n")


def test_module_runs_as_a_script(monkeypatch, capsys):
    # python -m neumann_lab.cli: the module's own main guard, run in-process
    monkeypatch.setattr(sys, "argv", ["neumann-lab", "--version"])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"):
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("neumann_lab.cli", run_name="__main__")
    assert exc.value.code == 0 and capsys.readouterr().out.strip() == __version__


@pytest.mark.parametrize("coeffs", ["[1]", '{"cos": 3}'])
@pytest.mark.parametrize("args", [["solve", "--f", "1", "--g", "0"],
                                  ["verify", "--count", "1", "--levels", "1", "--no-pinned"]])
def test_bad_radius_coeffs_exit_4(tmp_path, capsys, args, coeffs):
    code = run(args + ["--domain", "star", "--radius-coeffs", coeffs, "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert "--radius-coeffs must be" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["verify", "--domain", "interval", "--n0", "4", "--levels", "40", "--no-pinned"],
    ["verify", "--count", "1", "--levels", "7"],
    ["sweep", "--f", "x", "--g", "0", "--nr", "64", "--levels", "8"],
    ["solve", "--f", "1", "--g", "0.5", "--nr", "2048", "--ntheta", "4096"]])
def test_huge_rung_exits_4_before_allocating(tmp_path, capsys, args):
    t0 = time.perf_counter()
    assert run(args + ["--out", str(tmp_path)]) == 4
    assert time.perf_counter() - t0 < 5.0
    assert "a mesh may have" in capsys.readouterr().err


def test_oracle1d_refuses_a_huge_rung_before_any_mesh(tmp_path, capsys, monkeypatch):
    # the 300,000-cell rung fits and the 600,000-cell one does not: the
    # refusal comes before the first rung is built, let alone solved
    built = []
    build = domain._build_interval
    monkeypatch.setattr(domain, "_build_interval", lambda *a: built.append(a) or build(*a))
    assert run(["oracle1d", "--n", "300000", "--levels", "2", "--out", str(tmp_path)]) == 4
    assert "(600000,) has 600002 nodes" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("args", [
    ["solve", "--f", "1", "--g", "0.5", "--radius", "inf"],
    ["oracle1d", "--f-coeffs", "abc"],
    ["oracle1d", "--f-coeffs", "1", "--g0", "nan", "--g1", "0.5"],
    ["oracle1d", "--levels", "0"],
    # integral(f) is finite, the compatibility scale overflows (no RuntimeWarning)
    ["oracle1d", "--n", "4", "--f-coeffs", "1e308,1e308", "--g0", "1e308", "--g1", "1e308"],
    ["sweep", "--f", "1", "--g", "0.5", "--levels", "0"],
    ["sweep", "--f", "1", "--g", "0.5", "--levels", "-1"],
    ["verify", "--count", "1", "--levels", "1", "--no-pinned", "--radius", "1e300"],
    ["verify", "--seed", "-1", "--count", "1", "--levels", "1", "--no-pinned"],
    # domains outside the scale range
    ["solve", "--f", "1", "--g", "0.5", "--radius", "1e300"],
    ["solve", "--domain", "interval", "--a=-1e308", "--b=1e308", "--n", "16",
     "--f", "1", "--g", "0.5"],
    ["solve", "--domain", "interval", "--b=1e200", "--n", "16", "--f", "1", "--g", "0.5"],
    ["solve", "--domain", "interval", "--b=1e-200", "--n", "16", "--f", "1", "--g", "0.5"],
    ["solve", "--f", "1", "--g", "0.5", "--radius", "1e100"],
    ["solve", "--domain", "star", "--radius-coeffs", '{"a0": 1, "cos": [1e31]}',
     "--f", "1", "--g", "0.5"],
    ["verify", "--count", "0"],
    ["verify", "--count", "-1"],
    ["verify", "--levels", "0"],
    ["verify", "--levels", "-1"],
    # a zero resolution is given, not absent
    ["solve", "--f", "1", "--g", "0.5", "--nr", "0"],
    ["solve", "--f", "1", "--g", "0.5", "--ntheta", "0"],
    ["solve", "--domain", "interval", "--n", "0", "--f", "1", "--g", "0.5"],
    ["sweep", "--f", "1", "--g", "0.5", "--nr", "0", "--levels", "1"],
    # no --g and no problem file
    ["solve", "--f", "1"],
    ["sweep", "--f", "1", "--levels", "1"]])
def test_bad_value_exits_4_without_traceback(tmp_path, capsys, args):
    # a case's own resolution flags come last, so they override these; an
    # interval takes no planar flag
    res = ["--nr", "8", "--ntheta", "16"] * (args[0] in ("solve", "sweep")
                                            and "interval" not in args)
    assert run(args[:1] + res + args[1:] + ["--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "bad configuration" in err and "Traceback" not in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("args", [
    ["verify", "--count", "1"],
    ["sweep", "--f", "1", "--g", "0.5", "--nr", "8", "--ntheta", "16"],
    ["oracle1d"]])
def test_every_ladder_checks_its_levels_with_one_message(tmp_path, capsys, args):
    # the ladder is where every command checks --levels, with one message
    assert run(args + ["--levels", "0", "--out", str(tmp_path)]) == 4
    assert "--levels must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--levels", "1"]])
def test_zero_resolution_in_an_interval_problem_file_exits_4(tmp_path, capsys, command):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"domain": {"kind": "interval", "resolution": 0},
                                "f": "1", "g": "0.5"}))
    out = tmp_path / "out"
    assert run(command + ["--problem", str(path), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "bad configuration" in err and "Traceback" not in err
    assert not out.exists()


def _verify_config(tmp_path, monkeypatch, flags):
    """The VerifyConfig that `neumann-lab verify` builds from flags."""
    captured = []

    def capture(config):
        captured.append(config)
        raise ConfigError("captured")

    monkeypatch.setattr(cli, "run_family_study", capture)
    assert run(["verify", *flags, "--out", str(tmp_path)]) == 4
    assert not os.listdir(tmp_path)
    [config] = captured
    return config


def test_verify_flag_defaults_are_the_config_defaults(tmp_path, monkeypatch):
    config = _verify_config(tmp_path, monkeypatch, [])
    assert config.to_json() == verify.VerifyConfig().to_json()


def test_verify_resolution_flags_default_one_by_one(tmp_path, monkeypatch):
    config = _verify_config(tmp_path, monkeypatch, ["--nr0", "24", "--levels", "1"])
    assert config.resolutions == ((24, verify.VerifyConfig.resolutions[0][1]),)
    config = _verify_config(tmp_path, monkeypatch, ["--domain", "interval", "--levels", "2"])
    assert config.resolutions == (16, 32)


@pytest.mark.parametrize("args, flag, kind", [
    (["solve", "--domain", "interval", "--nr", "99", "--ntheta", "7", "--f", "1", "--g", "0.5",
      "--compat", "project"], "--nr", "interval"),
    (["verify", "--domain", "interval", "--nr0", "99", "--ntheta0", "7", "--count", "1",
      "--levels", "3", "--no-pinned"], "--nr0", "interval"),
    (["solve", "--n", "50", "--f", "1", "--g", "0.5", "--compat", "project"], "--n", "star_shaped"),
    (["sweep", "--domain", "interval", "--ntheta", "7", "--f", "1", "--g", "0.5", "--levels", "1"],
     "--ntheta", "interval"),
    (["sweep", "--domain", "star", "--radius-coeffs", '{"a0": 1}', "--n", "50", "--f", "1",
      "--g", "0.5", "--levels", "1"], "--n", "star_shaped"),
    (["verify", "--n0", "8", "--count", "1"], "--n0", "star_shaped")])
def test_resolution_flag_of_the_other_dimension_exits_4(tmp_path, capsys, args, flag, kind):
    assert run(args + ["--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert f"{flag} is a resolution flag of" in err and f"the {kind} domain takes" in err
    assert "Traceback" not in err and not os.listdir(tmp_path)


# for every VerifyConfig field, verify flags that give it a value other than its default
VERIFY_FIELD_FLAGS = {
    "domain": ["--radius", "2"],
    "family_kind": ["--family", "paper_special_cases"],
    "count": ["--count", "3"],
    "seed": ["--seed", "7"],
    "resolutions": ["--levels", "2"],
    "pinned_resolution": ["--no-pinned"],
    "alphas": ["--alphas", "0.5"],
    "alpha_main": ["--alpha", "0.3"],
}


def test_every_verify_config_field_is_set_by_a_flag(tmp_path, monkeypatch):
    # a study setting no flag sets is a constant of the verify module, not a field
    assert list(VERIFY_FIELD_FLAGS) == [f.name for f in dataclasses.fields(verify.VerifyConfig)]
    default = verify.VerifyConfig()
    for name, flags in VERIFY_FIELD_FLAGS.items():
        config = _verify_config(tmp_path, monkeypatch, flags)
        assert getattr(config, name) != getattr(default, name), name


def test_verify_with_failing_criteria_writes_its_report_and_exits_1(tmp_path, capsys,
                                                                     monkeypatch):
    criteria = [{"name": name, "passed": passed, "skipped": False, "detail": "measured"}
                for name, passed in [("energy_identity", True), ("max_principle", False),
                                     ("boundary_sup_bound", False)]]
    report = verify.EstimateReport(config={}, levels=[], criteria=criteria, passed=False)
    monkeypatch.setattr(cli, "run_family_study", lambda config: report)
    assert run(["verify", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] max_principle: measured" in captured.out
    assert captured.err == "failing criteria: max_principle, boundary_sup_bound\n"
    assert os.listdir(tmp_path) == ["estimate_report.json"]


def test_any_other_library_error_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    def degenerate(*args, **kwargs):
        raise DegenerateData("ratio 1/0 has vanishing denominator")

    monkeypatch.setattr(cli, "solve_neumann", degenerate)
    assert run(["solve", "--f", "1", "--g", "0.5", "--nr", "8", "--ntheta", "16",
                "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: ratio 1/0 has vanishing denominator\n"
    assert not os.listdir(tmp_path)


def test_gmres_non_convergence_exits_3_without_traceback(tmp_path, capsys, monkeypatch):
    # one restart cycle of two inner iterations cannot reach the tolerance
    monkeypatch.setattr(solver, "KRYLOV_RESTART", 2)
    monkeypatch.setattr(solver, "KRYLOV_CYCLES", 1)
    assert run(["solve", "--f", "x*y", "--g", "x", "--nr", "8", "--ntheta", "16",
                "--strategy", "fredholm_iteration", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: solver failure: GMRES did not reach rtol 1.0e-10 within 2 ")
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not os.listdir(tmp_path)


def test_singular_shifted_factor_exits_3_without_traceback(tmp_path, capsys):
    # on a tiny interval the unit shift of A - S vanishes beside A's entries
    assert run(["solve", "--domain", "interval", "--a=-1e-6", "--b=1e-6", "--n", "256",
                "--f", "x", "--g", "0.5", "--compat", "project",
                "--strategy", "fredholm_iteration", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "solver failure: sparse LU failed" in err and "Traceback" not in err


@pytest.mark.parametrize("args, code", [
    (["solve", "--f", "1", "--g", "1e308", "--compat", "project"], 4),
    (["solve", "--f", "1e308", "--g", "0", "--compat", "project"], 4),
    (["sweep", "--f", "1", "--g", "1e308", "--compat", "project", "--levels", "1"], 4),
    # finite defect, but the Krylov route's own norms overflow
    (["solve", "--f", "1e160*x", "--g", "1e160", "--compat", "project",
      "--strategy", "fredholm_iteration"], 3),
    (["solve", "--f", "1e300*x", "--g", "1e300", "--compat", "project",
      "--strategy", "fredholm_iteration"], 3)])
def test_overflowing_data_exits_without_traceback(tmp_path, capsys, args, code):
    assert run(args + ["--nr", "8", "--ntheta", "16", "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert ("bad configuration" if code == 4 else "solver failure") in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("scale", ["1e160", "1e300"])
def test_direct_solve_of_large_data_measures_its_residual(tmp_path, capsys, scale):
    # the residual's plain norms overflow; the backward error, homogeneous
    # in (x, b), is measured on the rescaled pair instead
    assert run(["solve", "--f", f"{scale}*x", "--g", scale, "--compat", "project",
                "--nr", "8", "--ntheta", "16", "--out", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["solve_report.json"]
    residual = read_json(tmp_path / "solve_report.json")["report"]["solve"]["residual"]
    assert 0.0 < residual <= 1e-10


@pytest.mark.parametrize("args", [
    ["--radius", "0.3"],
    ["--domain", "interval", "--a", "0", "--b", "0.2", "--n0", "64"]])
def test_verify_serrin_ball_outside_the_domain_exits_4_before_any_solve(
        tmp_path, capsys, monkeypatch, args):
    # the 2R = 0.4 ball of the default radii fits in neither domain
    solves = []
    monkeypatch.setattr(verify, "solve_neumann", lambda *a, **k: solves.append(a))
    assert run(["verify", "--count", "1", "--levels", "1", "--no-pinned", *args,
                "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "bad configuration" in err and "ball of radius 2R = 0.4" in err
    assert "Traceback" not in err
    assert solves == [] and not os.listdir(tmp_path)


@pytest.mark.parametrize("args", [["--help"], ["solve", "--help"], ["verify", "--help"]])
def test_help_exits_0(args, capsys):
    assert run(args) == 0
    assert "usage:" in capsys.readouterr().out


def test_verify_rung_too_coarse_for_eps_exits_4(tmp_path, capsys):
    # (8, 32): the outer ring lies 0.0625 from the boundary, beyond eps = 0.05
    assert run(["verify", "--count", "3", "--levels", "2", "--no-pinned",
                "--nr0", "8", "--ntheta0", "32", "--out", str(tmp_path)]) == 4
    assert "rung (8, 32)" in capsys.readouterr().err


def test_verify_on_star_trig_names_its_first_passing_rung(tmp_path, capsys):
    # star_trig's boundary nodes may lie (1/24) 1.3 = 0.0542 from their
    # nearest node at (12, 48), beyond eps = 0.05; at n_r = 13 the reach is 0.05
    assert run(["verify", "--domain", "star", "--radius-coeffs", '{"a0": 1, "cos": [0, 0.3]}',
                "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "rung (12, 48) is too coarse" in err and "the first n_r that passes is 13" in err
    assert not os.listdir(tmp_path)


def test_verify_on_a_coarse_interval_names_its_first_passing_n(tmp_path, capsys):
    # a boundary node lies h / 2 = 0.125 from its nearest node at n = 4,
    # and 0.05 = eps at n = 10
    assert run(["verify", "--domain", "interval", "--n0", "4", "--count", "1", "--levels", "3",
                "--no-pinned", "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "rung 4 is too coarse" in err and "the first n that passes is 10" in err


def test_verify_large_domain_needs_finer_rung(tmp_path, capsys):
    # the outer-ring gap grows with the radius: 2/24 at (12, 32) on a radius-2 disk
    base = ["verify", "--radius", "2", "--count", "1", "--levels", "1", "--no-pinned",
            "--ntheta0", "32", "--out", str(tmp_path)]
    assert run(base + ["--nr0", "12"]) == 4
    assert "the first n_r that passes is 20" in capsys.readouterr().err
    assert run(base + ["--nr0", "20"]) == 0


@pytest.mark.parametrize("radius", ["1e6"])
def test_verify_rung_beyond_node_cap_exits_4_without_probing(tmp_path, capsys, monkeypatch,
                                                             radius):
    # the first passing n_r is estimated over MAX_NODES: no finer mesh is built
    built = []

    def counted(spec, res):
        built.append(tuple(res))
        return build_mesh(spec, res)

    monkeypatch.setattr(verify, "build_mesh", counted)
    assert run(["verify", "--radius", radius, "--count", "1", "--levels", "1",
                "--no-pinned", "--out", str(tmp_path)]) == 4
    assert built == [(12, 48)]
    assert "no rung within the 524288-node cap passes" in capsys.readouterr().err


def test_verify_domain_beyond_scale_range_exits_4_before_any_mesh(tmp_path, capsys,
                                                                   monkeypatch):
    # on a 1e300 disk the boundary distances overflow: the domain is refused first
    built = []
    monkeypatch.setattr(verify, "build_mesh", lambda *a: built.append(a) or build_mesh(*a))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["verify", "--radius", "1e300", "--count", "1", "--levels", "1",
                    "--no-pinned", "--out", str(tmp_path)]) == 4
    assert built == []
    err = capsys.readouterr().err
    assert "lies outside [1e-30, 1e+30]" in err and "Traceback" not in err


def test_verify_small_ladder(tmp_path):
    code = run(["verify", "--count", "2", "--levels", "2", "--no-pinned",
                "--nr0", "12", "--ntheta0", "32", "--alphas", "0.5",
                "--out", str(tmp_path), "--format", "both"])
    assert code == 0
    csv_path = tmp_path / "estimate_report.csv"
    assert csv_path.exists()
    header, *rows = numeric_csv(csv_path)
    assert len(rows) == 2 * 2     # instances x levels
    for col in ("seed", "level", "h", "ratio_schauder", "ratio_intermediate",
                "ratio_l2", "energy_defect", "serrin_ratio"):
        assert col in header


def test_oracle1d_default_cases(tmp_path, capsys):
    code = run(["oracle1d", "--n", "64", "--levels", "2", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "oracle1d_report.json")
    cases = {c["case"]: c for c in doc["report"]["cases"]}
    assert cases["quadratic"]["max_discrepancy"][0] <= 1e-10
    assert cases["cubic"]["observed_orders"][0] == pytest.approx(2.0, abs=0.15)


def test_oracle1d_incompatible_exits_2(tmp_path):
    assert run(["oracle1d", "--f-coeffs", "2", "--g0", "1", "--g1", "0",
                "--out", str(tmp_path)]) == 2


def test_sweep_orders(tmp_path):
    code = run(["sweep", "--f", "1", "--g", "0.5", "--nr", "8", "--ntheta", "16",
                "--levels", "3", "--compat", "project",
                "--exact", "r^2/4 - 1/8", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "sweep_report.json")
    orders = doc["report"]["observed_orders"]
    assert len(orders) == 2 and min(orders) >= 1.9


def test_sweep_orders_with_exact_zero_errors(tmp_path):
    # zero data solve to exactly zero: every level pair still gets its order
    code = run(["sweep", "--f", "0", "--g", "0", "--nr", "8", "--ntheta", "16",
                "--levels", "3", "--exact", "0", "--out", str(tmp_path)])
    assert code == 0
    doc = read_json(tmp_path / "sweep_report.json")
    assert [row["error_sup_vs_exact"] for row in doc["report"]["levels"]] == [0.0] * 3
    assert doc["report"]["observed_orders"] == [float("inf")] * 2


def numeric_csv(path):
    """The rows of a CSV file, header first, after checking that every
    other cell is an int, a float or empty."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    for row in rows:
        assert len(row) == len(header)
        for cell in row:
            if cell:
                float(cell)
    return [header, *rows]


SWEEP = ["sweep", "--f", "1", "--g", "0.5", "--nr", "8", "--ntheta", "16",
         "--levels", "2", "--compat", "project"]
REPORTING_COMMANDS = {
    "verify": ["verify", "--count", "1", "--levels", "1", "--no-pinned",
               "--nr0", "12", "--ntheta0", "32"],
    "sweep": SWEEP,
    "sweep_exact": SWEEP + ["--exact", "r^2/4 - 1/8"],
    "oracle1d": ["oracle1d", "--n", "16", "--levels", "2"],
}


@pytest.mark.parametrize("command", sorted(REPORTING_COMMANDS))
def test_report_rerenders_the_csv_each_command_wrote(tmp_path, command):
    argv = REPORTING_COMMANDS[command]
    name = {"verify": "estimate_report", "sweep": "sweep_report",
            "oracle1d": "oracle1d_report"}[argv[0]]
    assert run(argv + ["--format", "both", "--out", str(tmp_path)]) == 0
    assert run(["report", "--input", str(tmp_path / f"{name}.json"), "--format", "csv",
                "--out", str(tmp_path / "re")]) == 0
    written = (tmp_path / f"{name}.csv").read_bytes()
    assert (tmp_path / "re" / f"{name}.csv").read_bytes() == written
    header, *rows = numeric_csv(tmp_path / f"{name}.csv")
    if argv[0] == "verify":
        assert len(rows) == 1
        for col in ("seed", "instance", "level", "h", "ratio_schauder",
                    "ratio_intermediate", "ratio_l2", "energy_defect", "serrin_ratio",
                    "pass"):
            assert col in header
    elif argv[0] == "sweep":
        assert header == ["level", "h", "residual", "defect", "error_sup_vs_exact"]
        assert [row[0] for row in rows] == ["0", "1"]
        assert all(bool(row[4]) == (command == "sweep_exact") for row in rows)
    else:
        assert header == ["case", "n", "max_discrepancy", "observed_order"]
        assert [row[:2] for row in rows] == [["0", "16"], ["0", "32"], ["1", "16"], ["1", "32"]]
        assert [bool(row[3]) for row in rows] == [False, True, False, True]


@pytest.mark.parametrize("domain", [["--domain", "interval", "--n", "32"],
                                    ["--nr", "16", "--ntheta", "32"]])
def test_solve_csv_has_one_numeric_row_per_node(tmp_path, domain):
    assert run(["solve", "--f", "x", "--g", "0.5", "--compat", "project", *domain,
                "--format", "csv", "--out", str(tmp_path)]) == 0
    path = tmp_path / "solve_report.csv"
    assert "np." not in path.read_text()
    header, *rows = numeric_csv(path)
    mesh = (build_mesh(DomainSpec.interval(0.0, 1.0), 32) if "interval" in domain
            else build_mesh(DomainSpec.disk(), (16, 32)))
    assert header == ["x", "y"][:mesh.dim] + ["value", "is_boundary"]
    assert [row[-1] for row in rows] == ["0"] * mesh.n_interior + ["1"] * mesh.n_boundary


def _solve_csv_peak_ratio(tmp_path, monkeypatch, nr, ntheta):
    """The traced peak of a `solve --format csv` after its solve, over the
    size of the CSV it writes."""
    after_solve = []
    solve = cli.solve_neumann

    def traced(*args, **kwargs):
        rep = solve(*args, **kwargs)
        tracemalloc.reset_peak()
        after_solve.append(tracemalloc.get_traced_memory()[0])
        return rep

    monkeypatch.setattr(cli, "solve_neumann", traced)
    tracemalloc.start()
    try:
        assert run(["solve", "--f", "x*y + cos(y)", "--g", "0.5", "--compat", "project",
                    "--nr", str(nr), "--ntheta", str(ntheta), "--format", "csv",
                    "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - after_solve[0]) / (tmp_path / "solve_report.csv").stat().st_size


def test_solve_csv_keeps_no_row_dict_per_node(tmp_path, monkeypatch):
    # after the solve, the CSV's rows are rendered as they come: one dict per
    # node held at once (about 8 times the CSV's size) is not kept
    assert _solve_csv_peak_ratio(tmp_path, monkeypatch, 48, 96) < 6


def test_solve_csv_converts_its_nodes_in_blocks(tmp_path, monkeypatch):
    # nor is a Python float per node coordinate and value, made before the
    # first line is rendered (about 4.5 times the CSV's size at this mesh)
    assert _solve_csv_peak_ratio(tmp_path, monkeypatch, 128, 256) < 4


def _non_plain_leaves(obj, path):
    """The paths in obj of every key that is not a str and of every value
    that is not a plain dict, list, str, int, float, bool or None."""
    if type(obj) is dict:
        items, bad = obj.items(), [f"{path}[{key!r}]" for key in obj if type(key) is not str]
    elif type(obj) is list:
        items, bad = enumerate(obj), []
    else:
        return [] if type(obj) in (str, int, float, bool, type(None)) else [f"{path}: {obj!r}"]
    return bad + [b for key, value in items for b in _non_plain_leaves(value, f"{path}[{key!r}]")]


@pytest.mark.parametrize("argv", [
    ["verify", "--count", "2", "--levels", "1", "--nr0", "12", "--ntheta0", "48"],
    ["solve", "--f", "x*y", "--g", "x", "--nr", "8", "--ntheta", "16",
     "--strategy", "fredholm_iteration", "--exact", "0"],
    SWEEP + ["--exact", "r^2/4 - 1/8"],
    ["oracle1d", "--n", "16", "--levels", "2"]], ids=lambda argv: argv[0])
def test_every_payload_leaf_is_a_plain_json_value(tmp_path, monkeypatch, argv):
    # what lets the JSON writer run without a fallback for numpy values
    payloads = []
    write = cli._write_report
    monkeypatch.setattr(cli, "_write_report",
                        lambda outdir, name, payload, *a: payloads.append(payload) or
                        write(outdir, name, payload, *a))
    assert run(argv + ["--out", str(tmp_path)]) == 0
    [payload] = payloads
    assert _non_plain_leaves(payload, "report") == []


@pytest.mark.parametrize("fmt", ["csv", "both"])
def test_report_csv_of_a_solve_report_exits_4(tmp_path, capsys, fmt):
    assert run(["solve", "--f", "1", "--g", "0.5", "--nr", "8", "--ntheta", "16",
                "--compat", "project", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    out = tmp_path / "re"
    assert run(["report", "--input", str(tmp_path / "solve_report.json"),
                "--format", fmt, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "no CSV form" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"cases": []},
    {"report": {"config": {"seed": 0}, "levels": [], "criteria": [], "passed": True}}])
def test_report_csv_of_a_report_with_no_rows_exits_4(tmp_path, capsys, doc):
    path, out = tmp_path / "doc.json", tmp_path / "out"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["report", "--input", str(path), "--format", "csv", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "no CSV form" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["a", True, [1.0]])
def test_report_csv_of_a_cell_that_is_not_a_number_exits_4(tmp_path, capsys, cell):
    # the fuzz test below reaches this error only when its random draws hold such a cell
    doc = {"levels": [{"h": 0.5, "residual": cell, "defect": 0.0}], "observed_orders": []}
    path, out = tmp_path / "doc.json", tmp_path / "out"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["report", "--input", str(path), "--format", "csv", "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert f"CSV column 'residual' holds {cell!r}, not a number" in err
    assert not out.exists()


REPORT_KEYS =["report", "config", "levels", "criteria", "cases", "observed_orders", "solve"]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=10)
# payloads shaped like the three kinds with a CSV form, their cells drawn at random
numbers = st.none() | st.booleans() | st.integers() | st.floats()
number_lists = st.lists(numbers, max_size=3)
estimate_rows = st.fixed_dictionaries(
    dict.fromkeys(("instance", "boundary_sup_gap", "ratio_schauder_0.5"), numbers))
levels = st.fixed_dictionaries(dict.fromkeys(("h", "residual", "defect"), numbers),
                               optional={"error_sup_vs_exact": numbers,
                                         "rows": st.lists(estimate_rows, max_size=2)})
shaped_payloads = st.fixed_dictionaries({}, optional={
    "config": st.fixed_dictionaries({}, optional={"seed": numbers, "alpha_main": numbers}),
    "levels": st.lists(levels, max_size=3),
    "criteria": st.just([]),
    "observed_orders": number_lists,
    "cases": st.lists(st.fixed_dictionaries(dict.fromkeys(
        ("n", "max_discrepancy", "observed_orders"), number_lists)), max_size=2)})
report_payloads = (st.dictionaries(st.sampled_from(REPORT_KEYS), json_values, max_size=4)
                   | shaped_payloads)

@settings(max_examples=100, deadline=None)
@given(st.one_of(report_payloads, st.fixed_dictionaries({"report": report_payloads})))
def test_report_csv_of_any_document_exits_0_or_4(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "doc.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["report", "--input", path, "--format", "csv", "--out", out])
        err = err.getvalue()
        assert code in (0, 4), err
        assert err.count("error:") <= 1 and "Traceback" not in err
        if code == 4:
            assert not os.path.exists(out)
        else:
            numeric_csv(os.path.join(out, "doc.csv"))


def test_report_strip_meta(tmp_path):
    run(["solve", "--f", "0", "--g", "0", "--nr", "8", "--ntheta", "16",
         "--out", str(tmp_path)])
    src = tmp_path / "solve_report.json"
    code = run(["report", "--input", str(src), "--strip-meta",
                "--out", str(tmp_path)])
    assert code == 0
    canon = read_json(tmp_path / "solve_report.canonical.json")
    assert "meta" not in canon and "solve" in canon
    # without --strip-meta the whole document, meta included, is rendered again
    assert run(["report", "--input", str(src), "--out", str(tmp_path / "re")]) == 0
    assert os.listdir(tmp_path / "re") == ["solve_report.rendered.json"]
    assert (tmp_path / "re" / "solve_report.rendered.json").read_bytes() == src.read_bytes()


def test_report_rerenders_estimate_csv(tmp_path):
    run(["verify", "--count", "1", "--levels", "1", "--no-pinned",
         "--nr0", "12", "--ntheta0", "32", "--out", str(tmp_path)])
    code = run(["report", "--input", str(tmp_path / "estimate_report.json"),
                "--format", "csv", "--out", str(tmp_path / "re")])
    assert code == 0
    assert (tmp_path / "re" / "estimate_report.csv").exists()


@pytest.mark.parametrize("case", ["report_directory", "report_not_utf8", "report_list",
                                  "report_csv_bad_levels", "report_of_a_number",
                                  "report_huge_integer", "problem_directory",
                                  "problem_huge_integer",
                                  "problem_not_utf8", "out_is_a_file"])
def test_unreadable_files_exit_4(tmp_path, capsys, case):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    (inputs / "latin1.json").write_bytes(b'{"f": "1", "g": "caf\xe9"}')
    (inputs / "list.json").write_text("[1, 2]")
    (inputs / "levels.json").write_text('{"levels": 5}')
    (inputs / "number.json").write_text('{"report": 5}')
    (inputs / "huge.json").write_text('{"levels": ' + "9" * 5000 + "}")
    (inputs / "taken").write_text("a regular file")
    before = sorted(os.listdir(inputs))
    argv = {
        "report_directory": ["report", "--input", str(inputs)],
        "report_not_utf8": ["report", "--input", str(inputs / "latin1.json")],
        "report_list": ["report", "--input", str(inputs / "list.json")],
        "report_csv_bad_levels": ["report", "--input", str(inputs / "levels.json"),
                                  "--format", "csv"],
        "report_of_a_number": ["report", "--input", str(inputs / "number.json"),
                               "--format", "csv"],
        "report_huge_integer": ["report", "--input", str(inputs / "huge.json")],
        "problem_huge_integer": ["solve", "--problem", str(inputs / "huge.json")],
        "problem_directory": ["solve", "--problem", str(inputs)],
        "problem_not_utf8": ["solve", "--problem", str(inputs / "latin1.json")],
        "out_is_a_file": ["solve", "--f", "1", "--g", "0.5", "--compat", "project",
                          "--nr", "8", "--ntheta", "16"],
    }[case]
    target = inputs / "taken" if case == "out_is_a_file" else out
    assert run(argv + ["--out", str(target)]) == 4
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err
    assert not out.exists() and sorted(os.listdir(inputs)) == before
    assert (inputs / "taken").read_text() == "a regular file"


def test_report_missing_file_exits_4(tmp_path):
    assert run(["report", "--input", str(tmp_path / "nope.json"),
                "--out", str(tmp_path)]) == 4


def test_no_temp_files_left(tmp_path):
    run(["solve", "--f", "0", "--g", "0", "--nr", "8", "--ntheta", "16",
         "--out", str(tmp_path)])
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp_report_")]
    assert leftovers == []


def test_failed_rename_removes_its_temp_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError(f"cannot rename {src!r}")

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert run(["solve", "--f", "0", "--g", "0", "--nr", "8", "--ntheta", "16",
                "--out", str(tmp_path)]) == 4
    assert "cannot rename" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
