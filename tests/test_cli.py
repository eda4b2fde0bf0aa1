"""CLI contract: exit codes, report files, precedence, reproducibility."""

import json
import os
import time
import warnings

import pytest

from neumann_lab import verify
from neumann_lab.cli import main
from neumann_lab.domain import build_mesh
from neumann_lab.errors import ConfigError


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


def test_bad_thread_count_exits_4_before_any_mesh(tmp_path, capsys, monkeypatch):
    built = []
    build = verify.build_mesh
    monkeypatch.setattr(verify, "build_mesh", lambda *a: built.append(a) or build(*a))
    monkeypatch.setenv("NEUMANN_LAB_THREADS", "abc")
    assert run(["verify", "--count", "1", "--levels", "1", "--no-pinned",
                "--out", str(tmp_path)]) == 4
    assert "NEUMANN_LAB_THREADS" in capsys.readouterr().err
    assert built == []
    with pytest.raises(ConfigError):
        verify.VerifyConfig()
    monkeypatch.setenv("NEUMANN_LAB_THREADS", "2")
    assert verify._worker_count(verify.VerifyConfig()) == 2


@pytest.mark.parametrize("flags, env", [(["--threads", "-3"], "2"), ([], "-2"), ([], "0")])
def test_thread_count_below_one_exits_4_before_any_mesh(tmp_path, capsys, monkeypatch,
                                                         flags, env):
    built = []
    build = verify.build_mesh
    monkeypatch.setattr(verify, "build_mesh", lambda *a: built.append(a) or build(*a))
    monkeypatch.setenv("NEUMANN_LAB_THREADS", env)
    assert run(["verify", "--count", "1", "--levels", "1", "--no-pinned",
                "--out", str(tmp_path)] + flags) == 4
    err = capsys.readouterr().err
    assert "bad configuration" in err and "Traceback" not in err
    assert ("threads" if flags else "NEUMANN_LAB_THREADS") in err
    assert built == []


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


def test_verify_zero_instances_exits_4(tmp_path):
    assert run(["verify", "--count", "0", "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize("flags", [["--alphas", "0.5,abc"],
                                   ["--alphas", "0.3,0.7", "--alpha", "0.5"],
                                   ["--alphas", "0.5,1.5"],
                                   ["--alphas", "0.5,0.5"]])
def test_verify_bad_alphas_exit_4(tmp_path, flags):
    assert run(["verify", "--count", "1", "--levels", "1", "--no-pinned",
                "--nr0", "12", "--ntheta0", "32", "--out", str(tmp_path)] + flags) == 4


@pytest.mark.parametrize("args", [["solve", "--strategy", "regularized", "--f", "1",
                                   "--g", "0.5"],
                                  ["verify", "--pair-strategy", "exact"]])
def test_bad_flag_value_exits_4(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path)]) == 4
    assert "usage:" in capsys.readouterr().err


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


@pytest.mark.parametrize("args", [
    ["solve", "--f", "1", "--g", "0.5", "--tol-linear", "nan"],
    ["solve", "--f", "1", "--g", "0.5", "--tol-compat", "inf"],
    ["solve", "--f", "1", "--g", "0.5", "--tol-linear", "0"],
    ["solve", "--f", "1", "--g", "0.5", "--radius", "inf"],
    ["solve", "--f", "1", "--g", "0.5", "--alpha", "2"],
    ["oracle1d", "--f-coeffs", "abc"],
    ["oracle1d", "--f-coeffs", "1", "--g0", "nan", "--g1", "0.5"],
    ["oracle1d", "--levels", "0"],
    ["sweep", "--f", "1", "--g", "0.5", "--levels", "0"],
    ["sweep", "--f", "1", "--g", "0.5", "--levels", "-1"],
    ["verify", "--count", "1", "--levels", "1", "--no-pinned", "--radius", "1e300"],
    # domains outside the scale range
    ["solve", "--f", "1", "--g", "0.5", "--radius", "1e300"],
    ["solve", "--domain", "interval", "--a=-1e308", "--b=1e308", "--n", "16",
     "--f", "1", "--g", "0.5"],
    ["solve", "--domain", "interval", "--b=1e200", "--n", "16", "--f", "1", "--g", "0.5"],
    ["solve", "--domain", "interval", "--b=1e-200", "--n", "16", "--f", "1", "--g", "0.5"],
    ["solve", "--f", "1", "--g", "0.5", "--radius", "1e100"],
    ["solve", "--domain", "star", "--radius-coeffs", '{"a0": 1, "cos": [1e31]}',
     "--f", "1", "--g", "0.5"]])
def test_bad_value_exits_4_without_traceback(tmp_path, capsys, args):
    assert run(args + ["--nr", "8", "--ntheta", "16"] * (args[0] in ("solve", "sweep"))
               + ["--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "bad configuration" in err and "Traceback" not in err
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


def test_verify_report_identical_across_threads(tmp_path):
    payloads = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert run(["verify", "--count", "4", "--levels", "2", "--no-pinned",
                    "--nr0", "12", "--ntheta0", "48", "--threads", threads,
                    "--out", str(out)]) == 0
        assert run(["report", "--input", str(out / "estimate_report.json"),
                    "--strip-meta", "--out", str(out)]) == 0
        payloads.append((out / "estimate_report.canonical.json").read_bytes())
    assert payloads[0] == payloads[1]


def test_verify_small_ladder(tmp_path):
    code = run(["verify", "--count", "2", "--levels", "2", "--no-pinned",
                "--nr0", "12", "--ntheta0", "32", "--alphas", "0.5",
                "--out", str(tmp_path), "--format", "both"])
    assert code == 0
    csv_path = tmp_path / "estimate_report.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    for col in ("seed", "level", "h", "ratio_schauder", "ratio_l2",
                "energy_defect", "serrin_ratio"):
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


def test_report_strip_meta(tmp_path):
    run(["solve", "--f", "0", "--g", "0", "--nr", "8", "--ntheta", "16",
         "--out", str(tmp_path)])
    src = tmp_path / "solve_report.json"
    code = run(["report", "--input", str(src), "--strip-meta",
                "--out", str(tmp_path)])
    assert code == 0
    canon = read_json(tmp_path / "solve_report.canonical.json")
    assert "meta" not in canon and "solve" in canon


def test_report_rerenders_estimate_csv(tmp_path):
    run(["verify", "--count", "1", "--levels", "1", "--no-pinned",
         "--nr0", "12", "--ntheta0", "32", "--out", str(tmp_path)])
    code = run(["report", "--input", str(tmp_path / "estimate_report.json"),
                "--format", "csv", "--out", str(tmp_path / "re")])
    assert code == 0
    assert (tmp_path / "re" / "estimate_report.csv").exists()


@pytest.mark.parametrize("case", ["report_directory", "report_not_utf8", "report_list",
                                  "report_csv_bad_levels", "report_of_a_number",
                                  "problem_directory",
                                  "problem_not_utf8", "out_is_a_file"])
def test_unreadable_files_exit_4(tmp_path, capsys, case):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    (inputs / "latin1.json").write_bytes(b'{"f": "1", "g": "caf\xe9"}')
    (inputs / "list.json").write_text("[1, 2]")
    (inputs / "levels.json").write_text('{"levels": 5}')
    (inputs / "number.json").write_text('{"report": 5}')
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
