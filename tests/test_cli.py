"""CLI contract: exit codes, report files, precedence, reproducibility."""

import json
import os

import pytest

from neumann_lab.cli import main


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
                                   ["--alphas", "0.5,1.5"]])
def test_verify_bad_alphas_exit_4(tmp_path, flags):
    assert run(["verify", "--count", "1", "--levels", "1", "--no-pinned",
                "--nr0", "12", "--ntheta0", "32", "--out", str(tmp_path)] + flags) == 4


@pytest.mark.parametrize("args", [["solve", "--strategy", "regularized", "--f", "1",
                                   "--g", "0.5"],
                                  ["verify", "--pair-strategy", "exact"]])
def test_bad_flag_value_exits_4(tmp_path, capsys, args):
    assert run(args + ["--out", str(tmp_path)]) == 4
    assert "usage:" in capsys.readouterr().err


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


def test_report_missing_file_exits_4(tmp_path):
    assert run(["report", "--input", str(tmp_path / "nope.json"),
                "--out", str(tmp_path)]) == 4


def test_no_temp_files_left(tmp_path):
    run(["solve", "--f", "0", "--g", "0", "--nr", "8", "--ntheta", "16",
         "--out", str(tmp_path)])
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp_report_")]
    assert leftovers == []
