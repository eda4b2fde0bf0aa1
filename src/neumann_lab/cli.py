"""Command-line interface.

Subcommands: ``solve`` (one problem), ``verify`` (full estimate suite
over a family and refinement ladder), ``sweep`` (refinement ladder for
one problem), ``oracle1d`` (discrete solver against the closed-form 1D
solution), ``report`` (re-render a stored JSON report).

Reports are written atomically (temp file, then rename) as
``{"meta": ..., "report": ...}``.  Everything under ``report`` is a
deterministic function of the configuration and seed; timestamps and
wall times live under ``meta`` so byte comparison of the ``report``
payload is meaningful.  Every CSV is rendered by _csv_text: a verify,
sweep or oracle1d CSV from _report_rows of its payload, which ``report
--format csv`` re-renders byte for byte (a solve report has no CSV form
there: exit 4); ``solve`` writes its nodes (x[, y], value, is_boundary).
Exit codes: 0 success, 2 incompatible data, 3 solver failure, 4
configuration error (every ConfigError, rejected flag values, and
unreadable input or unwritable output files), 1 a failing verify
criterion or any other error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, solver
from .domain import DomainSpec, build_mesh, check_mesh_size
from .errors import (ConfigError, IncompatibleData, LinearSolveFailure, NeumannLabError,
                     NonConvergence)
from .expr import GRAMMAR_HELP
from .field import BoundaryFunction, GridFunction
from .solver import solve_neumann
from .verify import (BOUNDARY_SUP_SLACK, VerifyConfig, observed_orders,
                     oracle1d_discrepancy, run_family_study, solve_1d_oracle)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INCOMPATIBLE = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4
CSV_BLOCK = 4096      # solve CSV rows whose numbers are made Python floats at once


def _dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_report_")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _report_rows(payload):
    """The CSV rows of a stored report payload, None for one with no CSV
    form.  The kind is known by the payload's keys: criteria and levels
    (verify: one row per instance and level), levels and observed_orders
    (sweep: one row per level), cases (oracle1d: one row per case index
    and level, with the observed order that ends at that level).  A solve
    payload holds no node values.  Rows that cannot be read are a
    ConfigError."""
    try:
        if "criteria" in payload and "levels" in payload:
            config = payload.get("config", {})
            alpha = config.get("alpha_main", 0.5)
            measured = ("max_principle_ratio", "boundary_sup_gap", "agreement",
                        "krylov_iterations", "uniqueness_std", "scaling_deviation")
            rows = []
            for lvl, level in enumerate(payload["levels"]):
                for row in level["rows"]:
                    finite = all(np.isfinite(v) for v in row.values() if isinstance(v, float))
                    rows.append({
                        "seed": config.get("seed", 0),
                        "instance": row["instance"],
                        "level": lvl,
                        "h": level["h"],
                        "ratio_schauder": row.get(f"ratio_schauder_{alpha}"),
                        "ratio_intermediate": row.get(f"ratio_intermediate_{alpha}"),
                        "ratio_l2": row.get("ratio_l2"),
                        "energy_defect": row.get("energy_defect"),
                        "serrin_ratio": row.get("serrin_ratio_0"),
                        "pass": int(finite and row.get("boundary_sup_gap", 0.0)
                                    <= BOUNDARY_SUP_SLACK),
                        **{key: row[key] for key in sorted(row) if key in measured
                           or key.startswith(("ratio_schauder_", "ratio_intermediate_",
                                              "serrin_ratio_"))}})
            return rows
        if "levels" in payload and "observed_orders" in payload:
            return [{"level": k, "h": level["h"], "residual": level["residual"],
                     "defect": level["defect"],
                     "error_sup_vs_exact": level.get("error_sup_vs_exact")}
                    for k, level in enumerate(payload["levels"])]
        if "cases" in payload:
            return [{"case": i, "n": n, "max_discrepancy": d,
                     "observed_order": ([None] + case["observed_orders"])[k]}
                    for i, case in enumerate(payload["cases"])
                    for k, (n, d) in enumerate(zip(case["n"], case["max_discrepancy"]))]
        return None
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read the rows of the report: {exc!r}") from None


def _csv_text(rows):
    """The CSV of an iterable of row dicts, each rendered as it comes, so
    only its line is kept: the header is the union of their keys in
    first-seen order, a cell the repr of a plain int or float, empty for
    a missing value or None.  None or no rows (no CSV form) and any other
    cell are a ConfigError."""
    cols, lines, widths = {}, [], []
    for row in rows or ():
        if not row.keys() <= cols.keys():
            cols.update(dict.fromkeys(row))
        cells = [row.get(c) for c in cols]
        for col, v in zip(cols, cells):
            if v is not None and type(v) not in (int, float):
                raise ConfigError(f"CSV column {col!r} holds {v!r}, not a number")
        lines.append(",".join("" if v is None else repr(v) for v in cells))
        widths.append(len(cols))
    if not lines:
        raise ConfigError("this report has no CSV form (verify, sweep and oracle1d "
                          "reports with at least one row have one)")
    # a column first seen after a row is missing from it: its cells are empty
    for i, k in enumerate(widths):
        if k == len(cols):
            break    # widths never shrink, so every later row has every column
        lines[i] = ",".join(([lines[i]] if k else []) + [""] * (len(cols) - k))
    return "\n".join([",".join(cols), *lines, ""])


def _write_files(outdir, texts):
    """Write each {file name: text} atomically into outdir, in order; the
    paths written."""
    paths = []
    for name, text in texts.items():
        paths.append(os.path.join(outdir, name))
        _atomic_write(paths[-1], text)
    return paths


def _write_report(outdir, name, payload, fmt, wall_time, rows=None):
    """Write the JSON and/or CSV forms of one report, both rendered before
    either is written.  The CSV renders rows, by default the payload's
    own (_report_rows)."""
    texts = {}
    if fmt != "csv":
        texts[f"{name}.json"] = _dump_json({
            "meta": {"tool": f"neumann-lab {__version__}",
                     "timestamp": datetime.now(timezone.utc).isoformat(),
                     "wall_time_s": wall_time},
            "report": payload})
    if fmt != "json":
        texts[f"{name}.csv"] = _csv_text(_report_rows(payload) if rows is None else rows)
    return _write_files(outdir, texts)


def _domain_from_args(args, problem):
    """(spec, resolution or None): the problem file's domain unless
    --domain is given, else the shape flags' domain (default the disk;
    argparse admits only disk, interval and star)."""
    if "domain" in problem and args.domain is None:
        return problem["domain"]
    kind = args.domain or "disk"
    if kind == "disk":
        return DomainSpec.disk(args.radius), None
    if kind == "interval":
        return DomainSpec.interval(args.a, args.b), None
    return _star_domain(args.radius_coeffs), None


def _star_domain(text):
    """Star-shaped domain from --radius-coeffs {"a0": x, "cos": [...], "sin": [...]}."""
    if not text:
        raise ConfigError("star domain needs --radius-coeffs JSON")
    try:
        return DomainSpec.from_radius_coeffs(json.loads(text))
    except ConfigError as exc:
        raise ConfigError(f"--radius-coeffs must be the JSON of a star domain, got {text!r}: "
                          f"{exc}") from None


def _resolution_from_args(args, spec, file_res):
    """The resolution flags', else the problem file's, else the default
    resolution.  A 0 in a flag or the file counts as given (build_mesh
    rejects it), not as absent."""
    if spec.dim == 1:
        return next(n for n in (args.n, file_res, 128) if n is not None)
    if args.nr is not None or args.ntheta is not None:
        nr = 64 if args.nr is None else args.nr
        return (nr, 2 * nr if args.ntheta is None else args.ntheta)
    return (64, 128) if file_res is None else file_res


def _read_json_object(path, what):
    """The JSON object held by the file at path.  A file that cannot be
    read or decoded (an integer of over 4300 digits included), or holds
    anything but an object, is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:    # ValueError: UnicodeDecodeError, JSONDecodeError
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"a {what} must hold a JSON object, got {doc!r}")
    return doc


def _load_problem(args):
    """The --problem file as a dict, {} without one.

    The file must hold a JSON object whose f, g, strategy and
    compat_policy, where given, are strings; its domain is parsed here
    by DomainSpec.from_json into (spec, resolution).  Any other shape is
    a ConfigError.
    """
    if not getattr(args, "problem", None):
        return {}
    problem = _read_json_object(args.problem, "problem file")
    for key in ("f", "g", "strategy", "compat_policy"):
        if not isinstance(problem.get(key, ""), str):
            raise ConfigError(f"problem file entry {key!r} must be a string, "
                              f"got {problem[key]!r}")
    if "domain" in problem:
        problem["domain"] = DomainSpec.from_json(problem["domain"])
    return problem


def _problem_inputs(args, default_policy):
    """(spec, resolution, f, g, strategy, policy) of solve and sweep: each
    from its flag, else the --problem file, else its default."""
    problem = _load_problem(args)
    spec, file_res = _domain_from_args(args, problem)
    f_text = args.f or problem.get("f")
    g_text = args.g if args.g is not None else problem.get("g")
    if f_text is None or g_text is None:
        raise ConfigError(f"{args.command} needs --f and --g expressions "
                          f"(or a problem file)")
    return (spec, _resolution_from_args(args, spec, file_res), f_text, g_text,
            args.strategy or problem.get("strategy", "direct_augmented"),
            args.compat or problem.get("compat_policy", default_policy))


def _add_problem_flags(p):
    """The flags of one problem that solve and sweep share."""
    p.add_argument("--problem", help="problem JSON file")
    _add_shape_flags(p)
    p.add_argument("--nr", type=int, help="radial cells (2D)")
    p.add_argument("--ntheta", type=int, help="angular cells (2D)")
    p.add_argument("--n", type=int, help="cells (1D)")
    p.add_argument("--f", help="forcing expression")
    p.add_argument("--g", help="boundary flux expression")
    p.add_argument("--strategy", choices=solver.STRATEGIES)
    p.add_argument("--compat", choices=("reject", "project"))


def _add_shape_flags(p):
    p.add_argument("--domain", choices=("disk", "interval", "star"),
                   help="domain kind (default disk)")
    p.add_argument("--radius", type=float, default=1.0, help="disk radius")
    p.add_argument("--radius-coeffs", help='star boundary JSON: {"a0":1,"cos":[...],"sin":[...]}')
    p.add_argument("--a", type=float, default=0.0, help="interval left endpoint")
    p.add_argument("--b", type=float, default=1.0, help="interval right endpoint")


def _add_output_flags(p):
    p.add_argument("--out", default="out", help="output directory (default ./out)")
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")


def cmd_solve(args):
    spec, res, f_text, g_text, strategy, policy = _problem_inputs(args, "reject")
    mesh = build_mesh(spec, res)
    f = GridFunction.from_expression(mesh, f_text)
    g = BoundaryFunction.from_expression(mesh, g_text)

    t0 = time.perf_counter()
    rep = solve_neumann(f, g, strategy=strategy, compat_policy=policy)
    wall = time.perf_counter() - t0

    payload = {
        "config": {
            "domain": spec.to_json(resolution=(mesh.n,) if spec.dim == 1
                                   else (mesh.n_r, mesh.n_theta)),
            "f": f_text, "g": g_text, "strategy": strategy, "compat_policy": policy,
        },
        "solve": rep.summary(),
    }
    if args.exact:
        exact = GridFunction.from_expression(mesh, args.exact)
        payload["error_sup_vs_exact"] = float(
            np.abs((rep.solution - exact).all_values()).max())
    rows = None
    if args.format != "json":    # one row per node: x[, y], value, is_boundary
        rows = ({**dict(zip("xy", xy)), "value": v, "is_boundary": flag}
                for nodes, values, flag in ((mesh.interior_xy, rep.solution.interior, 0),
                                            (mesh.boundary_xy, rep.solution.boundary, 1))
                for lo in range(0, len(values), CSV_BLOCK)
                for xy, v in zip(nodes[lo:lo + CSV_BLOCK].tolist(),
                                 values[lo:lo + CSV_BLOCK].tolist()))
    written = _write_report(args.out, "solve_report", payload, args.format, wall, rows)
    msg = (f"solved ({strategy}): residual {rep.residual:.3e}, "
           f"defect {rep.defect:.3e}, iterations {rep.iterations}")
    if "error_sup_vs_exact" in payload:
        msg += f", sup error vs exact {payload['error_sup_vs_exact']:.3e}"
    print(msg)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args):
    domain, _ = _domain_from_args(args, {})
    if domain.dim == 1:
        resolutions = tuple(args.n0 * 2**k for k in range(args.levels))
        pinned = 128
    else:
        resolutions = tuple((args.nr0 * 2**k, args.ntheta0 * 2**k) for k in range(args.levels))
        pinned = VerifyConfig.pinned_resolution
    try:
        alphas = tuple(float(a) for a in args.alphas.split(","))
    except ValueError:
        raise ConfigError(
            f"--alphas must be comma-separated numbers, got {args.alphas!r}") from None
    config = VerifyConfig(domain=domain, family_kind=args.family, count=args.count,
                          seed=args.seed, resolutions=resolutions,
                          pinned_resolution=None if args.no_pinned else pinned, alphas=alphas,
                          alpha_main=args.alpha)
    t0 = time.perf_counter()
    report = run_family_study(config)
    wall = time.perf_counter() - t0

    written = _write_report(args.out, "estimate_report", report.to_json(),
                            args.format, wall)
    skipped = 0
    for c in report.criteria:
        mark = "SKIP" if c["skipped"] else ("PASS" if c["passed"] else "FAIL")
        skipped += c["skipped"]
        print(f"[{mark}] {c['name']}: {c['detail']}")
    if skipped:
        print(f"warning: {skipped} check(s) skipped in degraded mode "
              f"(fewer than 3 ladder levels)", file=sys.stderr)
    for path in written:
        print(f"wrote {path}")
    if not report.passed:
        failing = [c["name"] for c in report.criteria if not c["passed"]]
        print(f"failing criteria: {', '.join(failing)}", file=sys.stderr)
        return EXIT_UNEXPECTED
    return EXIT_OK


def cmd_sweep(args):
    if args.levels < 1:
        raise ConfigError("sweep needs --levels >= 1")
    spec, base, f_text, g_text, strategy, policy = _problem_inputs(args, "project")
    ladder = [base * 2**k if spec.dim == 1 else (base[0] * 2**k, base[1] * 2**k)
              for k in range(args.levels)]
    for res in ladder:
        check_mesh_size(res)
    t0 = time.perf_counter()
    rows = []
    errors = []
    for res in ladder:
        mesh = build_mesh(spec, res)
        f = GridFunction.from_expression(mesh, f_text)
        g = BoundaryFunction.from_expression(mesh, g_text)
        rep = solve_neumann(f, g, compat_policy=policy, strategy=strategy)
        row = {"resolution": [int(v) for v in np.atleast_1d(res)],
               "h": mesh.h if spec.dim == 1 else mesh.h_s}
        row.update(rep.summary())
        if args.exact:
            exact = GridFunction.from_expression(mesh, args.exact)
            err = float(np.abs((rep.solution - exact).all_values()).max())
            row["error_sup_vs_exact"] = err
            errors.append(err)
        rows.append(row)
    orders = observed_orders(errors)
    payload = {"config": {"domain": spec.to_json(), "f": f_text, "g": g_text,
                          "levels": args.levels, "compat_policy": policy,
                          "exact": args.exact},
               "levels": rows, "observed_orders": orders}
    written = _write_report(args.out, "sweep_report", payload, args.format,
                            time.perf_counter() - t0)
    print(f"sweep over {args.levels} level(s); observed orders: "
          f"{[f'{o:.2f}' for o in orders] or 'n/a (no --exact)'}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_oracle1d(args):
    if args.levels < 1:
        raise ConfigError("oracle1d needs --levels >= 1")
    t0 = time.perf_counter()
    cases = []
    if args.f_coeffs:
        try:
            coeffs = [float(c) for c in args.f_coeffs.split(",")]
        except ValueError:
            coeffs = None
        if coeffs is None or not np.all(np.isfinite(coeffs + [args.g0, args.g1])):
            raise ConfigError(f"--f-coeffs must be comma-separated finite numbers and "
                              f"--g0, --g1 finite, got {args.f_coeffs!r}, {args.g0}, {args.g1}")
        cases.append(("custom", coeffs, args.g0, args.g1))
    else:
        cases.append(("quadratic", [2.0], 1.0, 1.0))
        cases.append(("cubic", [-3.0, 6.0], 0.0, 0.0))
    rows = []
    for name, coeffs, g0, g1 in cases:
        solve_1d_oracle(coeffs, g0, g1)   # raises IncompatibleData early
        discrepancies = []
        ns = [args.n * 2**k for k in range(args.levels)]
        for n in ns:
            discrepancies.append(oracle1d_discrepancy(coeffs, g0, g1, n))
        orders = observed_orders(discrepancies)
        rows.append({"case": name, "f_coeffs": coeffs, "g0": g0, "g1": g1,
                     "n": ns, "max_discrepancy": discrepancies,
                     "observed_orders": orders})
        print(f"{name}: discrepancies {[f'{d:.3e}' for d in discrepancies]}"
              f" orders {[f'{o:.2f}' for o in orders]}")
    payload = {"config": {"n": args.n, "levels": args.levels}, "cases": rows}
    written = _write_report(args.out, "oracle1d_report", payload, args.format,
                            time.perf_counter() - t0)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_report(args):
    doc = _read_json_object(args.input, "report file")
    payload = doc.get("report", doc)
    if not isinstance(payload, dict):
        raise ConfigError(f"the report in {args.input!r} must be a JSON object, got {payload!r}")
    base = os.path.splitext(os.path.basename(args.input))[0]
    texts = {}
    if args.strip_meta:
        texts[f"{base}.canonical.json"] = _dump_json(payload)
    if args.format != "json":
        texts[f"{base}.csv"] = _csv_text(_report_rows(payload))
    if args.format != "csv" and not args.strip_meta:
        texts[f"{base}.rendered.json"] = _dump_json(doc)
    for path in _write_files(args.out, texts):
        print(f"wrote {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="neumann-lab",
        description="Numerical laboratory for the planar Neumann problem "
                    "for Poisson's equation.",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one Neumann problem",
                       epilog=GRAMMAR_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_problem_flags(p)
    p.add_argument("--exact", help="exact mean-zero solution expression (for error reporting)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the estimate-verification suite")
    _add_shape_flags(p)
    p.add_argument("--family", default=VerifyConfig.family_kind,
                   choices=("random_trigonometric", "paper_special_cases"))
    p.add_argument("--count", type=int, default=VerifyConfig.count)
    p.add_argument("--seed", type=int, default=VerifyConfig.seed)
    p.add_argument("--levels", type=int, default=len(VerifyConfig.resolutions),
                   help="ladder rungs (default %(default)s)")
    p.add_argument("--nr0", type=int, default=VerifyConfig.resolutions[0][0],
                   help="coarsest radial cells")
    p.add_argument("--ntheta0", type=int, default=VerifyConfig.resolutions[0][1],
                   help="coarsest angular cells")
    p.add_argument("--n0", type=int, default=16, help="coarsest 1D cells")
    p.add_argument("--no-pinned", action="store_true",
                   help="skip the extra pinned level at n_r = 64")
    p.add_argument("--alphas", default=",".join(map(str, VerifyConfig.alphas)))
    p.add_argument("--alpha", type=float, default=VerifyConfig.alpha_main,
                   help="exponent for the L2 ratio")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="refinement ladder for one problem",
                       epilog=GRAMMAR_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_problem_flags(p)
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--exact", help="exact mean-zero solution for error/order reporting")
    _add_output_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle1d", help="discrete solver vs closed-form 1D solution")
    p.add_argument("--n", type=int, default=128, help="coarsest cell count")
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--f-coeffs", help="polynomial coefficients c0,c1,...")
    p.add_argument("--g0", type=float, default=0.0)
    p.add_argument("--g1", type=float, default=0.0)
    _add_output_flags(p)
    p.set_defaults(func=cmd_oracle1d)

    p = sub.add_parser("report", help="re-render a stored report")
    p.add_argument("--input", required=True, help="report JSON path")
    p.add_argument("--strip-meta", action="store_true",
                   help="emit the canonical comparable payload (meta removed)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:    # usage printed; a bad flag is a configuration error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except IncompatibleData as exc:
        print(f"error: incompatible data: {exc} (defect {exc.defect:.6e})",
              file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (LinearSolveFailure, NonConvergence) as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NeumannLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
