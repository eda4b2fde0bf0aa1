"""Command-line interface.

Subcommands: ``solve`` (one problem), ``verify`` (full estimate suite
over a family and refinement ladder), ``sweep`` (refinement ladder for
one problem), ``oracle1d`` (discrete solver against the closed-form 1D
solution), ``report`` (re-render a stored JSON report).

Reports are written atomically (temp file, then rename) as
``{"meta": ..., "report": ...}``.  Everything under ``report`` is a
deterministic function of the configuration and seed; timestamps and
wall times live under ``meta`` so byte comparison of the ``report``
payload is meaningful.  Exit codes: 0 success, 2 incompatible data,
3 solver failure, 4 configuration error (rejected flag values, and
unreadable input or unwritable output files, included), 1 unexpected error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, norms, solver
from .domain import DomainSpec, build_mesh, check_mesh_size
from .errors import (ConfigError, EvalDomainError, ExprSyntaxError,
                     IncompatibleData, LinearSolveFailure, NeumannLabError,
                     NonConvergence, NonPositiveRadius, ResolutionTooSmall,
                     UnknownIdentifier)
from .expr import GRAMMAR_HELP
from .field import BoundaryFunction, GridFunction
from .solver import solve_neumann
from .verify import (VerifyConfig, observed_orders, oracle1d_discrepancy,
                     run_family_study, solve_1d_oracle)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INCOMPATIBLE = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


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


def _write_report(outdir, name, payload, fmt, wall_time, csv_text=None):
    """Write the JSON (and optional CSV) forms of one report."""
    written = []
    doc = {
        "meta": {
            "tool": f"neumann-lab {__version__}",
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": wall_time,
        },
        "report": payload,
    }
    if fmt in ("json", "both"):
        path = os.path.join(outdir, f"{name}.json")
        _atomic_write(path, _dump_json(doc))
        written.append(path)
    if fmt in ("csv", "both") and csv_text is not None:
        path = os.path.join(outdir, f"{name}.csv")
        _atomic_write(path, csv_text)
        written.append(path)
    return written


def _domain_from_args(args, problem):
    """(spec, resolution or None): the problem file's domain unless
    --domain is given, else the shape flags' domain (default the disk)."""
    if "domain" in problem and args.domain is None:
        return problem["domain"]
    kind = args.domain or "disk"
    if kind == "disk":
        return DomainSpec.disk(args.radius), None
    if kind == "interval":
        return DomainSpec.interval(args.a, args.b), None
    if kind == "star":
        return _star_domain(args.radius_coeffs), None
    raise ConfigError(f"unknown domain {kind!r}")


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
    if spec.dim == 1:
        return args.n or (file_res if isinstance(file_res, int) else None) or 128
    if args.nr or args.ntheta:
        nr = args.nr or 64
        return (nr, args.ntheta or 2 * nr)
    if file_res is not None:
        return file_res
    return (64, 128)


def _read_json_object(path, what):
    """The JSON object held by the file at path.  A file that cannot be
    read or decoded, or holds anything but an object, is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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


def _add_shape_flags(p):
    p.add_argument("--domain", choices=("disk", "interval", "star"),
                   help="domain kind (default disk)")
    p.add_argument("--radius", type=float, default=1.0, help="disk radius")
    p.add_argument("--radius-coeffs", help='star boundary JSON: {"a0":1,"cos":[...],"sin":[...]}')
    p.add_argument("--a", type=float, default=0.0, help="interval left endpoint")
    p.add_argument("--b", type=float, default=1.0, help="interval right endpoint")


def _add_resolution_flags(p):
    p.add_argument("--nr", type=int, help="radial cells (2D)")
    p.add_argument("--ntheta", type=int, help="angular cells (2D)")
    p.add_argument("--n", type=int, help="cells (1D)")


def _add_output_flags(p):
    p.add_argument("--out", default="out", help="output directory (default ./out)")
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")


def cmd_solve(args):
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    problem = _load_problem(args)
    spec, file_res = _domain_from_args(args, problem)
    mesh = build_mesh(spec, _resolution_from_args(args, spec, file_res))
    f_text = args.f or problem.get("f")
    g_text = args.g if args.g is not None else problem.get("g")
    if f_text is None or g_text is None:
        raise ConfigError("solve needs --f and --g expressions (or a problem file)")
    f = GridFunction.from_expression(mesh, f_text)
    g = BoundaryFunction.from_expression(mesh, g_text)
    strategy = args.strategy or problem.get("strategy", "direct_augmented")
    policy = args.compat or problem.get("compat_policy", "reject")

    t0 = time.perf_counter()
    rep = solve_neumann(f, g, strategy=strategy, compat_policy=policy,
                        tol_compat=args.tol_compat, tol_linear=args.tol_linear)
    wall = time.perf_counter() - t0

    payload = {
        "config": {
            "domain": spec.to_json(resolution=(mesh.n,) if spec.dim == 1
                                   else (mesh.n_r, mesh.n_theta)),
            "f": f_text, "g": g_text, "alpha": args.alpha,
            "strategy": strategy, "compat_policy": policy, "seed": args.seed,
        },
        "solve": rep.summary(),
    }
    if args.exact:
        exact = GridFunction.from_expression(mesh, args.exact)
        payload["error_sup_vs_exact"] = float(
            np.abs((rep.solution - exact).all_values()).max())
    csv_text = None
    if args.format in ("csv", "both"):
        buf = io.StringIO()
        rep.solution.to_csv(buf)
        csv_text = buf.getvalue()
    written = _write_report(args.out, "solve_report", payload, args.format, wall,
                            csv_text)
    msg = (f"solved ({strategy}): residual {rep.residual:.3e}, "
           f"defect {rep.defect:.3e}, iterations {rep.iterations}")
    if "error_sup_vs_exact" in payload:
        msg += f", sup error vs exact {payload['error_sup_vs_exact']:.3e}"
    print(msg)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args):
    if args.count < 1:
        raise ConfigError("verify needs --count >= 1 (zero-instance family rejected)")
    if args.levels < 1:
        raise ConfigError("verify needs --levels >= 1")
    domain, _ = _domain_from_args(args, {})
    if domain.dim == 1:
        resolutions = tuple(args.n0 * 2**k for k in range(args.levels))
        pinned = 128
    else:
        resolutions = tuple((args.nr0 * 2**k, args.ntheta0 * 2**k) for k in range(args.levels))
        pinned = (64, 256)
    try:
        alphas = tuple(float(a) for a in args.alphas.split(","))
    except ValueError:
        raise ConfigError(
            f"--alphas must be comma-separated numbers, got {args.alphas!r}") from None
    config = VerifyConfig(domain=domain, family_kind=args.family, count=args.count,
                          seed=args.seed, resolutions=resolutions,
                          pinned_resolution=None if args.no_pinned else pinned, alphas=alphas,
                          alpha_main=args.alpha, pair_strategy=args.pair_strategy,
                          threads=args.threads)
    t0 = time.perf_counter()
    report = run_family_study(config)
    wall = time.perf_counter() - t0

    buf = io.StringIO()
    report.to_csv(buf)
    written = _write_report(args.out, "estimate_report", report.to_json(),
                            args.format, wall, buf.getvalue())
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
    problem = _load_problem(args)
    spec, file_res = _domain_from_args(args, problem)
    f_text = args.f or problem.get("f")
    g_text = args.g if args.g is not None else problem.get("g")
    if f_text is None or g_text is None:
        raise ConfigError("sweep needs --f and --g expressions (or a problem file)")
    base = _resolution_from_args(args, spec, file_res)
    policy = args.compat or problem.get("compat_policy", "project")
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
        rep = solve_neumann(f, g, compat_policy=policy, strategy=args.strategy
                            or "direct_augmented")
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
    csv_lines = ["level,h,residual,defect,error_sup_vs_exact"]
    for k, row in enumerate(rows):
        csv_lines.append(
            f"{k},{row['h']!r},{row['residual']!r},{row['defect']!r},"
            f"{row.get('error_sup_vs_exact', '')!r}")
    written = _write_report(args.out, "sweep_report", payload, args.format,
                            time.perf_counter() - t0, "\n".join(csv_lines) + "\n")
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
    csv_text = None
    if args.format in ("csv", "both") and "levels" in payload:
        from .verify import EstimateReport
        rep = EstimateReport(config=payload.get("config", {}),
                             levels=payload["levels"],
                             criteria=payload.get("criteria", []),
                             passed=payload.get("passed", True))
        buf = io.StringIO()
        try:
            rep.to_csv(buf)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ConfigError(f"cannot render the levels in {args.input!r}: {exc!r}") from None
        csv_text = buf.getvalue()
    base = os.path.splitext(os.path.basename(args.input))[0]
    written = []
    if args.strip_meta:
        path = os.path.join(args.out, f"{base}.canonical.json")
        _atomic_write(path, _dump_json(payload))
        written.append(path)
    if csv_text is not None:
        path = os.path.join(args.out, f"{base}.csv")
        _atomic_write(path, csv_text)
        written.append(path)
    if args.format in ("json", "both") and not args.strip_meta:
        path = os.path.join(args.out, f"{base}.rendered.json")
        _atomic_write(path, _dump_json(doc))
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    if not written:
        print("nothing to write (csv requested for a report without levels?)",
              file=sys.stderr)
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
    p.add_argument("--problem", help="problem JSON file")
    _add_shape_flags(p)
    _add_resolution_flags(p)
    p.add_argument("--f", help="forcing expression")
    p.add_argument("--g", help="boundary flux expression")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--strategy", choices=solver.STRATEGIES)
    p.add_argument("--compat", choices=("reject", "project"))
    p.add_argument("--tol-linear", type=float, default=1e-10)
    p.add_argument("--tol-compat", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", help="exact mean-zero solution expression (for error reporting)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the estimate-verification suite")
    _add_shape_flags(p)
    p.add_argument("--family", default="random_trigonometric",
                   choices=("random_trigonometric", "paper_special_cases",
                            "manufactured_polynomial"))
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=int, default=3, help="ladder rungs (default 3)")
    p.add_argument("--nr0", type=int, default=12, help="coarsest radial cells")
    p.add_argument("--ntheta0", type=int, default=48, help="coarsest angular cells")
    p.add_argument("--n0", type=int, default=16, help="coarsest 1D cells")
    p.add_argument("--no-pinned", action="store_true",
                   help="skip the extra pinned level at n_r = 64")
    p.add_argument("--alphas", default="0.3,0.5,0.7")
    p.add_argument("--alpha", type=float, default=0.5, help="exponent for the L2 ratio")
    p.add_argument("--pair-strategy", choices=norms.STRATEGIES, default="pruned")
    p.add_argument("--threads", type=int, default=0,
                   help="instance parallelism (0: NEUMANN_LAB_THREADS or 1)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="refinement ladder for one problem",
                       epilog=GRAMMAR_HELP,
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--problem")
    _add_shape_flags(p)
    _add_resolution_flags(p)
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--strategy", choices=solver.STRATEGIES)
    p.add_argument("--compat", choices=("reject", "project"))
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
    except (ConfigError, ExprSyntaxError, UnknownIdentifier, EvalDomainError,
            NonPositiveRadius, ResolutionTooSmall, OSError, json.JSONDecodeError) as exc:
        print(f"error: bad configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NeumannLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
