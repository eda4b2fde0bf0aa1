"""Estimate-verification harness.

Measures, over problem families and refinement ladders, the quantities
the a priori theory bounds: the energy identity defect, the L2 and
Holder-scale estimate ratios, the local sup bound on interior balls,
the maximum-principle ratio of the shifted problem, uniqueness up to
constants, and agreement between the two solver strategies.  Since the
continuum constants are not explicit, the checks assert finiteness,
invariance under data scaling, and stability within a factor-2 band
across refinement levels.

All measures are pure functions of (u, f, g, mesh); a study is
reproducible bit-for-bit from its recorded seed and configuration.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np

from .domain import (MAX_NODES, DomainSpec, build_mesh, check_mesh_size, distance_to_boundary,
                     mesh_nodes)
from .errors import (BallNotContained, ConfigError, DegenerateData,
                     IncompatibleData, InvalidExponent)
from .expr import parse
from .field import (BoundaryFunction, GridFunction, boundary_trace, gradient,
                    integrate_boundary, integrate_volume, mean, subtract_mean)
from .norms import holder_reports, l2_norm
from .solver import (check_compatibility, solve_1d_oracle, solve_bordered,
                     solve_neumann, solve_neumann_pinned, solve_regularized)

BOUNDARY_SUP_SLACK = 1e-8
RATIO_FLOOR = 1e-14       # denominators below this are degenerate
ZERO_DATA_FLOOR = 1e-12   # numerators below this count as zero data
MAX_PRINCIPLE_BOUND = 1.01  # largest maximum-principle ratio allowed at the pinned level


# ---------------------------------------------------------------------------
# problem generators

@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution with analytically authored gradient and forcing.

    The boundary data is grad(u*) . n evaluated with the mesh normals,
    so one case serves every star-shaped domain realization.  When the
    analytic domain average of u* is known it is stored so convergence
    errors can be measured against the exact mean-zero solution; with
    ``analytic_mean=None`` the sampled discrete mean is used instead.
    """

    name: str
    domain: DomainSpec
    u_expr: str
    grad_exprs: tuple
    f_expr: str
    analytic_mean: float = None

    def realize(self, mesh):
        """(u_star, f, g) on a mesh built for this case's domain."""
        u_star = GridFunction.from_expression(mesh, self.u_expr)
        f = GridFunction.from_expression(mesh, self.f_expr)
        grads = [BoundaryFunction.from_expression(mesh, e) for e in self.grad_exprs]
        g_vals = sum(gv.values * mesh.normals[:, k] for k, gv in enumerate(grads))
        return u_star, f, BoundaryFunction(mesh, g_vals)

    def exact_mean_zero(self, u_star):
        """u_star, realized on a mesh, minus its analytic or sampled mean."""
        m = self.analytic_mean if self.analytic_mean is not None else mean(u_star)
        return GridFunction(u_star.mesh, u_star.interior - m, u_star.boundary - m)


MANUFACTURED_CASES = {
    "disk_quadratic": ManufacturedCase(
        name="disk_quadratic", domain=DomainSpec.disk(),
        u_expr="r^2/4", grad_exprs=("x/2", "y/2"), f_expr="1",
        analytic_mean=0.125),
    "disk_quadratic_centered": ManufacturedCase(
        name="disk_quadratic_centered", domain=DomainSpec.disk(),
        u_expr="r^2/4 - 1/8", grad_exprs=("x/2", "y/2"), f_expr="1",
        analytic_mean=0.0),
    "star_trig": ManufacturedCase(
        name="star_trig",
        domain=DomainSpec.star_shaped(1.0, (0.0, 0.3)),
        u_expr="sin(x)*cos(y) + 0.3*x*y",
        grad_exprs=("cos(x)*cos(y) + 0.3*y", "-sin(x)*sin(y) + 0.3*x"),
        f_expr="-2*sin(x)*cos(y)"),
    "interval_linear": ManufacturedCase(
        name="interval_linear", domain=DomainSpec.interval(0.0, 1.0),
        u_expr="x - 0.5", grad_exprs=("1",), f_expr="0",
        analytic_mean=0.0),
    "interval_cubic": ManufacturedCase(
        name="interval_cubic", domain=DomainSpec.interval(0.0, 1.0),
        u_expr="x^3 - 3*x^2/2 + 1/4", grad_exprs=("3*x^2 - 3*x",), f_expr="6*x - 3",
        analytic_mean=0.0),
}


@dataclass(frozen=True)
class FamilyInstance:
    """One (f, g) data pair, stored as expressions so every refinement
    level samples the same underlying functions; each is parsed once."""

    index: int
    f_expr: str
    g_expr: str
    _asts: tuple = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_asts", (parse(self.f_expr), parse(self.g_expr)))

    def realize(self, mesh):
        f_ast, g_ast = self._asts
        return (GridFunction.from_expression(mesh, f_ast),
                BoundaryFunction.from_expression(mesh, g_ast))


@dataclass(frozen=True)
class ProblemFamily:
    """Generator of problem instances.

    Kinds: ``random_trigonometric`` (low trigonometric modes with
    amplitudes uniform in [-1, 1]; compatibility is
    restored by projection at solve time), ``paper_special_cases``
    (the canonical quadratic-disk data and the zero problem), and
    ``manufactured_polynomial`` (data of the manufactured catalog).
    """

    kind: str = "random_trigonometric"
    seed: int = 0
    count: int = 20
    dim: int = 2

    def instances(self):
        if self.count < 1:
            raise ConfigError("problem family needs at least one instance")
        if self.kind == "random_trigonometric":
            return self._random_instances()
        if self.kind == "paper_special_cases":
            fixed = [FamilyInstance(0, "1", "0.5"), FamilyInstance(1, "0", "0")]
            return fixed[:max(1, min(self.count, len(fixed)))]
        if self.kind == "manufactured_polynomial":
            names = ("disk_quadratic_centered", "disk_quadratic")
            out = []
            for i in range(min(self.count, len(names))):
                case = MANUFACTURED_CASES[names[i]]
                out.append(FamilyInstance(i, case.f_expr, "0.5"))
            return out
        raise ConfigError(f"unknown family kind {self.kind!r}")

    def _random_instances(self):
        rng = np.random.default_rng(self.seed)
        out = []
        for i in range(self.count):
            f_terms, g_terms = [], []
            for k in range(1, 5):
                c = [float(v) for v in rng.uniform(-1.0, 1.0, size=4)]
                f_terms += [f"{c[0]!r}*cos({k}*x)", f"{c[1]!r}*sin({k}*x)"]
                if self.dim == 2:
                    f_terms += [f"{c[2]!r}*cos({k}*y)", f"{c[3]!r}*sin({k}*y)"]
                d = [float(v) for v in rng.uniform(-1.0, 1.0, size=2)]
                if self.dim == 2:
                    g_terms += [f"{d[0]!r}*cos({k}*theta)", f"{d[1]!r}*sin({k}*theta)"]
                else:
                    g_terms += [f"{d[0]!r} + {d[1]!r}*x"]
            out.append(FamilyInstance(i, " + ".join(f_terms), " + ".join(g_terms)))
        return out


# ---------------------------------------------------------------------------
# pointwise measures

def energy_identity_defect(u, f, g):
    """|int |Du|^2 - (bnd_int u g - int u f)| / (1 + int |Du|^2)."""
    comps = gradient(u)
    sq = comps[0] * comps[0]
    for c in comps[1:]:
        sq = sq + c * c
    energy = integrate_volume(sq)
    rhs = integrate_boundary(boundary_trace(u) * g) - integrate_volume(u * f)
    return abs(energy - rhs) / (1.0 + energy)


def _ratio(num, den):
    if den < RATIO_FLOOR:
        if num <= ZERO_DATA_FLOOR:
            return 0.0
        raise DegenerateData(f"ratio {num:.3e}/{den:.3e} has vanishing denominator")
    return num / den


def _ratio_terms(problems, pair_strategy="pruned"):
    """(num, den) of the estimate ratios of (u, f, g, alphas) problems.

    All norms come from one holder_reports call; u is measured as given.
    Returns one dict per problem mapping ("schauder" | "intermediate" |
    "l2", alpha) to the pair _ratio turns into that ratio.
    """
    items = [item for u, f, g, alphas in problems
             for item in ((f, 0, alphas), (g, 1, alphas), (u, 2, alphas))]
    reports = holder_reports(items, pair_strategy)
    out = []
    for k, (u, _, _, alphas) in enumerate(problems):
        fb, gb, ub = reports[3 * k:3 * k + 3]
        sup_u = float(np.abs(u.all_values()).max())
        l2_u = l2_norm(u)
        terms = {}
        for a in alphas:
            den = fb[a].total + gb[a].total
            terms["schauder", a] = (ub[a].total, den)
            terms["intermediate", a] = (ub[a].total, sup_u + den)
            terms["l2", a] = (l2_u, den)
        out.append(terms)
    return out


def _one_ratio(kind, u, f, g, alpha):
    [terms] = _ratio_terms([(subtract_mean(u), f, g, (alpha,))])
    return _ratio(*terms[kind, alpha])


def l2_lemma_ratio(u, f, g, alpha=0.5):
    """||u - mean||_L2 over the Holder data norms."""
    return _one_ratio("l2", u, f, g, alpha)


def schauder_ratio(u, f, g, alpha):
    """||u - mean||_{C^{2,alpha}} over the Holder data norms."""
    return _one_ratio("schauder", u, f, g, alpha)


def intermediate_ratio(u, f, g, alpha):
    """Ratio with the augmented denominator (adds ||u||_C0); never
    exceeds schauder_ratio on the same data."""
    return _one_ratio("intermediate", u, f, g, alpha)


def _check_ball(mesh, center, radius, error):
    """Raise error unless B(center, 2 radius) lies inside the domain: 2 radius
    at most the sampled boundary distance of center minus one cell."""
    dist = float(distance_to_boundary(mesh, center[None, :])[0])
    if 2.0 * radius > dist - mesh.cell_size:
        raise error(f"ball of radius 2R = {2 * radius} around {center} exceeds the "
                    f"sampled boundary distance {dist:.4f} minus one cell")


def serrin_local_ratio(u, f, center, radius, p=None):
    """sup over B(center, R) of |u| against local L2 and global Lp data.

    Requires B(center, 2R) inside the domain (sampled boundary distance
    with a one-cell margin).  p defaults to dimension + 1.
    """
    mesh = u.mesh
    ndim = mesh.dim
    if p is None:
        p = ndim + 1
    if p <= ndim / 2.0:
        raise InvalidExponent(f"need p > N/2 = {ndim / 2}, got {p}")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    _check_ball(mesh, center, radius, BallNotContained)
    d = np.linalg.norm(mesh.interior_xy - center[None, :], axis=1)
    in_r = d <= radius
    in_2r = d <= 2.0 * radius
    sup_r = float(np.abs(u.interior[in_r]).max()) if in_r.any() else 0.0
    l2_2r = float(np.sqrt(np.dot(mesh.w_vol[in_2r], u.interior[in_2r]**2)))
    f_lp = float(np.dot(mesh.w_vol, np.abs(f.interior)**p) ** (1.0 / p))
    den = radius**(-ndim / 2.0) * l2_2r + radius**(2.0 - ndim / p) * f_lp
    return _ratio(sup_r, den)


def boundary_sup_gap(u, eps):
    """Violation of sup_bnd |u| <= sup_{interior at depth eps} |u| + eps sup|Du|.

    The interior set keeps nodes with sampled boundary distance at
    least eps minus one cell, so the discrete supremum cannot miss the
    continuum maximizer by a grid offset.  Returns the normalized gap;
    values above the slack indicate a violation.
    """
    mesh = u.mesh
    comps = gradient(u)
    grad_sq = sum(np.abs(c.all_values())**2 for c in comps)
    sup_grad = float(np.sqrt(grad_sq.max()))
    inside = mesh.interior_depth >= eps - mesh.cell_size
    sup_eps = float(np.abs(u.interior[inside]).max()) if inside.any() else 0.0
    sup_b = float(np.abs(u.boundary).max())
    gap = sup_b - (sup_eps + eps * sup_grad)
    return gap / (1.0 + float(np.abs(u.all_values()).max()))


# ---------------------------------------------------------------------------
# refinement studies

@dataclass
class ConvergenceStudy:
    case: str
    resolutions: list
    errors: list
    orders: list              # between consecutive levels
    exact: bool               # finest error at rounding level
    converged: bool           # exact, or finest-pair order >= 1.9


def observed_orders(errors):
    """log2(errors[k] / errors[k+1]) for every pair of consecutive levels:
    inf when the finer error is 0, and 0.0 when only the coarser one is."""
    return [float("inf") if fine == 0.0 else 0.0 if coarse == 0.0
            else float(np.log2(coarse / fine))
            for coarse, fine in zip(errors[:-1], errors[1:])]


def convergence_study(case, resolutions):
    """Solve a manufactured case across a refinement ladder.

    Errors are sup-norm distances to the exact mean-zero solution; the
    observed order is log2 of consecutive error quotients.  Errors at
    rounding level are flagged ``exact`` instead of producing noise
    orders.  A non-exact study whose finest order drops below 1.9 is
    flagged as not converged (no exception).  Every level's data is
    projected onto compatibility.
    """
    if isinstance(case, str):
        case = MANUFACTURED_CASES[case]
    if len(resolutions) < 3:
        raise ConfigError("convergence study needs at least three levels")
    errors = []
    scale = 1.0
    for res in resolutions:
        mesh = build_mesh(case.domain, res)
        u_star, f, g = case.realize(mesh)
        rep = solve_neumann(f, g, compat_policy="project")
        target = case.exact_mean_zero(u_star)
        errors.append(float(np.abs((rep.solution - target).all_values()).max()))
        scale = max(scale, float(np.abs(u_star.all_values()).max()))
    exact = errors[-1] <= 1e-11 * scale
    orders = observed_orders(errors)
    converged = bool(exact or (orders and orders[-1] >= 1.9))
    return ConvergenceStudy(case=case.name, resolutions=list(resolutions),
                            errors=errors, orders=orders, exact=exact,
                            converged=converged)


def oracle1d_discrepancy(f_coeffs, g0, g1, n):
    """Max node discrepancy on (0, 1) between the discrete 1D solve and
    the closed-form polynomial solution, after aligning means on the grid."""
    poly = solve_1d_oracle(f_coeffs, g0, g1)
    mesh = build_mesh(DomainSpec.interval(), n)
    terms = " + ".join(f"{float(c)!r}*x^{k}" if k else f"{float(c)!r}"
                       for k, c in enumerate(np.asarray(f_coeffs, dtype=float)))
    f = GridFunction.from_expression(mesh, terms)
    g = BoundaryFunction(mesh, np.array([g0, g1], dtype=float))
    rep = solve_neumann(f, g, compat_policy="project")
    exact = GridFunction(mesh, poly(mesh.interior_xy[:, 0]), poly(mesh.boundary_xy[:, 0]))
    exact = subtract_mean(exact)
    return float(np.abs((rep.solution - exact).all_values()).max())


def incompatibility_probe(f, g):
    """Check the solvability condition machinery on (deliberately)
    incompatible data.

    Returns a dict with the measured defect, whether the reject policy
    fired (at DEFAULT_COMPAT_TOL), the defect the exception carried, and
    the bordered-system multiplier (documented to equal the defect).
    """
    delta = check_compatibility(f, g)
    rejected = False
    reported = 0.0
    try:
        solve_neumann(f, g, compat_policy="reject")
    except IncompatibleData as exc:
        rejected = True
        reported = exc.defect
    _, lam = solve_bordered(f, g)
    return {
        "defect": float(delta),
        "rejected": rejected,
        "reported_defect": float(reported),
        "multiplier": float(lam),
        "multiplier_matches": bool(abs(lam - delta) <= 1e-8 * (1.0 + abs(delta))),
    }


# ---------------------------------------------------------------------------
# family study

@dataclass(frozen=True)
class VerifyConfig:
    """Family study configuration.

    ``resolutions`` is the refinement ladder carrying every measure
    including the Holder-norm ratios (pairwise seminorms grow
    quadratically with node count, so this ladder stays moderate);
    ``pinned_resolution`` is one finer level at n_r = 64 carrying only
    the cheap solve-based measures whose tolerances are stated at that
    size (energy defect, maximum principle, strategy agreement,
    uniqueness).  Angular resolution runs at four times the radial one
    to balance the error contributions of the two directions.
    """

    domain: DomainSpec = dc_field(default_factory=DomainSpec.disk)
    family_kind: str = "random_trigonometric"
    count: int = 20
    seed: int = 0
    resolutions: tuple = ((12, 48), (24, 96), (48, 192))
    pinned_resolution: tuple = (64, 256)
    alphas: tuple = (0.3, 0.5, 0.7)
    alpha_main: float = 0.5
    serrin_radii: tuple = (0.1, 0.2)
    eps_values: tuple = (0.05, 0.1)
    pair_strategy: str = "pruned"
    threads: int = 0                # 0: honor NEUMANN_LAB_THREADS, default 1

    def __post_init__(self):
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ConfigError(f"alpha must lie in (0, 1), got {a}")
        if len(set(self.alphas)) != len(self.alphas):
            raise ConfigError(f"alphas must be distinct, got {tuple(self.alphas)}")
        if self.alpha_main not in self.alphas:
            raise ConfigError(f"alpha_main {self.alpha_main} is not one of the alphas "
                              f"{tuple(self.alphas)}")
        for res in (*self.resolutions, self.pinned_resolution):
            if res is not None:
                check_mesh_size(res)
        _worker_count(self)

    def to_json(self):
        return {
            "domain": self.domain.to_json(),
            "family_kind": self.family_kind, "count": self.count,
            "seed": self.seed,
            "resolutions": [[int(v) for v in np.atleast_1d(r)] for r in self.resolutions],
            "pinned_resolution": (None if self.pinned_resolution is None
                                  else [int(v) for v in np.atleast_1d(self.pinned_resolution)]),
            "alphas": list(self.alphas), "alpha_main": self.alpha_main,
            "serrin_radii": list(self.serrin_radii), "serrin_p": None,
            "eps_values": list(self.eps_values),
            "pair_strategy": self.pair_strategy,
            "max_principle_bound": MAX_PRINCIPLE_BOUND,
        }


def _serrin_center(mesh):
    if mesh.dim == 1:
        mid = 0.5 * (mesh.spec.a + mesh.spec.b)
        j = int(np.argmin(np.abs(mesh.interior_xy[:, 0] - mid)))
    else:
        j = int(np.argmin(np.linalg.norm(mesh.interior_xy, axis=1)))
    return mesh.interior_xy[j]


def _measure_instance(inst, mesh, config, check_scaling, with_holder):
    """All per-instance measures on one mesh level."""
    alphas = tuple(config.alphas)
    f, g = inst.realize(mesh)
    direct = solve_neumann(f, g, strategy="direct_augmented", compat_policy="project")
    u = direct.solution
    row = {"instance": inst.index,
           "defect": direct.defect,
           "residual": direct.residual,
           "energy_defect": energy_identity_defect(u, f, g)}

    if with_holder:
        main = config.alpha_main
        problems = [(u, f, g, alphas)]
        if check_scaling:
            # the doubled problem's norms join the same sweeps
            scaled = solve_neumann(2.0 * f, 2.0 * g, compat_policy="project")
            problems.append((subtract_mean(scaled.solution), 2.0 * f, 2.0 * g, (main,)))
        terms = _ratio_terms(problems, config.pair_strategy)
        for a in alphas:
            row[f"ratio_schauder_{a}"] = _ratio(*terms[0]["schauder", a])
            row[f"ratio_intermediate_{a}"] = _ratio(*terms[0]["intermediate", a])
        row["ratio_l2"] = _ratio(*terms[0]["l2", main])
        if check_scaling:
            r1 = row[f"ratio_schauder_{main}"]
            r2 = _ratio(*terms[1]["schauder", main])
            row["scaling_deviation"] = abs(r2 - r1) / (abs(r1) if r1 else 1.0)

    center = _serrin_center(mesh)
    for k, radius in enumerate(config.serrin_radii):
        row[f"serrin_ratio_{k}"] = serrin_local_ratio(u, f, center, radius)

    reg = solve_regularized(f, BoundaryFunction.zeros(mesh))
    sup_f = float(np.abs(f.all_values()).max())
    row["max_principle_ratio"] = (
        float(np.abs(reg.solution.all_values()).max()) / sup_f if sup_f > 0 else 0.0)

    row["boundary_sup_gap"] = max(boundary_sup_gap(u, eps) for eps in config.eps_values)
    return row, f, g, u


def _agreement_measures(row, f, g, u_direct):
    fred = solve_neumann(f, g, strategy="fredholm_iteration", compat_policy="project")
    diff = np.abs((fred.solution - u_direct).all_values()).max()
    sup = max(float(np.abs(u_direct.all_values()).max()), 1e-30)
    row["agreement"] = float(diff) / sup
    row["krylov_iterations"] = fred.iterations
    pinned = solve_neumann_pinned(f, g, node=0, value=1.0, compat_policy="project")
    dvals = (pinned.solution - u_direct).all_values()
    row["uniqueness_std"] = float(np.std(dvals)) / sup
    return row


@dataclass
class EstimateReport:
    """Per-instance measures per level plus aggregates and verdicts."""

    config: dict
    levels: list            # one dict per level: resolution, h, rows
    criteria: list          # name, passed, skipped, detail
    passed: bool
    aggregates: dict = dc_field(default_factory=dict)

    def to_json(self):
        return {"config": self.config, "levels": self.levels,
                "aggregates": self.aggregates,
                "criteria": self.criteria, "passed": self.passed}

    def csv_rows(self):
        seed = self.config.get("seed", 0)
        alpha = self.config.get("alpha_main", 0.5)
        rows = []
        for lvl, level in enumerate(self.levels):
            for row in level["rows"]:
                finite = all(np.isfinite(v) for v in row.values()
                             if isinstance(v, float))
                row_pass = finite and row.get("boundary_sup_gap", 0.0) <= BOUNDARY_SUP_SLACK
                out = {
                    "seed": seed,
                    "instance": row["instance"],
                    "level": lvl,
                    "h": level["h"],
                    "ratio_schauder": row.get(f"ratio_schauder_{alpha}"),
                    "ratio_intermediate": row.get(f"ratio_intermediate_{alpha}"),
                    "ratio_l2": row.get("ratio_l2"),
                    "energy_defect": row.get("energy_defect"),
                    "serrin_ratio": row.get("serrin_ratio_0"),
                    "pass": int(row_pass),
                }
                for key in sorted(row):
                    if key.startswith(("ratio_schauder_", "ratio_intermediate_",
                                       "serrin_ratio_")) or key in (
                            "max_principle_ratio", "boundary_sup_gap", "agreement",
                            "krylov_iterations", "uniqueness_std", "scaling_deviation"):
                        out[key] = row[key]
                rows.append(out)
        return rows

    def to_csv(self, fh):
        rows = self.csv_rows()
        cols = []
        for row in rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join("" if row.get(c) is None else repr(row.get(c))
                              for c in cols) + "\n")


def _worker_count(config):
    """Instance threads: config.threads, else NEUMANN_LAB_THREADS, else 1.
    A negative config.threads, or a variable that is not an integer >= 1,
    is a ConfigError."""
    if config.threads < 0:
        raise ConfigError(f"threads must be >= 0 (0: NEUMANN_LAB_THREADS or 1), "
                          f"got {config.threads}")
    if config.threads:
        return int(config.threads)
    text = os.environ.get("NEUMANN_LAB_THREADS", "") or "1"
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise ConfigError(f"NEUMANN_LAB_THREADS must be an integer >= 1, got {text!r}")
    return count


def _first_passing_n(domain, res, gap, eps):
    """Smallest radial (2D) or cell (1D) count, from res's, whose outer
    nodes lie within eps of the boundary; the gap scales like 1/n.
    None when every such count exceeds MAX_NODES."""
    res = [int(v) for v in np.atleast_1d(res)]
    # capped before int(): on a huge domain the gap, and so the estimate, is inf
    n = max(res[0] + 1, int(min(gap * res[0] / eps, MAX_NODES)))
    while mesh_nodes([n] + res[1:]) <= MAX_NODES:
        if not build_mesh(domain, tuple([n] + res[1:])).interior_depth.min() > eps:
            return n
        n += 1
    return None


def run_family_study(config):
    """Run every measure over the configured family and ladder."""
    if config.count < 1:
        raise ConfigError("family study needs count >= 1")
    if len(config.resolutions) < 1:
        raise ConfigError("family study needs at least one level")
    workers = _worker_count(config)
    family = ProblemFamily(kind=config.family_kind, seed=config.seed,
                           count=config.count, dim=config.domain.dim)
    instances = family.instances()
    ladder = [(res, True) for res in config.resolutions]
    if config.pinned_resolution is not None:
        ladder.append((config.pinned_resolution, False))  # cheap measures only
    pinned_level = len(ladder) - 1
    meshes = [build_mesh(config.domain, res) for res, _ in ladder]
    eps = min(config.eps_values)
    for (res, _), mesh in zip(ladder, meshes):
        # boundary_sup_gap bridges to the boundary over eps only
        gap = float(mesh.interior_depth.min())
        if gap > eps:
            n = _first_passing_n(config.domain, res, gap, eps)
            name = "n" if mesh.dim == 1 else "n_r"
            passing = (f"no rung within the {MAX_NODES}-node cap passes" if n is None
                       else f"the first {name} that passes is {n}")
            raise ConfigError(f"rung {res} is too coarse for eps = {eps}: its outer "
                              f"nodes lie {gap:.4g} from the boundary; {passing}")
        # the largest Serrin ball is the one that may not fit
        if config.serrin_radii:
            _check_ball(mesh, _serrin_center(mesh), max(config.serrin_radii), ConfigError)

    levels = []
    for lvl, (res, with_holder) in enumerate(ladder):
        mesh, meshes[lvl] = meshes[lvl], None   # a finished level's factors can go
        h = mesh.h if mesh.dim == 1 else mesh.h_s

        def measure(inst, _mesh=mesh, _lvl=lvl, _holder=with_holder):
            row, f, g, u = _measure_instance(
                inst, _mesh, config, check_scaling=(inst.index == 0),
                with_holder=_holder)
            if _lvl == pinned_level:
                row = _agreement_measures(row, f, g, u)
            return row

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(measure, instances))
        else:
            rows = [measure(inst) for inst in instances]
        levels.append({"resolution": [int(v) for v in np.atleast_1d(res)],
                       "h": float(h), "holder": with_holder, "rows": rows})
    criteria = evaluate_criteria(levels, config, pinned_level)
    return EstimateReport(config=config.to_json(), levels=levels,
                          criteria=criteria,
                          passed=all(c["passed"] for c in criteria),
                          aggregates=_aggregate(levels, config))


def _aggregate(levels, config):
    """Family max/median per measure per level, plus the measured
    stand-ins for the non-explicit estimate constants."""
    keys = ["energy_defect", "ratio_l2", "max_principle_ratio"]
    keys += [f"ratio_schauder_{a}" for a in config.alphas]
    keys += [f"ratio_intermediate_{a}" for a in config.alphas]
    keys += [f"serrin_ratio_{k}" for k in range(len(config.serrin_radii))]
    per_measure = {}
    for key in keys:
        maxima, medians = [], []
        for level in levels:
            vals = [row[key] for row in level["rows"] if key in row]
            if vals:
                maxima.append(float(np.max(vals)))
                medians.append(float(np.median(vals)))
            else:
                maxima.append(None)
                medians.append(None)
        per_measure[key] = {"family_max": maxima, "family_median": medians}
    holder = [level for level in levels if level["holder"]]
    c_measured = {}
    if holder:
        for a in config.alphas:
            vals = [row[f"ratio_schauder_{a}"] for row in holder[-1]["rows"]]
            c_measured[f"schauder_alpha_{a}"] = float(np.max(vals))
    return {"per_measure": per_measure, "C_measured": c_measured}


def _family_max(levels, key):
    return [max(row[key] for row in level["rows"]) for level in levels]


def _band_ok(values, factor=2.0):
    lo, hi = min(values), max(values)
    return bool(hi <= factor * max(lo, RATIO_FLOOR))


def evaluate_criteria(levels, config, pinned_level):
    """Pass/fail verdicts for the family-study criteria.

    Band and order checks run across the levels that carry Holder
    measures; the tolerances stated at n_r = 64 are checked at the
    pinned level.  With fewer than three ladder levels the band and
    order checks are reported as skipped (degraded mode).
    """
    out = []
    holder_levels = [level for level in levels if level["holder"]]
    pinned = levels[pinned_level]
    multi = len(holder_levels) >= 3

    def add(name, passed, detail, skipped=False):
        out.append({"name": name, "passed": bool(passed), "skipped": bool(skipped),
                    "detail": detail})

    def add_band(name, key, source):
        vals = _family_max(source, key)
        finite = all(np.isfinite(v) for v in vals)
        if len(source) < 3:
            add(name, finite, f"band check skipped (needs >= 3 levels); max={vals}",
                skipped=True)
        else:
            add(name, finite and _band_ok(vals),
                f"family max per level: {[f'{v:.4g}' for v in vals]}")

    # energy identity: small on every instance at the pinned level,
    # second-order decay of the family max across the ladder.  The 1e-3
    # tolerance is stated at n_r = 64; on coarser degraded ladders it is
    # reported but not enforced.
    defects = _family_max(levels, "energy_defect")
    pinned_nr = int(pinned["resolution"][0])
    level_ok = defects[pinned_level] <= 1e-3 if pinned_nr >= 64 else True
    if multi:
        ladder = _family_max(holder_levels, "energy_defect")
        order = observed_orders(ladder[-2:])[0]
        add("energy_identity", level_ok and order >= 1.9,
            f"max defect per level {[f'{v:.3e}' for v in defects]}, finest order {order:.2f}")
    else:
        add("energy_identity", level_ok,
            f"order check skipped (needs >= 3 levels); max defect {defects[-1]:.3e}",
            skipped=not multi)

    add_band("l2_estimate", "ratio_l2", holder_levels)
    for a in config.alphas:
        add_band(f"schauder_estimate_alpha_{a}", f"ratio_schauder_{a}", holder_levels)
    scaling = max((row.get("scaling_deviation", 0.0)
                   for level in levels for row in level["rows"]), default=0.0)
    add("schauder_scaling_invariance", scaling <= 1e-8,
        f"max relative deviation under data doubling: {scaling:.2e}")

    ordered = all(row[f"ratio_intermediate_{a}"] <= row[f"ratio_schauder_{a}"] + 1e-12
                  for level in holder_levels for row in level["rows"]
                  for a in config.alphas)
    add("intermediate_below_schauder", ordered,
        "intermediate ratio <= schauder ratio on every instance")
    for a in config.alphas:
        add_band(f"intermediate_estimate_alpha_{a}", f"ratio_intermediate_{a}",
                 holder_levels)

    for k, radius in enumerate(config.serrin_radii):
        add_band(f"serrin_local_R_{radius}", f"serrin_ratio_{k}", holder_levels)

    ratios = _family_max(levels, "max_principle_ratio")
    bound_ok = ratios[pinned_level] <= MAX_PRINCIPLE_BOUND
    excess = [max(0.0, r - 1.0) for r in ratios]
    shrink = excess[-1] <= excess[0] + 1e-12 if len(levels) > 1 else True
    add("max_principle", bound_ok and shrink,
        f"max ratio per level {[f'{v:.6f}' for v in ratios]}")

    gaps = max(row["boundary_sup_gap"] for level in levels for row in level["rows"])
    add("boundary_sup_bound", gaps <= BOUNDARY_SUP_SLACK,
        f"max normalized gap {gaps:.2e}")

    agr = max(row.get("agreement", 0.0) for row in pinned["rows"])
    iters = max(row.get("krylov_iterations", 0) for row in pinned["rows"])
    add("strategy_agreement", agr <= 1e-8 and iters <= 100,
        f"max C0 disagreement {agr:.2e}, max Krylov iterations {iters}")

    uniq = max(row.get("uniqueness_std", 0.0) for row in pinned["rows"])
    add("uniqueness_up_to_constant", uniq <= 1e-8,
        f"max normalized std of pinned-minus-mean-zero difference {uniq:.2e}")

    return out
