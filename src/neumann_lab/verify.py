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

from dataclasses import InitVar, dataclass, field as dc_field

import numpy as np

from .domain import (MAX_NODES, DomainSpec, build_mesh, check_mesh_size, distance_to_boundary,
                     mesh_nodes)
from .errors import BallNotContained, ConfigError, DegenerateData, IncompatibleData
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
SERRIN_RADII = (0.1, 0.2)   # radii R of the Serrin balls, each needing B(center, 2R) inside
EPS_VALUES = (0.05, 0.1)    # depths eps of the boundary sup bound


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

    Two kinds: ``random_trigonometric`` (low trigonometric modes with
    amplitudes uniform in [-1, 1]; compatibility is restored by
    projection at solve time) and ``paper_special_cases`` (the canonical
    quadratic-disk data and the zero problem).
    """

    kind: str = "random_trigonometric"
    seed: int = 0
    count: int = 20
    dim: int = 2

    def instances(self):
        if self.count < 1:
            raise ConfigError("problem family needs at least one instance")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.kind == "random_trigonometric":
            return self._random_instances()
        if self.kind == "paper_special_cases":
            fixed = [FamilyInstance(0, "1", "0.5"), FamilyInstance(1, "0", "0")]
            return fixed[:self.count]
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

def _gradient_measures(u, f, g):
    """(energy defect, sup |Du|) from one gradient of u, which is gone on
    return: it is not kept while the shifted operator is first factored.
    The energy defect is |int |Du|^2 - (bnd_int u g - int u f)| /
    (1 + int |Du|^2), and sup |Du| is taken over every node."""
    mesh = u.mesh
    grad_sq = sum(np.abs(c.all_values())**2 for c in gradient(u))   # interior nodes first
    energy = float(np.dot(mesh.w_vol, grad_sq[:mesh.n_interior]))
    rhs = integrate_boundary(boundary_trace(u) * g) - integrate_volume(u * f)
    return abs(energy - rhs) / (1.0 + energy), float(np.sqrt(grad_sq.max()))


def _ratio(num, den):
    if den < RATIO_FLOOR:
        if num <= ZERO_DATA_FLOOR:
            return 0.0
        raise DegenerateData(f"ratio {num:.3e}/{den:.3e} has vanishing denominator")
    return num / den


def _ratio_terms(f, g, solutions, alphas):
    """(num, den) of the estimate ratios at each of alphas, one dict per
    (u, c) of solutions, u solving the problem with data (c f, c g).

    All norms come from one holder_reports call, which sweeps f, g and
    every u (measured as given) once.  Each c is a power of two, so c f
    and c g are exact and so is every step of their norms: their
    HolderReports are c times those of f and g, and a problem's data
    denominator is c times the first's.  That stops holding only where
    c f overflows or a product in the norms of f or g is subnormal.
    Returns dicts mapping ("schauder" | "intermediate" | "l2", alpha) to
    the pair _ratio turns into that ratio.
    """
    fb, gb, *ubs = holder_reports([(f, 0, alphas), (g, 1, alphas)]
                                  + [(u, 2, alphas) for u, _ in solutions])
    out = []
    for (u, c), ub in zip(solutions, ubs):
        l2_u = l2_norm(u)
        terms = {}
        for a in alphas:
            den = c * (fb[a].total + gb[a].total)
            terms["schauder", a] = (ub[a].total, den)
            terms["intermediate", a] = (ub[a].total, ub[a].sup_norms[0] + den)
            terms["l2", a] = (l2_u, den)
        out.append(terms)
    return out


def schauder_ratio(u, f, g, alpha):
    """||u - mean||_{C^{2,alpha}} over the Holder data norms."""
    [terms] = _ratio_terms(f, g, [(subtract_mean(u), 1.0)], (alpha,))
    return _ratio(*terms["schauder", alpha])


def _check_ball(mesh, center, radius):
    """Raise BallNotContained unless B(center, 2 radius) lies inside the
    domain: 2 radius at most the sampled boundary distance of center minus
    one cell."""
    dist = float(distance_to_boundary(mesh, center[None, :])[0])
    if 2.0 * radius > dist - mesh.cell_size:
        raise BallNotContained(f"ball of radius 2R = {2 * radius} around {center} exceeds "
                               f"the sampled boundary distance {dist:.4f} minus one cell")


def _lp_norm(f):
    """||f||_{L^p} over the interior, p = N + 1 (N the dimension, so p > N/2)."""
    p = f.mesh.dim + 1
    return float(np.dot(f.mesh.w_vol, np.abs(f.interior)**p) ** (1.0 / p))


def _serrin_ratio(u, d, radius, f_lp):
    """sup over B(center, R) of |u| against local L2 and global Lp data,
    from d, the interior nodes' distances from the center, and
    f_lp = ``_lp_norm(f)``.

    Requires B(center, 2R) inside the domain, which ``_check_ball``
    checks (sampled boundary distance with a one-cell margin).
    """
    mesh = u.mesh
    ndim = mesh.dim
    p = ndim + 1
    in_r = d <= radius
    in_2r = d <= 2.0 * radius
    sup_r = float(np.abs(u.interior[in_r]).max()) if in_r.any() else 0.0
    l2_2r = float(np.sqrt(np.dot(mesh.w_vol[in_2r], u.interior[in_2r]**2)))
    den = radius**(-ndim / 2.0) * l2_2r + radius**(2.0 - ndim / p) * f_lp
    return _ratio(sup_r, den)


def _sup_gap(u, eps, sup_grad):
    """Violation of sup_bnd |u| <= sup_{interior at depth eps} |u| + eps sup|Du|,
    sup_grad = sup |Du| (``_gradient_measures``).

    The interior set keeps nodes with sampled boundary distance at
    least eps minus one cell, so the discrete supremum cannot miss the
    continuum maximizer by a grid offset.  Returns the normalized gap;
    values above the slack indicate a violation.
    """
    mesh = u.mesh
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
    ``family_kind`` names a ProblemFamily kind and ``alpha_main`` one of
    ``alphas``: the exponent of the L2 ratio and of the scaling check.
    Every field is set by a ``neumann-lab verify`` flag; ``to_json`` also
    records the fixed settings: ``SERRIN_RADII`` (with ``"serrin_p":
    None``, p = N + 1), ``EPS_VALUES`` and ``"pair_strategy": "pruned"``
    (the pruned Holder sweep equals the all-pairs one bitwise).  The
    study runs its instances one after another; ``threads``, an init-only
    argument kept for callers that pass ``threads=1``, must be 1.
    """

    domain: DomainSpec = dc_field(default_factory=DomainSpec.disk)
    family_kind: str = "random_trigonometric"
    count: int = 20
    seed: int = 0
    resolutions: tuple = ((12, 48), (24, 96), (48, 192))
    pinned_resolution: tuple = (64, 256)
    alphas: tuple = (0.3, 0.5, 0.7)
    alpha_main: float = 0.5
    threads: InitVar[int] = 1

    def __post_init__(self, threads):
        if threads != 1:
            raise ConfigError(f"threads must be 1 (instance threads were removed: the "
                              f"study runs its instances serially), got {threads}")
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

    def to_json(self):
        return {
            "domain": self.domain.to_json(),
            "family_kind": self.family_kind, "count": self.count,
            "seed": self.seed,
            "resolutions": [[int(v) for v in np.atleast_1d(r)] for r in self.resolutions],
            "pinned_resolution": (None if self.pinned_resolution is None
                                  else [int(v) for v in np.atleast_1d(self.pinned_resolution)]),
            "alphas": list(self.alphas), "alpha_main": self.alpha_main,
            "serrin_radii": list(SERRIN_RADII), "serrin_p": None,
            "eps_values": list(EPS_VALUES),
            "pair_strategy": "pruned",
            "max_principle_bound": MAX_PRINCIPLE_BOUND,
        }


def _serrin_center(mesh):
    if mesh.dim == 1:
        mid = 0.5 * (mesh.spec.a + mesh.spec.b)
        j = int(np.argmin(np.abs(mesh.interior_xy[:, 0] - mid)))
    else:
        j = int(np.argmin(np.linalg.norm(mesh.interior_xy, axis=1)))
    return mesh.interior_xy[j]


def _serrin_distances(mesh):
    """Distance of every interior node from the Serrin center, once per mesh."""
    def build():
        return np.linalg.norm(mesh.interior_xy - _serrin_center(mesh)[None, :], axis=1)
    return mesh.cached("serrin_distances", build)


def _measure_instance(inst, mesh, config, holder, pinned):
    """One instance's row of measures on one mesh level.

    Every level: the direct solve's defect and residual, the energy
    defect, the Serrin ratios, the maximum-principle ratio and the
    boundary sup gap.  One gradient of u serves the energy defect and
    both depths of the boundary sup gap; both Serrin radii share f's L^p
    norm and the mesh's distances from the Serrin center, and their
    balls are not checked here (``run_family_study`` checks the largest
    on every mesh first).  A Holder level adds the estimate ratios, and
    on instance 0 the scaling deviation of the doubled problem, whose
    solution joins the same sweeps and whose data norms are exactly
    twice those of (f, g) (``_ratio_terms``).  The pinned level, the
    study's last, adds the Fredholm agreement, its Krylov iterations and
    the uniqueness spread.
    """
    alphas = tuple(config.alphas)
    f, g = inst.realize(mesh)
    direct = solve_neumann(f, g, strategy="direct_augmented", compat_policy="project")
    u = direct.solution
    energy_defect, sup_grad = _gradient_measures(u, f, g)
    row = {"instance": inst.index,
           "defect": direct.defect,
           "residual": direct.residual,
           "energy_defect": energy_defect}

    if holder:
        main = config.alpha_main
        solutions = [(u, 1.0)]
        if inst.index == 0:
            scaled = solve_neumann(2.0 * f, 2.0 * g, compat_policy="project")
            solutions.append((subtract_mean(scaled.solution), 2.0))
        terms = _ratio_terms(f, g, solutions, alphas)
        for a in alphas:
            row[f"ratio_schauder_{a}"] = _ratio(*terms[0]["schauder", a])
            row[f"ratio_intermediate_{a}"] = _ratio(*terms[0]["intermediate", a])
        row["ratio_l2"] = _ratio(*terms[0]["l2", main])
        if inst.index == 0:
            r1 = row[f"ratio_schauder_{main}"]
            r2 = _ratio(*terms[1]["schauder", main])
            row["scaling_deviation"] = abs(r2 - r1) / (abs(r1) if r1 else 1.0)

    d, f_lp = _serrin_distances(mesh), _lp_norm(f)
    for k, radius in enumerate(SERRIN_RADII):
        row[f"serrin_ratio_{k}"] = _serrin_ratio(u, d, radius, f_lp)

    reg = solve_regularized(f, BoundaryFunction.zeros(mesh))
    sup_f = float(np.abs(f.all_values()).max())
    row["max_principle_ratio"] = (
        float(np.abs(reg.solution.all_values()).max()) / sup_f if sup_f > 0 else 0.0)

    row["boundary_sup_gap"] = max(_sup_gap(u, eps, sup_grad) for eps in EPS_VALUES)

    if pinned:
        fred = solve_neumann(f, g, strategy="fredholm_iteration", compat_policy="project")
        sup = max(float(np.abs(u.all_values()).max()), 1e-30)
        row["agreement"] = float(np.abs((fred.solution - u).all_values()).max()) / sup
        row["krylov_iterations"] = fred.iterations
        fixed = solve_neumann_pinned(f, g, node=0, value=1.0, compat_policy="project")
        row["uniqueness_std"] = float(np.std((fixed.solution - u).all_values())) / sup
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
    if len(config.resolutions) < 1:
        raise ConfigError("family study needs at least one level")
    family = ProblemFamily(kind=config.family_kind, seed=config.seed,
                           count=config.count, dim=config.domain.dim)
    instances = family.instances()
    ladder = [(res, True) for res in config.resolutions]
    if config.pinned_resolution is not None:
        ladder.append((config.pinned_resolution, False))  # cheap measures only
    pinned_level = len(ladder) - 1
    meshes = [build_mesh(config.domain, res) for res, _ in ladder]
    eps = min(EPS_VALUES)
    for (res, _), mesh in zip(ladder, meshes):
        # the boundary sup gap bridges to the boundary over eps only
        gap = float(mesh.interior_depth.min())
        if gap > eps:
            n = _first_passing_n(config.domain, res, gap, eps)
            name = "n" if mesh.dim == 1 else "n_r"
            passing = (f"no rung within the {MAX_NODES}-node cap passes" if n is None
                       else f"the first {name} that passes is {n}")
            raise ConfigError(f"rung {res} is too coarse for eps = {eps}: its outer "
                              f"nodes lie {gap:.4g} from the boundary; {passing}")
        # the largest Serrin ball is the one that may not fit
        _check_ball(mesh, _serrin_center(mesh), max(SERRIN_RADII))

    levels = []
    for lvl, (res, holder) in enumerate(ladder):
        mesh, meshes[lvl] = meshes[lvl], None   # a finished level's factors can go
        h = mesh.h if mesh.dim == 1 else mesh.h_s
        rows = [_measure_instance(inst, mesh, config, holder, lvl == pinned_level)
                for inst in instances]
        levels.append({"resolution": [int(v) for v in np.atleast_1d(res)],
                       "h": float(h), "holder": holder, "rows": rows})
    aggregates = _aggregate(levels, config)
    criteria = evaluate_criteria(levels, aggregates["per_measure"], config, pinned_level)
    return EstimateReport(config=config.to_json(), levels=levels,
                          criteria=criteria,
                          passed=all(c["passed"] for c in criteria),
                          aggregates=aggregates)


def _aggregate(levels, config):
    """Family max/median per measure per level, plus the measured
    stand-ins for the non-explicit estimate constants."""
    keys = ["energy_defect", "ratio_l2", "max_principle_ratio"]
    keys += [f"ratio_schauder_{a}" for a in config.alphas]
    keys += [f"ratio_intermediate_{a}" for a in config.alphas]
    keys += [f"serrin_ratio_{k}" for k in range(len(SERRIN_RADII))]
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
    finest = [k for k, level in enumerate(levels) if level["holder"]][-1]
    c_measured = {f"schauder_alpha_{a}": per_measure[f"ratio_schauder_{a}"]["family_max"][finest]
                  for a in config.alphas}
    return {"per_measure": per_measure, "C_measured": c_measured}


def _band_ok(values, factor=2.0):
    lo, hi = min(values), max(values)
    return bool(hi <= factor * max(lo, RATIO_FLOOR))


def evaluate_criteria(levels, per_measure, config, pinned_level):
    """Pass/fail verdicts for the family-study criteria.

    Family maxima per level come from per_measure (``_aggregate``'s).
    Band and order checks run across the levels that carry Holder
    measures; the tolerances stated at n_r = 64 are checked at the
    pinned level.  With fewer than three ladder levels the band and
    order checks are reported as skipped (degraded mode).
    """
    out = []
    holder = [k for k, level in enumerate(levels) if level["holder"]]
    pinned = levels[pinned_level]
    multi = len(holder) >= 3

    def family_max(key, on=range(len(levels))):
        return [per_measure[key]["family_max"][k] for k in on]

    def add(name, passed, detail, skipped=False):
        out.append({"name": name, "passed": bool(passed), "skipped": bool(skipped),
                    "detail": detail})

    def add_band(name, key):
        vals = family_max(key, holder)
        finite = all(np.isfinite(v) for v in vals)
        if not multi:
            add(name, finite, f"band check skipped (needs >= 3 levels); max={vals}",
                skipped=True)
        else:
            add(name, finite and _band_ok(vals),
                f"family max per level: {[f'{v:.4g}' for v in vals]}")

    # energy identity: small on every instance at the pinned level,
    # second-order decay of the family max across the ladder.  The 1e-3
    # tolerance is stated at n_r = 64; on coarser degraded ladders it is
    # reported but not enforced.
    defects = family_max("energy_defect")
    pinned_nr = int(pinned["resolution"][0])
    level_ok = defects[pinned_level] <= 1e-3 if pinned_nr >= 64 else True
    if multi:
        ladder = family_max("energy_defect", holder)
        order = observed_orders(ladder[-2:])[0]
        add("energy_identity", level_ok and order >= 1.9,
            f"max defect per level {[f'{v:.3e}' for v in defects]}, finest order {order:.2f}")
    else:
        add("energy_identity", level_ok,
            f"order check skipped (needs >= 3 levels); max defect {defects[-1]:.3e}",
            skipped=not multi)

    add_band("l2_estimate", "ratio_l2")
    for a in config.alphas:
        add_band(f"schauder_estimate_alpha_{a}", f"ratio_schauder_{a}")
    scaling = max((row.get("scaling_deviation", 0.0)
                   for level in levels for row in level["rows"]), default=0.0)
    add("schauder_scaling_invariance", scaling <= 1e-8,
        f"max relative deviation under data doubling: {scaling:.2e}")

    ordered = all(row[f"ratio_intermediate_{a}"] <= row[f"ratio_schauder_{a}"] + 1e-12
                  for k in holder for row in levels[k]["rows"]
                  for a in config.alphas)
    add("intermediate_below_schauder", ordered,
        "intermediate ratio <= schauder ratio on every instance")
    for a in config.alphas:
        add_band(f"intermediate_estimate_alpha_{a}", f"ratio_intermediate_{a}")

    for k, radius in enumerate(SERRIN_RADII):
        add_band(f"serrin_local_R_{radius}", f"serrin_ratio_{k}")

    ratios = family_max("max_principle_ratio")
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
