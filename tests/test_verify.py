"""Estimate measures, refinement studies, family machinery."""

import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neumann_lab import domain, expr, field, norms, solver, verify
from neumann_lab.domain import DomainSpec, build_mesh
from neumann_lab.errors import BallNotContained, ConfigError, DegenerateData
from neumann_lab.field import BoundaryFunction, GridFunction, subtract_mean
from neumann_lab.solver import solve_neumann
from neumann_lab.verify import (MANUFACTURED_CASES, ProblemFamily, VerifyConfig,
                                convergence_study, incompatibility_probe,
                                observed_orders, run_family_study, schauder_ratio)


@pytest.fixture(scope="module")
def manufactured_solution():
    mesh = build_mesh(DomainSpec.disk(), (64, 128))
    f = GridFunction.constant(mesh, 1.0)
    g = BoundaryFunction.constant(mesh, 0.5)
    rep = solve_neumann(f, g, compat_policy="project")
    return mesh, rep.solution, f, g


def _energy_defect(u, f, g):
    """The study's energy identity defect of u for the data (f, g)."""
    return verify._gradient_measures(u, f, g)[0]


def _serrin(u, f, center, radius):
    """The study's Serrin ratio of u for the data f on B(center, radius)."""
    d = np.linalg.norm(u.mesh.interior_xy - np.asarray(center, dtype=float)[None, :], axis=1)
    return verify._serrin_ratio(u, d, radius, verify._lp_norm(f))


def _sup_gap(u, f, g, eps):
    """The study's boundary sup gap of u, the solution for (f, g), at depth eps."""
    return verify._sup_gap(u, eps, verify._gradient_measures(u, f, g)[1])


def test_energy_identity_zero_case(disk_mesh_small):
    u = GridFunction.zeros(disk_mesh_small)
    f = GridFunction.zeros(disk_mesh_small)
    g = BoundaryFunction.zeros(disk_mesh_small)
    assert _energy_defect(u, f, g) == 0.0


def test_energy_identity_manufactured(manufactured_solution):
    mesh, u, f, g = manufactured_solution
    # both sides equal pi/8 for the quadratic solution on the unit disk
    assert _energy_defect(u, f, g) <= 1e-3


def test_energy_identity_second_order():
    defects = []
    for nr in (16, 32, 64):
        mesh = build_mesh(DomainSpec.disk(), (nr, 2 * nr))
        f = GridFunction.constant(mesh, 1.0)
        g = BoundaryFunction.constant(mesh, 0.5)
        rep = solve_neumann(f, g, compat_policy="project")
        defects.append(_energy_defect(rep.solution, f, g))
    orders = np.log2(np.array(defects[:-1]) / np.array(defects[1:]))
    assert (orders >= 1.9).all()


def _ratios(u, f, g, kind, alphas=(0.5,)):
    """The study's estimate ratio of one kind at each of alphas, for the
    solution u of the data (f, g), read from one _ratio_terms call."""
    [terms] = verify._ratio_terms(f, g, [(subtract_mean(u), 1.0)], alphas)
    return [verify._ratio(*terms[kind, a]) for a in alphas]


def test_l2_ratio_zero_data(disk_mesh_small):
    u = GridFunction.zeros(disk_mesh_small)
    f = GridFunction.zeros(disk_mesh_small)
    g = BoundaryFunction.zeros(disk_mesh_small)
    assert _ratios(u, f, g, "l2") == [0.0]


def test_l2_ratio_degenerate_data(disk_mesh_small):
    u = GridFunction.from_expression(disk_mesh_small, "x")
    f = GridFunction.zeros(disk_mesh_small)
    g = BoundaryFunction.zeros(disk_mesh_small)
    with pytest.raises(DegenerateData):
        _ratios(u, f, g, "l2")


def test_l2_ratio_manufactured(manufactured_solution):
    _, u, f, g = manufactured_solution
    # ||u||_L2 = sqrt(pi/192), data norms 1 + 1/2
    expect = np.sqrt(np.pi / 192.0) / 1.5
    assert _ratios(u, f, g, "l2") == [pytest.approx(expect, rel=2e-3)]


def test_schauder_ratio_manufactured(manufactured_solution):
    _, u, f, g = manufactured_solution
    # ||u||_{C^{2,alpha}} = 9/8 against data norms 3/2
    assert schauder_ratio(u, f, g, 0.5) == pytest.approx(0.75, rel=0.05)


def test_schauder_scaling_invariance(manufactured_solution):
    mesh, u, f, g = manufactured_solution
    r1 = schauder_ratio(u, f, g, 0.5)
    scaled = solve_neumann(2.0 * f, 2.0 * g, compat_policy="project")
    r2 = schauder_ratio(scaled.solution, 2.0 * f, 2.0 * g, 0.5)
    assert r2 == pytest.approx(r1, rel=1e-8)


def test_intermediate_below_schauder(manufactured_solution):
    _, u, f, g = manufactured_solution
    alphas = (0.3, 0.5, 0.7)
    intermediate = _ratios(u, f, g, "intermediate", alphas)
    for ri, rs in zip(intermediate, _ratios(u, f, g, "schauder", alphas)):
        assert ri <= rs + 1e-12
    # manufactured value: 9/8 over (1/8 + 3/2)
    assert intermediate[1] == pytest.approx(9.0 / 13.0, rel=0.05)


def test_serrin_zero_solution(disk_mesh_small):
    u = GridFunction.zeros(disk_mesh_small)
    f = GridFunction.zeros(disk_mesh_small)
    assert _serrin(u, f, (0.0, 0.0), 0.1) == 0.0


def test_serrin_manufactured_finite(manufactured_solution):
    mesh, u, f, _ = manufactured_solution
    center = mesh.interior_xy[np.argmin(np.linalg.norm(mesh.interior_xy, axis=1))]
    for radius in (0.1, 0.2):
        val = _serrin(u, f, center, radius)
        assert np.isfinite(val) and val >= 0


def test_serrin_homogeneity(manufactured_solution):
    mesh, u, f, _ = manufactured_solution
    center = mesh.interior_xy[np.argmin(np.linalg.norm(mesh.interior_xy, axis=1))]
    r1 = _serrin(u, f, center, 0.2)
    r2 = _serrin(2.0 * u, 2.0 * f, center, 0.2)
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_serrin_ball_containment(disk_mesh_small):
    with pytest.raises(BallNotContained):
        verify._check_ball(disk_mesh_small, np.array([0.8, 0.0]), 0.2)
    verify._check_ball(disk_mesh_small, np.array([0.0, 0.0]), 0.2)


def test_boundary_sup_bound_tight_case():
    # u = x attains the bound with equality in the continuum; the
    # one-cell margin keeps the discrete check on the right side
    mesh = build_mesh(DomainSpec.disk(), (32, 64))
    f = GridFunction.zeros(mesh)
    g = BoundaryFunction.from_expression(mesh, "cos(theta)")
    rep = solve_neumann(f, g, compat_policy="project")
    for eps in (0.05, 0.1):
        assert _sup_gap(rep.solution, f, g, eps) <= 1e-8


def test_boundary_sup_bound_generic(manufactured_solution):
    _, u, f, g = manufactured_solution
    assert _sup_gap(u, f, g, 0.05) <= 1e-8


# ---------------------------------------------------------------------------
# refinement studies

def test_convergence_disk_quadratic():
    # a second-order error, far above rounding level on every rung
    study = convergence_study("disk_quadratic", [(16, 32), (32, 64), (64, 128)])
    assert min(study.errors) > 1e-8
    assert len(study.orders) == 2 and all(o >= 1.9 for o in study.orders)


def test_convergence_flags_exact_case():
    # the scheme is exact on a linear solution: the finest error (every
    # error) is at rounding level, where orders are noise
    study = convergence_study("interval_linear", [8, 16, 32])
    assert max(study.errors) <= 1e-11


def test_family_study_refuses_plane_resolutions_on_an_interval():
    with pytest.raises(ConfigError, match=r"interval mesh needs resolution n, one integer, "
                                          r"got \(16, 3\)"):
        run_family_study(VerifyConfig(domain=DomainSpec.interval(), count=1,
                                      resolutions=((16, 3), (32, 3), (64, 3)),
                                      pinned_resolution=(128, 99)))
    with pytest.raises(ConfigError, match=r"got \(128, 99\)"):
        VerifyConfig(domain=DomainSpec.interval(), resolutions=(16, 32, 64),
                     pinned_resolution=(128, 99))


def test_convergence_interval_cubic():
    study = convergence_study("interval_cubic", [16, 32, 64])
    assert study.orders[-1] == pytest.approx(2.0, abs=0.15)


def test_convergence_star_domain():
    study = convergence_study("star_trig", [(8, 16), (16, 32), (32, 64)])
    assert study.orders[-1] >= 1.9


def test_observed_orders_keep_one_order_per_level_pair():
    assert observed_orders([1e-2, 2.5e-3, 0.0]) == [2.0, float("inf")]
    assert observed_orders([0.0, 1e-3, 2.5e-4]) == [0.0, 2.0]
    assert observed_orders([0.0, 0.0]) == [float("inf")]
    assert observed_orders([1e-3]) == []


def test_convergence_needs_three_levels():
    with pytest.raises(ConfigError):
        convergence_study("disk_quadratic", [(8, 16), (16, 32)])


def test_convergence_refuses_an_unknown_case_naming_the_known_ones():
    with pytest.raises(ConfigError, match="unknown manufactured case 'nope'; known cases: "
                                          "disk_quadratic, .*interval_linear"):
        convergence_study("nope", [(8, 16), (16, 32), (32, 64)])


def test_incompatibility_probe_rejects(disk_mesh):
    f = GridFunction.constant(disk_mesh, 1.0)
    g = BoundaryFunction.zeros(disk_mesh)
    probe = incompatibility_probe(f, g)
    assert probe["rejected"]
    assert probe["defect"] == pytest.approx(np.pi, abs=1e-3)
    assert probe["reported_defect"] == probe["defect"]
    assert probe["multiplier_matches"]


def test_incompatibility_probe_compatible_data(disk_mesh):
    f = GridFunction.zeros(disk_mesh)
    g = BoundaryFunction.zeros(disk_mesh)
    probe = incompatibility_probe(f, g)
    assert not probe["rejected"]


def test_incompatibility_defect_scales(disk_mesh):
    f = GridFunction.constant(disk_mesh, 1.0)
    g = BoundaryFunction.zeros(disk_mesh)
    d1 = incompatibility_probe(f, g)["defect"]
    d2 = incompatibility_probe(2.0 * f, g)["defect"]
    assert d2 == pytest.approx(2.0 * d1, rel=1e-12)


# ---------------------------------------------------------------------------
# family machinery

def test_family_requires_instances():
    with pytest.raises(ConfigError):
        ProblemFamily(count=0).instances()
    with pytest.raises(ConfigError, match="unknown family kind 'nope'"):
        ProblemFamily(kind="nope").instances()


@pytest.mark.parametrize("field, value, match", [
    ("count", 2.0, "count must be an integer, got 2.0"),
    ("count", True, "count must be an integer, got True"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("seed", "1", "seed must be an integer, got '1'"),
    ("dim", 3, "dim must be 1 or 2, got 3"),
    ("dim", 0, "dim must be 1 or 2, got 0")])
def test_family_refuses_a_count_seed_or_dim_it_cannot_draw(field, value, match):
    # a fractional seed failed inside numpy once the study had started, and
    # dim 3 gave 1-D g terms without a word
    with pytest.raises(ConfigError, match=match):
        ProblemFamily(**{field: value}).instances()
    if field != "dim":
        with pytest.raises(ConfigError, match=match):
            run_family_study(VerifyConfig(**{field: value}))


def test_family_deterministic():
    a = ProblemFamily(seed=3, count=4).instances()
    b = ProblemFamily(seed=3, count=4).instances()
    assert [i.f_expr for i in a] == [i.f_expr for i in b]
    assert [i.g_expr for i in a] == [i.g_expr for i in b]
    c = ProblemFamily(seed=4, count=4).instances()
    assert [i.f_expr for i in a] != [i.f_expr for i in c]


def test_special_case_family(disk_mesh_small):
    insts = ProblemFamily(kind="paper_special_cases", count=5).instances()
    assert len(insts) == 2
    f, g = insts[0].realize(disk_mesh_small)
    assert np.all(f.interior == 1.0) and np.all(g.values == 0.5)


def test_manufactured_case_compatibility():
    # manufactured data satisfies the balance condition up to quadrature
    for name in ("disk_quadratic", "star_trig"):
        case = MANUFACTURED_CASES[name]
        mesh = build_mesh(case.domain, (16, 32))
        _, f, g = case.realize(mesh)
        from neumann_lab.solver import check_compatibility
        scale = 1.0 + np.abs(f.all_values()).max()
        assert abs(check_compatibility(f, g)) <= 1e-2 * scale


def _tiny_config(**kw):
    # the default ladder's first rungs: every boundary node has a node within 0.05,
    # the smallest of EPS_VALUES
    base = dict(count=2, resolutions=((12, 48), (24, 96)), pinned_resolution=None,
                alphas=(0.5,))
    base.update(kw)
    return VerifyConfig(**base)


def test_family_study_smoke_and_determinism():
    rep1 = run_family_study(_tiny_config())
    rep2 = run_family_study(_tiny_config())
    assert json.dumps(rep1.to_json(), sort_keys=True) == \
        json.dumps(rep2.to_json(), sort_keys=True)
    names = {c["name"] for c in rep1.criteria}
    assert "energy_identity" in names
    assert "strategy_agreement" in names
    # two levels: band checks are skipped, not failed
    skipped = [c for c in rep1.criteria if c["skipped"]]
    assert skipped and rep1.passed


def test_family_study_payload_does_not_depend_on_the_pair_strategy(monkeypatch):
    # every pruned maximum equals the all-pairs one, so the study's report
    # is byte for byte the one it writes with every Holder sweep brute force
    config = VerifyConfig(count=2, resolutions=((12, 48), (24, 96)), pinned_resolution=None)
    pruned = json.dumps(run_family_study(config).to_json(), sort_keys=True)
    monkeypatch.setattr(verify, "holder_reports",
                        functools.partial(norms.holder_reports, pair_strategy="brute_force"))
    brute = json.dumps(run_family_study(config).to_json(), sort_keys=True)
    assert brute == pruned


def test_verify_config_takes_one_thread_only():
    # the benchmark builds its configs with threads=1, which changes nothing
    config = VerifyConfig(count=2, seed=3, resolutions=((12, 48),),
                          pinned_resolution=(96, 384), threads=1)
    assert config == VerifyConfig(count=2, seed=3, resolutions=((12, 48),),
                                  pinned_resolution=(96, 384))
    with pytest.raises(ConfigError, match="instance threads were removed"):
        VerifyConfig(threads=2)


def test_verify_config_rejects_bad_alphas():
    with pytest.raises(ConfigError):
        VerifyConfig(alphas=(0.3, 0.7), alpha_main=0.5)
    with pytest.raises(ConfigError):
        VerifyConfig(alphas=(0.5, 1.0))


def test_stacked_scaling_check_matches_schauder_ratio():
    from neumann_lab.verify import _measure_instance
    config = _tiny_config(alphas=(0.3, 0.5))
    mesh = build_mesh(config.domain, (8, 32))
    inst = ProblemFamily(seed=3, count=1).instances()[0]
    row = _measure_instance(inst, mesh, config, holder=True, pinned=False)
    f, g = inst.realize(mesh)
    scaled = solve_neumann(2.0 * f, 2.0 * g, compat_policy="project").solution
    r1 = row["ratio_schauder_0.5"]
    r2 = schauder_ratio(scaled, 2.0 * f, 2.0 * g, 0.5)
    assert row["scaling_deviation"] == abs(r2 - r1) / abs(r1)


def test_family_study_stacks_each_instance_into_one_sweep_per_node_set(monkeypatch):
    calls = []
    kernel = norms.pairwise_holder_max

    def traced(xy, comps, *a, **kw):
        best, wit, pairs = kernel(xy, comps, *a, **kw)
        calls.append((len(comps), best))
        return best, wit, pairs

    monkeypatch.setattr(norms, "pairwise_holder_max", traced)
    run_family_study(_tiny_config(alphas=(0.3, 0.5, 0.7)))
    # per rung, one volume and one loop sweep per instance: instance 0
    # stacks f, u'' and the doubled problem's u'' (its data norms are
    # twice f's and g's), the other f and u''
    assert [rows for rows, _ in calls] == [9, 1, 5, 1] * 2
    # every (group, exponent) entry is computed, the doubled problem's too
    assert all(np.isfinite(best).all() for _, best in calls)


def test_schauder_ratio_sweeps_each_node_set_once(monkeypatch, disk_mesh_small):
    f = GridFunction.constant(disk_mesh_small, 1.0)
    g = BoundaryFunction.constant(disk_mesh_small, 0.5)
    u = solve_neumann(f, g, compat_policy="project").solution
    rows = []
    kernel = norms.pairwise_holder_max
    monkeypatch.setattr(norms, "pairwise_holder_max",
                        lambda xy, comps, *a, **kw: rows.append(len(comps)) or
                        kernel(xy, comps, *a, **kw))
    ratio = schauder_ratio(u, f, g, 0.5)
    # one volume sweep stacks f and the 4 components of u'', one boundary
    # sweep takes g'
    assert rows == [5, 1]
    num = norms.c_k_alpha_norm(subtract_mean(u), 2, 0.5).total
    den = norms.c_k_alpha_norm(f, 0, 0.5).total + norms.c_k_alpha_norm(g, 1, 0.5).total
    assert ratio == num / den


def test_family_study_rejects_rung_coarser_than_eps(monkeypatch):
    import neumann_lab.verify as verify

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the rung check")

    monkeypatch.setattr(verify, "_measure_instance", no_solve)
    # the (8, 32) outer ring lies 0.0625 from the boundary: fine for eps 0.1, not 0.05
    config = _tiny_config(resolutions=((16, 64), (8, 32)))
    with pytest.raises(ConfigError, match=r"rung \(8, 32\).*eps = 0\.05"):
        run_family_study(config)


class _PastPreflight(Exception):
    pass


def _preflight(monkeypatch, domain_spec, res):
    """Run a study on the rung until its first solve: the pre-flight either
    refuses it (ConfigError) or lets it through (_PastPreflight)."""
    def past(*args, **kwargs):
        raise _PastPreflight
    monkeypatch.setattr(verify, "_measure_instance", past)
    run_family_study(_tiny_config(domain=domain_spec, resolutions=(res,)))


def test_preflight_bounds_the_reach_of_each_boundary_node(monkeypatch):
    eps = min(verify.EPS_VALUES)
    # the unit disk's first default rung: h_s / 2 = 1/24, below eps
    assert verify._reach(build_mesh(DomainSpec.disk(), (12, 48))) == 0.5 / 12 < eps
    with pytest.raises(_PastPreflight):
        _preflight(monkeypatch, DomainSpec.disk(), (12, 48))
    # star_trig's default rung reaches 1.3 / 24 > eps: refused, naming n_r = 13
    star = MANUFACTURED_CASES["star_trig"].domain
    with pytest.raises(ConfigError, match=r"0\.05417 .* the first n_r that passes is 13$"):
        _preflight(monkeypatch, star, (12, 48))
    # a reach of exactly eps passes: 1.3 / 26 rounds to 0.05 itself
    assert verify._reach(build_mesh(star, (13, 48))) == eps
    with pytest.raises(_PastPreflight):
        _preflight(monkeypatch, star, (13, 48))
    # the cos [0.2] star sits on the edge, 1.2 / 24, which rounds just below eps
    edge = DomainSpec.star_shaped(1.0, (0.2,))
    assert verify._reach(build_mesh(edge, (12, 48))) == 0.049999999999999996
    with pytest.raises(_PastPreflight):
        _preflight(monkeypatch, edge, (12, 48))


@settings(max_examples=40, deadline=None)
@given(a0=st.floats(0.25, 3.0), shape=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6),
       n_theta=st.sampled_from([8, 13, 32, 48, 64]), finer=st.integers(0, 3))
# star_trig at (13, 48) and the cos [0.2] star at (12, 48): a reach of eps
@example(a0=1.0, shape=[0.0, 0.3, 0.0, 0.0], n_theta=48, finer=0)
@example(a0=1.0, shape=[0.2, 0.0], n_theta=48, finer=0)
def test_accepted_rungs_put_a_node_within_eps_of_every_boundary_node(a0, shape, n_theta,
                                                                     finer):
    # random stars (R >= 0.3 a0, cosines first) on the first rungs the
    # pre-flight accepts: every boundary node's nearest node, by brute
    # force, lies within eps.  The nodes' coordinates are rounded, so a
    # distance of exactly eps may compute a few ulps of R above it.
    eps = min(verify.EPS_VALUES)
    total = sum(abs(c) for c in shape)
    coeffs = [c * min(1.0, 0.7 * a0 / total) for c in shape] if total > 0 else shape
    half = len(coeffs) // 2
    spec = DomainSpec.star_shaped(a0, coeffs[:half], coeffs[half:])
    coarse = build_mesh(spec, (4, n_theta))
    n_r = verify._first_passing_n(spec, (4, n_theta), verify._reach(coarse), eps) + finer
    mesh = build_mesh(spec, (n_r, n_theta))
    assert verify._reach(mesh) <= eps
    gaps = mesh.boundary_xy[:, None, :] - mesh.interior_xy[None, :, :]
    rounding = 16 * np.finfo(float).eps * mesh.R.max()
    assert np.sqrt((gaps * gaps).sum(axis=2)).min(axis=1).max() <= eps + rounding


def test_family_study_parses_each_instance_once(monkeypatch):
    parsed = []
    parse = expr._Parser.parse
    monkeypatch.setattr(expr._Parser, "parse", lambda self: parsed.append(1) or parse(self))
    config = _tiny_config(count=3)
    run_family_study(config)
    # f and g of each instance, whatever the number of levels
    assert len(parsed) == 2 * config.count


def test_family_study_rejects_empty():
    with pytest.raises(ConfigError):
        run_family_study(_tiny_config(count=0))


def test_family_study_assembles_each_mesh_once(monkeypatch):
    assembled, factored, layouts = [], [], []
    assemble, factor, layout = field._assemble_2d, solver._factor, norms._layout
    monkeypatch.setattr(field, "_assemble_2d",
                        lambda mesh: assembled.append((mesh.n_r, mesh.n_theta)) or assemble(mesh))
    # every per-mesh factor, whichever kind the mesh gets
    monkeypatch.setattr(solver, "_factor", lambda mesh, M, *a, **kw: (
        factored.append((mesh.n_r, mesh.n_theta)) or factor(mesh, M, *a, **kw)))
    monkeypatch.setattr(norms, "_layout",
                        lambda coords: layouts.append(len(coords)) or layout(coords))
    config = VerifyConfig(count=4, seed=3, resolutions=((12, 48), (16, 64)),
                          pinned_resolution=(20, 80))
    run_family_study(config)
    assert sorted(assembled) == [(12, 48), (16, 64), (20, 80)]
    # each mesh's two factors, of A and of A - S, serve all 4 instances
    assert sorted(factored) == [(12, 48)] * 2 + [(16, 64)] * 2 + [(20, 80)] * 2
    # one leaf layout per node set of each Holder rung, kept by the kernel
    # across the instances of a level: boundary loops of 48 and 64 nodes,
    # volume node sets of 12*48 + 48 and 16*64 + 64
    assert sorted(layouts) == [48, 64, 624, 1088]


def test_family_study_takes_each_gradient_and_boundary_distance_once(monkeypatch):
    grads, dists = [], []
    gradient, distance = verify.gradient, domain.distance_to_boundary

    def counted(mesh, points):
        dists.append(mesh)
        return distance(mesh, points)

    monkeypatch.setattr(verify, "gradient", lambda u: grads.append(u.mesh) or gradient(u))
    monkeypatch.setattr(verify, "distance_to_boundary", counted)
    monkeypatch.setattr(domain, "distance_to_boundary", counted)
    config = _tiny_config(count=3, pinned_resolution=(16, 64))
    run_family_study(config)
    # one gradient of u per instance and level outside the Holder sweeps,
    # whose own gradients norms takes
    assert len(grads) == 3 * config.count
    assert len({id(m) for m in grads}) == 3
    # per mesh: the interior depths and the pre-flight check of the largest Serrin ball
    assert len(dists) == 2 * 3
    assert all(dists.count(m) == 2 for m in dists)


def _measures_reference(u, f, g, center):
    """Energy defect, Serrin ratios and boundary sup gap of one row, each
    measure taking its own gradient, distances and L^p norm: the
    per-measure construction the study's shared work replaced."""
    mesh = u.mesh
    comps = field.gradient(u)
    sq = comps[0] * comps[0]
    for c in comps[1:]:
        sq = sq + c * c
    energy = field.integrate_volume(sq)
    rhs = (field.integrate_boundary(field.boundary_trace(u) * g)
           - field.integrate_volume(u * f))
    out = {"energy_defect": abs(energy - rhs) / (1.0 + energy)}
    ndim, p = mesh.dim, mesh.dim + 1
    for k, radius in enumerate(verify.SERRIN_RADII):
        d = np.linalg.norm(mesh.interior_xy - center[None, :], axis=1)
        in_r, in_2r = d <= radius, d <= 2.0 * radius
        sup_r = float(np.abs(u.interior[in_r]).max()) if in_r.any() else 0.0
        l2_2r = float(np.sqrt(np.dot(mesh.w_vol[in_2r], u.interior[in_2r]**2)))
        f_lp = float(np.dot(mesh.w_vol, np.abs(f.interior)**p) ** (1.0 / p))
        den = radius**(-ndim / 2.0) * l2_2r + radius**(2.0 - ndim / p) * f_lp
        out[f"serrin_ratio_{k}"] = verify._ratio(sup_r, den)
    gaps = []
    for eps in verify.EPS_VALUES:
        grad_sq = sum(np.abs(c.all_values())**2 for c in field.gradient(u))
        sup_grad = float(np.sqrt(grad_sq.max()))
        inside = mesh.interior_depth >= eps - mesh.cell_size
        sup_eps = float(np.abs(u.interior[inside]).max()) if inside.any() else 0.0
        gap = float(np.abs(u.boundary).max()) - (sup_eps + eps * sup_grad)
        gaps.append(gap / (1.0 + float(np.abs(u.all_values()).max())))
    out["boundary_sup_gap"] = max(gaps)
    return out


@pytest.mark.parametrize("domain_spec, res", [
    (DomainSpec.disk(), (12, 48)),
    (DomainSpec.star_shaped(1.0, (0.0, 0.2)), (16, 64))], ids=["disk", "star"])
def test_study_rows_equal_the_per_measure_reference_bitwise(domain_spec, res):
    config = VerifyConfig(domain=domain_spec, count=2, seed=5, resolutions=(res,),
                          pinned_resolution=None, alphas=(0.5,))
    [level] = run_family_study(config).levels
    row = level["rows"][1]
    mesh = build_mesh(domain_spec, res)
    f, g = ProblemFamily(seed=5, count=2).instances()[1].realize(mesh)
    u = solve_neumann(f, g, compat_policy="project").solution
    ref = _measures_reference(u, f, g, verify._serrin_center(mesh))
    assert {key: row[key] for key in ref} == ref
