"""Estimate measures, refinement studies, family machinery."""

import json
import sys
from dataclasses import replace

import numpy as np
import pytest

from neumann_lab import expr, field, norms, solver
from neumann_lab.domain import DomainSpec, build_mesh
from neumann_lab.errors import (BallNotContained, ConfigError, DegenerateData,
                                InvalidExponent)
from neumann_lab.field import BoundaryFunction, GridFunction, subtract_mean
from neumann_lab.solver import solve_neumann
from neumann_lab.verify import (MANUFACTURED_CASES, ProblemFamily, VerifyConfig,
                                boundary_sup_gap, convergence_study,
                                energy_identity_defect, incompatibility_probe,
                                intermediate_ratio, l2_lemma_ratio,
                                observed_orders, run_family_study, schauder_ratio,
                                serrin_local_ratio)


@pytest.fixture(scope="module")
def manufactured_solution():
    mesh = build_mesh(DomainSpec.disk(), (64, 128))
    f = GridFunction.constant(mesh, 1.0)
    g = BoundaryFunction.constant(mesh, 0.5)
    rep = solve_neumann(f, g, compat_policy="project")
    return mesh, rep.solution, f, g


def test_energy_identity_zero_case(disk_mesh_small):
    u = GridFunction.zeros(disk_mesh_small)
    f = GridFunction.zeros(disk_mesh_small)
    g = BoundaryFunction.zeros(disk_mesh_small)
    assert energy_identity_defect(u, f, g) == 0.0


def test_energy_identity_manufactured(manufactured_solution):
    mesh, u, f, g = manufactured_solution
    # both sides equal pi/8 for the quadratic solution on the unit disk
    assert energy_identity_defect(u, f, g) <= 1e-3


def test_energy_identity_second_order():
    defects = []
    for nr in (16, 32, 64):
        mesh = build_mesh(DomainSpec.disk(), (nr, 2 * nr))
        f = GridFunction.constant(mesh, 1.0)
        g = BoundaryFunction.constant(mesh, 0.5)
        rep = solve_neumann(f, g, compat_policy="project")
        defects.append(energy_identity_defect(rep.solution, f, g))
    orders = np.log2(np.array(defects[:-1]) / np.array(defects[1:]))
    assert (orders >= 1.9).all()


def test_l2_ratio_zero_data(disk_mesh_small):
    u = GridFunction.zeros(disk_mesh_small)
    f = GridFunction.zeros(disk_mesh_small)
    g = BoundaryFunction.zeros(disk_mesh_small)
    assert l2_lemma_ratio(u, f, g) == 0.0


def test_l2_ratio_degenerate_data(disk_mesh_small):
    u = GridFunction.from_expression(disk_mesh_small, "x")
    f = GridFunction.zeros(disk_mesh_small)
    g = BoundaryFunction.zeros(disk_mesh_small)
    with pytest.raises(DegenerateData):
        l2_lemma_ratio(u, f, g)


def test_l2_ratio_manufactured(manufactured_solution):
    _, u, f, g = manufactured_solution
    # ||u||_L2 = sqrt(pi/192), data norms 1 + 1/2
    expect = np.sqrt(np.pi / 192.0) / 1.5
    assert l2_lemma_ratio(u, f, g) == pytest.approx(expect, rel=2e-3)


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
    for alpha in (0.3, 0.5, 0.7):
        ri = intermediate_ratio(u, f, g, alpha)
        rs = schauder_ratio(u, f, g, alpha)
        assert ri <= rs + 1e-12
    # manufactured value: 9/8 over (1/8 + 3/2)
    assert intermediate_ratio(u, f, g, 0.5) == pytest.approx(9.0 / 13.0, rel=0.05)


def test_serrin_zero_solution(disk_mesh_small):
    u = GridFunction.zeros(disk_mesh_small)
    f = GridFunction.zeros(disk_mesh_small)
    assert serrin_local_ratio(u, f, (0.0, 0.0), 0.1) == 0.0


def test_serrin_manufactured_finite(manufactured_solution):
    mesh, u, f, _ = manufactured_solution
    center = mesh.interior_xy[np.argmin(np.linalg.norm(mesh.interior_xy, axis=1))]
    for radius in (0.1, 0.2):
        val = serrin_local_ratio(u, f, center, radius, p=3)
        assert np.isfinite(val) and val >= 0


def test_serrin_homogeneity(manufactured_solution):
    mesh, u, f, _ = manufactured_solution
    center = mesh.interior_xy[np.argmin(np.linalg.norm(mesh.interior_xy, axis=1))]
    r1 = serrin_local_ratio(u, f, center, 0.2, p=3)
    r2 = serrin_local_ratio(2.0 * u, 2.0 * f, center, 0.2, p=3)
    assert r2 == pytest.approx(r1, rel=1e-12)


def test_serrin_ball_containment(disk_mesh_small):
    u = GridFunction.zeros(disk_mesh_small)
    f = GridFunction.zeros(disk_mesh_small)
    with pytest.raises(BallNotContained):
        serrin_local_ratio(u, f, (0.8, 0.0), 0.2)


def test_serrin_invalid_exponent(disk_mesh_small):
    u = GridFunction.zeros(disk_mesh_small)
    f = GridFunction.zeros(disk_mesh_small)
    with pytest.raises(InvalidExponent):
        serrin_local_ratio(u, f, (0.0, 0.0), 0.1, p=0.5)


def test_boundary_sup_bound_tight_case():
    # u = x attains the bound with equality in the continuum; the
    # one-cell margin keeps the discrete check on the right side
    mesh = build_mesh(DomainSpec.disk(), (32, 64))
    f = GridFunction.zeros(mesh)
    g = BoundaryFunction.from_expression(mesh, "cos(theta)")
    rep = solve_neumann(f, g, compat_policy="project")
    for eps in (0.05, 0.1):
        assert boundary_sup_gap(rep.solution, eps) <= 1e-8


def test_boundary_sup_bound_generic(manufactured_solution):
    _, u, _, _ = manufactured_solution
    assert boundary_sup_gap(u, 0.05) <= 1e-8


# ---------------------------------------------------------------------------
# refinement studies

def test_convergence_disk_quadratic():
    study = convergence_study("disk_quadratic", [(16, 32), (32, 64), (64, 128)])
    assert not study.exact
    assert all(o >= 1.9 for o in study.orders)
    assert study.converged


def test_convergence_flags_exact_case():
    study = convergence_study("interval_linear", [8, 16, 32])
    assert study.exact and study.converged


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
    base = dict(count=2, resolutions=((8, 32), (16, 64)), pinned_resolution=None,
                alphas=(0.5,), serrin_radii=(0.1,), eps_values=(0.1,))
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


def test_family_study_csv_rows():
    rep = run_family_study(_tiny_config())
    rows = rep.csv_rows()
    assert len(rows) == 2 * 2     # instances x levels
    for col in ("seed", "level", "h", "ratio_schauder", "ratio_intermediate",
                "ratio_l2", "energy_defect", "serrin_ratio"):
        assert col in rows[0]


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
    row, f, g, u = _measure_instance(inst, mesh, config, check_scaling=True,
                                     with_holder=True)
    scaled = solve_neumann(2.0 * f, 2.0 * g, compat_policy="project").solution
    r1 = row["ratio_schauder_0.5"]
    r2 = schauder_ratio(scaled, 2.0 * f, 2.0 * g, 0.5)
    assert row["scaling_deviation"] == abs(r2 - r1) / abs(r1)


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
    config = _tiny_config(resolutions=((16, 64), (8, 32)), eps_values=(0.1, 0.05))
    with pytest.raises(ConfigError, match=r"rung \(8, 32\).*eps = 0\.05"):
        run_family_study(config)


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


def test_family_study_threads_assemble_each_mesh_once(monkeypatch):
    assembled, factored, layouts = [], [], []
    assemble, factor, layout = field._assemble_2d, solver._factor, norms._layout
    monkeypatch.setattr(field, "_assemble_2d",
                        lambda mesh: assembled.append((mesh.n_r, mesh.n_theta)) or assemble(mesh))
    # every per-mesh factor, whichever kind the mesh gets
    monkeypatch.setattr(solver, "_factor", lambda mesh, M, *a, **kw: (
        factored.append(M.shape) or factor(mesh, M, *a, **kw)))
    monkeypatch.setattr(norms, "_layout",
                        lambda coords: layouts.append(len(coords)) or layout(coords))
    config = VerifyConfig(count=4, seed=3, resolutions=((12, 48), (16, 64)),
                          pinned_resolution=(20, 80), threads=1)
    run_family_study(config)
    serial_factors = len(factored)
    for seen in (assembled, factored, layouts):
        seen.clear()
    # instance threads start on each fresh mesh together, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_family_study(replace(config, threads=2))
    finally:
        sys.setswitchinterval(interval)
    assert sorted(assembled) == [(12, 48), (16, 64), (20, 80)]
    assert len(factored) <= serial_factors
    # one leaf layout per node set of each Holder rung: boundary loops of
    # 48 and 64 nodes, volume node sets of 12*48 + 48 and 16*64 + 64
    assert sorted(layouts) == [48, 64, 624, 1088]
