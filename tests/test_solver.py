"""Solver contracts: compatibility, regularized/Neumann solves, 1D oracle."""

import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from neumann_lab import solver
from neumann_lab.domain import DomainSpec, build_mesh
from neumann_lab.errors import ConfigError, IncompatibleData, LinearSolveFailure
from neumann_lab.field import (BoundaryFunction, GridFunction, mean, neumann_operator,
                               subtract_mean)
from neumann_lab.norms import c_k_alpha_norm, holder_reports
from neumann_lab.solver import (STRATEGIES, check_compatibility, solve_1d_oracle,
                                solve_bordered, solve_neumann, solve_neumann_pinned,
                                solve_regularized)
from neumann_lab.verify import MANUFACTURED_CASES


def _random_field(mesh, rng, smooth=True):
    if smooth:
        return GridFunction.from_expression(
            mesh, " + ".join(f"{float(c)!r}*cos({k}*x)*sin({k}*y)"
                             for k, c in enumerate(rng.uniform(-1, 1, 3), start=1)))
    return GridFunction(mesh, rng.standard_normal(mesh.n_interior),
                        rng.standard_normal(mesh.n_boundary))


# ---------------------------------------------------------------------------
# compatibility

def test_compatibility_balanced_data(disk_mesh_fine):
    f = GridFunction.constant(disk_mesh_fine, 1.0)
    g = BoundaryFunction.constant(disk_mesh_fine, 0.5)
    assert abs(check_compatibility(f, g)) <= 1e-3


def test_compatibility_zero_data(disk_mesh_small):
    f = GridFunction.zeros(disk_mesh_small)
    g = BoundaryFunction.zeros(disk_mesh_small)
    assert check_compatibility(f, g) == 0.0


def test_compatibility_defect_is_area(disk_mesh_fine):
    f = GridFunction.constant(disk_mesh_fine, 1.0)
    g = BoundaryFunction.zeros(disk_mesh_fine)
    assert check_compatibility(f, g) == pytest.approx(np.pi, abs=1e-3)


def test_reject_policy_raises_with_defect(disk_mesh_small):
    f = GridFunction.constant(disk_mesh_small, 1.0)
    g = BoundaryFunction.zeros(disk_mesh_small)
    with pytest.raises(IncompatibleData) as exc:
        solve_neumann(f, g, compat_policy="reject")
    assert exc.value.defect == pytest.approx(np.pi, abs=1e-3)


def test_project_policy_zeroes_defect(disk_mesh_small):
    f = GridFunction.constant(disk_mesh_small, 1.0)
    g = BoundaryFunction.zeros(disk_mesh_small)
    rep = solve_neumann(f, g, compat_policy="project")
    # projection removes the constant part of f entirely here
    assert np.abs(rep.solution.all_values()).max() <= 1e-9


# ---------------------------------------------------------------------------
# regularized solve

def test_regularized_zero_data(disk_mesh_small):
    rep = solve_regularized(GridFunction.zeros(disk_mesh_small),
                            BoundaryFunction.zeros(disk_mesh_small))
    assert np.abs(rep.solution.all_values()).max() <= 1e-12
    assert rep.strategy == "regularized"


def test_regularized_constant_solution(disk_mesh_small):
    rep = solve_regularized(GridFunction.constant(disk_mesh_small, -1.0),
                            BoundaryFunction.zeros(disk_mesh_small))
    assert np.abs(rep.solution.all_values() - 1.0).max() <= 1e-10


def test_regularized_manufactured(disk_mesh):
    # (lap - 1) u = 9/8 - r^2/4 with flux 1/2 has solution r^2/4 - 1/8;
    # radial quadratics are reproduced exactly by the stencils
    f = GridFunction.from_expression(disk_mesh, "9/8 - r^2/4")
    g = BoundaryFunction.constant(disk_mesh, 0.5)
    rep = solve_regularized(f, g)
    exact = GridFunction.from_expression(disk_mesh, "r^2/4 - 1/8")
    assert np.abs((rep.solution - exact).all_values()).max() <= 1e-10


def test_regularized_no_compatibility_needed(disk_mesh_small):
    f = GridFunction.constant(disk_mesh_small, 1.0)
    g = BoundaryFunction.zeros(disk_mesh_small)
    rep = solve_regularized(f, g)     # defect is pi, solve succeeds anyway
    assert rep.defect == pytest.approx(np.pi, abs=1e-2)
    assert np.isfinite(rep.solution.all_values()).all()


# ---------------------------------------------------------------------------
# screened inverse (the compact map of the iteration strategy)

def _screened(f):
    """w of (1 - lap) w = f, dw/dn = 0, through the Fredholm route's solve."""
    return solver._split(f.mesh, solver._screened(f.mesh, f.interior))


def test_screened_inverse_zero(disk_mesh_small):
    out = _screened(GridFunction.zeros(disk_mesh_small))
    assert np.abs(out.all_values()).max() == 0.0


def test_screened_inverse_preserves_zero_mean(disk_mesh):
    f = GridFunction.from_expression(disk_mesh, "x")   # odd: mean zero
    f = subtract_mean(f)
    out = _screened(f)
    assert abs(mean(out)) <= 1e-9 * max(1.0, np.abs(out.all_values()).max())


def test_screened_inverse_linearity(disk_mesh, rng):
    f = subtract_mean(_random_field(disk_mesh, rng))
    one = _screened(f)
    two = _screened(2.0 * f)
    assert np.abs((two - 2.0 * one).all_values()).max() <= 1e-9


def test_screened_inverse_bounded_under_refinement(rng):
    # Holder-norm gain of the screened inverse stays within a factor 2
    # band across refinements on a small mean-zero family
    per_level = []
    for nr in (8, 16, 32):
        mesh = build_mesh(DomainSpec.disk(), (nr, 4 * nr))
        level_rng = np.random.default_rng(7)
        vals = []
        for _ in range(3):
            f = subtract_mean(_random_field(mesh, level_rng))
            tf = _screened(f)
            num = c_k_alpha_norm(tf, 2, 0.5).total
            den = c_k_alpha_norm(f, 0, 0.5).total
            vals.append(num / den)
        per_level.append(max(vals))
    assert max(per_level) <= 2.0 * min(per_level)


# ---------------------------------------------------------------------------
# Neumann solves

def test_neumann_zero_data_means_zero_solution(disk_mesh_small):
    f = GridFunction.zeros(disk_mesh_small)
    g = BoundaryFunction.zeros(disk_mesh_small)
    for strategy in STRATEGIES:
        rep = solve_neumann(f, g, strategy=strategy)
        assert np.abs(rep.solution.all_values()).max() <= 1e-12
    with pytest.raises(ConfigError):
        solve_neumann(f, g, strategy="regularized")


def test_neumann_manufactured_disk(disk_mesh):
    f = GridFunction.constant(disk_mesh, 1.0)
    g = BoundaryFunction.constant(disk_mesh, 0.5)
    exact = GridFunction.from_expression(disk_mesh, "r^2/4 - 1/8")
    for strategy in ("direct_augmented", "fredholm_iteration"):
        rep = solve_neumann(f, g, strategy=strategy, compat_policy="project")
        err = np.abs((rep.solution - exact).all_values()).max()
        assert err <= 1e-4          # O(h^2) via the quadrature mean shift
        assert abs(mean(rep.solution)) <= 1e-10


def test_neumann_1d_quadratic_exact():
    mesh = build_mesh(DomainSpec.interval(0.0, 1.0), 128)
    f = GridFunction.constant(mesh, 2.0)
    g = BoundaryFunction(mesh, np.array([1.0, 1.0]))
    rep = solve_neumann(f, g)       # compatible: int f = 2 = g0 + g1
    exact = subtract_mean(GridFunction.from_expression(mesh, "x^2 - x + 1/6"))
    assert np.abs((rep.solution - exact).all_values()).max() <= 1e-10


def test_neumann_1d_incompatible_rejected():
    mesh = build_mesh(DomainSpec.interval(0.0, 1.0), 16)
    f = GridFunction.constant(mesh, 2.0)
    g = BoundaryFunction(mesh, np.array([1.0, 0.0]))
    with pytest.raises(IncompatibleData):
        solve_neumann(f, g)


def test_strategy_agreement(disk_mesh, rng):
    # a strongly perturbed star, and an interval whose factors pivot off the diagonal
    meshes = [disk_mesh, build_mesh(DomainSpec.star_shaped(1.0, (0.2, 0.2, 0.2)), (24, 96)),
              build_mesh(DomainSpec.interval(0.0, 1.0), 4096)]
    for mesh in meshes:
        for _ in range(3):
            if mesh.dim == 2:
                f = _random_field(mesh, rng)
                g = BoundaryFunction.from_expression(mesh, "cos(2*theta)")
            else:
                f = GridFunction.from_expression(
                    mesh, " + ".join(f"{float(c)!r}*cos({k}*x)"
                                     for k, c in enumerate(rng.uniform(-1, 1, 3), start=1)))
                g = BoundaryFunction(mesh, rng.uniform(-1, 1, 2))
            d = solve_neumann(f, g, strategy="direct_augmented", compat_policy="project")
            k = solve_neumann(f, g, strategy="fredholm_iteration", compat_policy="project")
            diff = np.abs((d.solution - k.solution).all_values()).max()
            scale = max(np.abs(d.solution.all_values()).max(), 1e-30)
            assert diff / scale <= 1e-8
            assert k.iterations <= 100


def test_fredholm_route_calls_gmres_once(disk_mesh_small, monkeypatch):
    f = GridFunction.from_expression(disk_mesh_small, "x*y + cos(2*x)")
    g = BoundaryFunction.constant(disk_mesh_small, 0.3)
    unpatched = solve_neumann(f, g, strategy="fredholm_iteration", compat_policy="project")
    calls, inner = [], []
    gmres = spla.gmres

    def counted(*args, callback, **kwargs):
        calls.append(1)
        return gmres(*args, callback=lambda r: inner.append(r) or callback(r), **kwargs)

    monkeypatch.setattr(spla, "gmres", counted)
    rep = solve_neumann(f, g, strategy="fredholm_iteration", compat_policy="project")
    assert len(calls) == 1
    assert 0 < rep.iterations == len(inner) == unpatched.iterations
    np.testing.assert_array_equal(rep.solution.all_values(), unpatched.solution.all_values())


def test_fredholm_route_applies_the_operator_once_per_iteration(disk_mesh_small, monkeypatch):
    # one screened solve per GMRES iteration plus the initial residual:
    # the operator's dtype is given, so nothing probes it with a zero vector
    f = GridFunction.from_expression(disk_mesh_small, "x*y + cos(2*x)")
    g = BoundaryFunction.constant(disk_mesh_small, 0.3)
    calls = []
    screened = solver._screened
    monkeypatch.setattr(solver, "_screened", lambda *a: calls.append(1) or screened(*a))
    rep = solve_neumann(f, g, strategy="fredholm_iteration", compat_policy="project")
    assert 0 < rep.iterations < solver.KRYLOV_RESTART
    assert len(calls) == rep.iterations + 1


def test_uniqueness_up_to_constant(disk_mesh, rng):
    f = _random_field(disk_mesh, rng)
    g = BoundaryFunction.zeros(disk_mesh)
    base = solve_neumann(f, g, compat_policy="project")
    pinned = solve_neumann_pinned(f, g, node=0, value=1.0, compat_policy="project")
    diff = (pinned.solution - base.solution).all_values()
    sup = np.abs(base.solution.all_values()).max()
    assert np.std(diff) <= 1e-8 * sup
    assert abs(pinned.solution.interior[0] - 1.0) <= 1e-9


def test_max_principle_for_shifted_problem(rng):
    mesh = build_mesh(DomainSpec.disk(), (32, 128))
    g = BoundaryFunction.zeros(mesh)
    for _ in range(5):
        f = _random_field(mesh, rng)
        rep = solve_regularized(f, g)
        sup_u = np.abs(rep.solution.all_values()).max()
        sup_f = np.abs(f.all_values()).max()
        assert sup_u <= sup_f * 1.01


def test_bordered_multiplier_equals_defect(disk_mesh_small):
    f = GridFunction.constant(disk_mesh_small, 1.0)
    g = BoundaryFunction.zeros(disk_mesh_small)
    u, lam = solve_bordered(f, g)
    delta = check_compatibility(f, g)
    assert lam == pytest.approx(delta, rel=1e-10)
    assert abs(mean(u)) <= 1e-12


def test_multiplier_scales_with_data(disk_mesh_small):
    f = GridFunction.constant(disk_mesh_small, 1.0)
    g = BoundaryFunction.zeros(disk_mesh_small)
    _, lam1 = solve_bordered(f, g)
    _, lam2 = solve_bordered(2.0 * f, g)
    assert lam2 == pytest.approx(2.0 * lam1, rel=1e-12)


def test_mesh_workspace_dies_with_its_mesh():
    # no workspace value may refer back to its mesh: the cycle would keep
    # the mesh and its factors alive until the cycle collector runs
    mesh = build_mesh(DomainSpec.disk(), (8, 32))
    f = GridFunction.constant(mesh, 1.0)
    g = BoundaryFunction.constant(mesh, 0.5)
    gc.disable()
    try:
        u = solve_neumann(f, g, compat_policy="project").solution
        solve_regularized(f, g)
        mesh.interior_depth
        holder_reports([(f, 0, (0.5,)), (g, 1, (0.5,)), (u, 2, (0.5,))])
        ref = weakref.ref(mesh)
        del mesh, f, g, u
        assert ref() is None
    finally:
        gc.enable()


def test_constrained_solves_share_one_factorization(monkeypatch):
    mesh = build_mesh(DomainSpec.disk(), (12, 24))     # fresh: nothing cached yet
    factored = []                  # every per-mesh factor, whichever kind the mesh gets
    factor = solver._factor
    monkeypatch.setattr(solver, "_factor", lambda mesh, M, *a, **kw: factored.append(
        factor(mesh, M, *a, **kw)) or factored[-1])
    f = GridFunction.from_expression(mesh, "x*y + cos(2*x)")
    g = BoundaryFunction.constant(mesh, 0.3)
    calls = [lambda: solve_neumann(f, g, compat_policy="project").solution,
             lambda: solve_bordered(GridFunction.constant(mesh, 1.0),
                                    BoundaryFunction.zeros(mesh))[0]]
    calls += [lambda node=node: solve_neumann_pinned(f, g, node=node, value=1.0,
                                                     compat_policy="project").solution
              for node in (0, mesh.n_interior // 2, mesh.n_interior + 5)]
    # Mesh.cached's lock lets a caller share a mesh across its own threads:
    # run them all at once, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            futures = [pool.submit(call) for call in calls * 2]
            results = [fut.result(timeout=60).all_values() for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(factored) == 1
    assert isinstance(factored[0], solver._FourierFactor)
    for first, again in zip(results[:len(calls)], results[len(calls):]):
        np.testing.assert_array_equal(first, again)


@pytest.mark.parametrize("spec", [DomainSpec.star_shaped(1.0, (0.2, 0.2, 0.2)),
                                  MANUFACTURED_CASES["star_trig"].domain],
                         ids=["star", "star_trig"])
def test_factors_cut_default_fill_and_stay_accurate(spec, monkeypatch):
    mesh = build_mesh(spec, (48, 192))                 # fresh: nothing cached yet
    factored = []
    splu = solver.spla.splu

    def record(M, *args, **kwargs):
        factored.append((M, splu(M, *args, **kwargs)))
        return factored[-1][1]

    monkeypatch.setattr(solver.spla, "splu", record)
    f = GridFunction.from_expression(mesh, "x*y + cos(2*x)")
    g = BoundaryFunction.constant(mesh, 0.3)
    solve_neumann(f, g, compat_policy="project")       # the deflated factor
    solve_regularized(f, g)                            # the shifted one
    assert len(factored) == 2
    rng = np.random.default_rng(7)
    for M, lu in factored:
        default = splu(M)
        assert lu.L.nnz + lu.U.nnz <= 0.7 * (default.L.nnz + default.U.nnz)
        b = rng.standard_normal(M.shape[0])
        solver._checked_residual(M, solver._inf_norm(M), lu.solve(b), b, 1e-14,
                                 "seeded solve")


def _ring0_deflated(mesh):
    """A + (c / n_theta) 1_0 1_0^T, the matrix the disk's deflated factor
    solves: c is mode 0's ring-0 diagonal, the sum of row 0 over ring 0."""
    A = neumann_operator(mesh)
    nt = mesh.n_theta
    c = A[0, :nt].sum()
    ring0 = sp.csr_matrix(np.ones((nt, 1)))
    ring0.resize((A.shape[0], 1))
    return (A + (c / nt) * (ring0 @ ring0.T)).tocsc()


@pytest.mark.parametrize("res", [(4, 8), (12, 45), (48, 192), (96, 384)])
def test_disk_factors_solve_through_theta_modes(res):
    mesh = build_mesh(DomainSpec.disk(), res)
    A = neumann_operator(mesh)
    nt = mesh.n_theta
    # rotation invariance: each (ring, ring, theta offset) group of A holds
    # exactly n_theta entries, equal to rounding
    coo = A.tocoo()
    group = (coo.row // nt * (mesh.n_r + 1) + coo.col // nt) * nt + (coo.col - coo.row) % nt
    assert np.all(np.unique(group, return_counts=True)[1] == nt)
    groups = coo.data[np.argsort(group, kind="stable")].reshape(-1, nt)
    assert np.all(np.ptp(groups, axis=1) <= 1e-15 * np.abs(groups).max(axis=1))
    rng = np.random.default_rng(11)
    shifted = A - sp.diags(np.r_[np.ones(mesh.n_interior), np.zeros(mesh.n_boundary)])
    for factor, M in ((solver._deflated_lu(mesh), _ring0_deflated(mesh)),
                      (solver._regularized_lu(mesh)[1], shifted.tocsr())):
        assert isinstance(factor, solver._FourierFactor)
        b = rng.standard_normal(M.shape[0])
        x = factor.solve(b)
        solver._checked_residual(M, solver._inf_norm(M), x, b, 1e-14, "seeded solve")
        ref = solver._splu(M.tocsc()).solve(b)
        assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def _mode_blocks_reference(M, nt):
    """The theta-mode blocks read from the full M, one np.cos per (mode,
    entry): the construction the ring-row shortcut replaced."""
    n_rings = M.shape[0] // nt
    rows = M[np.arange(n_rings) * nt].tocoo()
    modes = np.arange(nt // 2 + 1)[:, None]
    vals = rows.data * np.cos((2.0 * np.pi / nt) * (modes * (rows.col % nt) % nt))
    first = modes * n_rings
    n = modes.size * n_rings
    return sp.csc_matrix((vals.ravel(), ((first + rows.row).ravel(),
                                         (first + rows.col // nt).ravel())), shape=(n, n))


def _shifted(mesh):
    A = neumann_operator(mesh)
    return (A - sp.diags(np.r_[np.ones(mesh.n_interior), np.zeros(mesh.n_boundary)])).tocsr()


@pytest.mark.parametrize("res", [(4, 8), (7, 9), (12, 48), (64, 256)])
def test_disk_norms_and_mode_blocks_come_from_three_rows_per_ring(res, monkeypatch):
    mesh = build_mesh(DomainSpec.disk(), res)
    nt = mesh.n_theta
    A, A_reg = neumann_operator(mesh), _shifted(mesh)
    for shift, M in ((False, A), (True, A_reg)):
        rows = solver._operator_rows(mesh, shift)
        assert rows.shape == (3 * (mesh.n_r + 1), M.shape[1])
        # every row sum of |M|, bitwise: rows 0 and n_theta - 1 of a ring
        # wrap, and the rows between repeat row 1
        ring = np.asarray(np.abs(rows).sum(axis=1)).reshape(-1, 3)
        expected = np.repeat(ring[:, 1:2], nt, axis=1)
        expected[:, 0], expected[:, -1] = ring[:, 0], ring[:, 2]
        assert np.array_equal(np.asarray(np.abs(M).sum(axis=1)).reshape(-1, nt), expected)
    # both infinity norms, bitwise those of the full matrices
    assert solver._operator_norm(mesh) == float(np.abs(A).sum(axis=1).max())
    blocks = []
    splu = solver._splu
    monkeypatch.setattr(solver, "_splu", lambda B: blocks.append(B.copy()) or splu(B))
    assert solver._regularized_lu(mesh)[0] == float(np.abs(A_reg).sum(axis=1).max())
    solver._deflated_lu(mesh)
    # the factored mode blocks, bitwise those of the full-matrix construction
    deflated = _mode_blocks_reference(A, nt)
    deflated[0, 0] *= 2.0
    for got, ref in zip(blocks, (_mode_blocks_reference(A_reg, nt), deflated)):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr))


@pytest.mark.parametrize("spec, res", [(DomainSpec.star_shaped(1.0, (0.2, 0.2)), (12, 48)),
                                       (DomainSpec.interval(0.0, 1.0), 64)],
                         ids=["star", "interval"])
def test_other_meshes_shift_every_row(spec, res):
    mesh = build_mesh(spec, res)
    got, ref = solver._operator_rows(mesh, shift=True), _shifted(mesh)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr))
    assert solver._operator_rows(mesh) is neumann_operator(mesh)


@pytest.mark.parametrize("spec, res, fill", [
    (DomainSpec.star_shaped(1.0, (0.2, 0.2, 0.2)), (48, 192), (562468, 562468)),
    (DomainSpec.interval(0.0, 1.0), 4096, (22020, 22532))], ids=["star", "interval"])
def test_other_meshes_keep_their_sparse_lu(spec, res, fill):
    # the fill of both factors before the disk got its own path
    mesh = build_mesh(spec, res)
    factors = (solver._deflated_lu(mesh), solver._regularized_lu(mesh)[1])
    assert all(isinstance(lu, spla.SuperLU) for lu in factors)
    assert tuple(lu.L.nnz + lu.U.nnz for lu in factors) == fill


@pytest.mark.parametrize("mesh_name, expr", [("disk_mesh", "x*y + cos(2*x)"),
                                             ("star_mesh", "x*y + cos(2*x)"),
                                             ("interval_mesh", "x^3 - x")])
def test_pinned_mean_and_probe_contracts(request, mesh_name, expr):
    mesh = request.getfixturevalue(mesh_name)
    A = neumann_operator(mesh)
    assert np.all(A.data != 0)          # the deflated LU factors A's true pattern
    f = GridFunction.from_expression(mesh, expr)
    g = BoundaryFunction.constant(mesh, 0.3)
    base = solve_neumann(f, g, compat_policy="project")
    sup = np.abs(base.solution.all_values()).max()
    assert base.residual <= 1e-10
    for node in (0, mesh.n_interior // 2, mesh.n_interior + 1):
        pinned = solve_neumann_pinned(f, g, node=node, value=1.0, compat_policy="project")
        assert abs(pinned.solution.all_values()[node] - 1.0) <= 1e-12
        assert np.ptp((pinned.solution - base.solution).all_values()) <= 1e-12 * sup
        assert pinned.residual <= 1e-10
    f_bad = GridFunction.from_expression(mesh, f"{expr} + 1")
    _, lam = solve_bordered(f_bad, g)
    assert lam == pytest.approx(check_compatibility(f_bad, g), rel=1e-12)


def test_pinned_solve_checks_its_residual(disk_mesh_small, monkeypatch):
    f = GridFunction.from_expression(disk_mesh_small, "x*y")
    g = BoundaryFunction.zeros(disk_mesh_small)
    solve_neumann_pinned(f, g, compat_policy="project")
    monkeypatch.setattr(solver, "DEFAULT_LINEAR_TOL", 1e-30)
    with pytest.raises(LinearSolveFailure, match="pinned solve"):
        solve_neumann_pinned(f, g, compat_policy="project")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-8])
def test_tolerances_must_be_finite_and_positive(disk_mesh_small, bad):
    # the solver's tolerances are fixed module constants
    for tol in (solver.DEFAULT_COMPAT_TOL, solver.DEFAULT_LINEAR_TOL,
                solver.FREDHOLM_RESIDUAL_TOL, solver.KRYLOV_TOL):
        assert 0.0 < tol < np.inf
    # the guard itself fails closed: no residual passes a NaN tolerance, and
    # no tolerance, however bad, passes a non-finite solution
    A = neumann_operator(disk_mesh_small)
    x = GridFunction.from_expression(disk_mesh_small, "x*y").all_values()
    with pytest.raises(LinearSolveFailure):
        solver._checked_residual(A, solver._inf_norm(A), x, A @ x, float("nan"), "exact")
    x_bad = x.copy()
    x_bad[3] = np.nan
    with pytest.raises(LinearSolveFailure, match="not finite"):
        solver._checked_residual(A, solver._inf_norm(A), x_bad, A @ x, bad, "non-finite")


@pytest.mark.parametrize("spec", [DomainSpec.star_shaped(1.0, (0.0, 0.2)), DomainSpec.disk()],
                         ids=["star", "disk"])
def test_constrained_solve_rejects_non_finite_values(spec):
    # data near the largest double overflows in the solve, in the sparse LU
    # of a star mesh or the theta-mode FFTs of a disk, and both pass inf
    # and NaN on without a warning to the non-finite check
    mesh = build_mesh(spec, (8, 16))
    f = GridFunction(mesh, np.full(mesh.n_interior, 1e307), np.zeros(mesh.n_boundary))
    g = BoundaryFunction(mesh, np.full(mesh.n_boundary, 1e307))
    with pytest.raises(LinearSolveFailure, match="produced non-finite values"):
        solve_neumann(f, g, compat_policy="project")


def test_shifted_residual_applies_a_minus_s(disk_mesh_small, rng):
    # the regularized route keeps no A - S; its residual applies A x - S x
    mesh = disk_mesh_small
    A = neumann_operator(mesh)
    A_reg = (A - sp.diags(np.r_[np.ones(mesh.n_interior), np.zeros(mesh.n_boundary)])).tocsr()
    x, b = rng.standard_normal((2, A.shape[0]))
    anorm = solver._regularized_lu(mesh)[0]
    assert anorm == solver._inf_norm(A_reg)
    shifted = solver._checked_residual(A, anorm, x, b, 1e3, "shifted", n_shift=mesh.n_interior)
    explicit = solver._checked_residual(A_reg, anorm, x, b, 1e3, "explicit")
    assert shifted == pytest.approx(explicit, rel=1e-14)


def test_bordered_solve_catches_nonconservative_operator(monkeypatch):
    # lam = ell.b and the deflation both assume ell^T A = 0; the residual
    # against the compatible data is the check that can see it fail
    mesh = build_mesh(DomainSpec.disk(), (8, 16))      # fresh: nothing cached yet
    A = neumann_operator(mesh).tolil()
    A[3, 3] *= 1.5
    monkeypatch.setattr(solver, "neumann_operator", lambda _mesh: A.tocsr())
    with pytest.raises(LinearSolveFailure, match="bordered solve"):
        solve_bordered(GridFunction.from_expression(mesh, "x*y + 1"),
                       BoundaryFunction.zeros(mesh))


def test_solve_deterministic(disk_mesh_small, rng):
    f = _random_field(disk_mesh_small, rng)
    g = BoundaryFunction.from_expression(disk_mesh_small, "sin(theta)")
    r1 = solve_neumann(f, g, compat_policy="project")
    r2 = solve_neumann(f, g, compat_policy="project")
    np.testing.assert_array_equal(r1.solution.all_values(), r2.solution.all_values())


def test_report_fields(disk_mesh_small):
    f = GridFunction.constant(disk_mesh_small, 1.0)
    g = BoundaryFunction.constant(disk_mesh_small, 0.5)
    rep = solve_neumann(f, g, compat_policy="project")
    assert rep.residual <= 1e-10
    summary = rep.summary()
    assert summary["strategy"] == "direct_augmented"
    assert abs(summary["solution_mean"]) <= 1e-12


# ---------------------------------------------------------------------------
# 1D closed form

def test_oracle_quadratic():
    poly = solve_1d_oracle([2.0], 1.0, 1.0)
    # u = x^2 - x + 1/6
    np.testing.assert_allclose(poly.convert().coef, [1.0 / 6.0, -1.0, 1.0],
                               atol=1e-14)


def test_oracle_zero():
    poly = solve_1d_oracle([0.0], 0.0, 0.0)
    assert np.abs(poly.convert().coef).max() <= 1e-15


def test_oracle_cubic():
    poly = solve_1d_oracle([-3.0, 6.0], 0.0, 0.0)
    # u' = 3x^2 - 3x, mean-zero constant 1/4
    np.testing.assert_allclose(poly.convert().coef, [0.25, 0.0, -1.5, 1.0],
                               atol=1e-14)


def test_oracle_rejects_incompatible():
    with pytest.raises(IncompatibleData):
        solve_1d_oracle([2.0], 1.0, 0.5)


def test_oracle_mean_zero_property(rng):
    coeffs = rng.uniform(-2, 2, size=4)
    p = np.polynomial.Polynomial(coeffs)
    total = p.integ(lbnd=0.0)(1.0)
    g0 = float(rng.uniform(-1, 1))
    poly = solve_1d_oracle(coeffs, g0, total - g0)
    assert abs(poly.integ(lbnd=0.0)(1.0)) <= 1e-13
