"""Grid-function calculus: derivatives, integrals, conservation, linearity."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from neumann_lab.domain import DomainSpec, build_mesh
from neumann_lab.errors import ConfigError, MeshMismatch
from neumann_lab.field import (BoundaryFunction, GridFunction, _assemble_2d,
                               _logical_derivs_2d, boundary_trace, gradient,
                               integrate_boundary, integrate_volume, mean,
                               neumann_operator, subtract_mean)


def _apply_operator(u):
    """(lap_h u, dn_h u): the interior and boundary rows of the operator."""
    out = neumann_operator(u.mesh) @ u.all_values()
    return out[:u.mesh.n_interior], out[u.mesh.n_interior:]


def test_gradient_of_constant(disk_mesh):
    gx, gy = gradient(GridFunction.constant(disk_mesh, 3.7))
    assert np.abs(gx.all_values()).max() <= 1e-13
    assert np.abs(gy.all_values()).max() <= 1e-13


def test_gradient_of_coordinate_function_converges():
    # centered stencils in the angular direction are second order, not
    # exact, for u = x on the polar chart; the limit (1, 0) is attained
    # at second order under refinement
    errs = []
    for nr in (8, 16, 32):
        mesh = build_mesh(DomainSpec.disk(), (nr, 2 * nr))
        gx, gy = gradient(GridFunction.from_expression(mesh, "x"))
        errs.append(max(np.abs(gx.all_values() - 1.0).max(),
                        np.abs(gy.all_values()).max()))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert errs[-1] <= 5e-3
    assert (orders >= 1.9).all()


def test_gradient_radial_quadratic_exact_on_disk(disk_mesh):
    # u = r^2/4 is quadratic in the radial coordinate and angularly
    # constant; every stencil involved is exact for it
    gx, gy = gradient(GridFunction.from_expression(disk_mesh, "r^2/4"))
    exact_x = np.concatenate([disk_mesh.interior_xy[:, 0], disk_mesh.boundary_xy[:, 0]]) / 2
    exact_y = np.concatenate([disk_mesh.interior_xy[:, 1], disk_mesh.boundary_xy[:, 1]]) / 2
    assert np.abs(gx.all_values() - exact_x).max() <= 1e-13
    assert np.abs(gy.all_values() - exact_y).max() <= 1e-13


def test_gradient_second_order_on_star(star_mesh):
    errs = []
    for nr in (8, 16, 32):
        mesh = build_mesh(star_mesh.spec, (nr, 2 * nr))
        gx, gy = gradient(GridFunction.from_expression(mesh, "sin(x)*cos(y)"))
        ex = GridFunction.from_expression(mesh, "cos(x)*cos(y)")
        ey = GridFunction.from_expression(mesh, "-sin(x)*sin(y)")
        errs.append(max(np.abs((gx - ex).all_values()).max(),
                        np.abs((gy - ey).all_values()).max()))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders[-1] >= 1.9


def test_gradient_1d(interval_mesh):
    (du,) = gradient(GridFunction.from_expression(interval_mesh, "x^2 - x"))
    exact = np.concatenate([2 * interval_mesh.interior_xy[:, 0] - 1.0,
                            2 * interval_mesh.boundary_xy[:, 0] - 1.0])
    assert np.abs(du.all_values() - exact).max() <= 1e-12


def test_laplacian_of_constant(disk_mesh, interval_mesh):
    for mesh in (disk_mesh, interval_mesh):
        lap, _ = _apply_operator(GridFunction.constant(mesh, 2.5))
        assert np.abs(lap).max() <= 1e-9


def test_laplacian_radial_quadratic_on_disk(disk_mesh):
    lap, _ = _apply_operator(GridFunction.from_expression(disk_mesh, "(x^2 + y^2)/4"))
    assert np.abs(lap - 1.0).max() <= 1e-11


def test_laplacian_quadratic_1d(interval_mesh):
    lap, _ = _apply_operator(GridFunction.from_expression(interval_mesh, "x^2"))
    assert np.abs(lap - 2.0).max() <= 1e-10


def test_laplacian_second_order_on_star():
    errs = []
    for nr in (8, 16, 32):
        mesh = build_mesh(DomainSpec.star_shaped(1.0, (0.0, 0.3)), (nr, 2 * nr))
        lap, _ = _apply_operator(GridFunction.from_expression(mesh, "sin(x)*cos(y)"))
        exact = GridFunction.from_expression(mesh, "-2*sin(x)*cos(y)")
        # flux-form truncation is O(1/nr) in the innermost ring; measure
        # convergence in the quadrature-weighted mean-square sense
        diff = lap - exact.interior
        errs.append(np.sqrt(np.dot(mesh.w_vol, diff**2)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders[-1] >= 1.7


def test_normal_derivative_radial_quadratic(disk_mesh):
    _, dn = _apply_operator(GridFunction.from_expression(disk_mesh, "r^2/4"))
    assert np.abs(dn - 0.5).max() <= 1e-12


def test_normal_derivative_of_constant(disk_mesh):
    _, dn = _apply_operator(GridFunction.constant(disk_mesh, 4.0))
    assert np.abs(dn).max() <= 1e-11


def test_normal_derivative_1d(interval_mesh):
    _, dn = _apply_operator(GridFunction.from_expression(interval_mesh, "x^2 - x"))
    np.testing.assert_allclose(dn, [1.0, 1.0], atol=1e-12)


def test_integrals_on_disk(disk_mesh_fine):
    f = GridFunction.constant(disk_mesh_fine, 1.0)
    assert integrate_volume(f) == pytest.approx(np.pi, abs=1e-3)
    g = BoundaryFunction.constant(disk_mesh_fine, 0.5)
    assert integrate_boundary(g) == pytest.approx(np.pi, abs=1e-3)


def test_subtract_mean_matches_analytic(disk_mesh):
    u = GridFunction.from_expression(disk_mesh, "r^2/4")
    u0 = subtract_mean(u)
    exact = GridFunction.from_expression(disk_mesh, "r^2/4 - 1/8")
    # discrete mean of r^2/4 differs from 1/8 by the O(h^2) quadrature error
    assert np.abs((u0 - exact).all_values()).max() <= 1e-3
    assert abs(mean(u0)) <= 1e-12 * max(1.0, abs(mean(u)))


def test_discrete_divergence_theorem(star_mesh, rng):
    u = GridFunction(star_mesh, rng.standard_normal(star_mesh.n_interior),
                     rng.standard_normal(star_mesh.n_boundary))
    lap, dn = _apply_operator(u)
    lhs = np.dot(star_mesh.w_vol, lap)
    rhs = np.dot(star_mesh.w_bnd, dn)
    scale = np.abs(star_mesh.w_vol * lap).sum()
    assert abs(lhs - rhs) <= 1e-12 * scale


def _us_stencil_reference(mesh, j, i):
    """Stencil (cols, coefs) of u_s at logical nodes (j, i); vectorized over
    equal-shaped index arrays restricted to one j-band."""
    nt, hs = mesh.n_theta, mesh.h_s
    Ni = mesh.n_interior

    def idx(jj, ii):
        return jj * nt + np.mod(ii, nt)

    def bidx(ii):
        return Ni + np.mod(ii, nt)

    nr = mesh.n_r
    j0 = int(j.flat[0])
    if j0 == 0:
        return [(idx(j, i), -3.0 / (2 * hs)), (idx(j + 1, i), 4.0 / (2 * hs)),
                (idx(j + 2, i), -1.0 / (2 * hs))]
    if j0 == nr - 1:
        return [(idx(j - 1, i), -1.0 / (3 * hs)), (idx(j, i), -1.0 / hs),
                (bidx(i), 4.0 / (3 * hs))]
    return [(idx(j + 1, i), 1.0 / (2 * hs)), (idx(j - 1, i), -1.0 / (2 * hs))]


def _assemble_2d_reference(mesh):
    """The 2-D operator from (row, col, value) triplets, duplicates summed
    by scipy's COO -> CSR conversion."""
    nr, nt = mesh.n_r, mesh.n_theta
    hs, ht = mesh.h_s, mesh.h_theta
    Ni = nr * nt
    N = Ni + nt
    R, Rp = mesh.R, mesh.Rp
    jdet = mesh.s[:, None] * R**2
    inv = 1.0 / (jdet * hs * ht)
    edge = np.sqrt(R**2 + Rp**2)
    B_node = Rp / R
    R_half, Rp_half = mesh.spec.radius(mesh.theta + 0.5 * ht)
    B_half = Rp_half / R_half
    cB = edge / R**2
    cT = Rp / (R * edge)
    rows, cols, vals = [], [], []

    def add(r, c, v):
        r, c, v = np.broadcast_arrays(r, c, v)
        rows.append(r.astype(np.int32).ravel())
        cols.append(c.astype(np.int32).ravel())
        vals.append(np.asarray(v, dtype=float).ravel())

    def idx(j, i):
        return j * nt + np.mod(i, nt)

    def bidx(i):
        return Ni + np.mod(i, nt)

    # radial faces between rings jf and jf+1
    JF, I = np.meshgrid(np.arange(nr - 1), np.arange(nt), indexing="ij")
    A_face = (JF + 1) * hs * ((R**2 + Rp**2) / R**2)[I]
    Bn = B_node[I]
    face_stencil = [
        (idx(JF + 1, I), A_face / hs),
        (idx(JF, I), -A_face / hs),
        (idx(JF, I + 1), -Bn / (4 * ht)),
        (idx(JF, I - 1), Bn / (4 * ht)),
        (idx(JF + 1, I + 1), -Bn / (4 * ht)),
        (idx(JF + 1, I - 1), Bn / (4 * ht)),
    ]
    for row_j, sgn in ((JF, 1.0), (JF + 1, -1.0)):
        scale = sgn * inv[row_j, I] * ht
        for c, v in face_stencil:
            add(idx(row_j, I), c, scale * v)

    # outer boundary face
    i = np.arange(nt)
    dn_stencil = [
        (bidx(i), cB * 8.0 / (3 * hs)),
        (idx(nr - 1, i), cB * (-3.0) / hs),
        (idx(nr - 2, i), cB / (3 * hs)),
        (bidx(i + 1), -cT / (2 * ht)),
        (bidx(i - 1), cT / (2 * ht)),
    ]
    scale = inv[nr - 1, i] * ht * edge
    for c, v in dn_stencil:
        add(idx(nr - 1, i), c, scale * v)

    # angular faces between columns fi and fi+1
    for band in (np.array([0]), np.arange(1, nr - 1), np.array([nr - 1])):
        J, FI = np.meshgrid(band, np.arange(nt), indexing="ij")
        Bh = B_half[FI]
        inv_s = (1.0 / mesh.s)[J]
        c_term = [(idx(J, FI + 1), inv_s / ht), (idx(J, FI), -inv_s / ht)]
        cross = []
        for cc, vv in _us_stencil_reference(mesh, J, FI):
            cross.append((cc, -Bh * 0.5 * vv))
        for cc, vv in _us_stencil_reference(mesh, J, FI + 1):
            cross.append((cc, -Bh * 0.5 * vv))
        for row_i, sgn in ((FI, 1.0), (FI + 1, -1.0)):
            scale = sgn * inv[J, np.mod(row_i, nt)] * hs
            for c, v in c_term + cross:
                add(idx(J, row_i), c, scale * v)

    # boundary condition rows
    for c, v in dn_stencil:
        add(bidx(i), c, v)

    A = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(N, N))
    A.sum_duplicates()
    A.eliminate_zeros()
    return A


def _gradient_reference(u):
    """The physical gradient chain-ruled through Jacobian entries stored per
    node: (n_r, n_theta) arrays inside and (n_theta,) rows on the boundary."""
    m = u.mesh
    S = m.s[:, None]
    cos_t, sin_t = np.cos(m.theta)[None, :], np.sin(m.theta)[None, :]
    Rg, Rpg = m.R[None, :], m.Rp[None, :]
    x_s = np.broadcast_to(Rg * cos_t, (m.n_r, m.n_theta)).copy()
    y_s = np.broadcast_to(Rg * sin_t, (m.n_r, m.n_theta)).copy()
    x_t = S * (Rpg * cos_t - Rg * sin_t)
    y_t = S * (Rpg * sin_t + Rg * cos_t)
    jdet = S * Rg**2
    bx_s, by_s = m.R * np.cos(m.theta), m.R * np.sin(m.theta)
    bx_t = m.Rp * np.cos(m.theta) - m.R * np.sin(m.theta)
    by_t = m.Rp * np.sin(m.theta) + m.R * np.cos(m.theta)
    b_jdet = m.R**2
    us, ut, us_b, ut_b = _logical_derivs_2d(u)
    ux = (us * y_t - ut * y_s) / jdet
    uy = (-us * x_t + ut * x_s) / jdet
    ux_b = (us_b * by_t - ut_b * by_s) / b_jdet
    uy_b = (-us_b * bx_t + ut_b * bx_s) / b_jdet
    return GridFunction(m, ux.ravel(), ux_b), GridFunction(m, uy.ravel(), uy_b)


@pytest.mark.parametrize("spec", [
    DomainSpec.disk(), DomainSpec.star_shaped(1.0, (0.1,), (0.05, 0.0, 0.1)),
    DomainSpec.star_shaped(1e-3, (1e-4,), (5e-5, 0.0, 1e-4))],
    ids=["disk", "star", "star_1e-3"])
def test_gradient_chain_rule_matches_reference(spec):
    # the Jacobian formed per call gives every bit of the stored-entry form
    mesh = build_mesh(spec, (24, 96))
    u = GridFunction.from_expression(mesh, "sin(3000*x)*cos(2000*y) + x*y*y + sin(3*x)")
    for first, ref in zip(gradient(u), _gradient_reference(u)):
        assert np.array_equal(first.all_values(), ref.all_values())
        for second, ref2 in zip(gradient(first), _gradient_reference(first)):
            assert np.array_equal(second.all_values(), ref2.all_values())


@pytest.mark.parametrize("spec, res", [
    (DomainSpec.disk(), (4, 8)), (DomainSpec.disk(), (12, 48)), (DomainSpec.disk(), (96, 384)),
    (DomainSpec.star_shaped(1.0, (0.0, 0.3)), (160, 320)),
    (DomainSpec.star_shaped(1.0, (0.2, 0.2, 0.2)), (48, 192)),
    (DomainSpec.star_shaped(1.0, (0.1,), (0.05, 0.0, 0.1)), (24, 96))],
    ids=["disk4", "disk12", "disk96", "star_cos2", "star_cos123", "star_sin"])
def test_slot_assembly_matches_triplets(spec, res):
    # same pattern; the entries differ only in the order their terms are summed
    mesh = build_mesh(spec, res)
    A, ref = _assemble_2d(mesh), _assemble_2d_reference(mesh)
    assert A.shape == ref.shape and A.has_canonical_format
    assert np.array_equal(A.indptr, ref.indptr) and np.array_equal(A.indices, ref.indices)
    row_max = np.repeat(np.maximum.reduceat(np.abs(ref.data), ref.indptr[:-1]), np.diff(ref.indptr))
    assert np.all(np.abs(A.data - ref.data) <= 1e-13 * row_max)


@pytest.mark.parametrize("spec", [DomainSpec.disk(1.0),
                                  DomainSpec.star_shaped(1.0, (0.2, 0.2, 0.2))])
def test_operator_assembly_peak_memory(spec):
    # The assembly's transients must not dwarf the operator it returns.
    # Triplets at about 1,600 bytes per node left ~100 MiB of freed heap on
    # a (160, 320) mesh, which later allocations may or may not reuse; that
    # made a process's peak RSS vary by tens of MiB from run to run.
    mesh = build_mesh(spec, (24, 96))
    tracemalloc.start()
    try:
        neumann_operator(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1200 * (mesh.n_interior + mesh.n_boundary)


def test_linearity_of_operators(disk_mesh_small, rng):
    u = GridFunction(disk_mesh_small, rng.standard_normal(disk_mesh_small.n_interior),
                     rng.standard_normal(disk_mesh_small.n_boundary))
    v = GridFunction(disk_mesh_small, rng.standard_normal(disk_mesh_small.n_interior),
                     rng.standard_normal(disk_mesh_small.n_boundary))
    w = 2.0 * u + (-3.0) * v
    ops = [lambda q: _apply_operator(q)[0], lambda q: _apply_operator(q)[1],
           lambda q: gradient(q)[0].all_values(), lambda q: gradient(q)[1].all_values()]
    for op in ops:
        lhs = op(w)
        rhs = 2.0 * op(u) - 3.0 * op(v)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())


def test_mesh_mismatch_rejected(disk_mesh, disk_mesh_small):
    u = GridFunction.zeros(disk_mesh)
    v = GridFunction.zeros(disk_mesh_small)
    with pytest.raises(MeshMismatch):
        _ = u + v
    with pytest.raises(MeshMismatch):
        _ = boundary_trace(u) * boundary_trace(v)


def _fields(kind, mesh, rng):
    """Two random fields of one type on mesh, and their value arrays."""
    if kind is GridFunction:
        arrays = [(rng.standard_normal(mesh.n_interior), rng.standard_normal(mesh.n_boundary))
                  for _ in range(2)]
    else:
        arrays = [(rng.standard_normal(mesh.n_boundary),) for _ in range(2)]
    return [kind(mesh, *a) for a in arrays], arrays


def _arrays(field):
    return ((field.interior, field.boundary) if isinstance(field, GridFunction)
            else (field.values,))


@pytest.mark.parametrize("kind", [GridFunction, BoundaryFunction])
def test_field_algebra_is_elementwise(kind, disk_mesh_small, rng):
    (u, v), (a, b) = _fields(kind, disk_mesh_small, rng)
    cases = [(u + v, [x + y for x, y in zip(a, b)]),
             (u - v, [x - y for x, y in zip(a, b)]),
             (-u, [-x for x in a]),
             (u * v, [x * y for x, y in zip(a, b)]),
             (u * 2.5, [x * 2.5 for x in a]),
             (np.float64(-1.5) * u, [x * -1.5 for x in a])]
    for out, expected in cases:
        assert type(out) is kind and out.mesh is disk_mesh_small
        got = _arrays(out)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e) and not g.flags.writeable
    for z in _arrays(kind.zeros(disk_mesh_small)):
        assert np.array_equal(z, np.zeros_like(z))


@pytest.mark.parametrize("kind", [GridFunction, BoundaryFunction])
def test_field_algebra_rejects_other_meshes(kind, disk_mesh, disk_mesh_small, rng):
    (u, _), _ = _fields(kind, disk_mesh_small, rng)
    w = kind.zeros(disk_mesh)
    for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
        with pytest.raises(MeshMismatch):
            op(u, w)
        with pytest.raises(MeshMismatch):
            op(w, u)


@pytest.mark.parametrize("kind", [GridFunction, BoundaryFunction])
def test_field_algebra_rejects_other_operand_types(kind, disk_mesh_small, rng):
    # + and - take a field of the same type only; the error names both types
    (u, _), _ = _fields(kind, disk_mesh_small, rng)
    other = BoundaryFunction if kind is GridFunction else GridFunction
    for w in (1.0, other.zeros(disk_mesh_small)):
        for op in (lambda p, q: p + q, lambda p, q: p - q):
            with pytest.raises(TypeError, match=f"{kind.__name__} and {type(w).__name__}"):
                op(u, w)


@pytest.mark.parametrize("kind", [GridFunction, BoundaryFunction])
def test_field_product_takes_a_real_number_or_a_field_of_its_type(kind, disk_mesh_small, rng):
    # a string is not a number, even one float() would read
    (u, _), _ = _fields(kind, disk_mesh_small, rng)
    other = BoundaryFunction if kind is GridFunction else GridFunction
    for w in ("2", other.zeros(disk_mesh_small), None):
        with pytest.raises(TypeError, match=f"{kind.__name__} and {type(w).__name__}"):
            u * w
    with pytest.raises(TypeError, match=f"{kind.__name__} and str"):
        "3" * u
    for c in (2.0, np.float64(2), 2):
        for out in (c * u, u * c):
            assert type(out) is kind
            assert all(np.array_equal(o, 2.0 * a) for o, a in zip(_arrays(out), _arrays(u)))


@pytest.mark.parametrize("kind", [GridFunction, BoundaryFunction])
def test_field_algebra_validates_its_results(kind, disk_mesh_small, rng):
    # a result passes through the type's own validation: an overflow is refused
    (u, _), _ = _fields(kind, disk_mesh_small, rng)
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="contains NaN/Inf"):
        u * 1e300 * 1e300


def test_nan_values_rejected(disk_mesh_small):
    vals = np.zeros(disk_mesh_small.n_interior)
    vals[0] = np.nan
    with pytest.raises(ConfigError, match="contains NaN/Inf"):
        GridFunction(disk_mesh_small, vals, np.zeros(disk_mesh_small.n_boundary))
