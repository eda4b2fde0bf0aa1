"""Mesh geometry: quadrature weights, normals, metric terms, invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neumann_lab import domain
from neumann_lab.domain import DISTANCE_BLOCK, DomainSpec, build_mesh, distance_to_boundary
from neumann_lab.errors import ConfigError, NonPositiveRadius, ResolutionTooSmall

STAR_AREA = 209.0 * np.pi / 200.0          # (1/2) int (1 + 0.3 cos 2t)^2
STAR_PERIMETER = 6.825729193824344         # int sqrt(R^2 + R'^2), quadrature value


def test_disk_area():
    mesh = build_mesh(DomainSpec.disk(), (64, 128))
    # the spec tolerance is 1e-3; midpoint-times-trapezoid is exact here
    assert abs(mesh.area - np.pi) <= 1e-12


def test_interval_weights_partition_of_unity():
    mesh = build_mesh(DomainSpec.interval(0.0, 1.0), 10)
    assert abs(mesh.w_vol.sum() - 1.0) <= 2e-15
    np.testing.assert_array_equal(mesh.w_bnd, [1.0, 1.0])
    np.testing.assert_array_equal(mesh.normals, [[-1.0], [1.0]])


def test_disk_normal_at_theta_zero():
    mesh = build_mesh(DomainSpec.disk(), (16, 32))
    np.testing.assert_allclose(mesh.normals[0], [1.0, 0.0], atol=1e-12)
    quarter = mesh.n_theta // 4      # node at theta = pi/2
    np.testing.assert_allclose(mesh.normals[quarter], [0.0, 1.0], atol=1e-12)


def test_normals_unit_length_on_star(star_mesh):
    lengths = np.linalg.norm(star_mesh.normals, axis=1)
    np.testing.assert_allclose(lengths, 1.0, atol=1e-12)


def test_normals_point_outward(star_mesh):
    # positive projection on the position vector of the boundary point
    dots = (star_mesh.normals * star_mesh.boundary_xy).sum(axis=1)
    assert (dots > 0).all()


def test_star_area_exact_for_trig_polynomial():
    mesh = build_mesh(DomainSpec.star_shaped(1.0, (0.0, 0.3)), (16, 32))
    assert abs(mesh.area - STAR_AREA) <= 1e-12


def test_disk_perimeter_exact():
    mesh = build_mesh(DomainSpec.disk(), (8, 16))
    assert abs(mesh.boundary_measure - 2 * np.pi) <= 1e-12


def test_star_perimeter_spectral_convergence():
    errs = []
    for nt in (8, 16, 32):
        mesh = build_mesh(DomainSpec.star_shaped(1.0, (0.0, 0.3)), (4, nt))
        errs.append(abs(mesh.boundary_measure - STAR_PERIMETER))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-6
    # far beyond second order: the integrand is smooth and periodic
    assert np.log2(errs[1] / errs[2]) >= 1.9


def test_volume_quadrature_second_order():
    # smooth non-polynomial radial integrand: int_disk r^2 dA = pi/2
    errs = []
    for nr in (8, 16, 32):
        mesh = build_mesh(DomainSpec.disk(), (nr, 2 * nr))
        val = np.dot(mesh.w_vol, (mesh.interior_xy**2).sum(axis=1))
        errs.append(abs(val - np.pi / 2))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert (orders >= 1.9).all()


def test_angular_trig_integrands_exact():
    mesh = build_mesh(DomainSpec.disk(), (16, 32))
    theta = np.arctan2(mesh.interior_xy[:, 1], mesh.interior_xy[:, 0])
    # degree < n_theta / 2: integrates exactly against the area weights
    val = np.dot(mesh.w_vol, np.cos(3 * theta) + np.sin(2 * theta))
    assert abs(val) <= 1e-12
    val = np.dot(mesh.w_vol, np.cos(2 * theta) ** 2)
    assert abs(val - np.pi / 2) <= 1e-12


def test_jacobian_positive_and_no_pole_node(disk_mesh_small):
    jdet = disk_mesh_small.s[:, None] * disk_mesh_small.R**2     # of the map at the nodes
    assert (jdet > 0).all()
    assert np.linalg.norm(disk_mesh_small.interior_xy, axis=1).min() > 0


def test_mesh_construction_deterministic():
    spec = DomainSpec.star_shaped(1.0, (0.1, 0.2), (0.05,))
    m1 = build_mesh(spec, (8, 16))
    m2 = build_mesh(spec, (8, 16))
    for name in ("interior_xy", "boundary_xy", "w_vol", "w_bnd", "normals"):
        np.testing.assert_array_equal(getattr(m1, name), getattr(m2, name))


def test_reflection_symmetry():
    # R(theta) = R(-theta): node set invariant under y -> -y up to reindexing
    from scipy.spatial import cKDTree

    mesh = build_mesh(DomainSpec.star_shaped(1.0, (0.0, 0.0, 0.2)), (8, 16))
    for pts in (mesh.interior_xy, mesh.boundary_xy):
        reflected = pts * np.array([1.0, -1.0])
        dist, _ = cKDTree(pts).query(reflected)
        assert dist.max() <= 1e-12


def test_mesh_arrays_are_read_only(disk_mesh_small):
    with pytest.raises(ValueError):
        disk_mesh_small.w_vol[0] = 2.0


def test_nonpositive_radius_rejected():
    with pytest.raises(NonPositiveRadius):
        build_mesh(DomainSpec.star_shaped(1.0, (1.5,)), (8, 16))
    with pytest.raises(NonPositiveRadius):
        DomainSpec.star_shaped(-1.0)


def test_jacobian_that_underflows_is_rejected():
    # R(0) = 1 - 1 + 1e-300 passes the radius probe, but s R^2 is 0 in
    # floating point: the map's Jacobian is checked on its own
    with pytest.raises(NonPositiveRadius, match="Jacobian not positive"):
        build_mesh(DomainSpec.star_shaped(1.0, (-1.0, 1e-300)), (8, 16))


@pytest.mark.parametrize("spec,res", [
    (DomainSpec.interval(), 3),
    (DomainSpec.disk(), (3, 16)),
    (DomainSpec.disk(), (8, 7)),
])
def test_resolution_too_small(spec, res):
    with pytest.raises(ResolutionTooSmall):
        build_mesh(spec, res)


def test_interval_requires_ordered_bounds():
    with pytest.raises(ConfigError):
        DomainSpec.interval(1.0, 0.0)


@pytest.mark.parametrize("make, message", [
    (lambda: DomainSpec("hexagon"), "unknown domain kind 'hexagon'"),
    (lambda: build_mesh(DomainSpec.disk(), 16), r"needs resolution \(n_r, n_theta\)"),
    (lambda: DomainSpec.interval().radius(0.0), r"radius\(\) only applies to star-shaped")],
    ids=["unknown_kind", "star_with_one_integer", "radius_of_interval"])
def test_malformed_domain_rejected(make, message):
    with pytest.raises(ConfigError, match=message):
        make()


@pytest.mark.parametrize("make", [lambda: DomainSpec.disk(float("inf")),
                                  lambda: DomainSpec.star_shaped(1.0, (0.1, float("nan"))),
                                  lambda: DomainSpec.star_shaped(1.0, (), (float("inf"),)),
                                  lambda: DomainSpec.interval(-float("inf"), 1.0)],
                         ids=["radius", "cos", "sin", "interval"])
def test_non_finite_domain_parameters_rejected(make):
    with pytest.raises(ConfigError, match="finite"):
        make()


def test_domain_json_round_trip():
    spec = DomainSpec.star_shaped(1.5, (0.1, 0.2), (0.0, 0.05))
    obj = spec.to_json(resolution=(8, 16))
    spec2, res = DomainSpec.from_json(obj)
    assert spec2 == spec
    assert res == (8, 16)

    spec = DomainSpec.interval(-1.0, 2.0)
    spec2, res = DomainSpec.from_json(spec.to_json())
    assert spec2 == spec and res is None

    with pytest.raises(ConfigError):
        DomainSpec.from_json({"kind": "hexagon"})


def test_distance_to_boundary():
    mesh = build_mesh(DomainSpec.disk(), (32, 64))
    d = distance_to_boundary(mesh, np.array([[0.0, 0.0], [0.9, 0.0]]))
    assert abs(d[0] - 1.0) <= 5e-3
    assert abs(d[1] - 0.1) <= 5e-3
    mesh1 = build_mesh(DomainSpec.interval(0.0, 1.0), 8)
    d = distance_to_boundary(mesh1, np.array([[0.25]]))
    assert d[0] == pytest.approx(0.25, abs=1e-15)


def test_distance_to_boundary_blocks_match_dense():
    mesh = build_mesh(DomainSpec.star_shaped(1.0, (0.0, 0.3)), (24, 96))
    pts = mesh.interior_xy
    assert len(pts) * mesh.n_boundary > 2 * DISTANCE_BLOCK
    diff = pts[:, None, :] - mesh.boundary_xy[None, :, :]
    dense = np.sqrt((diff**2).sum(axis=2)).min(axis=1)
    assert (distance_to_boundary(mesh, pts) == dense).all()
    # more points than one block holds, the last block partly filled
    many = np.tile(pts, (4, 1))
    assert len(many) > DISTANCE_BLOCK // 4
    assert (distance_to_boundary(mesh, many) == np.tile(dense, 4)).all()
    # the per-mesh copy is computed once, equal and read-only
    assert mesh.interior_depth is mesh.interior_depth
    assert (mesh.interior_depth == dense).all() and not mesh.interior_depth.flags.writeable


def _dense_distance(mesh, pts):
    return np.sqrt(((pts[:, None] - mesh.boundary_xy[None]) ** 2).sum(axis=2)).min(axis=1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_radius=st.floats(-6.0, 6.0),
       modes=st.integers(0, 3), n_theta=st.integers(8, 200), n_r=st.integers(4, 9))
def test_distance_to_boundary_equals_the_dense_minimum(seed, log_radius, modes, n_theta, n_r):
    # disks of radius 1e-6 to 1e6 and stars with up to 3 cos/sin modes,
    # most of them not convex, at odd and even n_theta: the pruned search
    # returns the scan of every node bitwise
    rng = np.random.default_rng(seed)
    radius = 10.0**log_radius
    coeffs = rng.uniform(-1.0, 1.0, (2, modes))
    coeffs *= 0.8 * radius / max(1.0, np.abs(coeffs).sum())    # R >= 0.2 radius
    mesh = build_mesh(DomainSpec.star_shaped(radius, coeffs[0], coeffs[1]), (n_r, n_theta))
    far = rng.uniform(-1e3, 1e3, (20, 2)) * radius
    pts = np.vstack([mesh.interior_xy, mesh.boundary_xy, [[0.0, 0.0]],
                     rng.uniform(-1.2, 1.2, (200, 2)) * radius, far])
    assert np.array_equal(distance_to_boundary(mesh, pts), _dense_distance(mesh, pts))


@pytest.mark.parametrize("resolution", [(4, 8), (12, 48), (24, 97), (96, 384)])
def test_disk_interior_nodes_evaluate_one_boundary_node(resolution, monkeypatch):
    # the bound over all other nodes rules them out for every interior node
    # of a disk, so no point scans
    scans = []
    scan = domain._scan
    monkeypatch.setattr(domain, "_scan", lambda *a: scans.append(len(a[0])) or scan(*a))
    mesh = build_mesh(DomainSpec.disk(2.5), resolution)
    distance_to_boundary(mesh, mesh.interior_xy)
    assert scans == []
    # the origin needs them all
    distance_to_boundary(mesh, np.zeros((1, 2)))
    assert scans


def test_star_points_scan_every_boundary_node(monkeypatch):
    # a point that the bound does not settle scans all nodes in one pass
    nodes = []
    scan = domain._scan
    monkeypatch.setattr(domain, "_scan", lambda *a: nodes.append(len(a[2])) or scan(*a))
    mesh = build_mesh(DomainSpec.star_shaped(1.0, (0.0, 0.3)), (8, 96))
    d = distance_to_boundary(mesh, mesh.interior_xy)
    assert nodes and set(nodes) == {mesh.n_boundary}
    assert np.array_equal(d, _dense_distance(mesh, mesh.interior_xy))


def test_distance_to_non_finite_points():
    # what the scan of every node gives, with no RuntimeWarning: NaN for a
    # NaN coordinate, inf for any other non-finite one
    mesh = build_mesh(DomainSpec.star_shaped(1.0, (0.0, 0.3)), (8, 32))
    nan, inf = np.nan, np.inf
    pts = np.array([[nan, 0.0], [0.0, nan], [nan, inf], [inf, 0.0], [0.5, -inf],
                    [inf, -inf], [-inf, -inf], [0.1, 0.2]])
    d = distance_to_boundary(mesh, pts)
    np.testing.assert_array_equal(d[:6], [nan, nan, nan, inf, inf, inf])
    assert d[6] == inf and np.isfinite(d[7])
    np.testing.assert_array_equal(d, _dense_distance(mesh, pts))


def test_distance_to_boundary_memory_bounded():
    # the dense form would hold interior x boundary x 2 doubles: 1 GiB here
    mesh = build_mesh(DomainSpec.disk(), (128, 512))
    tracemalloc.start()
    try:
        d = distance_to_boundary(mesh, mesh.interior_xy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
    assert np.abs(d - (1.0 - np.hypot(*mesh.interior_xy.T))).max() <= 1e-12


def test_staggered_radial_layout(disk_mesh_small):
    s = disk_mesh_small.s
    n = disk_mesh_small.n_r
    np.testing.assert_allclose(s, (np.arange(n) + 0.5) / n, atol=1e-15)
