"""Computational domains and boundary-fitted meshes.

Two domain kinds are supported: an interval (a, b) and star-shaped
planar domains whose boundary is a polar graph r = R(theta) with R a
strictly positive trigonometric polynomial.  Both admit a single global
chart, so the mesh is a structured grid in mapped coordinates:

* 1D: midpoint nodes x_j = a + (j + 1/2) h, two boundary nodes at a, b.
* 2D: the map (s, theta) -> (R(theta) s cos theta, R(theta) s sin theta)
  on (0, 1] x [0, 2pi), with staggered radial nodes s_j = (j + 1/2) h_s
  (no node at the pole) and periodic angular nodes theta_i = i h_theta.

Volume quadrature is the midpoint rule in s times the periodic
trapezoid rule in theta (weights J h_s h_theta with J = s R^2);
boundary quadrature is arclength trapezoid weights.  A 2D mesh keeps
the map's samples s, theta, R(theta) and R'(theta) beside its nodes,
weights, normals and boundary arclength; field derives the map's
Jacobian from those samples where it needs it.  Meshes are immutable
and bit-reproducible for fixed inputs; ``Mesh.cached`` keeps what is
derived from a mesh alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonPositiveRadius, ResolutionTooSmall

MIN_NODES_1D = 4
MIN_RADIAL = 4
MIN_ANGULAR = 8
DISTANCE_BLOCK = 2**15    # doubles per tile of distance_to_boundary (256 KiB)
DISTANCE_SLACK = 1e-9     # relative margin of distance_to_boundary's bounds
# Largest mesh a configuration may ask for: 14x the 37,248 nodes of the
# (96, 384) level.  It is checked from the resolution alone, so a larger
# rung is refused before any mesh, operator or factor is built.
MAX_NODES = 2**19
# Range of a domain's scale L: b - a and max(|a|, |b|) for an interval, a
# bound on R and |R'| for a star domain.  The volume weights go like L^2,
# ell.ell like L^4 and the operator entries like L^-2, so within the range
# these stay inside 1e+-120 and leave the data's own magnitude 1e+-180 of
# room before a product the solvers form overflows or goes subnormal.
# DomainSpec refuses a domain outside it, before any mesh is built.
MIN_SCALE, MAX_SCALE = 1e-30, 1e30
_workspace_lock = threading.RLock()   # builds nest: a factor needs the operator


def mesh_nodes(spec, resolution):
    """Node count of a mesh of spec.  resolution is one integer n, the
    cells of an interval, or two integers (n_r, n_theta) in the plane; any
    other shape, non-integer entries included, is a ConfigError."""
    res = (resolution,) if spec.dim == 1 else resolution
    try:
        ok = len(res) == spec.dim and all(
            isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in res)
    except TypeError:       # a plane resolution without a length
        ok = False
    if not ok:
        shape = "n, one integer" if spec.dim == 1 else "(n_r, n_theta), two integers"
        raise ConfigError(f"{spec.kind} mesh needs resolution {shape}, got {resolution!r}")
    return int(res[0]) + 2 if spec.dim == 1 else (int(res[0]) + 1) * int(res[1])


def check_mesh_size(spec, resolution):
    """Raise ConfigError unless resolution has spec's shape (``mesh_nodes``)
    and a mesh of it has at most MAX_NODES nodes."""
    nodes = mesh_nodes(spec, resolution)
    if nodes > MAX_NODES:
        res = [int(v) for v in np.atleast_1d(resolution)]
        raise ConfigError(f"resolution {tuple(res)} has {nodes} nodes, more than the "
                          f"{MAX_NODES} a mesh may have")


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _trig_poly(a0, cos_coeffs, sin_coeffs, theta):
    """Evaluate R(theta) = a0 + sum a_k cos(k t) + b_k sin(k t) and R'."""
    theta = np.asarray(theta, dtype=float)
    r = np.full_like(theta, float(a0))
    rp = np.zeros_like(theta)
    for k, c in enumerate(cos_coeffs, start=1):
        r += c * np.cos(k * theta)
        rp -= c * k * np.sin(k * theta)
    for k, c in enumerate(sin_coeffs, start=1):
        r += c * np.sin(k * theta)
        rp += c * k * np.cos(k * theta)
    return r, rp


@dataclass(frozen=True)
class DomainSpec:
    """Description of a computational domain.

    kind is "interval" (bounds a < b) or "star_shaped" (boundary radius
    R(theta) = a0 + sum a_k cos k theta + b_k sin k theta, a0 > 0).
    """

    kind: str
    a: float = 0.0
    b: float = 1.0
    a0: float = 1.0
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def __post_init__(self):
        if self.kind not in ("interval", "star_shaped"):
            raise ConfigError(f"unknown domain kind {self.kind!r}")
        if self.kind == "interval" and not self.a < self.b:
            raise ConfigError(f"interval needs a < b, got ({self.a}, {self.b})")
        if self.kind == "star_shaped" and not self.a0 > 0:
            raise NonPositiveRadius(f"mean radius a0 must be positive, got {self.a0}")
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        if not np.all(np.isfinite([self.a, self.b, self.a0, *self.cos_coeffs,
                                   *self.sin_coeffs])):
            raise ConfigError(f"domain parameters must be finite, got {self!r}")
        # Python floats: an overflow here gives inf, not a numpy warning
        if self.kind == "interval":
            a, b = float(self.a), float(self.b)
            small, large = b - a, max(abs(a), abs(b))
            what = f"interval ({a:g}, {b:g}): b - a or max(|a|, |b|)"
        else:
            # a0 + sum k (|a_k| + |b_k|) bounds both R and |R'|
            small = large = float(self.a0) + sum(
                k * abs(c) for coeffs in (self.cos_coeffs, self.sin_coeffs)
                for k, c in enumerate(coeffs, start=1))
            what = f"star domain scale {small:g} (a bound on R and |R'|)"
        if not (MIN_SCALE <= small and large <= MAX_SCALE):
            raise ConfigError(f"{what} lies outside [{MIN_SCALE:g}, {MAX_SCALE:g}]")

    @property
    def dim(self):
        return 1 if self.kind == "interval" else 2

    @classmethod
    def interval(cls, a=0.0, b=1.0):
        return cls(kind="interval", a=float(a), b=float(b))

    @classmethod
    def star_shaped(cls, a0=1.0, cos_coeffs=(), sin_coeffs=()):
        return cls(kind="star_shaped", a0=float(a0),
                   cos_coeffs=tuple(cos_coeffs), sin_coeffs=tuple(sin_coeffs))

    @classmethod
    def disk(cls, radius=1.0):
        return cls.star_shaped(a0=radius)

    def radius(self, theta):
        """R(theta) and R'(theta) for star-shaped domains."""
        if self.kind != "star_shaped":
            raise ConfigError("radius() only applies to star-shaped domains")
        return _trig_poly(self.a0, self.cos_coeffs, self.sin_coeffs, theta)

    def to_json(self, resolution=None):
        obj = {"kind": self.kind}
        if self.kind == "interval":
            obj["a"] = self.a
            obj["b"] = self.b
        else:
            obj["radius_coeffs"] = {
                "a0": self.a0,
                "cos": list(self.cos_coeffs),
                "sin": list(self.sin_coeffs),
            }
        if resolution is not None:
            obj["resolution"] = [int(v) for v in np.atleast_1d(resolution)]
        return obj

    @classmethod
    def from_json(cls, obj):
        """Parse the JSON object form; returns (spec, resolution or None).

        The object needs a kind: "interval" with number bounds a and b,
        or "star_shaped" with radius_coeffs (see from_radius_coeffs).  A
        resolution, if given, is one integer per dimension, a bare
        integer standing for [n].  Any other shape is a ConfigError.
        """
        if not isinstance(obj, dict):
            raise ConfigError(f"domain must be a JSON object, got {obj!r}")
        kind = obj.get("kind")
        if kind == "interval":
            a, b = obj.get("a", 0.0), obj.get("b", 1.0)
            if not (_is_number(a) and _is_number(b)):
                raise ConfigError(f"interval bounds a, b must be numbers, got {a!r}, {b!r}")
            spec = cls.interval(a, b)
        elif kind == "star_shaped":
            spec = cls.from_radius_coeffs(obj.get("radius_coeffs", {}))
        else:
            raise ConfigError(f"unknown domain kind {kind!r}")
        res = obj.get("resolution")
        if res is not None:
            res = tuple(res) if isinstance(res, list) else (res,)
            if not (len(res) == spec.dim and all(
                    isinstance(v, int) and not isinstance(v, bool) for v in res)):
                raise ConfigError(f"{kind} resolution must be {spec.dim} integer(s), "
                                  f"got {obj['resolution']!r}")
            if len(res) == 1:
                res = res[0]
        return spec, res

    @classmethod
    def from_radius_coeffs(cls, rc):
        """Star-shaped domain from {"a0": number, "cos": [numbers], "sin": [numbers]}.

        a0 defaults to 1 and the mode lists to empty; any other shape is
        a ConfigError.
        """
        if not (isinstance(rc, dict) and _is_number(rc.get("a0", 1.0))
                and all(isinstance(rc.get(k, []), list) and all(map(_is_number, rc.get(k, [])))
                        for k in ("cos", "sin"))):
            raise ConfigError('radius_coeffs must be a JSON object {"a0": number, '
                              f'"cos": [numbers], "sin": [numbers]}}, got {rc!r}')
        return cls.star_shaped(rc.get("a0", 1.0), rc.get("cos", ()), rc.get("sin", ()))


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable structured mesh with quadrature, normals and metric terms.

    Interior nodes are indexed flat; in 2D the flat index of logical
    node (j, i) is j * n_theta + i (radial ring major).  Boundary nodes
    follow: two endpoints in 1D, the n_theta trace nodes at s = 1 in 2D.
    """

    spec: DomainSpec
    dim: int
    interior_xy: np.ndarray      # (Ni, dim)
    boundary_xy: np.ndarray      # (Nb, dim)
    w_vol: np.ndarray            # (Ni,) volume quadrature weights
    w_bnd: np.ndarray            # (Nb,) boundary quadrature weights
    normals: np.ndarray          # (Nb, dim) outward unit normals
    # 1D fields
    n: int = 0
    h: float = 0.0
    # 2D fields
    n_r: int = 0
    n_theta: int = 0
    h_s: float = 0.0
    h_theta: float = 0.0
    s: np.ndarray = None         # (n_r,) staggered radial coordinates
    theta: np.ndarray = None     # (n_theta,)
    R: np.ndarray = None         # R(theta_i), R'(theta_i)
    Rp: np.ndarray = None
    arc: np.ndarray = None       # boundary arclength coordinate (n_theta,)
    _workspace: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    @property
    def n_interior(self):
        return self.interior_xy.shape[0]

    @property
    def n_boundary(self):
        return self.boundary_xy.shape[0]

    @property
    def area(self):
        return float(self.w_vol.sum())

    @property
    def boundary_measure(self):
        return float(self.w_bnd.sum())

    @property
    def cell_size(self):
        """Largest physical spacing between radially adjacent nodes."""
        if self.dim == 1:
            return self.h
        return float(np.max(self.R) * self.h_s)

    def cached(self, key, build):
        """The workspace value under key, built once by build(); arrays are
        stored read-only.  No value may refer to the mesh: the cycle would
        keep the mesh and its factors alive past their last use."""
        if key not in self._workspace:      # a built value is read without the lock
            with _workspace_lock:
                if key not in self._workspace:
                    value = build()
                    _freeze(value)
                    self._workspace[key] = value
        return self._workspace[key]

    @property
    def interior_depth(self):
        """Sampled boundary distance of every interior node, computed once:
        bitwise the scan of every boundary node, from one node distance
        per point where a bound rules out every other node, as it does on
        a disk but for its innermost rings on the finest meshes, and from
        a tiled scan of every node elsewhere (``distance_to_boundary``)."""
        return self.cached("interior_depth",
                           lambda: distance_to_boundary(self, self.interior_xy))

    def reshape2d(self, flat):
        return np.asarray(flat).reshape(self.n_r, self.n_theta)

    def interior_coords(self):
        """Coordinate dictionary for expression evaluation at interior nodes."""
        if self.dim == 1:
            return {"x": self.interior_xy[:, 0]}
        xx = self.interior_xy[:, 0]
        yy = self.interior_xy[:, 1]
        ss = np.repeat(self.s, self.n_theta)
        tt = np.tile(self.theta, self.n_r)
        return {"x": xx, "y": yy, "r": np.hypot(xx, yy), "theta": tt, "s": ss}

    def boundary_coords(self):
        if self.dim == 1:
            return {"x": self.boundary_xy[:, 0]}
        xx = self.boundary_xy[:, 0]
        yy = self.boundary_xy[:, 1]
        return {"x": xx, "y": yy, "r": np.hypot(xx, yy), "theta": self.theta,
                "s": np.ones(self.n_theta)}


def _freeze(*arrays):
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)


def build_mesh(spec, resolution):
    """Build the boundary-fitted mesh for a domain.

    Parameters
    ----------
    spec : DomainSpec
    resolution : one int for intervals (number of cells, >= 4);
        (n_r, n_theta), two ints, for star-shaped domains (>= (4, 8)).

    Raises NonPositiveRadius if R(theta) <= 0 at any of 4 * n_theta
    sample angles, ResolutionTooSmall below the minimums and ConfigError
    for a resolution of any other shape or above MAX_NODES.
    """
    check_mesh_size(spec, resolution)
    if spec.dim == 1:
        n = int(resolution)
        if n < MIN_NODES_1D:
            raise ResolutionTooSmall(f"1D mesh needs n >= {MIN_NODES_1D}, got {n}")
        return _build_interval(spec, n)
    n_r, n_theta = map(int, resolution)
    if n_r < MIN_RADIAL or n_theta < MIN_ANGULAR:
        raise ResolutionTooSmall(
            f"2D mesh needs (n_r, n_theta) >= ({MIN_RADIAL}, {MIN_ANGULAR}), "
            f"got ({n_r}, {n_theta})")
    return _build_star(spec, n_r, n_theta)


def _build_interval(spec, n):
    a, b = spec.a, spec.b
    h = (b - a) / n
    x = a + (np.arange(n) + 0.5) * h
    interior_xy = x[:, None].copy()
    boundary_xy = np.array([[a], [b]])
    w_vol = np.full(n, h)
    w_bnd = np.array([1.0, 1.0])
    normals = np.array([[-1.0], [1.0]])
    mesh = Mesh(spec=spec, dim=1, interior_xy=interior_xy, boundary_xy=boundary_xy,
                w_vol=w_vol, w_bnd=w_bnd, normals=normals, n=n, h=h)
    _freeze(interior_xy, boundary_xy, w_vol, w_bnd, normals)
    return mesh


def _build_star(spec, n_r, n_theta):
    h_s = 1.0 / n_r
    h_theta = 2.0 * np.pi / n_theta
    # positivity check by dense sampling (4 samples per angular cell)
    probe = np.arange(4 * n_theta) * (2.0 * np.pi / (4 * n_theta))
    r_probe, _ = spec.radius(probe)
    if np.any(r_probe <= 0.0):
        bad = probe[np.argmin(r_probe)]
        raise NonPositiveRadius(
            f"R(theta) <= 0 near theta = {bad:.6f} (min {r_probe.min():.3e})")

    s = (np.arange(n_r) + 0.5) * h_s
    theta = np.arange(n_theta) * h_theta
    R, Rp = spec.radius(theta)
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    S = s[:, None]
    jdet = S * R**2                     # determinant of the map's Jacobian
    if np.any(jdet <= 0.0):
        raise NonPositiveRadius("mapping Jacobian not positive")
    interior_xy = np.column_stack([(S * R * cos_t).ravel(), (S * R * sin_t).ravel()])
    w_vol = (jdet * h_s * h_theta).ravel()

    boundary_xy = np.column_stack([R * cos_t, R * sin_t])
    edge = np.sqrt(R**2 + Rp**2)
    w_bnd = edge * h_theta
    raw = np.column_stack([R * cos_t + Rp * sin_t, R * sin_t - Rp * cos_t])
    normals = raw / np.linalg.norm(raw, axis=1)[:, None]

    # arclength coordinate of boundary nodes (periodic trapezoid cumulative)
    seg = 0.5 * (edge + np.roll(edge, -1)) * h_theta  # arc from node i to i+1
    arc = np.concatenate([[0.0], np.cumsum(seg[:-1])])

    mesh = Mesh(spec=spec, dim=2, interior_xy=interior_xy, boundary_xy=boundary_xy,
                w_vol=w_vol, w_bnd=w_bnd, normals=normals,
                n_r=n_r, n_theta=n_theta, h_s=h_s, h_theta=h_theta,
                s=s, theta=theta, R=R, Rp=Rp, arc=arc)
    _freeze(interior_xy, boundary_xy, w_vol, w_bnd, normals, s, theta, R, Rp, arc)
    return mesh


def distance_to_boundary(mesh, points):
    """Sampled distance from points to the boundary node set.

    For intervals this is exact; for star-shaped domains it is the least
    sqrt((px - bx)^2 + (py - by)^2) over the boundary nodes b, accurate
    to O(boundary spacing).  Callers add a one-cell safety margin where
    it matters.

    The result is bitwise that minimum, but a point evaluates one node
    where a bound rules out all others (bound and prune: Friedman,
    Bentley & Finkel, ACM TOMS 3(3), 1977).  With p at radius rho and
    angle phi, and node k at radius R_k and angle theta_k,
        |p - b_k|^2 = (rho - R_k)^2 + 4 rho R_k sin^2((phi - theta_k) / 2).
    Every node but k0, the node nearest phi, is at least h_theta / 2 from
    phi in angle, so at least
        max(min R_k - rho, rho - max R_k, 0)^2 + 4 rho min R_k sin^2(h_theta / 4)
    from p.  A point takes |p - b_k0|^2 and stops there if this bound
    exceeds it; any other point scans every node.  On a disk every
    interior node stops there, O(1) work per point, but for the innermost
    rings once n_theta^2 n_r passes about 1.5e9, where the margin below
    outgrows the sine term.  Radii, angles and comparisons carry a
    relative margin DISTANCE_SLACK, far above their rounding errors on
    any mesh of at most MAX_NODES, so where a point stops k0 is the
    argmin of the scan in floating point as well.  A NaN coordinate
    gives distance NaN and any other non-finite point inf, as the scan
    does.  Points go in blocks of DISTANCE_BLOCK // 4 and tiles hold at
    most DISTANCE_BLOCK doubles.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if mesh.dim == 1:
        return np.minimum(pts[:, 0] - mesh.spec.a, mesh.spec.b - pts[:, 0])
    bx, by = mesh.boundary_xy.T
    n, h = len(bx), mesh.h_theta
    radius = np.hypot(bx, by)
    lo = radius.min() * (1 - DISTANCE_SLACK)
    hi = radius.max() * (1 + DISTANCE_SLACK)
    sine = np.sin(0.25 * h * (1 - DISTANCE_SLACK)) ** 2
    x, y = pts[:, 0], pts[:, 1]
    d2 = np.where(np.isnan(x) | np.isnan(y), np.nan, np.inf)
    finite = np.flatnonzero(np.isfinite(x) & np.isfinite(y))
    for start in range(0, len(finite), DISTANCE_BLOCK // 4):
        block = finite[start:start + DISTANCE_BLOCK // 4]
        px, py = x[block], y[block]
        rho = np.hypot(px, py)
        k0 = np.rint(np.arctan2(py, px) / h).astype(np.intp) % n
        best = _squared_distance(px, py, bx[k0], by[k0])
        gap = np.maximum(np.maximum(lo - rho * (1 + DISTANCE_SLACK),
                                    rho * (1 - DISTANCE_SLACK) - hi), 0.0)
        wide = np.flatnonzero(gap * gap + 4.0 * lo * rho * sine <= best * (1 + DISTANCE_SLACK))
        if len(wide):
            best[wide] = _scan(px[wide], py[wide], bx, by)
        d2[block] = best
    return np.sqrt(d2)


def _scan(px, py, bx, by):
    """Least squared distance from each point to every node of bx, by, in
    tiles of at most DISTANCE_BLOCK doubles: rows of nodes by the points."""
    height = max(1, DISTANCE_BLOCK // len(px))
    best = np.full(len(px), np.inf)
    for k in range(0, len(bx), height):
        rows = slice(k, k + height)
        d2 = _squared_distance(px, py, bx[rows, None], by[rows, None])
        np.minimum(best, d2.min(axis=0), out=best)
    return best


def _squared_distance(px, py, bx, by):
    """(px - bx)^2 + (py - by)^2, broadcast: the one distance expression."""
    d2 = px - bx
    d2 *= d2
    dy = py - by
    dy *= dy
    d2 += dy
    return d2
