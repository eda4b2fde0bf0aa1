"""Grid functions and their discrete calculus.

A GridFunction stores one value per interior node plus an explicit
boundary trace, so boundary integrals of products like u * g need no
interpolation.  Derivatives are second-order: centered differences in
the mapped coordinates (periodic in theta), one-sided three-point
stencils at the radial boundary, chain-ruled through the analytic
Jacobian of the map (s, theta) -> s R(theta) (cos theta, sin theta).
Its entries are formed here, on every call, from the mesh's s, theta, R
and R': x_s = R cos, y_s = R sin, x_theta = s (R' cos - R sin),
y_theta = s (R' sin + R cos) and the determinant s R^2.

The operator is assembled once per mesh in divergence (flux) form, kept
in the mesh's workspace and shared with the solvers: its interior rows
are lap_h, its boundary rows the one-sided outward normal derivative
dn_h, and its outermost-cell flux is dn_h's stencil, which makes the
discrete divergence theorem

    sum_i w_i (lap_h u)_i == sum_b wb_b (dn_h u)_b

hold to rounding, not just to O(h^2).  The mean-zero and compatibility
bookkeeping downstream relies on that exactness.

In 2D a row (j, i) couples only to nodes (j + dr, i + dt) with dr in
-2..2 and dt in -1..1, the boundary trace being ring n_r.  Assembly adds
every flux term into one slot per (dr, dt) of its row, with the terms of
an entry summed in the fixed order the fluxes are listed, and the CSR
arrays are read off the nonzero slots.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import expr as expr_mod
from .errors import ConfigError, MeshMismatch


def _require_same_mesh(a, b):
    if a.mesh is not b.mesh:
        raise MeshMismatch("operands live on different meshes")


def _validated(arr, n, what):
    out = np.array(arr, dtype=float).reshape(n)
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{what} contains NaN/Inf")
    out.setflags(write=False)
    return out


class _FieldAlgebra:
    """Elementwise +, -, unary -, * (by a field of the same type or a real
    number) and zeros, shared by the field types.  Each works on the
    value arrays a type names in _ARRAYS, and every result passes through
    that type's own validation; any other operand is a TypeError naming
    both operand types."""

    @classmethod
    def zeros(cls, mesh):
        return cls.constant(mesh, 0.0)

    def _apply(self, op, *operands):
        """The field of op applied to each value array and its operands."""
        return type(self)(self.mesh, *map(op, (getattr(self, a) for a in self._ARRAYS),
                                          *operands))

    def _operand_arrays(self, other):
        """other's value arrays, once other is known to be a field of self's
        type on self's mesh."""
        if not isinstance(other, type(self)):
            raise TypeError(f"unsupported operand types: {type(self).__name__} and "
                            f"{type(other).__name__}")
        _require_same_mesh(self, other)
        return [getattr(other, a) for a in self._ARRAYS]

    def __add__(self, other):
        return self._apply(operator.add, self._operand_arrays(other))

    def __sub__(self, other):
        return self._apply(operator.sub, self._operand_arrays(other))

    def __neg__(self):
        return self._apply(operator.neg)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return self._apply(operator.mul, [float(other)] * len(self._ARRAYS))
        return self._apply(operator.mul, self._operand_arrays(other))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class GridFunction(_FieldAlgebra):
    """Real field on mesh nodes: interior values plus boundary trace."""

    mesh: object
    interior: np.ndarray
    boundary: np.ndarray
    _ARRAYS = ("interior", "boundary")

    def __post_init__(self):
        object.__setattr__(self, "interior",
                           _validated(self.interior, self.mesh.n_interior, "interior"))
        object.__setattr__(self, "boundary",
                           _validated(self.boundary, self.mesh.n_boundary, "boundary trace"))

    @classmethod
    def constant(cls, mesh, value):
        return cls(mesh, np.full(mesh.n_interior, float(value)),
                   np.full(mesh.n_boundary, float(value)))

    @classmethod
    def from_expression(cls, mesh, text):
        """Evaluate expression text (or a parsed AST) at every node."""
        ast = expr_mod.parse(text) if isinstance(text, str) else text
        vi = expr_mod.evaluate(ast, mesh.interior_coords())
        vb = expr_mod.evaluate(ast, mesh.boundary_coords())
        return cls(mesh, np.broadcast_to(vi, (mesh.n_interior,)),
                   np.broadcast_to(vb, (mesh.n_boundary,)))

    def all_values(self):
        return np.concatenate([self.interior, self.boundary])

    def all_xy(self):
        return np.vstack([self.mesh.interior_xy, self.mesh.boundary_xy])


@dataclass(frozen=True, eq=False)
class BoundaryFunction(_FieldAlgebra):
    """Real field on boundary nodes only."""

    mesh: object
    values: np.ndarray
    _ARRAYS = ("values",)

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _validated(self.values, self.mesh.n_boundary, "boundary values"))

    @classmethod
    def constant(cls, mesh, value):
        return cls(mesh, np.full(mesh.n_boundary, float(value)))

    @classmethod
    def from_expression(cls, mesh, text):
        ast = expr_mod.parse(text) if isinstance(text, str) else text
        vb = expr_mod.evaluate(ast, mesh.boundary_coords())
        return cls(mesh, np.broadcast_to(vb, (mesh.n_boundary,)))


def boundary_trace(u):
    return BoundaryFunction(u.mesh, u.boundary)


# ---------------------------------------------------------------------------
# quadrature

def integrate_volume(f):
    return float(np.dot(f.mesh.w_vol, f.interior))


def integrate_boundary(g):
    return float(np.dot(g.mesh.w_bnd, g.values))


def mean(u):
    return integrate_volume(u) / u.mesh.area


def subtract_mean(u):
    m = mean(u)
    return GridFunction(u.mesh, u.interior - m, u.boundary - m)


# ---------------------------------------------------------------------------
# derivatives

def _logical_derivs_2d(u):
    """u_s, u_theta at interior nodes and at boundary nodes (s = 1)."""
    m = u.mesh
    hs, ht = m.h_s, m.h_theta
    v = m.reshape2d(u.interior)
    vb = u.boundary
    us = np.empty_like(v)
    us[1:-1] = (v[2:] - v[:-2]) / (2 * hs)
    us[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * hs)
    # outermost ring: nodes at s-offsets (-hs, 0, +hs/2), the last one on the boundary
    us[-1] = (-v[-2] / 3.0 - v[-1] + (4.0 / 3.0) * vb) / hs
    ut = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2 * ht)
    us_b = (8 * vb - 9 * v[-1] + v[-2]) / (3 * hs)
    ut_b = (np.roll(vb, -1) - np.roll(vb, 1)) / (2 * ht)
    return us, ut, us_b, ut_b


def gradient(u):
    """Physical gradient; a tuple of GridFunctions (one per dimension)."""
    m = u.mesh
    if m.dim == 1:
        h = m.h
        v, vb = u.interior, u.boundary
        d = np.empty_like(v)
        d[1:-1] = (v[2:] - v[:-2]) / (2 * h)
        d[0] = (-4 * vb[0] / 3.0 + v[0] + v[1] / 3.0) / h
        d[-1] = (4 * vb[1] / 3.0 - v[-1] - v[-2] / 3.0) / h
        db = np.array([(-8 * vb[0] + 9 * v[0] - v[1]) / (3 * h),
                       (8 * vb[1] - 9 * v[-1] + v[-2]) / (3 * h)])
        return (GridFunction(m, d, db),)
    us, ut, us_b, ut_b = _logical_derivs_2d(u)
    # the Jacobian's rows at s = 1; inside, x_t, y_t and det are s times these
    cos_t, sin_t = np.cos(m.theta), np.sin(m.theta)
    x_s, y_s = m.R * cos_t, m.R * sin_t
    x_t, y_t = m.Rp * cos_t - m.R * sin_t, m.Rp * sin_t + m.R * cos_t
    det = m.R**2
    S = m.s[:, None]
    jdet = S * det
    ux = (us * (S * y_t) - ut * y_s) / jdet
    uy = (-us * (S * x_t) + ut * x_s) / jdet
    ux_b = (us_b * y_t - ut_b * y_s) / det
    uy_b = (-us_b * x_t + ut_b * x_s) / det
    return (GridFunction(m, ux.ravel(), ux_b), GridFunction(m, uy.ravel(), uy_b))


# ---------------------------------------------------------------------------
# conservative operator assembly (shared with the solvers)

def neumann_operator(mesh):
    """Sparse (Ni+Nb) square operator: interior rows apply the discrete
    Laplacian, boundary rows the discrete outward normal derivative.
    Assembled once per mesh, in the mesh's workspace."""
    return mesh.cached("operator", lambda: _assemble_1d(mesh) if mesh.dim == 1
                       else _assemble_2d(mesh))


def _assemble_1d(mesh):
    n, h = mesh.n, mesh.h
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(np.atleast_1d(r))
        cols.append(np.atleast_1d(c))
        vals.append(np.atleast_1d(v))

    jf = np.arange(n - 1)          # interior faces between cells jf, jf+1
    flux = 1.0 / h
    for row, sgn in ((jf, 1.0), (jf + 1, -1.0)):
        add(row, jf + 1, sgn * flux / h * np.ones(n - 1))
        add(row, jf, -sgn * flux / h * np.ones(n - 1))
    # left boundary face: F = u'(a), enters cell 0 as the subtracted lower flux
    bl, br = n, n + 1
    for c, wgt in ((bl, -8.0), (0, 9.0), (1, -1.0)):
        add(0, c, -wgt / (3 * h) / h)
    # right boundary face: F = u'(b), enters cell n-1 as the upper flux
    for c, wgt in ((br, 8.0), (n - 1, -9.0), (n - 2, 1.0)):
        add(n - 1, c, wgt / (3 * h) / h)
    # boundary-condition rows: outward normal derivative
    for c, wgt in ((bl, 8.0), (0, -9.0), (1, 1.0)):       # -u'(a)
        add(bl, c, wgt / (3 * h))
    for c, wgt in ((br, 8.0), (n - 1, -9.0), (n - 2, 1.0)):  # +u'(b)
        add(br, c, wgt / (3 * h))
    N = n + 2
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))), shape=(N, N))


def _assemble_2d(mesh):
    nr, nt = mesh.n_r, mesh.n_theta
    hs, ht = mesh.h_s, mesh.h_theta
    N = (nr + 1) * nt
    R, Rp = mesh.R, mesh.Rp
    inv = 1.0 / (mesh.s[:, None] * R**2 * hs * ht)      # 1 / (jdet hs ht), (nr, nt)
    edge = np.sqrt(R**2 + Rp**2)
    B_node = Rp / R
    R_half, Rp_half = mesh.spec.radius(mesh.theta + 0.5 * ht)   # at theta_{i+1/2}
    B_half = Rp_half / R_half
    cB = edge / R**2                        # normal-derivative coefficients
    cT = Rp / (R * edge)

    # The boundary nodes are ring nr.  Row (j, i) couples to the nodes
    # (j + dr, i + dt), dr in -2..2 and dt in -1..1, and the entry's terms
    # are summed in slot[dr + 2, dt + 1, j, i] in the order added below.
    slot = np.zeros((5, 3, nr + 1, nt))

    # --- radial faces between rings jf and jf+1: (dr, dt) from (jf, i) -------
    A_face = (np.arange(1, nr) * hs)[:, None] * ((R**2 + Rp**2) / R**2)
    face_stencil = [(1, 0, A_face / hs), (0, 0, -A_face / hs),
                    (0, 1, -B_node / (4 * ht)), (0, -1, B_node / (4 * ht)),
                    (1, 1, -B_node / (4 * ht)), (1, -1, B_node / (4 * ht))]
    for lo, sgn in ((0, 1.0), (1, -1.0)):          # rows in ring jf, then jf + 1
        rows = slice(lo, lo + nr - 1)
        scale = sgn * inv[rows] * ht
        for dr, dt, v in face_stencil:
            slot[dr - lo + 2, dt + 1, rows] += scale * v

    # --- outer boundary face: flux = edge * (normal derivative stencil) ------
    dn_stencil = [(0, 0, cB * 8.0 / (3 * hs)), (-1, 0, cB * (-3.0) / hs),
                  (-2, 0, cB / (3 * hs)), (0, 1, -cT / (2 * ht)), (0, -1, cT / (2 * ht))]
    scale = inv[nr - 1] * ht * edge
    for dr, dt, v in dn_stencil:
        slot[dr + 3, dt + 1, nr - 1] += scale * v

    # --- angular faces between columns fi and fi+1: (dr, dt) from (j, fi) ----
    # u_s at (j, fi + dt) is one-sided in the first and the last ring
    us_stencils = ((slice(0, 1), [(0, -3.0 / (2 * hs)), (1, 4.0 / (2 * hs)),
                                  (2, -1.0 / (2 * hs))]),
                   (slice(1, nr - 1), [(1, 1.0 / (2 * hs)), (-1, -1.0 / (2 * hs))]),
                   (slice(nr - 1, nr), [(-1, -1.0 / (3 * hs)), (0, -1.0 / hs),
                                        (1, 4.0 / (3 * hs))]))
    for rows, us in us_stencils:
        inv_s = (1.0 / mesh.s)[rows, None]
        terms = [(0, 1, inv_s / ht), (0, 0, -inv_s / ht)]
        terms += [(dr, dt, -B_half * 0.5 * c) for dt in (0, 1) for dr, c in us]
        for shift, sgn in ((0, 1.0), (1, -1.0)):   # rows in column fi, then fi + 1
            scale = sgn * inv[rows] * hs
            for dr, dt, v in terms:
                slot[dr + 2, dt - shift + 1, rows] += scale * np.roll(v, shift, axis=-1)

    # --- boundary condition rows ---------------------------------------------
    for dr, dt, v in dn_stencil:
        slot[dr + 2, dt + 1, nr] += v

    # CSR wants each row's columns ascending.  Within a ring, dt = -1, 0, +1
    # ascend except where i + dt wraps, at i = 0 and i = nt - 1.
    theta = (np.arange(nt)[:, None] + np.arange(-1, 2)) % nt
    order = np.argsort(theta, axis=1)
    for i in (0, nt - 1):
        slot[:, :, :, i] = slot[:, :, :, i][:, order[i]]
    indptr = np.zeros(N + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(slot, axis=(0, 1)), out=indptr[1:])
    slot = np.ascontiguousarray(slot.transpose(2, 3, 0, 1))      # (ring, i, dr, dt)
    offsets = (np.arange(-2, 3) * nt)[:, None] + np.sort(theta, axis=1)[:, None, :]
    cols = (np.arange(nr + 1) * nt)[:, None] + offsets.reshape(1, -1)
    keep = slot != 0       # terms in R' vanish on a disk; keep them out of the LU
    return sp.csr_matrix((slot[keep], cols[keep.reshape(nr + 1, -1)].astype(np.int32), indptr),
                         shape=(N, N))
