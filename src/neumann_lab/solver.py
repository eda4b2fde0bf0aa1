"""Solvers for the Neumann problem and its shifted regularization.

Three routes are implemented against the same conservative discrete
operator A:

* ``solve_regularized``: the shifted problem (lap - 1) u = f with
  du/dn = g, a nonsingular sparse system, well posed for arbitrary data.
* ``solve_neumann`` with ``direct_augmented``: the singular Neumann
  system solved through one sparse LU per mesh of the deflated operator
  B = A + c e_p e_p^T (p = ``DEFLATION_NODE``, c = A_pp, so B has A's
  pattern and scale).  A's null space is the constants and its left
  null space is spanned by ell = (w_vol, -w_bnd), so the multiplier
  lam = ell.b is the compatibility defect integral(f) -
  boundary_integral(g), b - lam ell/(ell.ell) is compatible, and B x = b'
  then solves A x = b' with x_p = 0.  A constant shift imposes the mean
  or pin constraint.  This is the bordered system [[A, ell/(ell.ell)],
  [row, 0]] solved by block elimination, without factoring the dense
  border; mean, pin at any node and the multiplier probe share the LU.
* ``solve_neumann`` with ``fredholm_iteration``: a matrix-free Krylov
  route.  With K the zero-flux screened-Poisson inverse (the solution
  operator w of (1 - lap) w = f, dw/dn = 0), the Neumann solution
  solves (I - K) u = v where v is the regularized solve of (f, g).
  Restarted GMRES converges in a handful of iterations because the
  spectrum of I - K on mean-zero fields is clustered in (0, 1).

Because the discretization is conservative to rounding, the discrete
mean of a regularized solve equals minus the discrete compatibility
defect of its data; mean-zero bookkeeping downstream is exact rather
than approximate.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (ConfigError, IncompatibleData, LinearSolveFailure, NonConvergence,
                     NonZeroMeanInput)
from .field import (BoundaryFunction, GridFunction, integrate_boundary,
                    integrate_volume, mean, neumann_operator, subtract_mean,
                    _require_same_mesh)

DEFAULT_LINEAR_TOL = 1e-10
DEFAULT_COMPAT_TOL = 1e-8
KRYLOV_RESTART = 30
KRYLOV_MAXITER = 500          # total inner iterations
KRYLOV_TOL = 1e-10
FREDHOLM_RESIDUAL_TOL = 1e-8  # Neumann-system residual accepted for the Krylov route
DEFLATION_NODE = 0            # p of the deflated operator A + A_pp e_p e_p^T

STRATEGIES = ("direct_augmented", "fredholm_iteration")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one linear solve."""

    solution: GridFunction
    strategy: str
    residual: float
    iterations: int
    defect: float            # integral(f) - boundary_integral(g), volume units
    multiplier: float        # bordered-system multiplier (equals the defect)
    wall_time: float

    def summary(self):
        """Deterministic scalar summary (wall time excluded on purpose)."""
        u = self.solution
        return {
            "strategy": self.strategy,
            "residual": self.residual,
            "iterations": self.iterations,
            "defect": self.defect,
            "multiplier": self.multiplier,
            "solution_mean": mean(u),
            "solution_sup": float(np.abs(u.all_values()).max()),
        }


_cache = weakref.WeakKeyDictionary()
# Instance threads solve on one mesh at a time; the first to miss a factor
# builds it while the others wait, so a mesh is never factored twice.
_factor_lock = threading.Lock()


def _cached_factor(mesh, key, build):
    ws = _cache.setdefault(mesh, {})
    if key not in ws:          # a built factor is read without the lock
        with _factor_lock:
            if key not in ws:
                ws[key] = build()
    return ws[key]


def _regularized_lu(mesh):
    def build():
        shift = np.concatenate([np.ones(mesh.n_interior), np.zeros(mesh.n_boundary)])
        A_reg = (neumann_operator(mesh) - sp.diags(shift)).tocsr()
        return A_reg, spla.splu(A_reg.tocsc())
    return _cached_factor(mesh, "regularized", build)


def _deflated_lu(mesh):
    """LU of B = A + A_pp e_p e_p^T, nonsingular because ell_p = w_vol[p] > 0.

    Any nonzero multiple of e_p e_p^T would do; A_pp doubles the pivot
    instead of cancelling it.  B is A's CSC copy with the (p, p) entry
    doubled, so it keeps A's sparsity pattern and no other copy of A is
    made.
    """
    def build():
        p = DEFLATION_NODE
        B = neumann_operator(mesh).tocsc()
        lo, hi = B.indptr[p], B.indptr[p + 1]
        B.data[lo + np.flatnonzero(B.indices[lo:hi] == p)[0]] *= 2.0
        return spla.splu(B)
    return _cached_factor(mesh, "deflated", build)


def _deflated_solve(mesh, b, constraint="mean", node=0, value=0.0):
    """(x, lam, b'): A x = b' = b - lam ell/(ell.ell) with lam = ell.b,
    and the constraint integral(x) = value ("mean") or x[node] = value
    ("pin") imposed by a constant shift."""
    # ell^T A = 0 because the scheme is conservative, and for b = (f, g)
    # ell.b = integral(f) - boundary_integral(g), the compatibility defect
    ell = np.concatenate([mesh.w_vol, -mesh.w_bnd])
    lam = float(np.dot(ell, b))
    b_compat = b - (lam / np.dot(ell, ell)) * ell
    x = _deflated_lu(mesh).solve(b_compat)
    if constraint == "mean":
        x -= (np.dot(mesh.w_vol, x[:mesh.n_interior]) - value) / mesh.area
    else:
        x -= x[node] - value
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("constrained Neumann solve produced non-finite values")
    return x, lam, b_compat


def _rhs(f, g):
    return np.concatenate([f.interior, g.values])


def _split(mesh, vec):
    return GridFunction(mesh, vec[:mesh.n_interior], vec[mesh.n_interior:])


def _checked_residual(A, x, b, tol, route):
    """Normwise backward error ||Ax - b|| / (||A||_inf ||x|| + ||b||);
    raises LinearSolveFailure above tol.

    Scale-invariant: the plain relative residual inflates with the
    operator's 1/h^2 entry scale and would fail a fixed tolerance on
    fine meshes even for fully converged solves.
    """
    anorm = float(np.abs(A).sum(axis=1).max())
    denom = anorm * np.linalg.norm(x) + np.linalg.norm(b)
    res = float(np.linalg.norm(A @ x - b) / (denom if denom > 0 else 1.0))
    if not np.isfinite(res) or res > tol:
        raise LinearSolveFailure(f"{route} residual {res:.3e} > {tol:.1e}")
    return res


def check_compatibility(f, g):
    """Solvability defect integral(f) - boundary_integral(g)."""
    _require_same_mesh(f, g)
    return integrate_volume(f) - integrate_boundary(g)


def data_scale(f, g):
    """Normalization 1 + sup|f| + sup|g| used by tolerance policies."""
    sup_f = float(np.abs(f.all_values()).max()) if f.mesh.n_interior else 0.0
    sup_g = float(np.abs(g.values).max())
    return 1.0 + sup_f + sup_g


def solve_regularized(f, g, tol=DEFAULT_LINEAR_TOL):
    """Solve (lap - 1) u = f, du/dn = g.  Well posed for any data."""
    _require_same_mesh(f, g)
    mesh = f.mesh
    t0 = time.perf_counter()
    A_reg, lu = _regularized_lu(mesh)
    b = _rhs(f, g)
    x = lu.solve(b)
    res = _checked_residual(A_reg, x, b, tol, "regularized solve")
    return SolveReport(solution=_split(mesh, x), strategy="regularized",
                       residual=res, iterations=0,
                       defect=check_compatibility(f, g), multiplier=0.0,
                       wall_time=time.perf_counter() - t0)


def apply_screened_inverse(f, tol=DEFAULT_LINEAR_TOL):
    """Apply the zero-flux screened-Poisson inverse to a mean-zero field.

    Returns the solution w of (1 - lap) w = f with dw/dn = 0.  The
    discretization preserves the mean exactly, so mean-zero input gives
    mean-zero output to solver precision.  Raises NonZeroMeanInput when
    |mean(f)| > 1e-10 * max(1, sup|f|).
    """
    mesh = f.mesh
    m = mean(f)
    if abs(m) > 1e-10 * max(1.0, float(np.abs(f.all_values()).max())):
        raise NonZeroMeanInput(f"input mean {m:.3e} is not numerically zero")
    _, lu = _regularized_lu(mesh)
    b = np.concatenate([-f.interior, np.zeros(mesh.n_boundary)])
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("screened inverse produced non-finite values")
    return _split(mesh, x)


def solve_bordered(f, g, constraint="mean", node=0, value=0.0):
    """Raw bordered solve; absorbs any incompatibility into the multiplier.

    Returns (u, multiplier).  The constraint is integral(u) = value
    ("mean") or u[node] = value ("pin", node indexes interior then
    boundary values).  With compatible data the multiplier vanishes; for
    incompatible data it equals the defect and u solves the data with
    the defect removed along ell.  The multiplier holds by construction;
    the residual check against the compatible data is what fails when
    ell is not a left null vector of A.
    """
    _require_same_mesh(f, g)
    mesh = f.mesh
    x, lam, b_compat = _deflated_solve(mesh, _rhs(f, g), constraint, node, value)
    _checked_residual(neumann_operator(mesh), x, b_compat, DEFAULT_LINEAR_TOL,
                      "bordered solve")
    return _split(mesh, x), lam


def _apply_policy(f, g, compat_policy, tol_compat):
    delta = check_compatibility(f, g)
    if compat_policy == "reject":
        if abs(delta) > tol_compat * data_scale(f, g):
            raise IncompatibleData(
                f"compatibility defect {delta:.6e} exceeds tolerance", delta)
        return f, delta
    if compat_policy == "project":
        shift = delta / f.mesh.area
        f_proj = GridFunction(f.mesh, f.interior - shift, f.boundary - shift)
        return f_proj, delta
    raise ConfigError(f"unknown compatibility policy {compat_policy!r}")


def solve_neumann(f, g, strategy="direct_augmented", compat_policy="reject",
                  tol_compat=DEFAULT_COMPAT_TOL, tol_linear=DEFAULT_LINEAR_TOL,
                  krylov_tol=KRYLOV_TOL, krylov_restart=KRYLOV_RESTART,
                  krylov_maxiter=KRYLOV_MAXITER):
    """Solve lap u = f, du/dn = g for the mean-zero solution.

    Parameters
    ----------
    f, g : GridFunction, BoundaryFunction on the same mesh.
    strategy : "direct_augmented" (the deflated sparse LU) or
        "fredholm_iteration" (matrix-free restarted GMRES).
    compat_policy : "reject" raises IncompatibleData when the defect
        exceeds tol_compat * (1 + sup|f| + sup|g|); "project" shifts f
        by a constant so the discrete defect vanishes exactly.

    Returns a SolveReport whose solution has discrete mean zero.
    """
    _require_same_mesh(f, g)
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    mesh = f.mesh
    t0 = time.perf_counter()
    f_eff, delta = _apply_policy(f, g, compat_policy, tol_compat)
    A = neumann_operator(mesh)
    b = _rhs(f_eff, g)

    if strategy == "direct_augmented":
        x, lam, _ = _deflated_solve(mesh, b)
        res = _checked_residual(A, x, b, tol_linear, "direct solve")
        u = _split(mesh, x)
        iters = 0
    else:
        _, lu = _regularized_lu(mesh)
        n_i, n_b = mesh.n_interior, mesh.n_boundary
        v = lu.solve(b)

        def apply_i_minus_k(x):
            w = lu.solve(np.concatenate([-x[:n_i], np.zeros(n_b)]))
            return x - w

        op = spla.LinearOperator((n_i + n_b, n_i + n_b), matvec=apply_i_minus_k)
        count = [0]

        def tick(_):
            count[0] += 1

        cycles = max(1, int(np.ceil(krylov_maxiter / krylov_restart)))
        x, info = spla.gmres(op, v, rtol=krylov_tol, atol=0.0,
                             restart=krylov_restart, maxiter=cycles,
                             callback=tick, callback_type="pr_norm")
        if info != 0:
            raise NonConvergence(
                f"GMRES did not reach rtol {krylov_tol:.1e} within "
                f"{count[0]} iterations (info={info})")
        u = subtract_mean(_split(mesh, x))
        res = _checked_residual(A, u.all_values(), b, FREDHOLM_RESIDUAL_TOL, "fredholm")
        lam = 0.0
        iters = count[0]

    return SolveReport(solution=u, strategy=strategy, residual=res,
                       iterations=iters, defect=delta, multiplier=lam,
                       wall_time=time.perf_counter() - t0)


def solve_neumann_pinned(f, g, node=0, value=0.0, compat_policy="reject",
                         tol_compat=DEFAULT_COMPAT_TOL):
    """Neumann solve with the mean constraint replaced by u[node] = value.

    Used by the uniqueness-up-to-constants experiment: the result must
    differ from the mean-zero solution by a constant field.  Shares the
    direct route's factorization and residual check.
    """
    mesh = f.mesh
    f_eff, delta = _apply_policy(f, g, compat_policy, tol_compat)
    t0 = time.perf_counter()
    b = _rhs(f_eff, g)
    x, lam, _ = _deflated_solve(mesh, b, "pin", node, value)
    res = _checked_residual(neumann_operator(mesh), x, b, DEFAULT_LINEAR_TOL, "pinned solve")
    return SolveReport(solution=_split(mesh, x), strategy="direct_augmented", residual=res,
                       iterations=0, defect=delta, multiplier=lam,
                       wall_time=time.perf_counter() - t0)


def solve_1d_oracle(f_coeffs, g0, g1, interval=(0.0, 1.0)):
    """Closed-form mean-zero solution of the 1D Neumann problem.

    f is a polynomial (coefficient list, low order first); g0, g1 are
    the outward normal derivative data at the left and right endpoint,
    so u'(a) = -g0 and u'(b) = g1.  Exact polynomial integration; the
    compatibility condition integral(f) = g0 + g1 must hold exactly.
    Returns a numpy Polynomial.
    """
    a, b = float(interval[0]), float(interval[1])
    p = np.polynomial.Polynomial(np.asarray(f_coeffs, dtype=float))
    F = p.integ(lbnd=a)                      # F(x) = int_a^x f
    total = F(b)
    scale = 1.0 + abs(total) + abs(g0) + abs(g1)
    if abs(total - (g0 + g1)) > 1e-12 * scale:
        raise IncompatibleData(
            f"1D compatibility violated: integral(f) = {total:.6e}, "
            f"g0 + g1 = {g0 + g1:.6e}", total - (g0 + g1))
    du = F - g0                               # u'(x) = -g0 + int_a^x f
    u = du.integ(lbnd=a)
    avg = u.integ(lbnd=a)(b) / (b - a)
    return u - avg
