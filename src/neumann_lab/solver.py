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
  then solves A x = b' with x_p = 0 (on a disk, with ring 0 summing to
  zero; see below).  A constant shift imposes the mean-zero or pin
  constraint.  This is the bordered system [[A, ell/(ell.ell)], [row, 0]]
  solved by block elimination, without factoring the dense border; mean
  zero, pin at any node and the multiplier probe share the LU.
* ``solve_neumann`` with ``fredholm_iteration``: a matrix-free Krylov
  route.  With K the zero-flux screened-Poisson inverse (the solution
  operator w of (1 - lap) w = f, dw/dn = 0), the Neumann solution
  solves (I - K) u = v where v is the regularized solve of (f, g).
  Restarted GMRES (KRYLOV_TOL, KRYLOV_RESTART, KRYLOV_CYCLES) converges
  in a handful of iterations because the spectrum of I - K on mean-zero
  fields is clustered in (0, 1).

Both per-mesh LUs (of B and of the shifted operator) go through one
SuperLU call in symmetric mode: minimum degree ordering of M + M^T and
diagonal pivots, which roughly halves the fill of the default COLAMD
ordering with partial pivoting.  Diagonal pivots are safe here because A
is nearly symmetric: its pattern is symmetric but for the rows of a few
one-sided boundary stencils, and max|A - A^T| / max|A| is 4e-4 on the
(48, 192) disk and 2e-2 on the (48, 192) star, falling under refinement.
A column whose diagonal is below 1e-3 times its largest candidate still
pivots off the diagonal (long intervals do), and every route checks its
residual.  The operator, its norm and both LUs live in the mesh's
workspace.

On a disk mesh (constant radius) A commutes with a rotation by one
theta-step, so the fast direct method of Hockney (J. ACM 12, 1965) and
Swarztrauber & Sweet (SIAM J. Numer. Anal. 10, 1973) applies.  The rows
of a ring then hold the same entries, in row 1's order but in rows 0 and
n_theta - 1, whose columns wrap, so the norms and factors on a disk come
from rows 0, 1 and n_theta - 1 of every ring (``_operator_rows``): both
infinity norms (of A and of A - S) are bitwise those of the full
matrices, and A - S is never formed over all N rows.  The (ring, ring,
theta-offset) stencil is row 0 of each ring, each of the n_theta // 2 + 1
theta-modes gets its real radial block (rings couple to at most two
rings inward and one outward), and all blocks are factored as one
block-diagonal matrix by the same SuperLU call.  A solve is an rfft over
theta, one LU solve for the real and imaginary parts and an irfft.  At
(96, 384) a factor takes about 20 ms instead of 260 ms, and a solve 2 ms
instead of 7.  There the deflation doubles mode 0's ring-0 diagonal c,
which is the rank-one change B = A + (c / n_theta) 1_0 1_0^T with 1_0
the indicator of ring 0; B is nonsingular for the reason B is
elsewhere, ell > 0 on ring 0.
Stars and intervals are factored as before.

Because the discretization is conservative to rounding, the discrete
mean of a regularized solve equals minus the discrete compatibility
defect of its data; mean-zero bookkeeping downstream is exact rather
than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConfigError, IncompatibleData, LinearSolveFailure, NonConvergence
from .field import (GridFunction, integrate_boundary, integrate_volume, mean,
                    neumann_operator, subtract_mean, _require_same_mesh)

DEFAULT_LINEAR_TOL = 1e-10
DEFAULT_COMPAT_TOL = 1e-8
KRYLOV_RESTART = 30
KRYLOV_CYCLES = 17            # restart cycles: 510 inner iterations at most
KRYLOV_TOL = 1e-10
FREDHOLM_RESIDUAL_TOL = 1e-8  # Neumann-system residual accepted for the Krylov route
DEFLATION_NODE = 0            # p of B = A + A_pp e_p e_p^T (mode 0, ring 0 on a disk)

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

    def summary(self):
        """Deterministic scalar summary."""
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


def _splu(M):
    """Sparse LU of a CSC matrix with A's nearly symmetric pattern: minimum
    degree ordering of M + M^T, and the diagonal entry as pivot unless it
    is below 1e-3 times the largest candidate of its column.  A zero
    pivot is a LinearSolveFailure: A - S is singular in floating point
    on domains small enough that the unit shift vanishes beside A."""
    try:
        return spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:         # "Factor is exactly singular"
        raise LinearSolveFailure(f"sparse LU failed: {exc}") from None


def _rotation_invariant(mesh):
    """True on a disk mesh: constant radius, so A commutes with a theta-step."""
    return mesh.dim == 2 and bool(np.all(mesh.R == mesh.R[0])) and not np.any(mesh.Rp)


# The rows of every disk ring that _operator_rows keeps, in this order, as
# offsets in the ring (-1 is n_theta - 1): row 0 holds the stencil
# (_mode_blocks), and rows 1 and n_theta - 1 complete the row sums.
_RING_ROWS = (0, 1, -1)


def _operator_rows(mesh, shift=False):
    """A, or A - S with shift (S the identity on interior nodes), in CSR.
    On a disk mesh only the _RING_ROWS of every ring: the other rows of a
    ring repeat row 1's entries in row 1's order, so these rows give
    every row sum of |M| bitwise."""
    M = neumann_operator(mesh)
    rows = np.arange(M.shape[0])
    if _rotation_invariant(mesh):
        nt = mesh.n_theta
        rows = (np.arange(mesh.n_r + 1)[:, None] * nt + np.mod(_RING_ROWS, nt)).ravel()
        M = M[rows]
    if shift:
        M = M.copy()
        own = np.repeat(rows, np.diff(M.indptr))
        M.data[(M.indices == own) & (own < mesh.n_interior)] -= 1.0
    return M


def _mode_blocks(rows, n_theta):
    """The real radial block of every theta-mode of a rotation-invariant M,
    as one block-diagonal CSC matrix over the unknowns (mode, ring), from
    the _RING_ROWS of every ring (``_operator_rows``).

    M[(jr, i), (jc, i + d)] = a(jr, jc, d) for every i, so the first row of
    each ring holds the stencil, and mode m's block is
    sum_d a(jr, jc, d) cos(2 pi m d / n_theta): the disk is mirror
    symmetric, a(jr, jc, d) = a(jr, jc, -d), so the sine part vanishes.
    The cosines are looked up in one table of n_theta entries.
    """
    nt = n_theta
    first = rows[_RING_ROWS.index(0)::len(_RING_ROWS)].tocoo()
    n_rings = first.shape[0]
    cosines = np.cos((2.0 * np.pi / nt) * np.arange(nt))
    modes = np.arange(nt // 2 + 1)[:, None]
    vals = first.data * cosines[modes * (first.col % nt) % nt]
    head = modes * n_rings
    n = modes.size * n_rings
    return sp.csc_matrix((vals.ravel(), ((head + first.row).ravel(),
                                         (head + first.col // nt).ravel())), shape=(n, n))


class _FourierFactor:
    """Solves with a rotation-invariant operator: rfft over theta, one LU
    solve of the mode blocks for the real and imaginary parts, irfft."""

    def __init__(self, lu, n_theta):
        self.lu, self.n_theta = lu, n_theta

    def solve(self, b):
        nt = self.n_theta
        # inf and NaN pass on without a warning; the caller's check fails them
        with np.errstate(over="ignore", invalid="ignore"):
            coef = np.fft.rfft(b.reshape(-1, nt), axis=1)         # (ring, mode)
            rhs = np.empty((2,) + coef.T.shape)                   # real, imag by (mode, ring)
            rhs[0], rhs[1] = coef.real.T, coef.imag.T
            x = self.lu.solve(rhs.reshape(2, -1).T).T.reshape(rhs.shape)
            coef.real, coef.imag = x[0].T, x[1].T
            return np.fft.irfft(coef, n=nt, axis=1).ravel()


def _factor(mesh, M, deflate=False):
    """The per-mesh factor of M (A, or A - S, from ``_operator_rows``), with
    .solve(b): of its theta-mode blocks on a disk, of M itself otherwise.
    deflate doubles the diagonal entry of unknown p = DEFLATION_NODE,
    which is node p of A, or mode 0 at ring 0 of the blocks (see the
    module docstring)."""
    fourier = _rotation_invariant(mesh)
    B = _mode_blocks(M, mesh.n_theta) if fourier else M.tocsc()
    if deflate:
        p = DEFLATION_NODE
        lo, hi = B.indptr[p], B.indptr[p + 1]
        B.data[lo + np.flatnonzero(B.indices[lo:hi] == p)[0]] *= 2.0
    lu = _splu(B)
    return _FourierFactor(lu, mesh.n_theta) if fourier else lu


def _inf_norm(M):
    return float(np.abs(M).sum(axis=1).max())


def _regularized_lu(mesh):
    """(||A - S||_inf, factor of A - S), S the identity on interior nodes;
    A - S itself is not kept (residuals apply it as A x - S x)."""
    def build():
        M = _operator_rows(mesh, shift=True)
        return _inf_norm(M), _factor(mesh, M)
    return mesh.cached("regularized", build)


def _deflated_lu(mesh):
    """Factor of the deflated operator B, nonsingular because ell_p =
    w_vol[p] > 0 (ell > 0 on ring 0 for a disk's blocks).  Any nonzero
    multiple of the rank-one term would do; doubling the pivot keeps A's
    pattern and scale instead of cancelling the pivot."""
    return mesh.cached("deflated", lambda: _factor(mesh, _operator_rows(mesh), deflate=True))


def _operator_norm(mesh):
    """||A||_inf, computed once per mesh for the residual checks."""
    return mesh.cached("operator_norm", lambda: _inf_norm(_operator_rows(mesh)))


def _deflated_solve(mesh, b, pin=None):
    """(x, lam, b'): A x = b' = b - lam ell/(ell.ell) with lam = ell.b,
    and integral(x) = 0, or x[node] = value for pin = (node, value),
    imposed by a constant shift."""
    # ell^T A = 0 because the scheme is conservative, and for b = (f, g)
    # ell.b = integral(f) - boundary_integral(g), the compatibility defect
    ell = np.concatenate([mesh.w_vol, -mesh.w_bnd])
    lam = float(np.dot(ell, b))
    b_compat = b - (lam / np.dot(ell, ell)) * ell
    x = _deflated_lu(mesh).solve(b_compat)
    if pin is None:
        x -= np.dot(mesh.w_vol, x[:mesh.n_interior]) / mesh.area
    else:
        node, value = pin
        x -= x[node] - value
    if not np.all(np.isfinite(x)):
        raise LinearSolveFailure("constrained Neumann solve produced non-finite values")
    return x, lam, b_compat


def _rhs(f, g):
    return np.concatenate([f.interior, g.values])


def _split(mesh, vec):
    return GridFunction(mesh, vec[:mesh.n_interior], vec[mesh.n_interior:])


def _residual_norms(A, anorm, x, b, n_shift):
    """(||A||_inf ||x|| + ||b||, ||Ax - b||), A shifted by -1 on the first
    n_shift unknowns."""
    r = A @ x
    r[:n_shift] -= x[:n_shift]
    return anorm * np.linalg.norm(x) + np.linalg.norm(b), np.linalg.norm(r - b)


def _checked_residual(A, anorm, x, b, tol, route, n_shift=0):
    """Normwise backward error ||Ax - b|| / (||A||_inf ||x|| + ||b||), with
    anorm = ||A||_inf; raises LinearSolveFailure unless it is <= tol, so a
    NaN fails.  With n_shift > 0 the matrix is A - S, S the identity on the
    first n_shift unknowns.

    Scale-invariant: the plain relative residual inflates with the
    operator's 1/h^2 entry scale and would fail a fixed tolerance on
    fine meshes even for fully converged solves.  The backward error is
    homogeneous in (x, b), so where the norms overflow (data beyond about
    1e154) it is measured on (x, b) / max(|x|_inf, |b|_inf) instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        denom, rnorm = _residual_norms(A, anorm, x, b, n_shift)
        if not np.isfinite(denom + rnorm):
            scale = max(np.abs(x).max(), np.abs(b).max())
            if np.isfinite(scale):
                denom, rnorm = _residual_norms(A, anorm, x / scale, b / scale, n_shift)
    if not np.isfinite(denom + rnorm):
        raise LinearSolveFailure(f"{route} residual norms are not finite: the data or "
                                 f"the solution overflows")
    res = float(rnorm / (denom if denom > 0 else 1.0))
    if not res <= tol:
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


def solve_regularized(f, g):
    """Solve (lap - 1) u = f, du/dn = g.  Well posed for any data."""
    _require_same_mesh(f, g)
    mesh = f.mesh
    anorm, lu = _regularized_lu(mesh)
    b = _rhs(f, g)
    x = lu.solve(b)
    res = _checked_residual(neumann_operator(mesh), anorm, x, b, DEFAULT_LINEAR_TOL,
                            "regularized solve", n_shift=mesh.n_interior)
    return SolveReport(solution=_split(mesh, x), strategy="regularized",
                       residual=res, iterations=0,
                       defect=check_compatibility(f, g), multiplier=0.0)


def _screened(mesh, f_interior):
    """All node values of w with (1 - lap) w = f, dw/dn = 0, for f's
    interior values."""
    lu = _regularized_lu(mesh)[1]
    return lu.solve(np.concatenate([-f_interior, np.zeros(mesh.n_boundary)]))


def solve_bordered(f, g):
    """Raw bordered solve; absorbs any incompatibility into the multiplier.

    Returns (u, multiplier) with integral(u) = 0 (solve_neumann_pinned
    pins a node instead).  With compatible data the multiplier
    vanishes; for incompatible data it equals the defect and u solves
    the data with the defect removed along ell.  The multiplier holds by construction;
    the residual check against the compatible data is what fails when
    ell is not a left null vector of A.
    """
    _require_same_mesh(f, g)
    mesh = f.mesh
    x, lam, b_compat = _deflated_solve(mesh, _rhs(f, g))
    _checked_residual(neumann_operator(mesh), _operator_norm(mesh), x, b_compat,
                      DEFAULT_LINEAR_TOL, "bordered solve")
    return _split(mesh, x), lam


def _apply_policy(f, g, compat_policy):
    with np.errstate(over="ignore", invalid="ignore"):
        delta = check_compatibility(f, g)
    if not np.isfinite(delta):
        raise ConfigError(f"the compatibility defect of the data is {delta}: the integrals "
                          f"of f and g overflow")
    if compat_policy == "reject":
        if abs(delta) > DEFAULT_COMPAT_TOL * data_scale(f, g):
            raise IncompatibleData(
                f"compatibility defect {delta:.6e} exceeds tolerance", delta)
        return f, delta
    if compat_policy == "project":
        shift = delta / f.mesh.area
        f_proj = GridFunction(f.mesh, f.interior - shift, f.boundary - shift)
        return f_proj, delta
    raise ConfigError(f"unknown compatibility policy {compat_policy!r}")


def _direct_solve(f, g, compat_policy, route, pin=None):
    """The direct route: the compatibility policy, the deflated solve
    (mean zero, or u[node] = value for pin = (node, value)) and its
    residual check against DEFAULT_LINEAR_TOL."""
    mesh = f.mesh
    f_eff, delta = _apply_policy(f, g, compat_policy)
    A = neumann_operator(mesh)
    b = _rhs(f_eff, g)
    x, lam, _ = _deflated_solve(mesh, b, pin)
    res = _checked_residual(A, _operator_norm(mesh), x, b, DEFAULT_LINEAR_TOL, route)
    return SolveReport(solution=_split(mesh, x), strategy="direct_augmented", residual=res,
                       iterations=0, defect=delta, multiplier=lam)


def solve_neumann(f, g, strategy="direct_augmented", compat_policy="reject"):
    """Solve lap u = f, du/dn = g for the mean-zero solution.

    Parameters
    ----------
    f, g : GridFunction, BoundaryFunction on the same mesh.
    strategy : "direct_augmented" (the deflated sparse LU, whose normwise
        backward error must be <= DEFAULT_LINEAR_TOL) or
        "fredholm_iteration" (matrix-free restarted GMRES with the module
        constants KRYLOV_TOL, KRYLOV_RESTART and KRYLOV_CYCLES).
    compat_policy : "reject" raises IncompatibleData when the defect
        exceeds DEFAULT_COMPAT_TOL * (1 + sup|f| + sup|g|); "project"
        shifts f by a constant so the discrete defect vanishes exactly.

    Returns a SolveReport whose solution has discrete mean zero.
    """
    _require_same_mesh(f, g)
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}")
    if strategy == "direct_augmented":
        return _direct_solve(f, g, compat_policy, "direct solve")
    mesh = f.mesh
    f_eff, delta = _apply_policy(f, g, compat_policy)
    A = neumann_operator(mesh)
    b = _rhs(f_eff, g)
    n_i = mesh.n_interior
    v = _regularized_lu(mesh)[1].solve(b)
    op = spla.LinearOperator((len(b), len(b)), dtype=float,
                             matvec=lambda x: x - _screened(mesh, x[:n_i]))
    residuals = []          # one per inner iteration
    with np.errstate(over="ignore", invalid="ignore"):   # overflow fails below
        x, info = spla.gmres(op, v, rtol=KRYLOV_TOL, atol=0.0, restart=KRYLOV_RESTART,
                             maxiter=KRYLOV_CYCLES, callback=residuals.append,
                             callback_type="pr_norm")
    iters = len(residuals)
    if info != 0:
        raise NonConvergence(f"GMRES did not reach rtol {KRYLOV_TOL:.1e} within "
                             f"{iters} iterations (info={info})")
    u = subtract_mean(_split(mesh, x))
    res = _checked_residual(A, _operator_norm(mesh), u.all_values(), b,
                            FREDHOLM_RESIDUAL_TOL, "fredholm")
    return SolveReport(solution=u, strategy=strategy, residual=res,
                       iterations=iters, defect=delta, multiplier=0.0)


def solve_neumann_pinned(f, g, node=0, value=0.0, compat_policy="reject"):
    """Neumann solve with the mean constraint replaced by u[node] = value.

    Used by the uniqueness-up-to-constants experiment: the result must
    differ from the mean-zero solution by a constant field.  Shares the
    direct route's factorization and residual check.
    """
    return _direct_solve(f, g, compat_policy, "pinned solve", pin=(node, value))


def solve_1d_oracle(f_coeffs, g0, g1):
    """Closed-form mean-zero solution of the 1D Neumann problem on (0, 1).

    f is a polynomial (coefficient list, low order first); g0, g1 are
    the outward normal derivative data at the left and right endpoint,
    so u'(0) = -g0 and u'(1) = g1.  Exact polynomial integration; the
    compatibility condition integral(f) = g0 + g1 must hold exactly.
    Returns a numpy Polynomial.
    """
    p = np.polynomial.Polynomial(np.asarray(f_coeffs, dtype=float))
    F = p.integ()                            # F(x) = int_0^x f
    with np.errstate(over="ignore", invalid="ignore"):
        total = F(1.0)
        scale = 1.0 + abs(total) + abs(g0) + abs(g1)
    if not np.isfinite(scale):     # so integral(f) and g0 + g1 are finite below
        raise ConfigError(f"1D data overflows: integral(f) = {total}, g0 = {g0}, g1 = {g1}")
    if abs(total - (g0 + g1)) > 1e-12 * scale:
        raise IncompatibleData(
            f"1D compatibility violated: integral(f) = {total:.6e}, "
            f"g0 + g1 = {g0 + g1:.6e}", total - (g0 + g1))
    du = F - g0                               # u'(x) = -g0 + int_0^x f
    u = du.integ()
    return u - u.integ()(1.0)
