"""Reference computations made apart from the program, and the checks.

Nothing here calls the package's norm or solver code: the pairwise
Hölder maximum is a plain all-pairs numpy scan with its own arithmetic,
and the other checks test properties the method must have (convergence
order, agreement of two solver routes, exact geometry of the disk).
Each ``check_*`` function returns a list of failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 256          # rows per all-pairs block (BLOCK x n doubles per array)
HOLDER_RTOL = 1e-12  # rounding-level agreement of two pairwise maxima


def holder_max_allpairs(coords, values, alphas):
    """max over node pairs of |v_i - v_j| / |x_i - x_j|^alpha (Euclidean).

    coords: (n, d); values: (m, n); returns (m, len(alphas)).  Coincident
    nodes are skipped.
    """
    pts = np.asarray(coords, dtype=float)
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    n = pts.shape[0]
    best = np.zeros((vals.shape[0], len(alphas)))
    for i0 in range(0, n, BLOCK):
        i1 = min(n, i0 + BLOCK)
        dist = np.sqrt(((pts[i0:i1, None, :] - pts[None, i0:, :]) ** 2).sum(axis=2))
        # upper triangle only: column index > row index, distinct nodes
        dist[np.arange(i1 - i0)[:, None] >= np.arange(n - i0)[None, :]] = np.inf
        dist[dist == 0.0] = np.inf
        for a_idx, alpha in enumerate(alphas):
            scale = dist ** alpha
            for c in range(vals.shape[0]):
                dv = np.abs(vals[c, i0:i1, None] - vals[c, None, i0:])
                best[c, a_idx] = max(best[c, a_idx], float((dv / scale).max()))
    return best


def rel_diff(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def observed_orders(errors):
    return [math.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


# ---------------------------------------------------------------------------
# checks, one group per workload

def check_criteria(criteria, allow_skipped):
    """Every criterion passes; skipped ones only where allowed."""
    out = []
    for c in criteria:
        if c["skipped"] and not allow_skipped:
            out.append(f"criterion {c['name']} skipped")
        elif not c["skipped"] and not c["passed"]:
            out.append(f"criterion {c['name']} failed: {c['detail']}")
    if not criteria:
        out.append("report holds no criteria")
    return out


def check_seminorms(program, reference, what):
    """Program seminorms equal the all-pairs reference to rounding."""
    d = rel_diff(program, reference)
    if not d <= HOLDER_RTOL:
        return [f"{what}: seminorm differs from all-pairs maximum by {d:.3e} relative"]
    return []


def check_residuals(levels, tol=1e-10):
    worst = max(row["residual"] for level in levels for row in level["rows"])
    return [] if worst <= tol else [f"row residual {worst:.3e} > {tol:.0e}"]


def check_disk_distance(program, points):
    """Sampled boundary distance on a disk mesh equals 1 - |x|.

    Interior nodes share their angles with the boundary nodes, so the
    nearest boundary node lies on the same ray and the sampled distance
    is exact up to rounding.
    """
    exact = 1.0 - np.hypot(points[:, 0], points[:, 1])
    d = float(np.max(np.abs(np.asarray(program) - exact)))
    return [] if d <= 1e-12 else [f"distance to boundary off 1 - |x| by {d:.3e}"]


def check_convergence(name, errors, min_order=1.9):
    if not all(np.isfinite(e) and e > 0.0 for e in errors):
        return [f"{name}: errors not finite and positive: {errors}"]
    orders = observed_orders(errors)
    if not all(o >= min_order for o in orders):
        return [f"{name}: observed orders {[f'{o:.3f}' for o in orders]} below {min_order}"]
    return []


def check_agreement(u_fredholm, u_direct, iterations, rtol=1e-8, max_iter=100):
    out = []
    scale = float(np.max(np.abs(u_direct)))
    d = float(np.max(np.abs(u_fredholm - u_direct))) / scale
    if not d <= rtol:
        out.append(f"Fredholm and direct solutions differ by {d:.3e} relative")
    if not 0 < iterations <= max_iter:
        out.append(f"Krylov iterations {iterations} outside 1..{max_iter}")
    return out


def check_witness(coords, values, alphas, best, witnesses, what):
    """The returned witness pair attains the returned maximum."""
    pts = np.asarray(coords, dtype=float)
    out = []
    for c in range(best.shape[0]):
        for a_idx, alpha in enumerate(alphas):
            i, j = (int(k) for k in witnesses[c, a_idx])
            dist = float(np.sqrt(((pts[i] - pts[j]) ** 2).sum()))
            quot = abs(values[c, i] - values[c, j]) / dist ** alpha if dist > 0 else -1.0
            if not abs(quot - best[c, a_idx]) <= HOLDER_RTOL * best[c, a_idx]:
                out.append(f"{what}: witness ({i}, {j}) gives {quot!r}, "
                           f"maximum is {best[c, a_idx]!r} (alpha {alpha})")
    return out
