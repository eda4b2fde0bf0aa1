"""Discrete L2, sup and Holder-scale norms.

The Holder seminorm of a sampled field is the exact maximum of
|v(x) - v(y)| / |x - y|^alpha over all unordered node pairs.  One sweep
computes it for every component and exponent stacked into a call: the
nodes are cut into chunks of TILE -- compact k-d boxes in the plane,
runs of the sorted order on a line or loop -- and each tile (a pair of
chunks) gets its squared distances axis by axis, their log once, the
distance weight once per exponent and the value differences once per
component.  Tiles are scanned best first, by decreasing upper bound
spread / dmin^a on their quotients.  Two strategies choose the tiles:

* ``brute_force`` scans every tile;
* ``pruned`` skips a tile for a (component, exponent) entry when an
  upper bound on its best quotient -- the smaller of the global bound
  2 max|v| and the tile's own value spread, divided by a lower bound on
  its minimum pair distance -- cannot exceed the running maximum.
  Small boxes keep spreads small on smooth fields, and the best-first
  order finds the maximum early, so most tiles are skipped.

Both strategies apply identical per-pair arithmetic, so the returned
maxima agree bitwise.  A tile that reaches the running maximum yields
its lexicographically smallest attaining pair as the witness, inside
the sweep; only witness tie-breaking may differ between strategies.
Volume fields use Euclidean distance between nodes; boundary fields use
arclength along the boundary loop, with distances and pruning bounds
taken the short way round.  ``holder_reports`` stacks all fields on one
node set into a single sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInput
from .field import BoundaryFunction, GridFunction, gradient

TILE = 128       # nodes per chunk; a tile's work arrays then stay in L2 cache

STRATEGIES = ("brute_force", "pruned")


@dataclass(frozen=True)
class HolderParams:
    """Exponent, derivative order and pair strategy for Holder norms."""

    alpha: float
    derivative_order: int = 0
    pair_strategy: str = "brute_force"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.derivative_order not in (0, 1, 2):
            raise ConfigError(f"derivative order must be 0, 1 or 2, got {self.derivative_order}")
        if self.pair_strategy not in STRATEGIES:
            raise ConfigError(f"unknown pair strategy {self.pair_strategy!r}")


@dataclass
class HolderReport:
    """Norm breakdown: per-order sup norms, top-order seminorm, witness."""

    sup_norms: tuple          # orders 0..k, each the max over derivative components
    seminorm: float           # max over top-order components of the pairwise seminorm
    witness: tuple            # pair of node coordinates attaining the seminorm
    total: float              # sum(sup_norms) + seminorm
    pairs_evaluated: int

    def to_json(self):
        return {
            "sup_norms": [float(v) for v in self.sup_norms],
            "seminorm": float(self.seminorm),
            "witness": [[float(c) for c in np.atleast_1d(p)] for p in self.witness],
            "total": float(self.total),
            "pairs_evaluated": int(self.pairs_evaluated),
        }

    @classmethod
    def from_json(cls, obj):
        return cls(sup_norms=tuple(obj["sup_norms"]), seminorm=obj["seminorm"],
                   witness=tuple(np.asarray(p) for p in obj["witness"]),
                   total=obj["total"], pairs_evaluated=obj["pairs_evaluated"])


def l2_norm(u):
    """Quadrature-weighted L2 norm of a volume or boundary field."""
    if isinstance(u, BoundaryFunction):
        return float(np.sqrt(np.dot(u.mesh.w_bnd, u.values**2)))
    return float(np.sqrt(np.dot(u.mesh.w_vol, u.interior**2)))


# ---------------------------------------------------------------------------
# pairwise maximum kernel

def _as_points(coords, n):
    """Coordinates as an (n, d) array; 1D inputs become a column."""
    pts = np.asarray(coords, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] != n:
        raise ConfigError(f"coordinates must have shape ({n}, d), got {pts.shape}")
    return pts


def _kd_order(coords, idx):
    """idx ordered into k-d boxes of TILE nodes.

    Each split cuts along the axis of larger extent (ties in that
    coordinate broken by the others) and puts TILE * ceil(nchunks / 2)
    nodes on the left, so every chunk but the last holds TILE nodes.
    """
    nchunks = -(-len(idx) // TILE)
    if nchunks <= 1:
        return idx
    P = coords[idx]
    axis = int(np.argmax(P.max(axis=0) - P.min(axis=0)))
    idx = idx[np.lexsort((*P.T, P[:, axis]))]
    left = TILE * -(-nchunks // 2)
    return np.concatenate([_kd_order(coords, idx[:left]), _kd_order(coords, idx[left:])])


def _tiles(coords, comps, period, alphas):
    """Node order, chunk slices and the tiles in scan order.

    Nodes are cut into chunks of TILE: k-d boxes for coordinates with
    more than one column, runs of the sorted order on a line or loop.
    A tile pairs two chunks.  Its dmin is a lower bound on the distance
    of any of its pairs: the gap between the chunks' bounding boxes, and
    on a loop also the gap around the seam, period minus the span of
    both chunks.  Tiles are scanned best first, by decreasing bound
    spread * dmin**-a (a the mean exponent; inf where dmin is 0).
    """
    n = coords.shape[0]
    if coords.shape[1] > 1:
        order = _kd_order(coords, np.arange(n))
    else:
        order = np.argsort(coords[:, 0], kind="stable")
    P = coords[order]
    V = np.ascontiguousarray(comps[:, order])
    cuts = list(range(0, n, TILE)) + [n]
    chunks = [slice(cuts[k], cuts[k + 1]) for k in range(len(cuts) - 1)]
    lo = np.array([P[c].min(axis=0) for c in chunks])
    hi = np.array([P[c].max(axis=0) for c in chunks])
    vlo = np.array([V[:, c].min(axis=1) for c in chunks]).T  # (m, nchunks)
    vhi = np.array([V[:, c].max(axis=1) for c in chunks]).T
    tp, tq = np.triu_indices(len(chunks))
    gap = np.maximum(0.0, np.maximum(lo[tq] - hi[tp], lo[tp] - hi[tq]))
    dmin = np.sqrt((gap**2).sum(axis=1))
    if period is not None:
        span = np.maximum(hi[tp, 0], hi[tq, 0]) - np.minimum(lo[tp, 0], lo[tq, 0])
        dmin = np.minimum(dmin, np.maximum(0.0, period - span))
    spread = np.maximum(vhi[:, tp], vhi[:, tq]) - np.minimum(vlo[:, tp], vlo[:, tq])
    top = spread.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = np.where(dmin > 0.0, top * dmin**-np.mean(alphas), np.inf)
    scan = np.lexsort((tq, tp, -top, -bound))
    tiles = [(int(tp[t]), int(tq[t]), float(dmin[t]), spread[:, t]) for t in scan]
    return order, P, V, chunks, tiles


def _view(buf, shape):
    """The leading part of a flat work array as a contiguous 2D array."""
    return buf[:shape[0] * shape[1]].reshape(shape)


def _tile_d2(P, cp, cq, diagonal, period, d2, tmp):
    """Squared pair distances of one tile, one axis at a time, into d2.

    Pairs that do not count -- the diagonal tile's lower triangle and
    coincident nodes -- get inf.  tmp is scratch of d2's shape.
    """
    np.subtract.outer(P[cp, 0], P[cq, 0], out=d2)
    if period is None:
        d2 *= d2
        for k in range(1, P.shape[1]):
            np.subtract.outer(P[cp, k], P[cq, k], out=tmp)
            tmp *= tmp
            d2 += tmp
    else:
        np.abs(d2, out=d2)
        np.subtract(period, d2, out=tmp)
        np.minimum(d2, tmp, out=d2)
        d2 *= d2
    if diagonal:
        d2[np.tri(d2.shape[0], dtype=bool)] = np.inf
    d2[d2 == 0.0] = np.inf
    return d2


def pairwise_holder_max(coords, comps, alphas, strategy="brute_force", period=None,
                        wanted=None):
    """Maximum Holder quotients for several components and exponents.

    coords: (n, d) node positions (with ``period`` set, coords[:, 0] is
    an arclength coordinate on a loop of that length).  comps: (m, n)
    sampled fields sharing those nodes.  wanted: optional (m, len(alphas))
    mask of the entries to compute; the others stay -inf.  Returns
    (best, witnesses, pairs_evaluated) where best has shape
    (m, len(alphas)) and witnesses holds the lexicographically smallest
    attaining node-index pair per entry, taken inside the sweep from
    each tile that reaches the running maximum.  Pruning skips tiles
    that can only tie the maximum, so its witness ties may resolve
    differently.
    """
    comps = np.atleast_2d(np.asarray(comps, dtype=float))
    coords = _as_points(coords, comps.shape[1])
    n = coords.shape[0]
    if n < 2:
        raise DegenerateInput("need at least two nodes for a pairwise seminorm")
    if np.all(coords.max(axis=0) == coords.min(axis=0)):
        raise DegenerateInput("all nodes coincide")
    alphas = tuple(float(a) for a in alphas)
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {a}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown pair strategy {strategy!r}")

    order, P, V, chunks, tiles = _tiles(coords, comps, period, alphas)
    m, na = comps.shape[0], len(alphas)
    wanted = np.ones((m, na), dtype=bool) if wanted is None else np.asarray(wanted, dtype=bool)
    gmax = 2.0 * np.abs(V).max(axis=1)            # per component
    best = np.full((m, na), -np.inf)
    witnesses = np.zeros((m, na, 2), dtype=int)
    pairs = 0
    # Tile-sized work arrays, reused across tiles: fresh arrays of this
    # size cost more in page faults than the arithmetic done in them.
    size = min(n, TILE) ** 2
    d2_buf, ld_buf, w_buf, quot_buf = (np.empty(size) for _ in range(4))
    dv_buf = [np.empty(size) for _ in range(m)]

    for p, q, dmin, spread in tiles:
        live = wanted.copy()
        if strategy == "pruned":
            num = np.minimum(gmax, spread)         # (m,)
            for ia, a in enumerate(alphas):
                if dmin > 0.0:
                    # the slack covers the rounding gap between pow here and
                    # exp(log) in the per-pair arithmetic below
                    bound = num * dmin**(-a) * (1.0 + 1e-9)
                else:
                    bound = np.where(num > 0.0, np.inf, 0.0)
                live[:, ia] &= bound > best[:, ia]
            if not live.any():
                continue
        cp, cq = chunks[p], chunks[q]
        shape = (cp.stop - cp.start, cq.stop - cq.start)
        d2 = _tile_d2(P, cp, cq, p == q, period, _view(d2_buf, shape), _view(ld_buf, shape))
        mask = ~np.isfinite(d2)
        if not mask.any():
            mask = None
        ld = np.log(d2, out=_view(ld_buf, shape))
        if p == q:
            pairs += shape[0] * (shape[0] - 1) // 2
        else:
            pairs += shape[0] * shape[1]
        have_dv = set()
        for ia, a in enumerate(alphas):
            rows = np.flatnonzero(live[:, ia])
            if rows.size == 0:
                continue
            w = np.multiply(ld, -0.5 * a, out=_view(w_buf, shape))
            np.exp(w, out=w)
            for ic in rows:
                dv = _view(dv_buf[ic], shape)
                if ic not in have_dv:
                    np.subtract.outer(V[ic, cp], V[ic, cq], out=dv)
                    np.abs(dv, out=dv)
                    have_dv.add(ic)
                quot = np.multiply(dv, w, out=_view(quot_buf, shape))
                if mask is not None:
                    quot[mask] = -1.0
                tile_max = float(quot.max())
                if tile_max < best[ic, ia]:
                    continue
                ii, jj = np.nonzero(quot == tile_max)
                oi, oj = order[cp.start + ii], order[cq.start + jj]
                first, second = np.minimum(oi, oj), np.maximum(oi, oj)
                k = np.lexsort((second, first))[0]
                pair = (int(first[k]), int(second[k]))
                if tile_max > best[ic, ia] or pair < tuple(witnesses[ic, ia]):
                    best[ic, ia] = tile_max
                    witnesses[ic, ia] = pair
    return best, witnesses, pairs


# ---------------------------------------------------------------------------
# public norm operations

def _field_samples(values, coords, period):
    """Normalize op input to (values, coords, period)."""
    if isinstance(values, GridFunction):
        return values.all_values(), values.all_xy(), None
    if isinstance(values, BoundaryFunction):
        mesh = values.mesh
        if mesh.dim == 2:
            return values.values, mesh.arc[:, None], mesh.boundary_measure
        return values.values, mesh.boundary_xy, None
    if coords is None:
        raise ConfigError("raw sample arrays need explicit coordinates")
    return np.asarray(values, dtype=float), np.asarray(coords, dtype=float), period


def holder_seminorm(values, params, coords=None, period=None):
    """Exact pairwise Holder seminorm of sampled values.

    ``values`` may be a GridFunction (Euclidean node distances), a
    BoundaryFunction (arclength distances along the loop), or a raw
    array with explicit ``coords``.  Returns (seminorm, witness) with
    the witness as a pair of node coordinates.
    """
    vals, xy, per = _field_samples(values, coords, period)
    vals = np.asarray(vals, dtype=float)
    xy = _as_points(xy, vals.shape[0])
    best, wit, _ = pairwise_holder_max(xy, vals[None, :], (params.alpha,),
                                       strategy=params.pair_strategy, period=per)
    i, j = wit[0, 0]
    return float(best[0, 0]), (xy[i].copy(), xy[j].copy())


def _derivative_stack(u, k):
    """Component fields of each derivative order 0..k."""
    if isinstance(u, GridFunction):
        stack = [[u]]
        current = [u]
        for _ in range(k):
            current = [c for comp in current for c in gradient(comp)]
            stack.append(current)
        return stack
    # boundary field: derivatives along the boundary
    mesh = u.mesh
    stack = [[u]]
    if mesh.dim == 1:
        # a two-point boundary has no tangential direction; higher
        # derivative orders contribute nothing
        zero = BoundaryFunction.zeros(mesh)
        for _ in range(k):
            stack.append([zero])
        return stack
    edge = mesh.w_bnd / mesh.h_theta      # dl/dtheta at the nodes
    current = u
    for _ in range(k):
        dv = (np.roll(current.values, -1) - np.roll(current.values, 1)) / (2 * mesh.h_theta)
        current = BoundaryFunction(mesh, dv / edge)
        stack.append([current])
    return stack


def _comp_values(comp):
    if isinstance(comp, GridFunction):
        return comp.all_values()
    return comp.values


def holder_reports(items, pair_strategy="pruned"):
    """HolderReports of several fields with one pairwise sweep per node set.

    items: sequence of (field, k, alphas).  The top-order components of
    all items whose fields live on the same node set -- a mesh's volume
    nodes, or its boundary loop -- are stacked into one
    pairwise_holder_max call, which also shares the distance work across
    exponents.  Each item's reports come from its own rows, so they
    equal what a call for that item alone gives.  Returns one
    {alpha: HolderReport} dict per item.
    """
    prepared, groups = [], {}
    for u, k, alphas in items:
        if k not in (0, 1, 2):
            raise ConfigError(f"derivative order must be 0, 1 or 2, got {k}")
        stack = _derivative_stack(u, k)
        sup_norms = tuple(
            float(max(np.abs(_comp_values(c)).max() for c in comps)) for comps in stack)
        top = np.vstack([_comp_values(c) for c in stack[k]])
        key = (id(u.mesh), isinstance(u, BoundaryFunction))
        groups.setdefault(key, []).append(len(prepared))
        prepared.append((u, sup_norms, top, tuple(float(a) for a in alphas)))

    out = [None] * len(prepared)
    for members in groups.values():
        group = [prepared[i] for i in members]
        _, xy, per = _field_samples(group[0][0], None, None)
        alphas = tuple(dict.fromkeys(a for *_, item_alphas in group for a in item_alphas))
        vals = np.vstack([top for _, _, top, _ in group])
        wanted = np.vstack([np.tile(np.isin(alphas, item_alphas), (len(top), 1))
                            for _, _, top, item_alphas in group])
        best, wit, pairs = pairwise_holder_max(xy, vals, alphas, strategy=pair_strategy,
                                               period=per, wanted=wanted)
        start = 0
        for i, (_, sup_norms, top, item_alphas) in zip(members, group):
            rows = slice(start, start + len(top))
            start = rows.stop
            reports = {}
            for a in item_alphas:
                ia = alphas.index(a)
                ic = rows.start + int(np.argmax(best[rows, ia]))
                p, q = wit[ic, ia]
                seminorm = float(best[ic, ia])
                reports[a] = HolderReport(
                    sup_norms=sup_norms,
                    seminorm=seminorm,
                    witness=(np.atleast_1d(xy[p]).copy(), np.atleast_1d(xy[q]).copy()),
                    total=float(sum(sup_norms) + seminorm),
                    pairs_evaluated=int(pairs) * len(top),
                )
            out[i] = reports
    return out


def holder_report_bundle(u, k, alphas, pair_strategy="pruned"):
    """HolderReports of one field for several exponents in a single pass."""
    return holder_reports([(u, k, alphas)], pair_strategy)[0]


def c_k_alpha_norm(u, k, alpha, pair_strategy="pruned"):
    """Discrete Holder norm report of order k in C^{k,alpha}.

    The total is sum over orders j <= k of the order-j sup norm (max
    over derivative components) plus the top-order pairwise seminorm
    (max over components).  Boundary fields are differentiated along
    arclength and measured in arclength distance.
    """
    return holder_report_bundle(u, k, (alpha,), pair_strategy)[alpha]
