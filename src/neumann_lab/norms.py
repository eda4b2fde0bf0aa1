"""Discrete L2, sup and Holder-scale norms.

The Holder seminorm of a sampled field is the exact maximum of
|v(x) - v(y)| / |x - y|^alpha over all unordered node pairs.  One sweep
computes it for every component and exponent stacked into a call.  The
nodes are cut into chunks of TILE, and each chunk into leaves of LEAF --
nested k-d boxes in the plane, runs of the sorted order on a line or
loop.  The k-d boxes are split level by level: every node's rank along
each axis is sorted once, and one sort of distinct (box, rank) keys per
level cuts all boxes of that level together.  A tile is a pair of
chunks, a leaf pair a pair of distinct leaves.  Every pair is evaluated
with the same arithmetic: squared distances axis by axis, the log once,
the distance weight once per exponent, and the value differences once
per component.  The sweep first evaluates the pairs inside each leaf,
unconditionally, in one pass over the upper triangles of a batch of
leaves ((LEAF (LEAF - 1) / 2, batch) arrays); the base case of a
dual-tree walk (Curtin et al., ICML 2013).  It then evaluates leaf
pairs in batches, in (LEAF, LEAF, batch) arrays.  Two strategies choose
the leaf pairs:

* ``brute_force`` evaluates every leaf pair;
* ``pruned`` runs a two-level best-first branch and bound, starting
  from the running maxima of the leaves' own pairs.  Every tile
  gets an upper bound on its quotients per (component, exponent) entry:
  the value spread of both chunks times dmin^-a, where dmin is a lower
  bound on the distance of its pairs.  Tiles are walked best first, in
  batches; a tile whose bound cannot beat the running maximum of any
  wanted entry is dropped, and the survivors are split into their leaf
  pairs, which are bounded the same way, sorted best first and
  evaluated in batches, each re-checked against the running maxima
  just before it runs.  Small leaves keep spreads small on smooth
  fields, and the best-first order finds the maxima early, so most
  pairs are never evaluated.

Both strategies apply identical per-pair arithmetic, so the returned
maxima agree bitwise.  A batch that reaches the running maximum yields
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

TILE = 128        # nodes per chunk; a tile is a pair of chunks
LEAF = 16         # nodes per leaf; a chunk holds TILE // LEAF leaves
TILE_BATCH = 16   # tiles bounded, expanded and sorted together
BATCH = 128       # leaf pairs evaluated together in (LEAF, LEAF, BATCH) arrays

STRATEGIES = ("brute_force", "pruned")


@dataclass(frozen=True)
class HolderParams:
    """Exponent and pair strategy of a Holder seminorm."""

    alpha: float
    pair_strategy: str = "brute_force"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
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


def _kd_split(pts, rank, order, starts, size):
    """order with each run order[starts[i]:starts[i + 1]] cut into k-d boxes of size.

    Level by level, every box of more than size nodes is sorted by
    rank along its axis of larger extent (the first such axis on a tie)
    and cut so that size * ceil(nboxes / 2) nodes go left, which leaves
    every box but the last of each run full.  One sort of the keys
    box * n + rank reorders all boxes of a level; a box that is not
    split keys on its current position instead, so it keeps its order.
    The keys are distinct, so an unstable sort gives the stable order.
    pts: the (d, n) coordinates, one contiguous row per axis.
    """
    n = len(order)
    position = np.arange(n)
    while True:
        counts = np.diff(starts, append=n)
        nboxes = -(-counts // size)
        split = nboxes > 1
        if not split.any():
            return order
        extent = np.empty((len(pts), len(starts)))
        for a, x in enumerate(pts):
            x = x[order]
            extent[a] = np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
        box = np.repeat(np.arange(len(starts)), counts)
        axis = np.argmax(extent, axis=0)[box]
        # rank[axis, order], gathered from the flat array
        key = box * n + np.where(split[box], rank.take(axis * n + order), position)
        order = order[np.argsort(key)]
        starts = np.sort(np.concatenate([starts, starts[split] + size * -(-nboxes[split] // 2)]))


def _layout(coords):
    """Node order: chunks of TILE nodes, each cut into leaves of LEAF.

    In the plane both levels are k-d boxes (Bentley 1975), the leaves
    splitting their chunk; on a line or loop both are runs of the sorted
    order.  Every chunk and leaf but the last is full.  rank[a, i] is
    node i's place in the order by coordinate a, ties broken by the last
    coordinate down to the first and then by node index.  It is computed
    once; sorting a box by it sorts the box's coordinates with the same
    tie rule, so the splits, made level by level (``_kd_split``), equal
    those of a per-box recursion.
    """
    n, d = coords.shape
    if d == 1:
        return np.argsort(coords[:, 0], kind="stable")
    pts = np.ascontiguousarray(coords.T)
    rank = np.empty((d, n), dtype=np.int64)
    for a in range(d):
        # primary coordinate a, then the others last first, then node index
        rank[a, np.lexsort((*np.delete(pts, a, axis=0), pts[a]))] = np.arange(n)
    order = _kd_split(pts, rank, np.arange(n), np.zeros(1, dtype=np.int64), TILE)
    return _kd_split(pts, rank, order, np.arange(0, n, TILE), LEAF)


# leaf offsets, within their chunks, of the leaf pairs of two chunks and
# of one chunk with itself (each unordered pair of distinct leaves once);
# node slots, within their leaves, of the pairs of two leaves and of the
# pairs inside one leaf
_PER = TILE // LEAF
_CROSS = np.divmod(np.arange(_PER * _PER), _PER)
_DIAGONAL = np.triu_indices(_PER, 1)
_SLOTS = np.arange(LEAF)
_SQUARE = np.divmod(np.arange(LEAF * LEAF), LEAF)
_UPPER = np.triu_indices(LEAF, 1)


def _box_bounds(lo, hi, vlo, vhi, p, q, alphas, period):
    """Upper bounds on the quotients of the box pairs (p[i], q[i]).

    lo, hi: (boxes, d) coordinate boxes; vlo, vhi: (boxes, m) value
    ranges.  dmin, the gap between the boxes (on a loop also the gap
    around the seam, period minus the span of both), is a lower bound on
    every pair distance, and the value spread of both boxes an upper
    bound on every |v(x) - v(y)|; it never exceeds 2 max|v|.  Returns
    the (len(p), m, len(alphas)) bounds spread * dmin**-a, with a slack
    for the rounding gap between pow here and exp(log) in the per-pair
    arithmetic, and a key that ranks the pairs best first: the largest
    spread times dmin**-a for the mean exponent, inf where dmin is 0.
    """
    gap = np.maximum(0.0, np.maximum(lo[q] - hi[p], lo[p] - hi[q]))
    dmin = np.sqrt((gap**2).sum(axis=1))
    if period is not None:
        span = np.maximum(hi[p, 0], hi[q, 0]) - np.minimum(lo[p, 0], lo[q, 0])
        dmin = np.minimum(dmin, np.maximum(0.0, period - span))
    spread = np.maximum(vhi[p], vhi[q]) - np.minimum(vlo[p], vlo[q])
    near = dmin == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = spread[:, :, None] * (dmin[:, None] ** -alphas)[:, None, :] * (1.0 + 1e-9)
        key = np.where(near, np.inf, spread.max(axis=1) * dmin ** -alphas.mean())
    bound[near] = np.where(spread[near, :, None] > 0.0, np.inf, 0.0)
    return bound, key


class _Sweep:
    """One call's nodes in leaf layout, its running maxima and work arrays."""

    def __init__(self, coords, comps, alphas, period, wanted, order):
        n, self.dim = coords.shape
        order = _layout(coords) if order is None else order
        self.nleaf = -(-n // LEAF)
        # node k of leaf l is padded[l * LEAF + k].  The last leaf is padded
        # with copies of the last node: a pair with a copy either repeats a
        # real pair or has distance 0, which does not count.
        self.padded = np.concatenate([order, np.full(self.nleaf * LEAF - n, order[-1])])
        self.size = np.full(self.nleaf, LEAF)
        self.size[-1] = n - (self.nleaf - 1) * LEAF
        # the coordinates by axis, then the values by component, in leaf
        # order: a batch gathers what it needs of each row from here.  take
        # keeps every row contiguous, as [:, index] would not.
        self.cols = np.vstack([coords.T, comps]).take(self.padded, axis=1)
        ext = self.cols.reshape(len(self.cols), self.nleaf, LEAF)
        low, high = ext.min(axis=2).T, ext.max(axis=2).T
        self.lo, self.hi = low[:, :self.dim], high[:, :self.dim]
        self.vlo, self.vhi = low[:, self.dim:], high[:, self.dim:]
        self.alphas, self.period, self.wanted = alphas, period, wanted
        self.best = np.full(wanted.shape, -np.inf)
        self.witnesses = np.zeros(wanted.shape + (2,), dtype=int)
        self.pairs = 0
        # work arrays for BATCH leaf pairs (or the upper triangles of BATCH
        # leaves), reused across batches: fresh arrays of this size cost
        # more in page faults than the arithmetic; one distance weight per
        # exponent, one value difference at a time
        size = LEAF * LEAF * min(BATCH, self.nleaf * (self.nleaf + 1) // 2)
        self.work = [np.empty(size) for _ in range(3 + len(alphas))]

    def batches(self, count, size, bound=None):
        """Batches of up to size of count pairs, in order, with their entries.

        Yields (indices, live) with live the (m, len(alphas)) entries to
        compute.  Given the pairs' (count, m, len(alphas)) upper bounds,
        a pair is dropped once no wanted entry's bound exceeds its running
        maximum, checked just before each batch is taken.
        """
        pending = np.arange(count)
        live = self.wanted
        while len(pending):
            if bound is not None:
                alive = self.wanted & (bound[pending] > self.best)
                keep = alive.any(axis=(1, 2))
                pending = pending[keep]
                if not len(pending):
                    return
                live = alive[keep][:size].any(axis=0)
            yield pending[:size], live
            pending = pending[size:]

    def evaluate(self, a, b, live):
        """Exact quotients of the pairs of distinct leaves (a[i], b[i]).

        The (LEAF, LEAF, s) node pairs are broadcast from each side's
        (LEAF, s) rows, the leaf pair innermost, so that every operation
        runs along rows of s.
        """
        A = self.cols.take(a * LEAF + _SLOTS[:, None], axis=1)[:, :, None]
        B = self.cols.take(b * LEAF + _SLOTS[:, None], axis=1)[:, None, :]
        self.pairs += int((self.size[a] * self.size[b]).sum())
        self._fold(lambda k, x, y: (A[k], B[k]), (LEAF, LEAF, len(a)), _SQUARE, a, b, live)

    def evaluate_leaves(self, leaves, live):
        """Exact quotients of the node pairs inside each of the leaves.

        The (len(_UPPER[0]), s) pairs of the upper triangles are gathered
        one row at a time into the work arrays.
        """
        i, j = (leaves * LEAF + slots[:, None] for slots in _UPPER)
        size = self.size[leaves]
        self.pairs += int((size * (size - 1) // 2).sum())
        # i and j are in range; mode="clip" lets take write into out unbuffered
        self._fold(lambda k, x, y: (self.cols[k].take(i, out=x, mode="clip"),
                                    self.cols[k].take(j, out=y, mode="clip")),
                   i.shape, _UPPER, leaves, leaves, live)

    def _fold(self, sides, shape, slots, a, b, live):
        """Fold a batch's quotients for the live entries into the running maxima.

        sides(k, x, y) gives row k (an axis, then a component) of the
        pairs' two ends, broadcastable to shape, and may use the work
        arrays x and y for them; pair slot p of leaf pair i joins node
        slots[0][p] of leaf a[i] to node slots[1][p] of leaf b[i].  Each
        entry's maximum over the batch updates its running maximum; a
        batch that reaches the running maximum yields its
        lexicographically smallest attaining node pair as the witness.
        """
        s, size = shape[-1], int(np.prod(shape))
        d2, tmp, dv, *w = (buf[:size].reshape(shape) for buf in self.work)
        np.subtract(*sides(0, tmp, dv), out=d2)
        if self.period is None:
            d2 *= d2
            for k in range(1, self.dim):
                np.subtract(*sides(k, tmp, dv), out=tmp)
                tmp *= tmp
                d2 += tmp
        else:
            np.abs(d2, out=d2)
            np.subtract(self.period, d2, out=tmp)
            np.minimum(d2, tmp, out=d2)
            d2 *= d2
        # pairs of coincident nodes, a padding copy and its original among
        # them, do not count: they get distance inf (weight 0) and quotient -1
        mask = d2 == 0.0
        if mask.any():
            d2[mask] = np.inf
        else:
            mask = None
        ld = np.log(d2, out=d2)
        for ia in np.flatnonzero(live.any(axis=0)):
            np.multiply(ld, -0.5 * self.alphas[ia], out=w[ia])
            np.exp(w[ia], out=w[ia])
        for ic in np.flatnonzero(live.any(axis=1)):
            np.subtract(*sides(self.dim + ic, tmp, dv), out=dv)
            np.abs(dv, out=dv)
            for ia in np.flatnonzero(live[ic]):
                quot = np.multiply(dv, w[ia], out=tmp)
                if mask is not None:
                    quot[mask] = -1.0
                top = float(quot.max())
                if top < self.best[ic, ia]:
                    continue
                quot = quot.reshape(-1, s)
                rows = np.flatnonzero(quot.max(axis=0) == top)
                pp, kk = np.nonzero(quot[:, rows] == top)
                oi = self.padded[a[rows[kk]] * LEAF + slots[0][pp]]
                oj = self.padded[b[rows[kk]] * LEAF + slots[1][pp]]
                first, second = np.minimum(oi, oj), np.maximum(oi, oj)
                k = np.lexsort((second, first))[0]
                pair = (int(first[k]), int(second[k]))
                if top > self.best[ic, ia] or pair < tuple(self.witnesses[ic, ia]):
                    self.best[ic, ia] = top
                    self.witnesses[ic, ia] = pair


def pairwise_holder_max(coords, comps, alphas, strategy="brute_force", period=None,
                        wanted=None, order=None):
    """Maximum Holder quotients for several components and exponents.

    coords: (n, d) node positions (with ``period`` set, coords[:, 0] is
    an arclength coordinate on a loop of that length).  comps: (m, n)
    sampled fields sharing those nodes.  wanted: optional (m, len(alphas))
    mask of the entries to compute; the others stay -inf.  order: the
    ``_layout(coords)`` a mesh keeps, computed here when unset.  Returns
    (best, witnesses, pairs_evaluated) where best has shape
    (m, len(alphas)) and witnesses holds the lexicographically smallest
    attaining node-index pair per entry, taken inside the sweep from
    each batch that reaches the running maximum.  Pruning skips leaf
    pairs that can only tie the maximum, so its witness ties may resolve
    differently.
    """
    comps = np.atleast_2d(np.asarray(comps, dtype=float))
    coords = _as_points(coords, comps.shape[1])
    n = coords.shape[0]
    if n < 2:
        raise DegenerateInput("need at least two nodes for a pairwise seminorm")
    if np.all(coords.max(axis=0) == coords.min(axis=0)):
        raise DegenerateInput("all nodes coincide")
    alphas = np.array([float(a) for a in alphas])
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {a}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown pair strategy {strategy!r}")
    wanted = (np.ones((comps.shape[0], len(alphas)), dtype=bool) if wanted is None
              else np.asarray(wanted, dtype=bool))
    sweep = _Sweep(coords, comps, alphas, period, wanted, order)
    pruned = strategy == "pruned"
    # every leaf's own pairs first, unbounded, so that the branch and
    # bound starts from a running maximum
    for leaves, live in sweep.batches(sweep.nleaf, BATCH):
        sweep.evaluate_leaves(leaves, live)

    # tiles are the pairs of chunks, whose boxes join their leaves' boxes
    starts = np.arange(0, sweep.nleaf, _PER)
    tp, tq = np.triu_indices(len(starts))
    tbound = None
    if pruned:
        tbound, key = _box_bounds(
            np.minimum.reduceat(sweep.lo, starts), np.maximum.reduceat(sweep.hi, starts),
            np.minimum.reduceat(sweep.vlo, starts), np.maximum.reduceat(sweep.vhi, starts),
            tp, tq, alphas, period)
        scan = np.lexsort((tq, tp, -key))
        tp, tq, tbound = tp[scan], tq[scan], tbound[scan]
    for tiles, _ in sweep.batches(len(tp), TILE_BATCH, tbound):
        p, q = tp[tiles], tq[tiles]
        cross = p != q
        la = np.concatenate([(p[cross, None] * _PER + _CROSS[0]).ravel(),
                             (p[~cross, None] * _PER + _DIAGONAL[0]).ravel()])
        lb = np.concatenate([(q[cross, None] * _PER + _CROSS[1]).ravel(),
                             (q[~cross, None] * _PER + _DIAGONAL[1]).ravel()])
        inside = lb < sweep.nleaf      # the last chunk may hold fewer leaves
        la, lb, bound = la[inside], lb[inside], None
        if pruned:
            bound, key = _box_bounds(sweep.lo, sweep.hi, sweep.vlo, sweep.vhi, la, lb,
                                     alphas, period)
            scan = np.lexsort((lb, la, -key))
            la, lb, bound = la[scan], lb[scan], bound[scan]
        for leaves, live in sweep.batches(len(la), BATCH, bound):
            sweep.evaluate(la[leaves], lb[leaves], live)
    return sweep.best, sweep.witnesses, sweep.pairs


# ---------------------------------------------------------------------------
# public norm operations

def holder_seminorm(values, params, coords=None, period=None):
    """Exact pairwise Holder seminorm of sampled values.

    ``values`` may be a GridFunction (Euclidean node distances) or a
    BoundaryFunction (arclength distances along the loop), measured as
    ``c_k_alpha_norm(values, 0, alpha)`` measures them, or a raw array
    with explicit ``coords`` (and ``period`` on a loop).  Returns
    (seminorm, witness) with the witness as a pair of node coordinates.
    """
    if isinstance(values, (GridFunction, BoundaryFunction)):
        [reports] = holder_reports([(values, 0, (params.alpha,))], params.pair_strategy)
        rep = reports[float(params.alpha)]
        return rep.seminorm, rep.witness
    if coords is None:
        raise ConfigError("raw sample arrays need explicit coordinates")
    vals = np.asarray(values, dtype=float)
    xy = _as_points(coords, vals.shape[0])
    best, wit, _ = pairwise_holder_max(xy, vals[None, :], (params.alpha,),
                                       strategy=params.pair_strategy, period=period)
    i, j = wit[0, 0]
    return float(best[0, 0]), (xy[i].copy(), xy[j].copy())


def _node_set(u):
    """(coords, period) of the nodes a field lives on: a mesh's volume
    nodes, or its boundary loop by arclength (an interval's endpoints)."""
    if isinstance(u, GridFunction):
        return u.all_xy(), None
    mesh = u.mesh
    if mesh.dim == 2:
        return mesh.arc[:, None], mesh.boundary_measure
    return mesh.boundary_xy, None


def _derivative_stack(u, k):
    """Node values of the component fields of each derivative order 0..k."""
    if isinstance(u, GridFunction):
        stack = [[u]]
        for _ in range(k):
            stack.append([c for comp in stack[-1] for c in gradient(comp)])
        return [[c.all_values() for c in comps] for comps in stack]
    # boundary field: derivatives along the boundary
    mesh = u.mesh
    if mesh.dim == 1:
        # a two-point boundary has no tangential direction; higher
        # derivative orders contribute nothing
        return [[u.values]] + [[np.zeros(mesh.n_boundary)]] * k
    edge = mesh.w_bnd / mesh.h_theta      # dl/dtheta at the nodes
    stack = [[u.values]]
    for _ in range(k):
        [v] = stack[-1]
        dv = (np.roll(v, -1) - np.roll(v, 1)) / (2 * mesh.h_theta)
        stack.append([BoundaryFunction(mesh, dv / edge).values])   # checked finite
    return stack


def holder_reports(items, pair_strategy="pruned"):
    """HolderReports of several fields with one pairwise sweep per node set.

    items: sequence of (field, k, alphas).  The top-order components of
    all items whose fields live on the same node set -- a mesh's volume
    nodes, or its boundary loop -- are stacked into one
    pairwise_holder_max call, which also shares the distance work across
    exponents, and whose leaf layout the mesh builds once.  Each item's
    reports come from its own rows, so they equal what a call for that
    item alone gives.  Returns one {alpha: HolderReport} dict per item.
    """
    prepared, groups = [], {}
    for u, k, alphas in items:
        if k not in (0, 1, 2):
            raise ConfigError(f"derivative order must be 0, 1 or 2, got {k}")
        stack = _derivative_stack(u, k)
        sup_norms = tuple(float(max(np.abs(c).max() for c in comps)) for comps in stack)
        top = np.vstack(stack[k])
        key = (id(u.mesh), isinstance(u, BoundaryFunction))
        groups.setdefault(key, []).append(len(prepared))
        prepared.append((u, sup_norms, top, tuple(float(a) for a in alphas)))

    out = [None] * len(prepared)
    for (_, boundary), members in groups.items():
        group = [prepared[i] for i in members]
        xy, per = _node_set(group[0][0])
        alphas = tuple(dict.fromkeys(a for *_, item_alphas in group for a in item_alphas))
        vals = np.vstack([top for _, _, top, _ in group])
        wanted = np.vstack([np.tile(np.isin(alphas, item_alphas), (len(top), 1))
                            for _, _, top, item_alphas in group])
        order = group[0][0].mesh.cached(("holder_layout", boundary), lambda: _layout(xy))
        best, wit, pairs = pairwise_holder_max(xy, vals, alphas, strategy=pair_strategy,
                                               period=per, wanted=wanted, order=order)
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
