"""Discrete L2, sup and Holder-scale norms.

The Holder seminorm of a sampled field is the exact maximum of
|v(x) - v(y)| / |x - y|^alpha over all unordered node pairs.  One sweep
computes it for every group of components and every exponent stacked
into a call; a group's quotient is the largest of its rows', so one
running maximum serves each (group, exponent) entry.  The nodes are cut
into chunks of TILE, and each chunk into leaves of LEAF -- nested k-d
boxes in the plane, runs of the sorted order on a line or loop.  The
k-d boxes are split level by level: every node's rank along each axis
is sorted once, and one sort of distinct (box, rank) keys per level cuts
all boxes of that level together.  A tile is a pair of chunks, a leaf
pair a pair of distinct leaves.  Every pair is evaluated with the same
arithmetic: squared distances axis by axis, the log once, the distance
weight once per exponent, a group's value difference as the largest
|difference| of its rows, and one product per exponent.  Rounding is
monotone, so max_r fl(|dv_r| w) = fl(max_r |dv_r| w): a group's maximum
equals the largest of its rows' maxima bitwise.  The sweep first
evaluates the pairs inside each leaf, unconditionally, in a plain loop
over batches of leaves ((LEAF (LEAF - 1) / 2, batch) arrays), then leaf
pairs in batches, in (LEAF, LEAF, batch) arrays.  Two strategies choose
the leaf pairs:

* ``brute_force`` evaluates every leaf pair, in plain loops over batches
  of tiles and of their leaf pairs, with no bound or queue;
* ``pruned`` runs a best-first branch and bound, starting from the
  running maxima of the leaves' own pairs.  Every tile, and then every
  leaf pair of a tile that survives, gets an upper bound per entry, the
  smaller of two:

  - the spread bound: the value spread of both boxes times dmin^-a,
    where dmin is a lower bound on the distance of their pairs;
  - in the plane, for the pairs the spread bound keeps, the first-order
    bound of dual-tree methods (Lee, Gray & Moore, NIPS 2005): each box
    gets an affine model c + g . (x - centre) of each row, fitted by
    least squares, with eps the largest |residual| at its own nodes, so
    the bound holds at the only points that count.  Two boxes differ by
    at most N + |gbar| |x - y|, gbar the mean slope and N the rest (the
    models' offset, slope mismatch and residuals), plus a rounding
    allowance of 2^-40 times |c|, |gbar| |centre_a - centre_b| and
    max|v|.

  Both bounds carry a relative slack for pow against exp(log).  One
  drain walks both levels, a dual-tree traversal (Curtin et al., ICML
  2013): it takes a queue of box pairs best first, ranked by the largest
  ratio of a bound to its running maximum, in batches, and just before
  each batch drops every pair whose bound cannot beat the running
  maximum of any entry.  Tiles drain in batches; each batch's leaf pairs
  are bounded, merged into one carried queue and drained in full
  batches, and a last drain empties it.  On smooth fields the affine
  models leave only the pairs near the maximising configuration.

Both strategies apply identical per-pair arithmetic, and a pair is
dropped only when it cannot exceed a running maximum, so the returned
maxima agree bitwise.  A batch that reaches the running maximum yields
its lexicographically smallest attaining pair as the witness, inside
the sweep; only witness tie-breaking may differ between strategies.
Volume fields use Euclidean distance between nodes; boundary fields use
arclength along the boundary loop, with distances and spread bounds
taken the short way round (loops use the spread bound alone).
``holder_reports`` stacks all fields on one node set into a single
sweep, one group per item.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInput
from .field import BoundaryFunction, GridFunction, gradient

TILE = 128        # nodes per chunk; a tile is a pair of chunks
LEAF = 16         # nodes per leaf; a chunk holds TILE // LEAF leaves
TILE_BATCH = 32   # tiles bounded, expanded and sorted together
BATCH = 128       # leaf pairs evaluated together in (LEAF, LEAF, BATCH) arrays
SLACK = 1.0 + 1e-9     # relative slack of every bound, for pow here against exp(log)
ROUNDING = 2.0**-40    # the affine bound's rounding allowance per unit of magnitude

STRATEGIES = ("brute_force", "pruned")


@dataclass
class HolderReport:
    """Norm breakdown: per-order sup norms, top-order seminorm, witness."""

    sup_norms: tuple          # orders 0..k, each the max over derivative components
    seminorm: float           # max over top-order components of the pairwise seminorm
    witness: tuple            # coordinates of the smallest attaining node pair over them
    total: float              # sum(sup_norms) + seminorm


def l2_norm(u):
    """Quadrature-weighted L2 norm of a volume field."""
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
        # primary coordinate a, then the others last first, then node index;
        # in the plane a stable sort of the complex keys x + iy and y + ix
        # (real part first, then imaginary part) gives that order for finite
        # coordinates, in less than half the time of lexsort
        if d == 2:
            order = np.argsort(pts[a] + 1j * pts[1 - a], kind="stable")
        else:
            order = np.lexsort((*np.delete(pts, a, axis=0), pts[a]))
        rank[a, order] = np.arange(n)
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


def _box_bounds(lo, hi, vlo, vhi, p, q, alphas, period, rows):
    """Upper bounds on the quotients of the box pairs (p[i], q[i]).

    lo, hi: (boxes, d) coordinate boxes; vlo, vhi: (boxes, m) value
    ranges, read by component row.  dmin, the gap between the boxes (on
    a loop also the gap around the seam, period minus the span of both),
    is a lower bound on every pair distance, and the value spread of
    both boxes an upper bound on every |v(x) - v(y)|; it never exceeds 2
    max|v|.  rows: the first row of each group of components, whose
    spread is the largest of its rows'.  Returns the bounds spread *
    dmin**-a times SLACK, a (len(p), groups, len(alphas)) view of
    pair-last memory, and dmin.
    """
    lo, hi, vlo, vhi = lo.T, hi.T, vlo.T, vhi.T
    d2 = 0.0
    for k in range(len(lo)):
        gap = np.maximum(lo[k].take(q) - hi[k].take(p), lo[k].take(p) - hi[k].take(q))
        d2 = d2 + np.maximum(gap, 0.0) ** 2
    dmin = np.sqrt(d2)
    if period is not None:
        span = (np.maximum(hi[0].take(p), hi[0].take(q))
                - np.minimum(lo[0].take(p), lo[0].take(q)))
        dmin = np.minimum(dmin, np.maximum(0.0, period - span))
    spread = (np.maximum(vhi.take(p, axis=1), vhi.take(q, axis=1))
              - np.minimum(vlo.take(p, axis=1), vlo.take(q, axis=1)))
    spread = np.maximum.reduceat(spread, rows, axis=0)
    near = dmin == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = spread[:, None, :] * (dmin ** -alphas[:, None] * SLACK)
    bound[:, :, near] = np.where(spread[:, None, near] > 0.0, np.inf, 0.0)
    return bound.transpose(2, 0, 1), dmin


def _affine_models(cols, dim, index):
    """Affine models c + g . (x - z) of every value row on runs of nodes.

    cols: the coordinate rows, then the value rows; index: (size, runs)
    columns of each run's nodes.  z is a run's centroid and r its largest
    distance from it.  The slope is a least-squares fit on the centred
    nodes, with a ridge of ROUNDING times the trace so that collinear and
    coincident nodes still give one; any slope is sound, since resid is
    the largest |residual| at the run's own nodes.  mag, |c| + |g| r +
    max|v|, scales the rounding allowance.  Returns (z, r, g, c, resid,
    mag), shaped (d, runs), (runs,), (d, m, runs) and (m, runs) thrice.
    """
    x = cols[:dim].take(index, axis=1)                    # (d, size, runs)
    centre = x.mean(axis=1)
    x -= centre[:, None, :]
    radius = np.sqrt(np.einsum("aij,aij->ij", x, x)).max(axis=0)
    gram = np.empty((x.shape[2], dim, dim))
    for a in range(dim):
        for b in range(a + 1):
            gram[:, a, b] = gram[:, b, a] = np.einsum("ij,ij->j", x[a], x[b])
    trace = np.trace(gram, axis1=1, axis2=2)
    gram += np.where(trace > 0.0, ROUNDING * trace, 1.0)[:, None, None] * np.eye(dim)
    inverse = np.linalg.inv(gram)
    m = len(cols) - dim
    slope = np.empty((dim, m, len(radius)))
    const, resid, vmax = (np.empty((m, len(radius))) for _ in range(3))
    for r in range(m):
        v = cols[dim + r].take(index)                     # (size, runs)
        vmax[r] = np.maximum(-v.min(axis=0), v.max(axis=0))
        const[r] = v.mean(axis=0)
        v -= const[r]
        slope[:, r] = np.einsum("rab,br->ar", inverse, np.einsum("aij,ij->aj", x, v))
        for a in range(dim):
            v -= slope[a, r] * x[a]
        resid[r] = np.abs(v).max(axis=0)
    mag = np.abs(const) + np.sqrt((slope * slope).sum(axis=0)) * radius + vmax
    return centre, radius, slope, const, resid, mag


def _affine_bounds(models, lo, hi, p, q, dmin, alphas, rows):
    """First-order upper bounds on the quotients of the run pairs (p[i], q[i]).

    With each run's model v = c + g . (x - z) + e, |e| <= resid, and
    gbar the mean slope of the two runs, every pair x in p, y in q has
    |v(x) - v(y)| <= N + |gbar| |x - y|, where N = |K| + |g_p - g_q|
    (r_p + r_q) / 2 + resid_p + resid_q and K = c_p - c_q - gbar .
    (z_p - z_q), plus a rounding allowance for |c|, |gbar| |z_p - z_q|
    and max|v|: the first-order bound of Lee, Gray & Moore (NIPS 2005).
    The quotient is then at most (N + |gbar| d) d**-a at d = |x - y|,
    which falls and then rises in d, so its largest value over [dmin,
    dmax] is at an end; dmax is the smaller of |z_p - z_q| + r_p + r_q
    and the diagonal of the (boxes, d) boxes lo, hi of both runs.
    Returns the (groups, len(alphas), len(p)) bounds times SLACK, NaN
    where N and dmin are both 0.
    """
    centre, radius, g, c, resid, mag = models
    K = c.take(p, axis=1) - c.take(q, axis=1)
    slope, twist, dist, diagonal = 0.0, 0.0, 0.0, 0.0
    lo, hi = lo.T, hi.T
    for a in range(len(centre)):
        dz = centre[a].take(p) - centre[a].take(q)
        gp, gq = g[a].take(p, axis=1), g[a].take(q, axis=1)
        gp -= gq
        twist = twist + gp * gp
        gq += 0.5 * gp                                  # the mean slope along a
        K -= gq * dz
        slope = slope + gq * gq
        dist = dist + dz * dz
        diagonal = diagonal + (np.maximum(hi[a].take(p), hi[a].take(q))
                               - np.minimum(lo[a].take(p), lo[a].take(q))) ** 2
    slope, twist = np.sqrt(slope), np.sqrt(twist)
    rsum = radius.take(p) + radius.take(q)
    reach = np.sqrt(dist) + rsum
    N = (np.abs(K) + 0.5 * twist * rsum + resid.take(p, axis=1) + resid.take(q, axis=1)
         + ROUNDING * (mag.take(p, axis=1) + mag.take(q, axis=1) + (slope + twist) * reach))
    dmax = np.minimum(reach, np.sqrt(diagonal))
    bound = np.empty((len(N), len(alphas), len(p)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for ia, a in enumerate(alphas):
            bound[:, ia] = np.maximum((N + slope * dmin) * (dmin ** -a * SLACK),
                                      (N + slope * dmax) * (dmax ** -a * SLACK))
    return np.maximum.reduceat(bound, rows, axis=0)


class _Sweep:
    """One call's nodes in leaf layout, its running maxima and work arrays."""

    def __init__(self, coords, comps, alphas, period, order, rows):
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
        self.leaves = np.arange(self.nleaf) * LEAF + _SLOTS[:, None]     # (LEAF, leaves)
        nodes = self.cols.take(self.leaves, axis=1)
        low, high = nodes.min(axis=1), nodes.max(axis=1)
        self.lo, self.hi = low[:self.dim], high[:self.dim]       # (d, leaves) rows
        self.vlo, self.vhi = low[self.dim:], high[self.dim:]    # (m, leaves) rows
        self.rows = rows        # the first row of each group
        self.group = np.repeat(np.arange(len(rows)), np.diff(rows, append=len(comps)))
        self.alphas, self.period = alphas, period
        self.best = np.full((len(rows), len(alphas)), -np.inf)
        self.witnesses = np.zeros(self.best.shape + (2,), dtype=int)
        self.pairs = 0
        self.models = None
        # leaf pairs bounded but not yet evaluated, best first, with their
        # (entries, pairs) bounds
        self.queue = (np.empty(0, dtype=int), np.empty(0, dtype=int),
                      np.empty((self.best.size, 0)), np.empty(0))
        # work arrays for BATCH leaf pairs (or the upper triangles of BATCH
        # leaves), reused across batches: fresh arrays of this size cost
        # more in page faults than the arithmetic; one distance weight per
        # exponent, one value difference at a time
        size = LEAF * LEAF * min(BATCH, self.nleaf * (self.nleaf + 1) // 2)
        self.work = [np.empty(size) for _ in range(3 + len(alphas))]

    def drain(self, queue, size, visit, least=1):
        """Visit queue = (p, q, bounds, keys) best first, highest key first,
        in batches of size; return the rest once fewer than least pairs may
        still beat a running maximum.  Just before each batch, a pair is
        dropped once no entry's bound exceeds its running maximum;
        visit(p, q, live) gets the batch, with live the (groups,
        len(alphas)) entries any of its pairs may still beat.
        """
        scan = np.argsort(-queue[3], kind="stable")
        p, q, bound, key = (x[..., scan] for x in queue)
        while True:
            alive = bound > self.best.reshape(-1, 1)
            keep = alive.any(axis=0)
            p, q, bound, key, alive = p[keep], q[keep], bound[:, keep], key[keep], alive[:, keep]
            if len(p) < least:
                return p, q, bound, key
            visit(p[:size], q[:size], alive[:, :size].any(axis=1).reshape(self.best.shape))
            p, q, bound, key = p[size:], q[size:], bound[:, size:], key[size:]

    def bounds(self, lo, hi, vlo, vhi, models, p, q):
        """(p, q, bounds, keys) of the box pairs (p[i], q[i]) that may beat
        a running maximum.

        A pair's bound is the smaller of the spread bound and, on the
        plane, the affine bound of models(), computed only for the pairs
        the spread bound keeps.  The key ranks pairs best first: the
        largest ratio of an entry's bound to its running maximum.
        """
        bound, dmin = _box_bounds(lo, hi, vlo, vhi, p, q, self.alphas, self.period, self.rows)
        bound = np.moveaxis(bound, 0, -1).reshape(self.best.size, -1)
        keep = (bound > self.best.reshape(-1, 1)).any(axis=0)
        p, q, bound = p[keep], q[keep], bound[:, keep]
        if self.period is None and len(p):
            models, dmin = models(), dmin[keep]
            # in slices of 2 * BATCH pairs, to bound the transient memory
            for s in range(0, len(p), 2 * BATCH):
                part = slice(s, s + 2 * BATCH)
                affine = _affine_bounds(models, lo, hi, p[part], q[part], dmin[part],
                                        self.alphas, self.rows)
                np.fmin(bound[:, part], affine.reshape(len(bound), -1), out=bound[:, part])
            keep = (bound > self.best.reshape(-1, 1)).any(axis=0)
            p, q, bound = p[keep], q[keep], bound[:, keep]
        scale = np.maximum(self.best, np.finfo(float).tiny)
        with np.errstate(over="ignore", invalid="ignore"):
            key = np.fmax.reduce(bound / scale.reshape(-1, 1), axis=0)
        return p, q, bound, key

    def leaf_models(self):
        """The leaves' affine models, fitted on first use."""
        if self.models is None:
            self.models = _affine_models(self.cols, self.dim, self.leaves)
        return self.models

    def push(self, p, q, _live):
        """Queue the leaf pairs of the tiles (p[i], q[i]) that may beat a
        running maximum, and evaluate full batches from the queue's head."""
        a, b = _leaf_pairs(p, q, self.nleaf)
        fresh = self.bounds(self.lo.T, self.hi.T, self.vlo.T, self.vhi.T, self.leaf_models, a, b)
        queue = tuple(np.concatenate(pair, axis=-1) for pair in zip(self.queue, fresh))
        self.queue = self.drain(queue, BATCH, self.evaluate, BATCH)

    def evaluate(self, a, b, live=None):
        """Exact quotients of the pairs of distinct leaves (a[i], b[i]).

        The (LEAF, LEAF, s) node pairs are broadcast from each side's
        (LEAF, s) rows, the leaf pair innermost, so that every operation
        runs along rows of s.
        """
        A = self.cols.take(a * LEAF + _SLOTS[:, None], axis=1)[:, :, None]
        B = self.cols.take(b * LEAF + _SLOTS[:, None], axis=1)[:, None, :]
        self.pairs += int((self.size[a] * self.size[b]).sum())
        self._fold(lambda k, x, y: (A[k], B[k]), (LEAF, LEAF, len(a)), _SQUARE, a, b, live)

    def evaluate_leaves(self, leaves):
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
                   i.shape, _UPPER, leaves, leaves)

    def _fold(self, sides, shape, slots, a, b, live=None):
        """Fold a batch's quotients for the live entries, all by default, into the maxima.

        sides(k, x, y) gives row k (an axis, then a component) of the
        pairs' two ends, broadcastable to shape, and may use the work
        arrays x and y for them; pair slot p of leaf pair i joins node
        slots[0][p] of leaf a[i] to node slots[1][p] of leaf b[i].  A
        group's value difference is the largest |difference| of its rows,
        and each of its entries' maximum over the batch updates the
        running maximum; a batch that reaches the running maximum yields
        its lexicographically smallest attaining node pair as the witness.
        """
        s, size = shape[-1], int(np.prod(shape))
        live = np.ones(self.best.shape, dtype=bool) if live is None else live
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
        # d2 is free from here: a group's further rows go through it
        for ig in np.flatnonzero(live.any(axis=1)):
            head, *rest = np.flatnonzero(self.group == ig) + self.dim
            np.subtract(*sides(head, tmp, dv), out=dv)
            np.abs(dv, out=dv)
            for row in rest:
                np.subtract(*sides(row, tmp, d2), out=d2)
                np.abs(d2, out=d2)
                np.maximum(dv, d2, out=dv)
            for ia in np.flatnonzero(live[ig]):
                quot = np.multiply(dv, w[ia], out=tmp)
                if mask is not None:
                    quot[mask] = -1.0
                top = float(quot.max())
                if top < self.best[ig, ia]:
                    continue
                quot = quot.reshape(-1, s)
                rows = np.flatnonzero(quot.max(axis=0) == top)
                pp, kk = np.nonzero(quot[:, rows] == top)
                oi = self.padded[a[rows[kk]] * LEAF + slots[0][pp]]
                oj = self.padded[b[rows[kk]] * LEAF + slots[1][pp]]
                first, second = np.minimum(oi, oj), np.maximum(oi, oj)
                k = np.lexsort((second, first))[0]
                pair = (int(first[k]), int(second[k]))
                if top > self.best[ig, ia] or pair < tuple(self.witnesses[ig, ia]):
                    self.best[ig, ia] = top
                    self.witnesses[ig, ia] = pair


def _leaf_pairs(p, q, nleaf):
    """The leaf pairs of the tiles (p[i], q[i]), tile by tile."""
    cross = p != q
    la = np.concatenate([(p[cross, None] * _PER + _CROSS[0]).ravel(),
                         (p[~cross, None] * _PER + _DIAGONAL[0]).ravel()])
    lb = np.concatenate([(q[cross, None] * _PER + _CROSS[1]).ravel(),
                         (q[~cross, None] * _PER + _DIAGONAL[1]).ravel()])
    inside = lb < nleaf      # the last chunk may hold fewer leaves
    return la[inside], lb[inside]


def pairwise_holder_max(coords, comps, alphas, strategy="brute_force", period=None,
                        order=None, groups=None):
    """Maximum Holder quotients for several groups of components and exponents.

    coords: (n, d) node positions (with ``period`` set, coords[:, 0] is
    an arclength coordinate on a loop of that length), all finite, or
    a ConfigError is raised.  comps: (m, n)
    sampled fields sharing those nodes.  groups: the row counts of
    consecutive groups of comps, one row each by default; a group's
    quotient is the largest of its rows'.  order: the ``_layout(coords)``
    a mesh keeps, computed here when unset.  Every (group, exponent)
    entry is computed.  Returns (best, witnesses, pairs_evaluated) where
    best has shape (groups, len(alphas)) and witnesses holds the
    lexicographically smallest attaining node-index pair per entry, over
    the group's rows, taken inside the sweep from each batch that reaches
    the running maximum.  ``brute_force`` runs plain loops with no bound, key or
    queue; ``pruned`` walks tiles and leaf pairs with one best-first
    drain and skips leaf pairs that can only tie the maximum, so its
    witness ties may resolve differently.
    """
    comps = np.atleast_2d(np.asarray(comps, dtype=float))
    coords = _as_points(coords, comps.shape[1])
    if not np.isfinite(coords).all():
        raise ConfigError("node coordinates must be finite")
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
    counts = np.ones(len(comps), dtype=int) if groups is None else np.asarray(groups, dtype=int)
    if counts.sum() != len(comps) or (counts < 1).any():
        raise ConfigError(f"groups {counts.tolist()} do not partition {len(comps)} rows")
    rows = np.cumsum(counts) - counts
    sweep = _Sweep(coords, comps, alphas, period, order, rows)
    # every leaf's own pairs first, unbounded, so that the branch and
    # bound starts from a running maximum
    for s in range(0, sweep.nleaf, BATCH):
        sweep.evaluate_leaves(np.arange(s, min(s + BATCH, sweep.nleaf)))

    # tiles are the pairs of chunks, whose boxes join their leaves' boxes
    starts = np.arange(0, sweep.nleaf, _PER)
    tp, tq = np.triu_indices(len(starts))
    if strategy == "brute_force":
        for s in range(0, len(tp), TILE_BATCH):
            la, lb = _leaf_pairs(tp[s:s + TILE_BATCH], tq[s:s + TILE_BATCH], sweep.nleaf)
            for t in range(0, len(la), BATCH):
                sweep.evaluate(la[t:t + BATCH], lb[t:t + BATCH])
    else:
        # a chunk's runs of columns, the last padded with the last column
        chunks = np.minimum(starts * LEAF + np.arange(TILE)[:, None], sweep.cols.shape[1] - 1)
        tiles = sweep.bounds(
            np.minimum.reduceat(sweep.lo, starts, axis=1).T,
            np.maximum.reduceat(sweep.hi, starts, axis=1).T,
            np.minimum.reduceat(sweep.vlo, starts, axis=1).T,
            np.maximum.reduceat(sweep.vhi, starts, axis=1).T,
            lambda: _affine_models(sweep.cols, sweep.dim, chunks), tp, tq)
        sweep.drain(tiles, TILE_BATCH, sweep.push)
        sweep.drain(sweep.queue, BATCH, sweep.evaluate)
    return sweep.best, sweep.witnesses, sweep.pairs


# ---------------------------------------------------------------------------
# public norm operations

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
    pairwise_holder_max call, one group of rows per item, which also
    shares the distance work across exponents, and whose leaf layout the
    mesh builds once.  Each item's seminorm is its group's maximum, the
    largest over its rows, so it equals what a call for that item alone
    gives; its witness is the smallest attaining node pair over those
    rows.  A sweep computes every exponent any of its items asks for, for
    every item.  Returns one {alpha: HolderReport} dict per item, over its
    own exponents.
    """
    prepared, sets = [], {}
    for u, k, alphas in items:
        if k not in (0, 1, 2):
            raise ConfigError(f"derivative order must be 0, 1 or 2, got {k}")
        stack = _derivative_stack(u, k)
        sup_norms = tuple(float(max(np.abs(c).max() for c in comps)) for comps in stack)
        top = np.vstack(stack[k])
        key = (id(u.mesh), isinstance(u, BoundaryFunction))
        sets.setdefault(key, []).append(len(prepared))
        prepared.append((u, sup_norms, top, tuple(float(a) for a in alphas)))

    out = [None] * len(prepared)
    for (_, boundary), members in sets.items():
        group = [prepared[i] for i in members]
        xy, per = _node_set(group[0][0])
        alphas = tuple(dict.fromkeys(a for *_, item_alphas in group for a in item_alphas))
        vals = np.vstack([top for _, _, top, _ in group])
        order = group[0][0].mesh.cached(("holder_layout", boundary), lambda: _layout(xy))
        best, wit, _ = pairwise_holder_max(xy, vals, alphas, strategy=pair_strategy,
                                           period=per, order=order,
                                           groups=[len(top) for _, _, top, _ in group])
        for ig, (i, (_, sup_norms, _, item_alphas)) in enumerate(zip(members, group)):
            reports = {}
            for a in item_alphas:
                ia = alphas.index(a)
                p, q = wit[ig, ia]
                seminorm = float(best[ig, ia])
                reports[a] = HolderReport(
                    sup_norms=sup_norms,
                    seminorm=seminorm,
                    witness=(np.atleast_1d(xy[p]).copy(), np.atleast_1d(xy[q]).copy()),
                    total=float(sum(sup_norms) + seminorm),
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
