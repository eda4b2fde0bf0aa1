"""Discrete L2, sup and Holder-scale norms.

The Holder seminorm of a sampled field is the exact maximum of
|v(x) - v(y)| / |x - y|^alpha over all unordered node pairs.  One sweep
computes it for every group of components and every exponent stacked
into a call; a group's quotient is the largest of its rows', so one
running maximum serves each (group, exponent) entry.  The nodes are cut
into chunks of TILE, and each chunk into leaves of LEAF -- nested k-d
boxes in the plane, runs of the sorted order on a line or loop.  The
k-d boxes are split level by level: every node's rank along each axis
is sorted once, and one ``np.sort`` of distinct int64 keys box * n +
rank per level cuts all boxes of that level together, each node decoded
from its key; one such split cuts the node set into chunks, a second
cuts every chunk into leaves.  A tile is a pair of chunks, a leaf pair a
pair of distinct leaves.  Every pair is evaluated with the same
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
    max|v|.  A call decides once, from its chunk fits, whether this
    affine stage pays: not if every group's median over its rows and
    chunks of the largest residual over half the chunk's value spread is
    at least ROUGH (white noise reads 1.05-1.09, the smooth study stacks
    at most 0.71); it then bounds both levels with spreads alone and
    fits no leaves.

  Both bounds take (d, boxes) and (m, boxes) box rows, give (entries,
  pairs) rows and carry a relative slack for pow against exp(log).  One
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

What a held node set keeps.  The kernel holds the last LAYOUTS node sets
it met, keyed by their exact coordinates.  A node set is built whole
when a call first meets it, after every check of the call's arguments:
nodes that all coincide raise DegenerateInput then and are not held;
otherwise it gets its leaf order, coordinate rows and leaf and chunk
boxes.  Every sweep keeps what it derives from the coordinates and is
not kept yet:

* the coordinate half of the chunk and leaf fits: each run's centre,
  radius and ridge-regularised Gram inverse, and the chunks' runs of
  columns; the centred coordinates, two per node, are taken again;
* for the last period and exponents swept, the distance weights and
  coincident-pair mask of the pairs inside every leaf, and every tile's
  dmin and dmin**-a times SLACK.

That is about 7.5 len(alphas) + 6 eight-byte words per node and 1 +
len(alphas) per tile, as many as one sweep's tile bounds hold, and
never anything per leaf pair.  Kept arrays are read-only and are the
very ones a sweep that builds them computes, so a sweep reading them
gives the same bits; they go with the node set when it is evicted.
"""

from __future__ import annotations

import functools
import threading
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
ROUGH = 0.9            # chunk residual / half spread from which affine bounds do not pay
LAYOUTS = 2            # node sets whose leaf layouts the kernel keeps

STRATEGIES = ("brute_force", "pruned")


@dataclass
class HolderReport:
    """Norm breakdown: per-order sup norms, top-order seminorm, their total."""

    sup_norms: tuple          # orders 0..k, each the max over derivative components
    seminorm: float           # max over top-order components of the pairwise seminorm
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


def _kd_split(pts, rank, byrank, order, starts, size):
    """order with each run order[starts[i]:starts[i + 1]] cut into k-d boxes of size.

    Level by level, every box of more than size nodes is sorted by
    rank along its axis of larger extent (the first such axis on a tie)
    and cut so that size * ceil(nboxes / 2) nodes go left, which leaves
    every box but the last of each run full.  One sort of the distinct
    int64 keys box * n + rank reorders all boxes of a level; a box that
    is not split keys on its current position in order instead, so it
    keeps its order.  Each node is decoded from its key: byrank[a, r] is
    the node of rank r along axis a.  Keys stay below n * n, which fits
    in int64 for every n below 3e9, far beyond memory.  pts: the (d, n)
    coordinates, one contiguous row per axis.
    """
    m, n = len(order), pts.shape[1]
    while True:
        counts = np.diff(starts, append=m)
        nboxes = -(-counts // size)
        split = nboxes > 1
        if not split.any():
            return order
        extent = np.empty((len(pts), len(starts)))
        for a, x in enumerate(pts):
            x = x[order]
            extent[a] = np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
        box = np.repeat(np.arange(len(starts)), counts)
        axis = (np.argmax(extent, axis=0) * n)[box]
        offset = box * n
        within = split[box]
        # rank[axis, order], gathered from the flat array
        key = np.where(within, rank.take(axis + order), np.arange(m)) + offset
        # the sort keeps every box in its place, so its keys decode against
        # the same offsets; a rank may pass the end of a partial run's order,
        # where mode="clip" keeps the gather in range and np.where drops it
        key = np.sort(key) - offset
        order = np.where(within, byrank.take(axis + key), order.take(key, mode="clip"))
        starts = np.sort(np.concatenate([starts, starts[split] + size * -(-nboxes[split] // 2)]))


def _layout(coords):
    """Node order: chunks of TILE nodes, each cut into leaves of LEAF.

    In the plane both levels are k-d boxes (Bentley 1975), the leaves
    splitting their chunk; on a line or loop both are runs of the sorted
    order.  Every chunk and leaf but the last is full.  rank[a, i] is
    node i's place in the order by coordinate a, ties broken by the last
    coordinate down to the first and then by node index.  It is computed
    once; sorting a box by it sorts the box's coordinates with the same
    tie rule, so the splits, made level by level, equal those of a
    per-box recursion.  One ``_kd_split`` cuts the node set into chunks,
    a second cuts every chunk into leaves.
    """
    n, d = coords.shape
    if d == 1:
        return np.argsort(coords[:, 0], kind="stable")
    pts = np.ascontiguousarray(coords.T)
    rank = np.empty((d, n), dtype=np.int64)
    byrank = np.empty((d, n), dtype=np.int64)
    for a in range(d):
        # primary coordinate a, then the others last first, then node index;
        # in the plane a stable sort of the complex keys x + iy and y + ix
        # (real part first, then imaginary part) gives that order for finite
        # coordinates, in less than half the time of lexsort
        if d == 2:
            byrank[a] = np.argsort(pts[a] + 1j * pts[1 - a], kind="stable")
        else:
            byrank[a] = np.lexsort((*np.delete(pts, a, axis=0), pts[a]))
        rank[a, byrank[a]] = np.arange(n)
    order = _kd_split(pts, rank, byrank, np.arange(n), np.zeros(1, dtype=np.int64), TILE)
    return _kd_split(pts, rank, byrank, order, np.arange(0, n, TILE), LEAF)


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


class _NodeSet:
    """A held node set in leaf layout, with what its sweeps keep, as the
    module docstring states.

    Node k of leaf l is padded[l * LEAF + k].  The last leaf is padded
    with copies of the last node: a pair with a copy either repeats a
    real pair or has distance 0, which does not count.  size: each
    leaf's real nodes; leaves: the (LEAF, leaves) slots of each leaf;
    cols: the coordinates by axis in leaf order; lo, hi: the (d, leaves)
    rows of the leaves' boxes; starts: each chunk's first leaf; chunk_lo,
    chunk_hi: the (d, chunks) rows of the chunks' boxes.  kept maps (key,
    name) to a kept value: key None for the ``_fit_frame`` of each level
    (TILE, LEAF), a (period, exponents) key for the leaves' own-pair
    weights ("leaves", one ((exponents, pairs, leaves) array, mask or
    None) entry per batch of leaves) and the tiles' ``_box_gaps``
    ("tiles").
    """

    def __init__(self, coords):
        if np.all(coords.max(axis=0) == coords.min(axis=0)):
            raise DegenerateInput("all nodes coincide")
        order = _layout(coords)
        n, self.dim = coords.shape
        self.nleaf = -(-n // LEAF)
        self.padded = np.concatenate([order, np.full(self.nleaf * LEAF - n, order[-1])])
        self.size = np.full(self.nleaf, LEAF)
        self.size[-1] = n - (self.nleaf - 1) * LEAF
        self.leaves = np.arange(self.nleaf) * LEAF + _SLOTS[:, None]
        # take keeps every row contiguous, as [:, index] would not
        self.cols = coords.T.take(self.padded, axis=1)
        nodes = self.cols.take(self.leaves, axis=1)
        self.lo, self.hi = nodes.min(axis=1), nodes.max(axis=1)
        self.starts = np.arange(0, self.nleaf, _PER)
        self.chunk_lo = np.minimum.reduceat(self.lo, self.starts, axis=1)
        self.chunk_hi = np.maximum.reduceat(self.hi, self.starts, axis=1)
        _read_only(list(vars(self).values()))
        self.kept = {}
        self._lock = threading.Lock()

    def derived(self, key, name, build):
        """The value kept under (key, name), else build()'s, made
        read-only and kept; a (period, exponents) key drops what any other
        such key keeps.  The dict is replaced, never changed, so a reader
        sees each value whole."""
        value = self.kept.get((key, name))
        if value is None:
            value = build()
            _read_only(value)
            with self._lock:
                kept = {k: v for k, v in self.kept.items() if key is None or k[0] in (None, key)}
                kept[key, name] = value
                self.kept = kept
        return value


def _read_only(value):
    """Make every array in value, through tuples and lists, read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for part in value:
            _read_only(part)


@functools.lru_cache(maxsize=LAYOUTS)
def _node_set(shape, data):
    """The ``_NodeSet`` of the float coordinates with this shape and these
    bytes, kept for the last LAYOUTS node sets."""
    return _NodeSet(np.frombuffer(data).reshape(shape))


def _box_gaps(lo, hi, p, q, alphas, period):
    """The distance terms of the spread bound of the box pairs (p[i], q[i]).

    lo, hi: (d, boxes) coordinate box rows.  dmin, the gap between the
    boxes (on a loop also the gap around the seam, period minus the span
    of both), is a lower bound on every pair distance.  Returns dmin and
    the (len(alphas), len(p)) factors dmin**-a times SLACK.
    """
    d2 = 0.0
    for k in range(len(lo)):
        gap = np.maximum(lo[k].take(q) - hi[k].take(p), lo[k].take(p) - hi[k].take(q))
        d2 = d2 + np.maximum(gap, 0.0) ** 2
    dmin = np.sqrt(d2)
    if period is not None:
        span = (np.maximum(hi[0].take(p), hi[0].take(q))
                - np.minimum(lo[0].take(p), lo[0].take(q)))
        dmin = np.minimum(dmin, np.maximum(0.0, period - span))
    with np.errstate(divide="ignore"):
        return dmin, dmin ** -alphas[:, None] * SLACK


def _box_bounds(gaps, vlo, vhi, p, q, rows):
    """Upper bounds on the quotients of the box pairs (p[i], q[i]).

    gaps: their ``_box_gaps``; vlo, vhi: (m, boxes) value range rows.
    The value spread of both boxes is an upper bound on every |v(x) -
    v(y)|; it never exceeds 2 max|v|.  rows: the first row of each group
    of components, whose spread is the largest of its rows'.  Returns the
    (groups, len(alphas), len(p)) bounds spread * dmin**-a times SLACK.
    """
    dmin, scale = gaps
    spread = (np.maximum(vhi.take(p, axis=1), vhi.take(q, axis=1))
              - np.minimum(vlo.take(p, axis=1), vlo.take(q, axis=1)))
    spread = np.maximum.reduceat(spread, rows, axis=0)
    near = dmin == 0.0
    with np.errstate(invalid="ignore"):
        bound = spread[:, None, :] * scale
    bound[:, :, near] = np.where(spread[:, None, near] > 0.0, np.inf, 0.0)
    return bound


def _fit_frame(cols, index):
    """The coordinate half of the affine fits on runs of nodes.

    cols: the (d, columns) coordinate rows; index: (size, runs) columns
    of each run's nodes.  z is a run's centroid and r its largest
    distance from it; inverse is the inverse of the Gram matrix of its
    centred nodes with a ridge of ROUNDING times the trace, so that
    collinear and coincident nodes still give a slope.  Returns (index,
    z, r, inverse), shaped (size, runs), (d, runs), (runs,) and (runs,
    d, d).  The centred coordinates are not kept: at two per node they
    would outweigh the rest, and a fit takes them again at little cost.
    """
    dim = len(cols)
    x = cols.take(index, axis=1)                          # (d, size, runs)
    centre = x.mean(axis=1)
    x -= centre[:, None, :]
    radius = np.sqrt(np.einsum("aij,aij->ij", x, x)).max(axis=0)
    gram = np.empty((x.shape[2], dim, dim))
    for a in range(dim):
        for b in range(a + 1):
            gram[:, a, b] = gram[:, b, a] = np.einsum("ij,ij->j", x[a], x[b])
    trace = np.trace(gram, axis1=1, axis2=2)
    gram += np.where(trace > 0.0, ROUNDING * trace, 1.0)[:, None, None] * np.eye(dim)
    return index, centre, radius, np.linalg.inv(gram)


def _affine_models(frame, cols):
    """Affine models c + g . (x - z) of every value row on runs of nodes.

    frame: the runs' ``_fit_frame``; cols: the coordinate rows, then the
    value rows.  The slope is a least-squares fit on the centred nodes;
    any slope is sound, since resid is the largest |residual| at the
    run's own nodes.  mag, |c| + |g| r + max|v|, scales the rounding
    allowance.  Returns (z, r, g, c, resid, mag), shaped (d, runs),
    (runs,), (d, m, runs) and (m, runs) thrice.
    """
    index, centre, radius, inverse = frame
    dim = len(centre)
    x = cols[:dim].take(index, axis=1)                    # (d, size, runs)
    x -= centre[:, None, :]
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
    and the diagonal of both runs' boxes, the (d, boxes) rows lo, hi.
    Returns the (groups, len(alphas), len(p)) bounds times SLACK, NaN
    where N and dmin are both 0.
    """
    centre, radius, g, c, resid, mag = models
    K = c.take(p, axis=1) - c.take(q, axis=1)
    slope, twist, dist, diagonal = 0.0, 0.0, 0.0, 0.0
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

    def __init__(self, node_set, comps, alphas, period, rows):
        self.node_set, self.alphas, self.period = node_set, alphas, period
        self.key = period, tuple(alphas.tolist())
        self.dim, self.nleaf = node_set.dim, node_set.nleaf
        # the coordinates by axis, then the values by component, in leaf
        # order: a batch gathers what it needs of each row from here
        self.cols = np.vstack([node_set.cols, comps.take(node_set.padded, axis=1)])
        nodes = self.cols[self.dim:].take(node_set.leaves, axis=1)
        self.vlo, self.vhi = nodes.min(axis=1), nodes.max(axis=1)    # (m, leaves) rows
        # the first row of each group, and each group's rows of cols
        self.rows = rows
        self.members = np.split(np.arange(len(comps)) + self.dim, rows[1:])
        self.best = np.full((len(rows), len(alphas)), -np.inf)
        self.witnesses = np.zeros(self.best.shape + (2,), dtype=int)
        self.pairs = 0
        self.leaf_models = None     # the leaves' affine models, if the call keeps that stage
        # leaf pairs bounded but not yet evaluated, best first, with their
        # (entries, pairs) bounds
        self.queue = (np.empty(0, dtype=int), np.empty(0, dtype=int),
                      np.empty((self.best.size, 0)), np.empty(0))
        # work arrays for BATCH leaf pairs (or the upper triangles of BATCH
        # leaves), reused across batches: fresh arrays of this size cost
        # more in page faults than the arithmetic; one distance weight per
        # exponent of a leaf pair (the leaves' own pairs have kept weights),
        # one value difference at a time
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

    def models(self, size):
        """The affine models of the chunks (size TILE) or of the leaves
        (LEAF); the coordinate half of their fits is a kept value."""
        g = self.node_set

        def frame():
            # a chunk's runs of columns, the last padded with the last column
            index = g.leaves if size == LEAF else np.minimum(
                g.starts * LEAF + np.arange(TILE)[:, None], len(g.padded) - 1)
            return _fit_frame(g.cols, index)
        return _affine_models(g.derived(None, size, frame), self.cols)

    def bounds(self, gaps, lo, hi, vlo, vhi, models, p, q):
        """(p, q, bounds, keys) of the box pairs (p[i], q[i]) that may beat
        a running maximum.

        gaps are their ``_box_gaps``; lo, hi and vlo, vhi the boxes' (d,
        boxes) and (m, boxes) rows.  A pair's bound, one row per entry, is
        the smaller of the spread bound and, unless models is None, the
        affine bound of the boxes' models, computed only for the pairs the
        spread bound keeps.  The key ranks pairs best first: the largest
        ratio of an entry's bound to its running maximum.
        """
        bound = _box_bounds(gaps, vlo, vhi, p, q, self.rows).reshape(self.best.size, -1)
        keep = (bound > self.best.reshape(-1, 1)).any(axis=0)
        p, q, bound = p[keep], q[keep], bound[:, keep]
        if models is not None:
            dmin = gaps[0][keep]
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

    def push(self, p, q, _live):
        """Queue the leaf pairs of the tiles (p[i], q[i]) that may beat a
        running maximum, and evaluate full batches from the queue's head."""
        a, b = _leaf_pairs(p, q, self.nleaf)
        g = self.node_set
        gaps = _box_gaps(g.lo, g.hi, a, b, self.alphas, self.period)
        fresh = self.bounds(gaps, g.lo, g.hi, self.vlo, self.vhi, self.leaf_models, a, b)
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
        size = self.node_set.size
        self.pairs += int((size[a] * size[b]).sum())
        sides, shape = (lambda k, x, y: (A[k], B[k])), (LEAF, LEAF, len(a))
        w = self._work(shape)[3:]
        mask = self._weigh(sides, shape, w, live)
        self._fold(sides, shape, _SQUARE, a, b, w, mask, live)

    def evaluate_leaves(self):
        """Exact quotients of the node pairs inside every leaf, BATCH leaves at a time.

        A batch's (len(_UPPER[0]), s) pairs of the upper triangles are
        gathered one row at a time into the work arrays, from the (LEAF,
        s) block of the row's slots by leaf.  Their distance weights and
        coincident-pair mask depend on the coordinates, the period and the
        exponents alone: a kept value, one entry per batch.
        """
        batches = []
        for s in range(0, self.nleaf, BATCH):
            leaves = np.arange(s, min(s + BATCH, self.nleaf))
            block = self.cols[:, s * LEAF:(s + len(leaves)) * LEAF].reshape(
                len(self.cols), len(leaves), LEAF).transpose(0, 2, 1)
            # the slots are in range; mode="clip" lets take write into out unbuffered
            sides = (lambda k, x, y, block=block: (
                block[k].take(_UPPER[0], axis=0, out=x, mode="clip"),
                block[k].take(_UPPER[1], axis=0, out=y, mode="clip")))
            batches.append((leaves, sides, (len(_UPPER[0]), len(leaves))))

        def weigh():
            made = []
            for _, sides, shape in batches:
                w = np.empty((len(self.alphas),) + shape)
                made.append((w, self._weigh(sides, shape, w)))
            return made
        own = self.node_set.derived(self.key, "leaves", weigh)
        for (leaves, sides, shape), (w, mask) in zip(batches, own):
            size = self.node_set.size[leaves]
            self.pairs += int((size * (size - 1) // 2).sum())
            self._fold(sides, shape, _UPPER, leaves, leaves, w, mask)

    def _work(self, shape):
        """The work arrays, each shaped to a batch of this shape."""
        size = int(np.prod(shape))
        return [buf[:size].reshape(shape) for buf in self.work]

    def _weigh(self, sides, shape, w, live=None):
        """The distance weights of a batch's pairs, into w.

        sides(k, x, y) gives row k (an axis, then a component) of the
        pairs' two ends, broadcastable to shape, and may use the work
        arrays x and y for them.  w[ia] becomes |x - y|**-alphas[ia] for
        every exponent of a live entry, all by default: the squared
        distance axis by axis, the log once, one exp per exponent.  Pairs
        of coincident nodes, a padding copy and its original among them,
        do not count: they get weight 0.  Returns their mask, None if
        there are none.
        """
        d2, tmp, dv = self._work(shape)[:3]
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
        mask = d2 == 0.0
        if mask.any():
            d2[mask] = np.inf
        else:
            mask = None
        ld = np.log(d2, out=d2)
        live = np.ones(self.best.shape, dtype=bool) if live is None else live
        for ia in np.flatnonzero(live.any(axis=0)):
            np.multiply(ld, -0.5 * self.alphas[ia], out=w[ia])
            np.exp(w[ia], out=w[ia])
        return mask

    def _fold(self, sides, shape, slots, a, b, w, mask, live=None):
        """Fold a batch's quotients for the live entries, all by default, into the maxima.

        sides as in _weigh; w and mask: the batch's distance weights and
        coincident-pair mask from _weigh, whose pairs get quotient -1.
        Pair slot p of leaf pair i joins node slots[0][p] of leaf a[i] to
        node slots[1][p] of leaf b[i].  A group's value difference is the
        largest |difference| of its rows, and each of its entries'
        maximum over the batch updates the running maximum; a batch that
        reaches the running maximum yields its lexicographically smallest
        attaining node pair as the witness.
        """
        s = shape[-1]
        live = np.ones(self.best.shape, dtype=bool) if live is None else live
        spare, tmp, dv = self._work(shape)[:3]
        for ig in np.flatnonzero(live.any(axis=1)):
            head, *rest = self.members[ig]
            np.subtract(*sides(head, tmp, dv), out=dv)
            np.abs(dv, out=dv)
            for row in rest:
                np.subtract(*sides(row, tmp, spare), out=spare)
                np.abs(spare, out=spare)
                np.maximum(dv, spare, out=dv)
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
                oi = self.node_set.padded[a[rows[kk]] * LEAF + slots[0][pp]]
                oj = self.node_set.padded[b[rows[kk]] * LEAF + slots[1][pp]]
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


def pairwise_holder_max(coords, comps, alphas, strategy="pruned", period=None,
                        groups=None):
    """Maximum Holder quotients for several groups of components and exponents.

    coords: (n, d) node positions, or with ``period`` set (n, 1)
    arclength coordinates on a loop of that length, spanning at most one
    period.  comps: (m, n) sampled fields sharing those nodes, m >= 1.
    groups: the integer row counts of consecutive groups of comps, one
    row each by default; a group's quotient is the largest of its rows'.
    Non-finite coordinates, values or period, no exponent and any other
    input outside these terms raise a ConfigError; then fewer than two
    nodes, or nodes that all coincide, raise DegenerateInput, so a call
    that is both misconfigured and degenerate raises ConfigError, and
    neither error enters the node-set memo.  The last LAYOUTS node sets
    are held with what the module docstring lists, so that a further call
    on one of them reads its coordinate-only work from there, to the same
    bits.  Every (group, exponent) entry is computed.  Returns (best,
    witnesses, pairs_evaluated) where best has shape (groups,
    len(alphas)) and witnesses holds the lexicographically smallest
    attaining node-index pair per entry, over the group's rows, taken
    inside the sweep from each batch that reaches the running maximum.
    ``brute_force`` runs plain loops with no bound, key or queue;
    ``pruned``, the default, walks tiles and leaf pairs with one
    best-first drain and skips leaf pairs that can only tie the maximum,
    so its witness ties may resolve differently.
    """
    comps = np.atleast_2d(np.asarray(comps, dtype=float))
    coords = _as_points(coords, comps.shape[1])
    if not np.isfinite(coords).all():
        raise ConfigError("node coordinates must be finite")
    if not len(comps):
        raise ConfigError("need at least one row of values")
    if not np.isfinite(comps).all():
        raise ConfigError("field values must be finite")
    if period is not None and not (coords.shape[1] == 1 and np.isfinite(period)
                                   and period > 0.0 and np.ptp(coords) <= period):
        raise ConfigError(f"a period needs one arclength coordinate spanning at most one "
                          f"finite positive period, got {coords.shape[1]} spanning "
                          f"{np.ptp(coords)} and period {period}")
    alphas = np.array([float(a) for a in alphas])
    if not len(alphas):
        raise ConfigError("need at least one exponent alpha")
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {a}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown pair strategy {strategy!r}")
    counts = np.ones(len(comps), dtype=int) if groups is None else np.asarray(groups)
    if counts.ndim != 1 or counts.dtype.kind not in "iu":
        raise ConfigError(f"groups must be a sequence of integer row counts, got {groups!r}")
    if counts.sum() != len(comps) or (counts < 1).any():
        raise ConfigError(f"groups {counts.tolist()} do not partition {len(comps)} rows")
    rows = np.cumsum(counts) - counts
    if coords.shape[0] < 2:
        raise DegenerateInput("need at least two nodes for a pairwise seminorm")
    g = _node_set(coords.shape, coords.tobytes())     # the node set, or DegenerateInput
    sweep = _Sweep(g, comps, alphas, period, rows)
    # every leaf's own pairs first, unbounded, so that the branch and
    # bound starts from a running maximum
    sweep.evaluate_leaves()

    # tiles are the pairs of chunks, whose boxes join their leaves' boxes
    starts = g.starts
    tp, tq = np.triu_indices(len(starts))
    if strategy == "brute_force":
        for s in range(0, len(tp), TILE_BATCH):
            la, lb = _leaf_pairs(tp[s:s + TILE_BATCH], tq[s:s + TILE_BATCH], sweep.nleaf)
            for t in range(0, len(la), BATCH):
                sweep.evaluate(la[t:t + BATCH], lb[t:t + BATCH])
    else:
        vlo = np.minimum.reduceat(sweep.vlo, starts, axis=1)
        vhi = np.maximum.reduceat(sweep.vhi, starts, axis=1)
        models = None
        if period is None:
            models = sweep.models(TILE)
            # the affine stage is kept only if some group is not rough: the
            # median over its rows and chunks of a chunk fit's largest
            # residual over half the chunk's value spread is below ROUGH
            half = 0.5 * (vhi - vlo)
            ratio = np.divide(models[4], half, out=np.zeros_like(half), where=half > 0.0)
            if min(map(np.median, np.split(ratio, rows[1:]))) < ROUGH:
                sweep.leaf_models = sweep.models(LEAF)
            else:
                models = None
        gaps = g.derived(sweep.key, "tiles",
                         lambda: _box_gaps(g.chunk_lo, g.chunk_hi, tp, tq, alphas, period))
        tiles = sweep.bounds(gaps, g.chunk_lo, g.chunk_hi, vlo, vhi, models, tp, tq)
        sweep.drain(tiles, TILE_BATCH, sweep.push)
        sweep.drain(sweep.queue, BATCH, sweep.evaluate)
    return sweep.best, sweep.witnesses, sweep.pairs


# ---------------------------------------------------------------------------
# public norm operations

def _field_nodes(u):
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


def holder_reports(items, alphas, pair_strategy="pruned"):
    """HolderReports of several fields at the exponents alphas, with one
    pairwise sweep per node set.

    items: sequence of (field, k).  The top-order components of all items
    whose fields live on the same node set -- a mesh's volume nodes, or
    its boundary loop -- are stacked into one pairwise_holder_max call,
    one group of rows per item, which also shares the distance work
    across exponents; the kernel holds a mesh's volume nodes and
    boundary loop, and from the next call on the same mesh reads what
    the module docstring lists.  Each
    item's seminorm is its group's maximum, the largest over its rows, so
    it equals what a call for that item alone gives.  Returns one {alpha:
    HolderReport} dict per item.
    """
    prepared, sets = [], {}
    for u, k in items:
        if k not in (0, 1, 2):
            raise ConfigError(f"derivative order must be 0, 1 or 2, got {k}")
        stack = _derivative_stack(u, k)
        sup_norms = tuple(float(max(np.abs(c).max() for c in comps)) for comps in stack)
        key = (id(u.mesh), isinstance(u, BoundaryFunction))
        sets.setdefault(key, []).append(len(prepared))
        prepared.append((u, sup_norms, np.vstack(stack[k])))

    out = [None] * len(prepared)
    for members in sets.values():
        u = prepared[members[0]][0]
        xy, per = _field_nodes(u)
        tops = [prepared[i][2] for i in members]
        best, _, _ = pairwise_holder_max(xy, np.vstack(tops), alphas, strategy=pair_strategy,
                                         period=per, groups=[len(t) for t in tops])
        for i, row in zip(members, best):
            sup_norms = prepared[i][1]
            out[i] = {a: HolderReport(sup_norms, s, sum(sup_norms) + s)
                      for a, s in zip(alphas, row.tolist())}
    return out


def holder_report_bundle(u, k, alphas, pair_strategy="pruned"):
    """HolderReports of one field for several exponents in a single pass."""
    return holder_reports([(u, k)], alphas, pair_strategy)[0]


def c_k_alpha_norm(u, k, alpha, pair_strategy="pruned"):
    """Discrete Holder norm report of order k in C^{k,alpha}.

    The total is sum over orders j <= k of the order-j sup norm (max
    over derivative components) plus the top-order pairwise seminorm
    (max over components).  Boundary fields are differentiated along
    arclength and measured in arclength distance.
    """
    return holder_report_bundle(u, k, (alpha,), pair_strategy)[alpha]
