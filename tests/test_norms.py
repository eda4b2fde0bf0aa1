"""Holder-scale norms: seminorm oracles, strategy equivalence, axioms."""

import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neumann_lab import norms
from neumann_lab.domain import DomainSpec, build_mesh
from neumann_lab.errors import ConfigError, DegenerateInput
from neumann_lab.field import BoundaryFunction, GridFunction, gradient
from neumann_lab.norms import (LEAF, STRATEGIES, TILE, _box_bounds, _derivative_stack, _layout,
                               c_k_alpha_norm, holder_report_bundle, holder_reports,
                               l2_norm, pairwise_holder_max)
from neumann_lab.solver import solve_neumann
from neumann_lab.verify import ProblemFamily


def oracle_seminorm(values, coords, alpha, period=None):
    """Independent reference: plain double loop over all pairs (on a loop
    of length period, distances the short way round)."""
    coords = np.atleast_2d(coords)
    if coords.shape[0] == 1:
        coords = coords.T
    best, witness = 0.0, (0, 0)
    n = len(values)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(np.linalg.norm(coords[i] - coords[j]))
            if period is not None:
                d = min(d, period - d)
            if d == 0.0:
                continue
            q = abs(values[i] - values[j]) / d**alpha
            if q > best:
                best, witness = q, (i, j)
    return best, witness


def seminorm(values, coords, alpha, strategy="brute_force"):
    """(seminorm, witness as a pair of node coordinates) of one sampled field."""
    xy = np.asarray(coords, dtype=float).reshape(len(values), -1)
    best, wit, _ = pairwise_holder_max(xy, np.asarray(values)[None, :], (alpha,), strategy)
    i, j = wit[0, 0]
    return float(best[0, 0]), (xy[i], xy[j])


# ---------------------------------------------------------------------------
# l2

def test_l2_zero(disk_mesh_small):
    assert l2_norm(GridFunction.zeros(disk_mesh_small)) == 0.0


def test_l2_constant_on_disk(disk_mesh_fine):
    val = l2_norm(GridFunction.constant(disk_mesh_fine, 1.0))
    assert val == pytest.approx(np.sqrt(np.pi), abs=1e-3)


def test_l2_manufactured(disk_mesh_fine):
    u = GridFunction.from_expression(disk_mesh_fine, "r^2/4 - 1/8")
    assert l2_norm(u) == pytest.approx(np.sqrt(np.pi / 192.0), abs=1e-3)


# ---------------------------------------------------------------------------
# seminorm

def test_seminorm_constant_field():
    xs = np.linspace(0.0, 1.0, 9)
    val, _ = seminorm(np.full(9, 2.0), xs, 0.5)
    assert val == 0.0


def test_seminorm_linear_unit_grid():
    xs = np.linspace(0.0, 1.0, 5)
    val, wit = seminorm(xs.copy(), xs, 0.5)
    # quotient |x-y|^(1-alpha) peaks at maximal separation
    assert val == pytest.approx(1.0, rel=1e-12)
    assert wit[0][0] == 0.0 and wit[1][0] == 1.0


def test_seminorm_quadratic_quarter_grid():
    xs = np.linspace(0.0, 1.0, 5)     # spacing 0.25
    val, wit = seminorm(xs**2, xs, 0.5)
    # brute force over all 10 pairs: max is (x+y)|x-y|^(1/2) at (0.25, 1)
    assert val == pytest.approx(1.25 * np.sqrt(0.75), rel=1e-12)
    assert (wit[0][0], wit[1][0]) == (0.25, 1.0)
    ref, _ = oracle_seminorm(xs**2, xs, 0.5)
    assert val == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("strategy", ["brute_force", "pruned"])
def test_seminorm_matches_oracle_random(strategy, rng):
    for _ in range(5):
        n = int(rng.integers(5, 40))
        coords = rng.random((n, 2))
        values = rng.standard_normal(n)
        alpha = float(rng.uniform(0.1, 0.9))
        val, wit = seminorm(values, coords, alpha, strategy)
        ref, ref_wit = oracle_seminorm(values, coords, alpha)
        assert val == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("layout", ["plane", "loop"])
def test_brute_force_touches_no_bound_key_or_queue_code(layout, monkeypatch):
    # the reference path stands alone: with the bounds, the affine models
    # and the best-first drain all raising, brute force still gives the
    # double loop's maxima and evaluates every pair, on node sets a little
    # wider than one tile
    def unreachable(*args, **kwargs):
        raise AssertionError("brute force reached pruning code")
    for name in ("_box_bounds", "_affine_models", "_affine_bounds", "_Sweep.drain"):
        monkeypatch.setattr(f"neumann_lab.norms.{name}", unreachable)
    rng = np.random.default_rng(5)
    n = TILE + 22
    if layout == "plane":
        coords, period = rng.random((n, 2)), None
    else:
        coords, period = np.sort(rng.uniform(0.0, 3.0, n))[:, None], 3.0
    values = rng.standard_normal(n)
    alphas = (0.3, 0.7)
    best, _, pairs = pairwise_holder_max(coords, values[None, :], alphas, "brute_force",
                                         period)
    assert pairs == n * (n - 1) // 2
    for ia, alpha in enumerate(alphas):
        ref, _ = oracle_seminorm(values, coords, alpha, period)
        assert best[0, ia] == pytest.approx(ref, rel=1e-12)


def test_pruned_equals_brute_bitwise(rng):
    for n in (50, 400, 1500):
        coords = rng.random((n, 2))
        values = rng.standard_normal((3, n))
        for alpha in (0.3, 0.5, 0.7):
            b, _, pb = pairwise_holder_max(coords, values, (alpha,), "brute_force")
            p, _, pp = pairwise_holder_max(coords, values, (alpha,), "pruned")
            assert (b == p).all()        # identical floats, not approximately
            assert pp <= pb


def test_pruned_equals_brute_on_grid_fields(disk_mesh_small, rng):
    u = GridFunction(disk_mesh_small,
                     rng.standard_normal(disk_mesh_small.n_interior),
                     rng.standard_normal(disk_mesh_small.n_boundary))
    for alpha in (0.3, 0.7):
        rb = c_k_alpha_norm(u, 2, alpha, pair_strategy="brute_force")
        rp = c_k_alpha_norm(u, 2, alpha, pair_strategy="pruned")
        assert rb.seminorm == rp.seminorm
        assert rb.total == rp.total


def test_pruned_periodic_pruning_across_the_seam():
    # a boundary loop of 2048 nodes, many tiles, whose steepest pair straddles the seam
    mesh = build_mesh(DomainSpec.disk(), (8, 2048))
    t = mesh.theta / (2 * np.pi)
    bump = (t - 0.5) + 3 * np.sin(2 * np.pi * (t - 0.25) / 0.5)
    g = BoundaryFunction(mesh, np.where((t > 0.25) & (t < 0.75), bump, t - 0.5))
    rb = c_k_alpha_norm(g, 0, 0.5, pair_strategy="brute_force")
    rp = c_k_alpha_norm(g, 0, 0.5, pair_strategy="pruned")
    assert rb.seminorm == pytest.approx(18.045, abs=1e-3)
    assert rp.seminorm == rb.seminorm


def _attains(coords, values, best, witnesses, alphas, period=None):
    """Every witness pair's quotient, recomputed directly, equals its maximum."""
    coords = coords.reshape(len(coords), -1)
    for ic in range(values.shape[0]):
        for ia, a in enumerate(alphas):
            i, j = witnesses[ic, ia]
            d = np.abs(coords[i] - coords[j])
            if period is not None:
                d = np.minimum(d, period - d)
            q = abs(values[ic, i] - values[ic, j]) / float(np.sqrt((d * d).sum()))**a
            assert i < j and q == pytest.approx(best[ic, ia], rel=1e-12)


def _cloud(rng, n, layout):
    """Points in the unit square that stress the k-d split."""
    if layout == "clustered":
        centres = rng.random((3, 2))
        return centres[rng.integers(0, 3, n)] + 1e-3 * rng.standard_normal((n, 2))
    if layout == "collinear_x":
        return np.column_stack([rng.random(n), np.full(n, 0.25)])
    if layout == "collinear_y":
        return np.column_stack([np.full(n, 0.5), rng.random(n)])
    if layout == "duplicates":
        # few distinct sites, each repeated many times: long runs of ties
        return rng.integers(0, 6, (n, 2)) / 5.0
    return rng.random((n, 2))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4 * TILE + 17),
       layout=st.sampled_from(["periodic", "periodic_duplicates", "uniform", "clustered",
                               "collinear_x", "collinear_y", "duplicates"]),
       rough=st.booleans(),
       alphas=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3, unique=True))
def test_pruned_equals_brute_bitwise_multi_tile(seed, n, layout, rough, alphas):
    # n runs from one partial leaf to several tiles, so neither LEAF nor
    # TILE need divide it; loops span up to 34 leaves
    rng = np.random.default_rng(seed)
    if layout.startswith("periodic"):
        period = float(rng.uniform(1.0, 10.0))
        sites = rng.uniform(0.0, period, n)
        if layout == "periodic_duplicates":
            sites = period * rng.integers(0, 24, n) / 24
        coords = np.sort(sites)[:, None]
        t = coords[:, 0] / period
    else:
        period = None
        coords = _cloud(rng, n, layout)
        t = coords.mean(axis=1)
    assume(np.ptp(coords, axis=0).any())      # all nodes coinciding is degenerate
    if rough:
        values = rng.standard_normal((2, n))
    else:
        # a sawtooth (a jump across the seam) with a steep bump in the middle
        bump = (t - 0.5) + 3 * np.sin(2 * np.pi * (t - 0.25) / 0.5)
        values = np.vstack([np.where((t > 0.25) & (t < 0.75), bump, t - 0.5),
                            np.sin(2 * np.pi * t)])
    b, wb, pb = pairwise_holder_max(coords, values, alphas, "brute_force", period)
    p, wp, pp = pairwise_holder_max(coords, values, alphas, "pruned", period)
    assert (b == p).all()
    assert pp <= pb == n * (n - 1) // 2
    _attains(coords, values, b, wb, alphas, period)
    _attains(coords, values, p, wp, alphas, period)


def _site_set(rng, n, layout):
    """(coords, period) of n sites; lattice sites are dyadic, so that
    affine data on them is exact."""
    if layout == "loop":
        period = float(rng.uniform(1.0, 10.0))
        return np.sort(rng.uniform(0.0, period, n))[:, None], period
    if layout == "line":
        return rng.random((n, 1)), None
    if layout == "space":
        return rng.random((n, 3)), None
    if layout == "lattice":
        return rng.integers(0, 16, (n, 2)) / 4.0, None
    return _cloud(rng, n, layout), None


def _rows(rng, coords, period, data, m):
    """m value rows on the sites: smooth, affine, kinked or rough; every
    third row is twice the one before, so that rows of a group tie."""
    x = coords / period if period is not None else coords
    out = []
    for r in range(m):
        if r % 3 == 2:
            out.append(2.0 * out[-1])
        elif data == "rough":
            out.append(rng.standard_normal(len(coords)))
        elif data == "affine":
            out.append(coords @ rng.integers(-3, 4, coords.shape[1]).astype(float))
        elif data == "kinked":
            # affine on either side of a fold: the slopes of two leaves differ
            fold = rng.uniform(0.2, 0.8, coords.shape[1])
            out.append(np.abs(coords - fold) @ rng.integers(-3, 4, coords.shape[1]))
        else:
            k = rng.uniform(0.5, 3.0, x.shape[1])
            out.append(np.sin(2 * np.pi * x @ k) + (x * x).sum(axis=1))
    return np.vstack(out)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), leaves=st.integers(TILE // LEAF, 3 * TILE // LEAF),
       tail=st.integers(1, 7),
       layout=st.sampled_from(["uniform", "clustered", "collinear_x", "duplicates",
                               "lattice", "line", "space", "loop"]),
       data=st.sampled_from(["smooth", "affine", "kinked", "rough"]),
       offset=st.sampled_from([0.0, 1e8]), scale=st.sampled_from([1e-6, 1.0, 1e6]),
       groups=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       alphas=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3, unique=True))
def test_grouped_maxima_equal_brute_force_and_the_rows_maxima(
        seed, leaves, tail, layout, data, offset, scale, groups, alphas):
    # more than one tile, with a last leaf of 1-7 nodes; a group's maximum
    # is the largest of its rows' maxima, bitwise, under both strategies
    rng = np.random.default_rng(seed)
    coords, period = _site_set(rng, leaves * LEAF + tail, layout)
    assume(np.ptp(coords, axis=0).any())      # all nodes coinciding is degenerate
    values = _rows(rng, coords, period, data, sum(groups)) + offset
    coords = coords * scale
    period = None if period is None else period * scale
    first = np.cumsum(groups) - groups
    found = {}
    for strategy in ("brute_force", "pruned"):
        best, wit, pairs = pairwise_holder_max(coords, values, alphas, strategy, period,
                                               groups=groups)
        rows, _, _ = pairwise_holder_max(coords, values, alphas, strategy, period)
        assert np.array_equal(best, np.maximum.reduceat(rows, first, axis=0))
        found[strategy] = best, pairs
        # every witness attains its maximum on one of its group's rows
        for ig, (start, count) in enumerate(zip(first, groups)):
            sub = values[start:start + count]
            for ia, a in enumerate(alphas):
                i, j = wit[ig, ia]
                d = np.abs(coords[i] - coords[j])
                if period is not None:
                    d = np.minimum(d, period - d)
                q = np.abs(sub[:, i] - sub[:, j]).max() / float(np.sqrt((d * d).sum()))**a
                assert i < j and q == pytest.approx(best[ig, ia], rel=1e-12)
    (b, pb), (p, pp) = found["brute_force"], found["pruned"]
    assert np.array_equal(b, p)
    n = len(coords)
    assert pp <= pb == n * (n - 1) // 2


def _edge_case(case):
    """(coords, period) of a node set at a corner of the self-pair pass."""
    rng = np.random.default_rng(7)
    if case == "last_leaf_one_node":
        return rng.random((TILE + 1, 2)), None      # TILE + 1 = 9 * LEAF + 1
    if case == "one_partial_leaf":
        return rng.random((LEAF - 5, 2)), None
    if case == "loop_in_one_leaf":
        return np.sort(rng.uniform(0.0, 3.0, LEAF - 2))[:, None], 3.0
    coords = rng.random((2 * LEAF + 5, 2))
    coords[-1] = coords[3]                           # coincident with node 3
    return coords, None


@pytest.mark.parametrize("case", ["last_leaf_one_node", "one_partial_leaf",
                                  "loop_in_one_leaf", "coincident_in_one_leaf"])
def test_leaf_self_pairs_at_the_edges(case):
    coords, period = _edge_case(case)
    n = len(coords)
    if case == "coincident_in_one_leaf":
        place = np.argsort(_layout(coords))
        assert place[3] // LEAF == place[n - 1] // LEAF
    values = np.random.default_rng(8).standard_normal((2, n))
    alphas = (0.3, 0.7)
    b, wb, pb = pairwise_holder_max(coords, values, alphas, "brute_force", period)
    p, wp, pp = pairwise_holder_max(coords, values, alphas, "pruned", period)
    assert (b == p).all() and np.isfinite(b).all()
    assert pp <= pb == n * (n - 1) // 2
    _attains(coords, values, b, wb, alphas, period)
    _attains(coords, values, p, wp, alphas, period)


def _boxes(P, groups):
    return (np.array([P[g].min(axis=0) for g in groups]),
            np.array([P[g].max(axis=0) for g in groups]))


@pytest.mark.parametrize("n", [TILE - 3, TILE, 3 * TILE, 5 * TILE + 17])
@pytest.mark.parametrize("layout", ["uniform", "clustered", "collinear_y", "duplicates"])
def test_kd_tile_layout(n, layout, rng):
    # nested layout: chunks of TILE nodes are k-d boxes, and so are the
    # leaves of LEAF nodes each chunk is cut into
    coords = _cloud(rng, n, layout)
    values = rng.standard_normal((2, n))
    alphas = np.array([0.3, 0.7])
    order = _layout(coords)
    assert (np.sort(order) == np.arange(n)).all()
    P, V = coords[order], values[:, order]
    chunks = [np.arange(s, min(s + TILE, n)) for s in range(0, n, TILE)]
    leaves = [np.arange(s, min(s + LEAF, n)) for s in range(0, n, LEAF)]
    assert all(len(g) == LEAF for g in leaves[:-1]) and 0 < len(leaves[-1]) <= LEAF
    clo, chi = _boxes(P, chunks)
    llo, lhi = _boxes(P, leaves)
    # any two boxes of a level are separated along some axis (touching only
    # where the split coordinate ties); a leaf's box lies inside its chunk's
    for lo, hi in ((clo, chi), (llo, lhi)):
        for p in range(len(lo)):
            for q in range(p + 1, len(lo)):
                assert ((hi[p] <= lo[q]) | (hi[q] <= lo[p])).any()
    owner = np.arange(len(leaves)) * LEAF // TILE
    assert (llo >= clo[owner]).all() and (lhi <= chi[owner]).all()
    # the bounds of every box pair at both levels hold for each of its node
    # pairs, so the distance lower bound dmin is sound; _box_bounds takes
    # (d, boxes) and (m, boxes) rows and returns (groups, alphas, pairs)
    for groups, lo, hi in ((chunks, clo, chi), (leaves, llo, lhi)):
        vlo = np.column_stack([V[:, g].min(axis=1) for g in groups])
        vhi = np.column_stack([V[:, g].max(axis=1) for g in groups])
        tp, tq = np.triu_indices(len(groups))
        bound, _ = _box_bounds(lo.T, hi.T, vlo, vhi, tp, tq, alphas, None, np.arange(len(V)))
        for k, (p, q) in enumerate(zip(tp, tq)):
            d = np.sqrt(((P[groups[p], None, :] - P[None, groups[q], :])**2).sum(axis=2))
            dv = np.abs(V[:, groups[p], None] - V[:, None, groups[q]])
            keep = np.triu(np.ones(d.shape, dtype=bool), k=1) if p == q else np.ones(d.shape, bool)
            keep &= d > 0
            if keep.any():
                quot = dv[:, keep][:, None, :] / d[keep] ** alphas[:, None]
                assert (quot.max(axis=2) <= bound[..., k]).all()
    # padding of the last leaf is never counted
    _, _, pairs = pairwise_holder_max(coords, values, alphas, "brute_force")
    assert pairs == n * (n - 1) // 2


def _kd_order_reference(coords, idx, size):
    """idx ordered into k-d boxes of size nodes, one box at a time.

    Each split cuts along the axis of larger extent (ties in that
    coordinate broken by the others) and puts size * ceil(nboxes / 2)
    nodes on the left.
    """
    nboxes = -(-len(idx) // size)
    if nboxes <= 1:
        return idx
    P = coords[idx]
    axis = int(np.argmax(P.max(axis=0) - P.min(axis=0)))
    idx = idx[np.lexsort((*P.T, P[:, axis]))]
    left = size * -(-nboxes // 2)
    return np.concatenate([_kd_order_reference(coords, idx[:left], size),
                           _kd_order_reference(coords, idx[left:], size)])


def _layout_reference(coords):
    """The nested layout by per-box recursion: chunks of TILE, leaves of LEAF."""
    order = _kd_order_reference(coords, np.arange(len(coords)), TILE)
    return np.concatenate([_kd_order_reference(coords, order[s:s + TILE], LEAF)
                           for s in range(0, len(coords), TILE)])


def _examples(test):
    # fewer nodes than one chunk; whole chunks only; and a last partial
    # chunk of fewer than LEAF, exactly LEAF and more than LEAF nodes
    for n in (TILE - 3, 3 * TILE, 2 * TILE + 5, 2 * TILE + LEAF, 2 * TILE + LEAF + 7):
        for layout in ("uniform", "duplicates", "lattice", "space"):
            test = example(seed=n, n=n, layout=layout)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5 * TILE + 17),
       layout=st.sampled_from(["uniform", "clustered", "collinear_x", "collinear_y",
                               "duplicates", "lattice", "signed_zeros", "space",
                               "space_duplicates"]))
@_examples
def test_layout_equals_recursive_split(seed, n, layout):
    # the level-by-level split gives the very permutation of the per-box
    # recursion, ties and duplicate sites included; one split cuts the
    # node set into chunks and a second cuts every chunk into leaves
    rng = np.random.default_rng(seed)
    if layout == "lattice":
        side = int(np.ceil(np.sqrt(n)))
        coords = np.column_stack(np.divmod(rng.permutation(side * side)[:n], side)) * 0.1
    elif layout == "signed_zeros":
        coords = rng.integers(-2, 3, (n, 2)) / 2.0
        coords[rng.random(n) < 0.3] *= -1.0       # -0.0 beside 0.0
    elif layout == "space":
        coords = rng.random((n, 3))
    elif layout == "space_duplicates":
        coords = rng.integers(0, 3, (n, 3)) / 2.0
    else:
        coords = _cloud(rng, n, layout)
    assert np.array_equal(_layout(coords), _layout_reference(coords))


def test_pruning_skips_most_pairs_on_smooth_study_data():
    # default-family forcing on the finest default rung: smooth fields,
    # where 16-node leaves keep spreads small enough to prune
    mesh = build_mesh(DomainSpec.disk(), (48, 192))
    n = mesh.n_interior + mesh.n_boundary
    for seed in range(5):
        f, _ = ProblemFamily(seed=seed, count=1).instances()[0].realize(mesh)
        _, _, pairs = pairwise_holder_max(f.all_xy(), f.all_values()[None, :],
                                          (0.3, 0.5, 0.7), "pruned")
        assert pairs <= 0.15 * n * (n - 1) // 2


def _fits(monkeypatch):
    """A list that records the run size of every affine fit from here on:
    TILE for the chunks' models, LEAF for the leaves'."""
    sizes, fit = [], norms._affine_models
    monkeypatch.setattr(norms, "_affine_models",
                        lambda cols, dim, index: sizes.append(len(index)) or fit(cols, dim, index))
    return sizes


@pytest.mark.parametrize("seed", range(5))
def test_pruning_work_on_the_study_stacks(seed, monkeypatch):
    # instance 0's f and u'' on the finest default rung, as the estimate
    # stacks them (two groups), and f alone: the share of all node pairs
    # the pruned sweep evaluates.  The stack is smooth, so it keeps its
    # affine stage and does the very work it does with the rule off.
    mesh = build_mesh(DomainSpec.disk(), (48, 192))
    n = mesh.n_interior + mesh.n_boundary
    f, g = ProblemFamily(seed=seed, count=1).instances()[0].realize(mesh)
    u = solve_neumann(f, g, compat_policy="project").solution
    rows = np.vstack([f.all_values()] + [c.all_values() for d in gradient(u) for c in gradient(d)])
    alphas = (0.3, 0.5, 0.7)
    fits = _fits(monkeypatch)
    _, _, stacked = pairwise_holder_max(f.all_xy(), rows, alphas, "pruned", groups=[1, 4])
    assert fits == [TILE, LEAF]
    _, _, alone = pairwise_holder_max(f.all_xy(), rows[:1], alphas, "pruned")
    assert stacked <= 0.04 * n * (n - 1) // 2
    assert alone <= 0.025 * n * (n - 1) // 2
    monkeypatch.setattr(norms, "ROUGH", np.inf)
    _, _, forced = pairwise_holder_max(f.all_xy(), rows, alphas, "pruned", groups=[1, 4])
    assert forced == stacked


@pytest.mark.parametrize("res, pairs", [((12, 48), 68424), ((24, 96), 153936),
                                        ((48, 192), 288672)])
def test_pruned_work_on_instance_0_stack_is_pinned(res, pairs):
    # instance 0's f and u'' as groups [1, 4] on each default rung: the
    # pairs the pruned sweep evaluates, so that a change to the kernel's
    # work shows here by name
    mesh = build_mesh(DomainSpec.disk(), res)
    f, g = ProblemFamily(seed=0, count=1).instances()[0].realize(mesh)
    u = solve_neumann(f, g, compat_policy="project").solution
    rows = np.vstack([f.all_values()] + [c.all_values() for d in gradient(u) for c in gradient(d)])
    _, _, evaluated = pairwise_holder_max(f.all_xy(), rows, (0.3, 0.5, 0.7), "pruned",
                                          groups=[1, 4])
    assert evaluated == pairs


def test_white_noise_fits_chunk_models_only(monkeypatch):
    # every chunk fit of white noise leaves residuals near half the value
    # spread, so the call drops its affine stage after the chunk fits and
    # bounds with spreads alone; the maxima do not move
    xy, values = _rough_lattice_field()
    alphas = (0.3, 0.5, 0.7)
    fits = _fits(monkeypatch)
    best, _, _ = pairwise_holder_max(xy, values, alphas, "pruned")
    assert fits == [TILE]
    brute, _, _ = pairwise_holder_max(xy, values, alphas, "brute_force")
    assert np.array_equal(best, brute)


def test_a_smooth_group_keeps_the_affine_stage(monkeypatch):
    # white noise stacked with a smooth field: the call drops its affine
    # stage only if every group is rough, so this one fits its leaves too
    mesh = build_mesh(DomainSpec.disk(), (24, 96))
    f, _ = ProblemFamily(seed=0, count=1).instances()[0].realize(mesh)
    noise = np.random.default_rng(1).standard_normal(f.all_values().shape)
    rows, alphas = np.vstack([noise, f.all_values()]), (0.3, 0.7)
    fits = _fits(monkeypatch)
    best, _, _ = pairwise_holder_max(f.all_xy(), rows, alphas, "pruned", groups=[1, 1])
    assert fits == [TILE, LEAF]
    pairwise_holder_max(f.all_xy(), rows[:1], alphas, "pruned")
    assert fits == [TILE, LEAF, TILE]
    brute, _, _ = pairwise_holder_max(f.all_xy(), rows, alphas, "brute_force", groups=[1, 1])
    assert np.array_equal(best, brute)


def _ten_smooth_disk_fields():
    mesh = build_mesh(DomainSpec.disk(), (48, 192))
    fields = [inst.realize(mesh)[0] for inst in ProblemFamily(seed=0, count=10).instances()]
    return fields[0].all_xy(), np.vstack([f.all_values() for f in fields])


def _rough_lattice_field():
    xs = np.linspace(0.0, 1.0, 100)
    X, Y = np.meshgrid(xs, xs)
    return (np.column_stack([X.ravel(), Y.ravel()]),
            np.random.default_rng(0).standard_normal((1, X.size)))


def test_kernel_memory_is_bounded_by_the_batch():
    # ten stacked smooth fields on the (48,192) disk, and one rough field on
    # the 100x100 lattice, whose leaf self pairs are all evaluated: the
    # kernel's transient memory follows the batch and the tile count, not
    # the number of leaf pairs (173k on the disk)
    for xy, values in (_ten_smooth_disk_fields(), _rough_lattice_field()):
        tracemalloc.start()
        try:
            pairwise_holder_max(xy, values, (0.3, 0.5, 0.7), "pruned")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def test_kernel_memory_on_the_sweep_that_keeps_leaf_weights():
    # a node set's second sweep makes its leaf weights in arrays it keeps:
    # its peak stays under the same 8 MiB, and what it keeps is those
    # weights, len(alphas) doubles for each of the 120 pairs of every
    # leaf, and O(n) for the node set's geometry
    alphas = (0.3, 0.5, 0.7)
    for xy, values in (_ten_smooth_disk_fields(), _rough_lattice_field()):
        pairwise_holder_max(xy, values, alphas, "pruned")
        tracemalloc.start()
        try:
            pairwise_holder_max(xy, values, alphas, "pruned")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        nleaf = -(-len(xy) // LEAF)
        assert kept <= len(alphas) * (LEAF * (LEAF - 1) // 2) * nleaf * 8 + 48 * len(xy)


@pytest.mark.parametrize("shape", [(1200,), (30, 30)])
def test_brute_force_witness_ties_across_tiles(shape, rng):
    # unit-spaced lattice with alternating values: every adjacent pair
    # attains the maximum 1 exactly, in many tiles; nodes are shuffled so
    # sorted order and index order differ
    axes = np.meshgrid(*[np.arange(k, dtype=float) for k in shape], indexing="ij")
    coords = np.column_stack([ax.ravel() for ax in axes])
    values = (sum(axes).ravel() % 2.0)[None, :]
    perm = rng.permutation(len(coords))
    coords, values = coords[perm], values[:, perm]
    assert len(coords) > TILE
    best, wit, _ = pairwise_holder_max(coords, values, (0.5,), "brute_force")
    assert best[0, 0] == 1.0
    d = np.sqrt(((coords[:, None, :] - coords[None, :, :])**2).sum(axis=2))
    ties = np.argwhere(np.triu(np.abs(values[0][:, None] - values[0][None, :]) == d, k=1))
    assert tuple(wit[0, 0]) == tuple(min(map(tuple, ties)))


def _attained(xy, rows, pair, alpha, period=None):
    """The quotient of node pair (p, q) over rows, distances the short way
    round a loop of length period."""
    p, q = pair
    d = np.abs(xy[p] - xy[q])
    if period is not None:
        d = np.minimum(d, period - d)
    return np.abs(rows[:, p] - rows[:, q]).max() / np.sqrt((d * d).sum())**alpha


def test_stacked_call_equals_separate_calls(disk_mesh_small, rng):
    # an item's reports do not depend on the other items of the sweep nor
    # on the other exponents
    mesh = disk_mesh_small
    f = GridFunction(mesh, rng.standard_normal(mesh.n_interior),
                     rng.standard_normal(mesh.n_boundary))
    u = GridFunction.from_expression(mesh, "sin(3*x)*cos(2*y) + x*y")
    g = BoundaryFunction.from_expression(mesh, "cos(theta) + 0.3*sin(5*theta)")
    items = [(f, 0), (g, 1), (u, 2), (2.0 * f, 0), (2.0 * g, 1), (u, 1)]
    alphas = (0.3, 0.5, 0.7)
    for strategy in ("brute_force", "pruned"):
        stacked = holder_reports(items, alphas, strategy)
        for (fld, k), reports in zip(items, stacked):
            assert list(reports) == list(alphas)
            assert reports == holder_report_bundle(fld, k, alphas, strategy)
            for a in alphas:
                assert reports[a] == c_k_alpha_norm(fld, k, a, strategy)
    # kernel level: the volume rows of f and u'' in one call
    xy = f.all_xy()
    second = [c.all_values() for d in gradient(u) for c in gradient(d)]
    rows = np.vstack([f.all_values()] + second)
    for strategy in ("brute_force", "pruned"):
        b, w, _ = pairwise_holder_max(xy, rows, (0.3, 0.7), strategy)
        for ic in range(len(rows)):
            bi, wi, _ = pairwise_holder_max(xy, rows[ic:ic + 1], (0.3, 0.7), strategy)
            assert (b[ic] == bi[0]).all()
            if strategy == "brute_force":
                assert (w[ic] == wi[0]).all()


def test_reports_take_each_item_over_its_rows(disk_mesh_small, rng):
    # an item's seminorm is the largest of separate per-row maxima; at
    # kernel level, a group's witness attains its maximum on one of its rows
    mesh = disk_mesh_small
    f = GridFunction(mesh, rng.standard_normal(mesh.n_interior),
                     rng.standard_normal(mesh.n_boundary))
    u = GridFunction.from_expression(mesh, "sin(3*x)*cos(2*y) + x*y")
    g = BoundaryFunction.from_expression(mesh, "cos(theta) + 0.3*sin(5*theta)")
    items = [(f, 0), (u, 2), (g, 1), (u, 1)]
    alphas = (0.3, 0.7)
    for strategy in ("brute_force", "pruned"):
        for (fld, k), reports in zip(items, holder_reports(items, alphas, strategy)):
            xy, period = ((fld.all_xy(), None) if isinstance(fld, GridFunction)
                          else (mesh.arc[:, None], mesh.boundary_measure))
            rows = np.vstack(_derivative_stack(fld, k)[k])
            best, wit, _ = pairwise_holder_max(xy, rows, alphas, strategy, period,
                                               groups=[len(rows)])
            for ia, a in enumerate(alphas):
                alone = [pairwise_holder_max(xy, row[None, :], (a,), strategy, period)[0][0, 0]
                         for row in rows]
                assert reports[a].seminorm == best[0, ia] == max(alone)
                quot = _attained(xy, rows, wit[0, ia], a, period)
                assert quot == pytest.approx(best[0, ia], rel=1e-12)


def test_boundary_seminorm_uses_arclength(disk_mesh_small):
    # sawtooth in theta: adjacent boundary nodes, arclength h_theta apart
    vals = np.zeros(disk_mesh_small.n_boundary)
    vals[::2] = 1.0
    g = BoundaryFunction(disk_mesh_small, vals)
    val = c_k_alpha_norm(g, 0, 0.5).seminorm
    assert val == pytest.approx(1.0 / np.sqrt(disk_mesh_small.h_theta), rel=1e-10)


def _counted_layouts(monkeypatch):
    """The node counts of every _layout call from here on."""
    layouts = []
    layout = norms._layout
    monkeypatch.setattr(norms, "_layout", lambda xy: layouts.append(len(xy)) or layout(xy))
    return layouts


def _counted_weights(monkeypatch):
    """The (period, alphas) key of every leaf-weight build a node set keeps
    from here on."""
    builds = []
    keep = norms._NodeSet.keep_weights

    def counted(node_set, key, batches):
        builds.append(key)
        keep(node_set, key, batches)

    monkeypatch.setattr(norms._NodeSet, "keep_weights", counted)
    return builds


@pytest.mark.parametrize("spec, res", [(DomainSpec.disk(), (12, 48)),
                                       (DomainSpec.star_shaped(1.0, (0.2, 0.1)), (12, 48)),
                                       (DomainSpec.interval(0.0, 2.0), 200)])
def test_field_seminorm_is_the_order_0_norm(spec, res, monkeypatch):
    # the order-0 seminorm is the kernel's maximum on the field's node set:
    # the volume nodes, or the boundary loop by arclength (a 1D boundary's
    # two endpoints)
    mesh = build_mesh(spec, res)
    u = GridFunction.from_expression(mesh, "sqrt(abs(x)) + x^2 - 3*x")
    g = BoundaryFunction.from_expression(mesh, "abs(x - 0.3)")
    loop = (mesh.arc[:, None], mesh.boundary_measure) if mesh.dim == 2 else (
        mesh.boundary_xy, None)
    cases = [(u, u.all_values(), u.all_xy(), None), (g, g.values, *loop)]
    strategies, alphas = ("brute_force", "pruned"), (0.3, 0.7)
    layouts = _counted_layouts(monkeypatch)
    expected = {(k, s, a): pairwise_holder_max(xy, vals[None, :], (a,), s, period)[:2]
                for k, (_, vals, xy, period) in enumerate(cases)
                for s in strategies for a in alphas}
    for k, (field, vals, xy, period) in enumerate(cases):
        for strategy in strategies:
            for alpha in alphas:
                rep = c_k_alpha_norm(field, 0, alpha, pair_strategy=strategy)
                best, wit = expected[k, strategy, alpha]
                assert rep.seminorm == best[0, 0]
                quot = _attained(xy, vals[None, :], wit[0, 0], alpha, period)
                assert quot == pytest.approx(best[0, 0], rel=1e-12)
    # one layout per node set, kept by the kernel across calls
    assert len(layouts) == 2


def test_kernel_builds_each_alternating_node_set_once(monkeypatch, rng):
    # rounds of three rough fields on the 100x100 lattice, then three on
    # the (48,192) disk's nodes: each node set's layout is built once in
    # all and its leaf weights once, on its second sweep, and every call
    # returns what it returns on a cleared memo
    xs = np.linspace(0.0, 1.0, 100)
    mesh = build_mesh(DomainSpec.disk(), (48, 192))
    sets = [np.column_stack([c.ravel() for c in np.meshgrid(xs, xs)]),
            np.vstack([mesh.interior_xy, mesh.boundary_xy])]
    calls = [(xy, v[None, :]) for _ in range(2)
             for xy in sets for v in rng.standard_normal((3, len(xy)))]
    alphas = (0.3, 0.5, 0.7)
    layouts, builds = _counted_layouts(monkeypatch), _counted_weights(monkeypatch)
    kept = [pairwise_holder_max(xy, v, alphas, "pruned") for xy, v in calls]
    assert sorted(layouts) == [9408, 10000]
    assert builds == [(None, alphas)] * 2
    for (xy, v), (best, wit, pairs) in zip(calls, kept):
        norms._node_set.cache_clear()
        fresh_best, fresh_wit, fresh_pairs = pairwise_holder_max(xy, v, alphas, "pruned")
        assert np.array_equal(best, fresh_best)
        assert np.array_equal(wit, fresh_wit)
        assert pairs == fresh_pairs
    # a study's pattern: each rung's volume nodes, then its boundary loop,
    # three rungs in turn and twice over.  Each node set is evicted before
    # it comes round again, so every sweep is a first one and keeps no
    # weights.
    norms._node_set.cache_clear()
    meshes = [build_mesh(DomainSpec.disk(), res) for res in ((8, 32), (12, 48), (16, 64))]
    sets = [s for mesh in meshes for s in ((np.vstack([mesh.interior_xy, mesh.boundary_xy]), None),
                                           (mesh.arc[:, None], mesh.boundary_measure))]
    for _ in range(2):
        for xy, period in sets:
            pairwise_holder_max(xy, rng.standard_normal((1, len(xy))), alphas, "pruned", period)
    assert len(layouts) == 2 + 2 * len(sets) + 12
    assert len(builds) == 2


def _memo_sets(rng):
    """(coords, values, period) of a plane set, a line and a loop wider than
    one tile, nodes 0 and 1 coincident; none fills its last leaf, whose
    padding copies are masked too.  Two rows of noise and a constant row,
    whose witness is the first pair of distinct nodes a sweep evaluates,
    never the coincident (0, 1)."""
    sets = []
    for xy, period in ((rng.random((3 * TILE + 5, 2)), None),
                       (rng.random((2 * TILE + 9, 1)), None),
                       (np.sort(rng.uniform(0.0, 3.0, 2 * TILE + 3))[:, None], 3.0)):
        xy[1] = xy[0]
        sets.append((xy, np.vstack([rng.standard_normal((2, len(xy))), np.ones(len(xy))]), period))
    return sets


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_kept_leaf_weights_leave_every_result_bitwise(strategy, monkeypatch, rng):
    # a node set's cold sweep, its second, which makes and keeps its leaf
    # weights, and its third, which reads them, give the same maxima,
    # witnesses and pair counts
    builds = _counted_weights(monkeypatch)
    for xy, values, period in _memo_sets(rng):
        norms._node_set.cache_clear()
        cold, *warm = (pairwise_holder_max(xy, values, (0.3, 0.7), strategy, period)
                       for _ in range(3))
        assert tuple(cold[1][2, 0]) != (0, 1)
        for best, wit, pairs in warm:
            assert np.array_equal(best, cold[0])
            assert np.array_equal(wit, cold[1])
            assert pairs == cold[2]
    assert builds == [(None, (0.3, 0.7))] * 2 + [(3.0, (0.3, 0.7))]


def test_kept_leaf_weights_are_keyed_by_period_and_exponents(monkeypatch):
    # one leaf of sites across most of a unit loop, the two ends of the
    # sites +1 and -1: the largest quotient is that pair's, 0.03 apart
    # round the loop, but a neighbour pair's on the line.  Swept in turn
    # as a line and a loop, at exponents (0.3, 0.7) and (0.7, 0.3), no
    # sweep reads another's weights: each equals its cold brute force.
    xy = np.linspace(0.01, 0.98, LEAF)[:, None]
    values = np.zeros((1, LEAF))
    values[0, [0, -1]] = 1.0, -1.0
    keys = [(period, alphas) for period in (None, 1.0) for alphas in ((0.3, 0.7), (0.7, 0.3))]
    expected = {}
    for period, alphas in keys:
        norms._node_set.cache_clear()
        expected[period, alphas] = pairwise_holder_max(xy, values, alphas, "brute_force", period)
    assert not np.array_equal(expected[None, (0.3, 0.7)][0], expected[1.0, (0.3, 0.7)][0])
    norms._node_set.cache_clear()
    builds = _counted_weights(monkeypatch)
    for _ in range(2):
        for period, alphas in keys:
            best, wit, pairs = pairwise_holder_max(xy, values, alphas, "pruned", period)
            assert np.array_equal(best, expected[period, alphas][0])
            assert np.array_equal(wit, expected[period, alphas][1])
    # every sweep but the first replaces the weights of the key before it
    assert builds == (keys * 2)[1:]


def test_eviction_drops_a_node_sets_weights(monkeypatch, rng):
    sets = [rng.random((300, 2)) for _ in range(3)]
    v = rng.standard_normal((1, 300))
    builds = _counted_weights(monkeypatch)
    for _ in range(2):
        pairwise_holder_max(sets[0], v, (0.5,), "pruned")
    assert len(builds) == 1
    _, batches = norms._node_set(sets[0].shape, sets[0].tobytes()).weights
    weights = weakref.ref(batches[0][0])
    del batches
    for xy in sets[1:]:
        pairwise_holder_max(xy, v, (0.5,), "pruned")
    assert weights() is None
    # the node set comes back new: its next sweep is a first one, and the
    # one after that keeps weights again
    pairwise_holder_max(sets[0], v, (0.5,), "pruned")
    assert len(builds) == 1
    pairwise_holder_max(sets[0], v, (0.5,), "pruned")
    assert len(builds) == 2


def test_layout_memo_keeps_the_last_two_node_sets_by_their_coordinates(monkeypatch, rng):
    sets = [rng.random((n, 2)) for n in (300, 300, 301)]
    v = rng.standard_normal(301)
    layouts = _counted_layouts(monkeypatch)
    orders = [norms._node_set(xy.shape, xy.tobytes()).order for xy in sets]
    assert norms._node_set.cache_info().currsize == norms.LAYOUTS == 2
    assert len(layouts) == 3 and not orders[0].flags.writeable
    # the evicted first node set is built again, to the same order
    again = norms._node_set(sets[0].shape, sets[0].tobytes()).order
    assert len(layouts) == 4 and np.array_equal(again, orders[0])
    # a copy in a new array hits the memo; coordinates changed in place miss it
    copy = sets[0].copy()
    pairwise_holder_max(copy, v[:300], (0.5,), "pruned")
    assert len(layouts) == 4
    copy[7] = sets[1][7]
    moved = pairwise_holder_max(copy, v[:300], (0.5,), "pruned")
    assert len(layouts) == 5
    assert np.array_equal(norms._node_set(copy.shape, copy.tobytes()).order, _layout(copy))
    assert np.array_equal(moved[0], pairwise_holder_max(copy, v[:300], (0.5,), "brute_force")[0])


def test_layout_memo_is_shared_by_threads(monkeypatch, rng):
    sets = [rng.random((700, 2)), rng.random((900, 2))]
    calls = [(xy, rng.standard_normal((2, len(xy)))) for xy in sets]
    expected = [pairwise_holder_max(xy, v, (0.3, 0.7), "pruned") for xy, v in calls]
    norms._node_set.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(pairwise_holder_max, *calls[k % 2], (0.3, 0.7), "pruned")
                       for k in range(8)]
            results = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    # two threads promote one node set at once: each waits, weights made,
    # until the other has made its own, and both keep them; a third sweep
    # then reads what the last one kept
    norms._node_set.cache_clear()
    pairwise_holder_max(*calls[0], (0.3, 0.7), "pruned")
    builds = _counted_weights(monkeypatch)
    keep, meet = norms._NodeSet.keep_weights, threading.Barrier(2, timeout=30)
    monkeypatch.setattr(norms._NodeSet, "keep_weights",
                        lambda *args: meet.wait() is None or keep(*args))
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [pool.submit(pairwise_holder_max, *calls[0], (0.3, 0.7), "pruned")
                   for _ in range(2)]
        results += [fut.result(timeout=60) for fut in futures]
    assert len(builds) == 2
    results.append(pairwise_holder_max(*calls[0], (0.3, 0.7), "pruned"))
    assert len(builds) == 2
    for k, (best, wit, pairs) in enumerate(results):
        want = expected[k % 2 if k < 8 else 0]
        assert np.array_equal(best, want[0])
        assert np.array_equal(wit, want[1])
        assert pairs == want[2]


def test_witness_tie_break_lexicographic():
    # two pairs attain the same quotient; the smallest index pair wins
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    vals = np.array([0.0, 1.0, 0.0, 1.0])
    val, wit = seminorm(vals, xs, 0.5, "brute_force")
    assert val == pytest.approx(1.0, rel=1e-12)
    assert (wit[0][0], wit[1][0]) == (0.0, 1.0)


def test_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        pairwise_holder_max(np.array([0.0]), np.array([[1.0]]), (0.5,))
    with pytest.raises(DegenerateInput):
        pairwise_holder_max(np.array([0.5, 0.5]), np.array([[1.0, 2.0]]), (0.5,))


def test_holder_params_validation(disk_mesh_small):
    # the exponent, the pair strategy, the row groups and the derivative order
    xs = np.linspace(0.0, 1.0, 5)
    u = GridFunction.from_expression(disk_mesh_small, "x")
    with pytest.raises(ConfigError):
        pairwise_holder_max(xs, xs[None, :], (1.0,))
    with pytest.raises(ConfigError):
        pairwise_holder_max(xs, xs[None, :], (0.5,), "magic")
    for coords in (xs[:4], np.zeros((5, 2, 1)), np.zeros((6, 2))):
        with pytest.raises(ConfigError, match="coordinates must have shape"):
            pairwise_holder_max(coords, xs[None, :], (0.5,))
    with pytest.raises(ConfigError):
        c_k_alpha_norm(u, 0, 1.0)
    with pytest.raises(ConfigError):
        c_k_alpha_norm(u, 0, 0.5, "magic")
    for groups in ((1,), (2, 0), (3, -1)):
        with pytest.raises(ConfigError, match="do not partition 2 rows"):
            pairwise_holder_max(xs, np.vstack([xs, xs]), (0.5,), groups=groups)
    with pytest.raises(ConfigError, match="derivative order must be 0, 1 or 2, got 3"):
        holder_reports([(u, 3)], (0.5,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("strategy", ["brute_force", "pruned"])
def test_non_finite_coordinates_are_a_config_error(bad, dim, strategy):
    # the plane's rank sort keys on x + iy, where inf * 1j is not finite
    coords = np.random.default_rng(dim).random((40, dim))
    coords[7, dim - 1] = bad
    with pytest.raises(ConfigError, match="finite"):
        pairwise_holder_max(coords, coords[:, :1].T, (0.5,), strategy)


_XS = np.linspace(0.0, 0.9, 40)
_SINE = np.sin(6.0 * _XS)[None, :]


def _spiked(bad):
    values = _SINE.copy()
    values[0, 5] = bad
    return values


@pytest.mark.parametrize("strategy", ["brute_force", "pruned"])
@pytest.mark.parametrize("coords, comps, alphas, period, groups, match", [
    # a NaN reached _fold as an IndexError, an inf gave inf and a witness
    # that depended on the strategy
    (_XS, _spiked(np.nan), (0.5,), None, None, "values must be finite"),
    (_XS, _spiked(np.inf), (0.5,), None, None, "values must be finite"),
    (_XS, _spiked(-np.inf), (0.5,), None, None, "values must be finite"),
    # both failed in a reshape
    (_XS, _SINE, (), None, None, "at least one exponent"),
    (_XS, np.empty((0, 40)), (0.5,), None, None, "at least one row"),
    # [2.5, 0.5] was truncated to [2, 0]
    (_XS, np.vstack([_SINE] * 3), (0.5,), None, [2.5, 0.5], "integer row counts"),
    (_XS, _SINE, (0.5,), np.inf, None, "period inf"),
    (_XS, _SINE, (0.5,), np.nan, None, "period nan"),
    (_XS, _SINE, (0.5,), 0.0, None, "period 0.0"),
    (_XS, _SINE, (0.5,), -1.0, None, "period -1.0"),
    # the loop distance read only axis 0
    (np.column_stack([_XS, _XS]), _SINE, (0.5,), 3.0, None,
     "one arclength coordinate .*, got 2 spanning"),
    # min(d, period - d) went negative: [0, 0.5, 3.0] at period 1 gave 1.414
    (np.array([0.0, 0.5, 3.0]), np.array([[0.0, 1.0, 0.0]]), (0.5,), 1.0, None,
     "at most one finite positive period, got 1 spanning 3.0 and period 1.0")])
def test_unmeasurable_input_is_a_config_error(coords, comps, alphas, period, groups, match,
                                              strategy):
    with pytest.raises(ConfigError, match=match):
        pairwise_holder_max(coords, comps, alphas, strategy, period, groups)


def test_a_loop_of_exactly_one_period_is_measured():
    # the first and last node meet across the seam: distance 0, not counted
    best, wit, _ = pairwise_holder_max(np.array([0.0, 0.5, 1.0]), np.array([[0.0, 1.0, 3.0]]),
                                       (0.5,), "brute_force", period=1.0)
    assert best[0, 0] == pytest.approx(2.0 / np.sqrt(0.5)) and wit[0, 0].tolist() == [1, 2]


# ---------------------------------------------------------------------------
# full norms

def test_norm_of_constant(disk_mesh_small):
    rep = c_k_alpha_norm(GridFunction.constant(disk_mesh_small, 5.0), 2, 0.5)
    assert rep.total == pytest.approx(5.0, abs=1e-9)
    assert rep.sup_norms[0] == 5.0
    assert rep.seminorm <= 1e-10


def test_norm_of_coordinate_function(disk_mesh):
    rep = c_k_alpha_norm(GridFunction.from_expression(disk_mesh, "x"), 1, 0.5)
    # sup|u| = 1, sup|Du| = 1, gradient nearly constant
    assert rep.total == pytest.approx(2.0, abs=0.05)


def test_norm_of_manufactured_solution(disk_mesh):
    u = GridFunction.from_expression(disk_mesh, "r^2/4 - 1/8")
    rep = c_k_alpha_norm(u, 2, 0.5)
    assert rep.sup_norms[0] == pytest.approx(0.125, abs=1e-12)
    assert rep.sup_norms[1] == pytest.approx(0.5, abs=1e-10)
    assert rep.sup_norms[2] == pytest.approx(0.5, abs=2e-3)
    assert rep.total == pytest.approx(9.0 / 8.0, abs=0.01)


def test_boundary_c1alpha_norm(disk_mesh):
    g = BoundaryFunction.from_expression(disk_mesh, "cos(theta)")
    rep = c_k_alpha_norm(g, 1, 0.5)
    assert rep.sup_norms[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.sup_norms[1] == pytest.approx(1.0, abs=5e-3)
    assert np.isfinite(rep.seminorm) and rep.seminorm > 0


def test_boundary_norm_on_interval(interval_mesh):
    g = BoundaryFunction(interval_mesh, np.array([2.0, -1.0]))
    rep0 = c_k_alpha_norm(g, 0, 0.5)
    assert rep0.sup_norms[0] == 2.0
    assert rep0.seminorm == pytest.approx(3.0, rel=1e-12)   # |2-(-1)|/1^0.5
    rep1 = c_k_alpha_norm(g, 1, 0.5)
    # a two-point boundary has no tangential direction
    assert rep1.total == pytest.approx(2.0, rel=1e-12)


def test_homogeneity(disk_mesh_small, rng):
    u = GridFunction(disk_mesh_small,
                     rng.standard_normal(disk_mesh_small.n_interior),
                     rng.standard_normal(disk_mesh_small.n_boundary))
    base = c_k_alpha_norm(u, 2, 0.5).total
    assert c_k_alpha_norm(2.0 * u, 2, 0.5).total == pytest.approx(2.0 * base, rel=1e-14)
    assert c_k_alpha_norm(-1.7 * u, 2, 0.5).total == pytest.approx(1.7 * base, rel=1e-12)


def test_triangle_inequality(disk_mesh_small, rng):
    for _ in range(10):
        a = rng.standard_normal(disk_mesh_small.n_interior)
        b = rng.standard_normal(disk_mesh_small.n_boundary)
        c = rng.standard_normal(disk_mesh_small.n_interior)
        d = rng.standard_normal(disk_mesh_small.n_boundary)
        u = GridFunction(disk_mesh_small, a, b)
        v = GridFunction(disk_mesh_small, c, d)
        for k in (0, 1, 2):
            nu = c_k_alpha_norm(u, k, 0.5).total
            nv = c_k_alpha_norm(v, k, 0.5).total
            nuv = c_k_alpha_norm(u + v, k, 0.5).total
            assert nuv <= nu + nv + 1e-12


def test_monotonicity_in_k(disk_mesh_small, rng):
    for _ in range(10):
        u = GridFunction(disk_mesh_small,
                         rng.standard_normal(disk_mesh_small.n_interior),
                         rng.standard_normal(disk_mesh_small.n_boundary))
        sup = float(np.abs(u.all_values()).max())
        norms = [c_k_alpha_norm(u, k, 0.5).total for k in (0, 1, 2)]
        assert sup <= norms[0] + 1e-12
        assert norms[0] <= norms[1] + 1e-12
        assert norms[1] <= norms[2] + 1e-12
