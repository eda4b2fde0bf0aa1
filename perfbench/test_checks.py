"""The benchmark's own tests: every check accepts real outputs and rejects
deliberately corrupted ones.

    python3 -m pytest perfbench/test_checks.py -q

Each test runs one workload at its quick (toy) size, so the outputs are
the program's own, then corrupts one of them and expects the check to
report a problem.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
from neumann_lab import norms  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run(name, tmp_path, rounds=1, seed=3):
    wl = WORKLOADS[name](seed, True, str(tmp_path))
    inputs = wl.setup()
    out = [wl.body(inputs, k) for k in range(rounds)]
    assert all(failed == 0 for _, failed in out)
    return wl, inputs, out


def _scaled(x, factor=1.0 + 1e-6):
    return np.asarray(x) * factor


# ---------------------------------------------------------------------------
# reference computations

def test_allpairs_reference_matches_a_loop():
    rng = np.random.default_rng(0)
    xy = rng.uniform(size=(40, 2))
    v = rng.standard_normal((2, 40))
    loop = np.zeros((2, 2))
    for c in range(2):
        for a_idx, a in enumerate((0.3, 0.7)):
            for i in range(40):
                for j in range(i + 1, 40):
                    d = float(np.hypot(*(xy[i] - xy[j])))
                    loop[c, a_idx] = max(loop[c, a_idx], abs(v[c, i] - v[c, j]) / d**a)
    got = ref.holder_max_allpairs(xy, v, (0.3, 0.7))
    assert ref.rel_diff(got, loop) <= 1e-14


# ---------------------------------------------------------------------------
# workload checks: accept the real outputs, reject corrupted ones

def _messages(problems, text):
    return [p for p in problems if text in p]


def test_verify_default_checks(tmp_path, monkeypatch):
    wl, inputs, rounds = _run("verify_default", tmp_path, rounds=2)
    assert wl.check(inputs, rounds) == []

    def corrupt(edit, which=(0, 1)):
        """Apply ``edit`` to the written payload of the given rounds."""
        saved = {}
        for k in which:
            path = os.path.join(rounds[k][0]["verify"]["dir"], "estimate_report.json")
            with open(path, encoding="utf-8") as fh:
                saved[path] = fh.read()
            doc = json.loads(saved[path])
            edit(doc["report"])
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        try:
            return wl.check(inputs, rounds)
        finally:
            for path, text in saved.items():
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)

    def flip(report):
        report["criteria"][0]["passed"] = not report["criteria"][0]["passed"]

    def skip(report):
        report["criteria"][-1]["skipped"] = True

    def scale_ratio(report):
        report["levels"][0]["rows"][0]["ratio_schauder_0.5"] *= 1.0 + 1e-6

    def perturb(report):
        report["levels"][-1]["rows"][0]["energy_defect"] *= 1.0 + 1e-12

    assert _messages(corrupt(flip), "failed")
    assert _messages(corrupt(skip), "skipped")
    assert _messages(corrupt(scale_ratio), "written Schauder ratio")
    assert _messages(corrupt(perturb, which=(1,)), "differs across repeats")

    bad = copy.deepcopy(rounds)
    bad[0][0]["verify"]["exit"] = 1
    assert _messages(wl.check(inputs, bad), "exit code 1")

    # a seminorm off by one part in a million
    original = norms.c_k_alpha_norm

    def scaled_norm(u, k, alpha, pair_strategy="pruned"):
        rep = original(u, k, alpha, pair_strategy)
        return dataclasses.replace(rep, seminorm=rep.seminorm * (1.0 + 1e-6))

    monkeypatch.setattr(norms, "c_k_alpha_norm", scaled_norm)
    problems = wl.check(inputs, rounds)
    assert _messages(problems, "f, alpha") and _messages(problems, "u'', alpha")


def test_pinned_fine_checks(tmp_path):
    wl, config, rounds = _run("pinned_fine", tmp_path)
    assert wl.check(config, rounds) == []
    rep = rounds[0][0]["study"]

    flipped = copy.deepcopy(rep)
    target = next(c for c in flipped.criteria if not c["skipped"])
    target["passed"] = False
    assert _messages(wl.check(config, [({"study": flipped}, 0)]), target["name"])

    loose = copy.deepcopy(rep)
    loose.levels[-1]["rows"][0]["residual"] = 2e-10
    assert _messages(wl.check(config, [({"study": loose}, 0)]), "residual")

    mesh_pts = np.array([[0.3, 0.4], [0.0, -0.5]])
    exact = 1.0 - np.hypot(mesh_pts[:, 0], mesh_pts[:, 1])
    assert ref.check_disk_distance(exact, mesh_pts) == []
    assert ref.check_disk_distance(exact + 1e-9, mesh_pts)


def test_manufactured_ladder_checks(tmp_path):
    wl, inputs, rounds = _run("manufactured_ladder", tmp_path)
    assert wl.check(inputs, rounds) == []
    outputs = rounds[0][0]

    study = outputs["star_trig"]
    slow = dataclasses.replace(study, errors=[study.errors[0]] + [
        e * 1.2 for e in study.errors[1:]])
    assert _messages(wl.check(inputs, [({**outputs, "star_trig": slow}, 0)]),
                     "observed orders")

    fred = outputs["fredholm"]
    drift = {**fred, "u": fred["u"] * (1.0 + 1e-7)}
    assert _messages(wl.check(inputs, [({**outputs, "fredholm": drift}, 0)]), "differ by")
    many = {**fred, "iterations": 101}
    assert _messages(wl.check(inputs, [({**outputs, "fredholm": many}, 0)]), "Krylov")


def test_holder_rough_checks(tmp_path):
    wl, pool, rounds = _run("holder_rough", tmp_path, rounds=1)
    wl.CHECKED = len(rounds[0][0])          # compare every field in this test
    assert wl.check(pool, rounds) == []
    outputs = rounds[0][0]
    key = next(iter(outputs))
    best, wit, pairs = outputs[key]

    scaled = {**outputs, key: (_scaled(best), wit, pairs)}
    assert _messages(wl.check(pool, [(scaled, 0)]), "all-pairs maximum")

    wrong = wit.copy()
    wrong[0, 0] = (wrong[0, 0] + 1) % len(pool[key[0]][0])
    assert _messages(wl.check(pool, [({**outputs, key: (best, wrong, pairs)}, 0)]), "witness")

    later = {**outputs, key: (np.nextafter(best, np.inf), wit, pairs)}
    assert _messages(wl.check(pool, [(outputs, 0), (later, 0)]), "differ between rounds")


# ---------------------------------------------------------------------------
# tracer

def test_tracer_rebinds_every_importer_and_restores(tmp_path):
    from neumann_lab import domain, verify
    from tracing import Tracer

    wl = WORKLOADS["pinned_fine"](3, True, str(tmp_path))
    config = wl.setup()
    original = domain.distance_to_boundary
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.distance_to_boundary is domain.distance_to_boundary is not original
        _, failed = wl.body(config, 0, tracer)
    finally:
        tracer.uninstall()
    assert failed == 0
    assert verify.distance_to_boundary is domain.distance_to_boundary is original
    for layer in ("domain.distance", "solver.factor", "solver.solve.fredholm", "norms.kernel"):
        assert tracer.calls[layer] > 0 and tracer.self_times()[layer] > 0.0, layer
    assert tracer.counters["solver.krylov.iterations"] > 0


def test_tracer_reports_a_removed_name_as_unmeasured(tmp_path, monkeypatch):
    from neumann_lab import domain
    from child import layer_metrics
    from tracing import Tracer

    monkeypatch.delattr(domain, "distance_to_boundary")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.unmeasured == {"domain.distance"}
    wl = WORKLOADS["pinned_fine"](3, True, str(tmp_path))
    metrics = layer_metrics(tracer, wl, [({}, 0)], [1.0], [1.0], [1.0])
    assert metrics["domain.distance.s"][0] is None
    assert metrics["domain.distance.pairs"][0] is None
    assert metrics["solver.factor.s"][0] == 0.0
