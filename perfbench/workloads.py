"""The four benchmark workloads: inputs, timed body and output checks.

Each workload turns a seed into inputs (``setup``), runs its body once
per round through the package's public entry points (``body``), and
checks the outputs of every round afterwards (``check``).  A body is a
fixed list of operations, so every round attempts the same number; an
operation that raises counts as failed and its output is left out of
the checks.

Package functions are looked up on their modules at call time, so the
tracer's rebinding (see ``tracing.py``) reaches the calls made here.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import traceback

import numpy as np

from neumann_lab import cli, domain, field, norms, solver, verify

import reference as ref

ALPHAS = (0.3, 0.5, 0.7)


def _canonical(payload):
    """The bytes ``neumann-lab report --strip-meta`` writes for a payload."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _trig_expression(rng, variables, modes=4):
    """Random low-mode trigonometric expression text, amplitudes in [-1, 1]."""
    terms = []
    for k in range(1, modes + 1):
        for var in variables:
            a, b = (float(v) for v in rng.uniform(-1.0, 1.0, size=2))
            terms += [f"{a!r}*cos({k}*{var})", f"{b!r}*sin({k}*{var})"]
    return " + ".join(terms)


class Workload:
    """Base: one body of ``operations`` calls per round."""

    name = ""
    min_rounds = 1

    def __init__(self, seed, quick, workdir):
        self.seed = int(seed)
        self.quick = bool(quick)
        self.workdir = workdir

    def setup(self):
        return None

    def operations(self, inputs, round_index, tracer):
        """[(label, thunk)] of one round, in order."""
        raise NotImplementedError

    def body(self, inputs, round_index, tracer=None):
        """Run one round; returns ({label: output or None}, failed count)."""
        outputs, failed = {}, 0
        for label, thunk in self.operations(inputs, round_index, tracer):
            try:
                outputs[label] = thunk()
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                outputs[label] = None
                failed += 1
        return outputs, failed

    def check(self, inputs, rounds):
        raise NotImplementedError

    def report_bytes(self, rounds):
        """Bytes of report files written per round (only ``verify`` writes any)."""
        return 0


# ---------------------------------------------------------------------------

class VerifyDefault(Workload):
    """``neumann-lab verify`` in-process with the default ladder."""

    name = "verify_default"
    min_rounds = 2          # the payload is compared across repeats
    COUNT = 1

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, quick, workdir)
        # quick mode: a 3-rung toy ladder without the pinned level
        self.extra = ["--nr0", "10", "--ntheta0", "10", "--no-pinned"] if quick else []
        self.first_rung = (10, 10) if quick else (12, 48)

    def _argv(self, out):
        return (["verify", "--count", str(self.COUNT), "--seed", str(self.seed),
                 "--out", out, "--format", "both"] + self.extra)

    def operations(self, inputs, round_index, tracer):
        out = os.path.join(self.workdir, f"round{round_index}")

        def run():
            if tracer is None:
                code = cli.main(self._argv(out))
            else:
                with tracer.span("cli"):
                    code = cli.main(self._argv(out))
            return {"exit": code, "dir": out}

        return [("verify", run)]

    def _read(self, out):
        with open(os.path.join(out["dir"], "estimate_report.json"), encoding="utf-8") as fh:
            return json.load(fh)["report"]

    def report_bytes(self, rounds):
        sizes = [sum(os.path.getsize(os.path.join(out["dir"], f))
                     for f in ("estimate_report.json", "estimate_report.csv"))
                 for out in (outputs.get("verify") for outputs, _ in rounds) if out]
        return sum(sizes) / max(1, len(sizes))

    def check(self, inputs, rounds):
        problems, digests, payload = [], set(), None
        for outputs, _ in rounds:
            out = outputs.get("verify")
            if out is None:
                continue
            if out["exit"] != 0:
                problems.append(f"verify exit code {out['exit']}")
                continue
            payload = self._read(out)
            digests.add(hashlib.sha256(_canonical(payload)).hexdigest())
            problems += ref.check_criteria(payload["criteria"], allow_skipped=False)
        if len(digests) > 1:
            problems.append(f"report payload differs across repeats: {sorted(digests)}")
        if payload is not None:
            problems += self._check_instance0(payload)
        return problems

    def _check_instance0(self, payload):
        """Seminorms of f and u'' on instance 0 at the first rung against
        the all-pairs reference, and the written Schauder ratio."""
        inst = verify.ProblemFamily(seed=self.seed, count=self.COUNT).instances()[0]
        mesh = domain.build_mesh(domain.DomainSpec.disk(), self.first_rung)
        f, g = inst.realize(mesh)
        u = solver.solve_neumann(f, g, compat_policy="project").solution
        d1 = field.gradient(u)
        second = [c for comp in d1 for c in field.gradient(comp)]
        xy = f.all_xy()
        f_ref = ref.holder_max_allpairs(xy, f.all_values()[None, :], ALPHAS)[0]
        u_ref = ref.holder_max_allpairs(
            xy, np.vstack([c.all_values() for c in second]), ALPHAS).max(axis=0)
        problems = []
        row = payload["levels"][0]["rows"][0]
        for k, a in enumerate(ALPHAS):
            fr = norms.c_k_alpha_norm(f, 0, a)
            gr = norms.c_k_alpha_norm(g, 1, a)
            ur = norms.c_k_alpha_norm(u, 2, a)
            problems += ref.check_seminorms(fr.seminorm, f_ref[k], f"f, alpha {a}")
            problems += ref.check_seminorms(ur.seminorm, u_ref[k], f"u'', alpha {a}")
            ratio = ur.total / (fr.total + gr.total)
            problems += ref.check_seminorms(row[f"ratio_schauder_{a}"], ratio,
                                            f"written Schauder ratio, alpha {a}")
        return problems


# ---------------------------------------------------------------------------

class PinnedFine(Workload):
    """Family study with one coarse Hölder rung and a fine pinned level."""

    name = "pinned_fine"

    def setup(self):
        if self.quick:
            res, pinned, count = ((12, 24),), (24, 96), 2
        else:
            res, pinned, count = ((12, 48),), (96, 384), 2
        return verify.VerifyConfig(count=count, seed=self.seed, resolutions=res,
                                   pinned_resolution=pinned, threads=1)

    def operations(self, config, round_index, tracer):
        return [("study", lambda: verify.run_family_study(config))]

    def check(self, config, rounds):
        problems = []
        for outputs, _ in rounds:
            rep = outputs.get("study")
            if rep is None:
                continue
            problems += ref.check_criteria(rep.criteria, allow_skipped=True)
            problems += ref.check_residuals(rep.levels)
        mesh = domain.build_mesh(config.domain, config.pinned_resolution)
        rng = np.random.default_rng(self.seed)
        pick = rng.choice(mesh.n_interior, size=min(4096, mesh.n_interior), replace=False)
        pts = mesh.interior_xy[np.sort(pick)]
        problems += ref.check_disk_distance(domain.distance_to_boundary(mesh, pts), pts)
        return problems


# ---------------------------------------------------------------------------

class ManufacturedLadder(Workload):
    """Convergence studies on fresh meshes plus one Fredholm solve."""

    name = "manufactured_ladder"
    CASES = ("disk_quadratic_centered", "star_trig")

    def setup(self):
        base = (16, 32) if self.quick else (20, 40)
        levels = 3 if self.quick else 4
        ladder = [(base[0] * 2**k, base[1] * 2**k) for k in range(levels)]
        rng = np.random.default_rng(self.seed)
        return {"ladder": ladder,
                "domain": verify.MANUFACTURED_CASES["star_trig"].domain,
                "f": _trig_expression(rng, ("x", "y")),
                "g": _trig_expression(rng, ("theta",))}

    def operations(self, inputs, round_index, tracer):
        ops = [(case, lambda case=case: verify.convergence_study(case, inputs["ladder"]))
               for case in self.CASES]
        state = {}

        def realize():
            mesh = domain.build_mesh(inputs["domain"], inputs["ladder"][-1])
            state["f"] = field.GridFunction.from_expression(mesh, inputs["f"])
            state["g"] = field.BoundaryFunction.from_expression(mesh, inputs["g"])
            return mesh.n_interior + mesh.n_boundary

        def solve(strategy):
            # keep plain arrays: a kept report would keep the mesh and, through
            # the package's per-mesh caches, its factorizations alive
            rep = solver.solve_neumann(state["f"], state["g"], strategy=strategy,
                                       compat_policy="project")
            return {"u": rep.solution.all_values(), "iterations": rep.iterations}

        ops += [("realize", realize),
                ("fredholm", lambda: solve("fredholm_iteration")),
                ("direct", lambda: solve("direct_augmented"))]
        return ops

    def check(self, inputs, rounds):
        problems = []
        for outputs, _ in rounds:
            for case in self.CASES:
                study = outputs.get(case)
                if study is not None:
                    problems += ref.check_convergence(case, study.errors)
            fred, direct = outputs.get("fredholm"), outputs.get("direct")
            if fred is not None and direct is not None:
                problems += ref.check_agreement(fred["u"], direct["u"], fred["iterations"])
        return problems


# ---------------------------------------------------------------------------

class HolderRough(Workload):
    """Pruned pairwise Hölder maxima of rough (standard-normal) fields.

    How much pruning saves depends on the field, so each round takes the
    next fields from a seeded pool: a run then averages over more fields
    than one round holds, which keeps its median steady across seeds.
    """

    name = "holder_rough"
    PER_ROUND = 3    # fields of each node set per round
    POOL = 16        # fields of each node set in the pool
    CHECKED = 1      # computed fields per run compared against the all-pairs scan

    def setup(self):
        side, disk_res = (20, (8, 32)) if self.quick else (100, (48, 192))
        xs = np.linspace(0.0, 1.0, side)
        X, Y = np.meshgrid(xs, xs)
        mesh = domain.build_mesh(domain.DomainSpec.disk(), disk_res)
        rng = np.random.default_rng(self.seed)
        pool = {}
        for kind, xy in (("lattice", np.column_stack([X.ravel(), Y.ravel()])),
                         ("disk", np.vstack([mesh.interior_xy, mesh.boundary_xy]))):
            pool[kind] = (xy, rng.standard_normal((self.POOL, xy.shape[0])))
        return pool

    def operations(self, pool, round_index, tracer):
        ops = []
        for kind, (xy, values) in pool.items():
            for j in range(self.PER_ROUND):
                k = (round_index * self.PER_ROUND + j) % self.POOL
                ops.append(((kind, k), lambda xy=xy, v=values[k:k + 1]:
                            norms.pairwise_holder_max(xy, v, ALPHAS, strategy="pruned")))
        return ops

    def check(self, pool, rounds):
        problems, seen = [], {}
        for outputs, _ in rounds:
            for key, out in outputs.items():
                if out is None:
                    continue
                if key in seen and not np.array_equal(seen[key][0], out[0]):
                    problems.append(f"field {key}: maxima differ between rounds")
                seen.setdefault(key, out)
        rng = np.random.default_rng(self.seed)
        keys = sorted(seen)
        sample = {keys[i] for i in rng.choice(len(keys), size=min(self.CHECKED, len(keys)),
                                              replace=False)}
        for key in keys:
            kind, k = key
            xy, v = pool[kind][0], pool[kind][1][k:k + 1]
            best, wit, _ = seen[key]
            problems += ref.check_witness(xy, v, ALPHAS, best, wit, f"field {key}")
            if key in sample:
                problems += ref.check_seminorms(
                    best, ref.holder_max_allpairs(xy, v, ALPHAS), f"field {key}")
        return problems


WORKLOADS = {w.name: w for w in (VerifyDefault, PinnedFine, ManufacturedLadder, HolderRough)}
