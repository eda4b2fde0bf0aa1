"""The fixed point: the canonical payload of a default `verify`, byte for byte.

`golden/estimate_report.canonical.json` is `neumann-lab report --strip-meta`
of `neumann-lab verify` with default settings and one BLAS thread, made
with the versions in MADE_WITH.  A change that moves the payload on
purpose replaces the file in the same commit and lists the moved leaves
this test prints.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy

from neumann_lab.cli import main

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "estimate_report.canonical.json"
MADE_WITH = {"numpy": "2.4.6", "scipy": "1.17.1"}


def _leaves(obj, path=""):
    """{path: value} of every leaf of a JSON document."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {path: obj}
    out = {}
    for key, value in items:
        out.update(_leaves(value, f"{path}/{key}"))
    return out


def _relative(old, new):
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if not numbers:
        return ""
    if old == new:
        return "0"
    return f"{abs(new - old) / abs(old):.3e}" if old else "inf"


def _moved_leaves(old_text, new_text):
    """A table of the leaves whose values differ: path, old, new, relative change."""
    missing = "(absent)"
    old, new = _leaves(json.loads(old_text)), _leaves(json.loads(new_text))
    rows = [(path, old.get(path, missing), new.get(path, missing))
            for path in sorted(old.keys() | new.keys())
            if old.get(path, missing) != new.get(path, missing)
            or type(old.get(path)) is not type(new.get(path))]
    lines = [f"{p}  {o!r} -> {n!r}  rel {_relative(o, n)}" for p, o, n in rows]
    return lines or ["no leaf moved: the documents differ in layout only"]


def test_default_verify_payload_matches_the_golden_file(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(HERE.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    # a failing criterion exits 1 but still writes the report, whose leaves say why
    proc = subprocess.run([sys.executable, "-m", "neumann_lab.cli", "verify", "--out",
                           str(tmp_path / "verify")], env=env, capture_output=True, text=True)
    report = tmp_path / "verify" / "estimate_report.json"
    assert report.exists(), f"verify exited {proc.returncode}: {proc.stderr}"
    assert main(["report", "--input", str(report), "--strip-meta",
                 "--out", str(tmp_path / "canonical")]) == 0
    new = (tmp_path / "canonical" / "estimate_report.canonical.json").read_bytes()
    old = GOLDEN.read_bytes()
    if new != old:
        running = {"numpy": np.__version__, "scipy": scipy.__version__}
        pytest.fail("\n".join([f"the canonical payload moved (golden file made with "
                               f"{MADE_WITH}, this run with {running}):"]
                              + _moved_leaves(old, new)), pytrace=False)
