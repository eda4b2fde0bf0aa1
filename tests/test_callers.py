"""Guard on the public surface: every public name has a caller outside the tests."""

import ast
import inspect
import pathlib

import neumann_lab

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "neumann_lab"


def _callers():
    """The package's modules but __init__.py, the benchmark's scripts, and
    the acceptance criteria, which are the fixed point the package serves."""
    return ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
            + sorted((ROOT / "perfbench").glob("*.py"))
            + [ROOT / "tests" / "test_acceptance.py"])


def _referenced(path):
    """Every name read, attribute taken and name imported in one file."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    public = {name for name in neumann_lab.__all__
              if not inspect.ismodule(getattr(neumann_lab, name))}
    seen = set().union(*map(_referenced, _callers()))
    missing = sorted(public - seen)
    assert not missing, f"public names only the tests reach: {', '.join(missing)}"
