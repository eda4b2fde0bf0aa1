"""Guard on the public surface: every public function and class has a caller
outside the tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "neumann_lab"


def _callers():
    """The package's modules but __init__.py, the benchmark's scripts, and
    the acceptance criteria, which are the fixed point the package serves."""
    return ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
            + sorted((ROOT / "perfbench").glob("*.py"))
            + [ROOT / "tests" / "test_acceptance.py"])


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _referenced(stmt):
    """Every name read, attribute taken and name imported in one statement."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def _defined(stmt):
    """The name a top-level def or class statement binds, else None."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    return None


def test_every_public_name_has_a_caller_outside_the_tests():
    public = {name for path in sorted(PACKAGE.glob("*.py")) for stmt in _tree(path).body
              if (name := _defined(stmt)) and not name.startswith("_")}
    # a definition's own body (a recursive call) is not a caller of it
    seen = set().union(*(_referenced(stmt) - {_defined(stmt)}
                         for path in _callers() for stmt in _tree(path).body))
    missing = sorted(public - seen)
    assert not missing, f"public names only the tests reach: {', '.join(missing)}"
