"""One evaluator: `indices.kernel` is the only code outside `vklab.metrics`
that reaches `compute_metrics`, so whether a graph needs a BFS is decided
in one place.

Every module under src/vklab other than `metrics`, `indices` and the
package `__init__` is parsed and rejected if its code names
`compute_metrics` at all: an import (renamed or not), a definition, an
assignment, a read, or an attribute of another object. Comments and
strings do not count.
"""

import ast
from pathlib import Path

import pytest

import vklab

PACKAGE = Path(vklab.__file__).parent
ALLOWED = {"metrics.py", "indices.py", "__init__.py"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ALLOWED)


def mentions(tree: ast.AST, name: str) -> list[int]:
    """Sorted line numbers where the code of `tree` names `name`."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found = any(name in (alias.name.rsplit(".", 1)[-1], alias.asname)
                        for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found = node.name == name
        else:
            found = (isinstance(node, ast.Name) and node.id == name
                     or isinstance(node, ast.Attribute) and node.attr == name)
        if found:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_sees_every_way_of_naming():
    source = ("from .metrics import compute_metrics\n"
              "from .metrics import compute_metrics as bfs\n"
              "from . import metrics\n"
              "x = metrics.compute_metrics\n"
              "def compute_metrics(g): pass\n"
              "compute_metrics = None\n"
              "y = compute_metrics  # compute_metrics\n"
              "z = 'compute_metrics'\n")
    assert mentions(ast.parse(source), "compute_metrics") == [1, 2, 4, 5, 6, 7]


def test_the_guarded_modules_are_found():
    assert {p.name for p in MODULES} >= {"search.py", "verify.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_indices_reaches_compute_metrics(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert mentions(tree, "compute_metrics") == [], \
        f"{path.name} reaches compute_metrics; evaluate through indices.kernel"
