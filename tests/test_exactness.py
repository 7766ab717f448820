"""Arithmetic in the package stays exact: no float ever enters a value.

Every module under src/vklab is parsed and rejected on a float literal, a
call to float(), true division (`/` or `/=`), or a name from `math` outside
the integer-only set below.
"""

import ast
from pathlib import Path

import pytest

import vklab

PACKAGE = Path(vklab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))

# the integer-valued functions of `math`; everything else there is a float
EXACT_MATH = frozenset({"factorial", "prod", "lcm", "gcd", "comb"})


def inexact_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{where}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"{where}: call to float()")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
        elif isinstance(node, ast.Import) and any(
                alias.name == "math" for alias in node.names):
            found.append(f"{where}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(f"{where}: from math import {alias.name}"
                         for alias in node.names if alias.name not in EXACT_MATH)
    return found


def test_every_module_is_scanned():
    assert {"graphs.py", "indices.py", "metrics.py", "search.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_module_has_no_inexact_arithmetic(module):
    assert inexact_nodes(ast.parse(module.read_text(), str(module))) == []


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = float(3)",
    "x = a / b",
    "x /= 2",
    "import math",
    "from math import sqrt",
    "from math import lcm, log2",
])
def test_guard_catches(source):
    assert inexact_nodes(ast.parse(source))


def test_guard_passes_exact_code():
    source = "from math import factorial, lcm\nx = a // b\nx //= 2\ny = Fraction(1, 3)"
    assert inexact_nodes(ast.parse(source)) == []
