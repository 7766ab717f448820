"""Every parameter in the package is read: a value a caller must pass but
the body never uses is an option that can only be set wrong.

Every function under src/vklab is parsed and rejected on a parameter that
no expression in its body (nested functions included) reads. Dunder
protocol methods are exempt, since their signatures are fixed by the
protocol, and so is a method's first parameter (`self` or `cls`).
"""

import ast
from pathlib import Path

import pytest

import vklab

PACKAGE = Path(vklab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unused_parameters(tree: ast.AST) -> list[str]:
    methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if _is_dunder(name):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        if id(node) in methods and (args.posonlyargs or args.args):
            params = params[1:]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {sub.id for stmt in body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        found.extend(f"line {node.lineno}: {name}({a.arg}) never reads {a.arg!r}"
                     for a in params if a.arg not in read)
    return found


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_module_reads_every_parameter(module):
    assert unused_parameters(ast.parse(module.read_text(), str(module))) == []


@pytest.mark.parametrize("source", [
    "def f(n, adj):\n    return len(adj)",
    "def f(adj, *, strict=True):\n    return adj",
    "def f(*args, **kwargs):\n    return args",
    "g = lambda x, y: x",
    "class C:\n    def m(self, unused):\n        return self",
    "def f(n):\n    def g(m):\n        return n\n    return g",
])
def test_guard_catches(source):
    assert unused_parameters(ast.parse(source))


def test_guard_passes_code_that_reads_every_parameter():
    source = ("def f(n, adj=(), *rest, k, **kw):\n"
              "    def g():\n        return n + k\n"
              "    return g, adj, rest, kw\n"
              "class C:\n"
              "    def __setattr__(self, name, value):\n        raise AttributeError\n"
              "    def error(self, message):\n        raise ValueError(message)\n"
              "    @classmethod\n    def make(cls):\n        return 1\n")
    assert unused_parameters(ast.parse(source)) == []
