"""One cache reader: no package function other than `search.catalogue` and
`search.clear_sweep_cache` names `_CATALOGUES`, so no pool task, fold or
report can read or rebuild a cached catalogue level. A task gets its level
as (code bits, |Aut|) pairs, whatever the process it runs in.

Every module under src/vklab is parsed, and every function and method in
it, nested ones included, is rejected if its code names `_CATALOGUES`: a
read, a binding, an attribute of another object, or an import. Code outside
any function (the cache's own definition) and comments and strings do not
count.
"""

import ast
from pathlib import Path

import pytest

import vklab

PACKAGE = Path(vklab.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {("search.py", "catalogue"), ("search.py", "clear_sweep_cache")}


def readers(tree: ast.AST, name: str) -> list[str]:
    """The names of the functions in `tree` whose own code names `name`;
    a nested function counts for itself and for each function around it."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id == name
                    or isinstance(sub, ast.Attribute) and sub.attr == name
                    or isinstance(sub, (ast.Import, ast.ImportFrom))
                    and any(name in (alias.name.rsplit(".", 1)[-1], alias.asname)
                            for alias in sub.names)):
                found.append(getattr(node, "name", "<lambda>"))
                break
    return sorted(found)


def test_the_guard_sees_every_way_of_naming():
    source = ("_CACHE = {}\n"
              "def plain():\n    return _CACHE[1]\n"
              "def through_module():\n    return search._CACHE\n"
              "def imported():\n    from .search import _CACHE as c\n    return c\n"
              "def outer():\n    def inner():\n        _CACHE.clear()\n    return inner\n"
              "class Holder:\n    def method(self):\n        global _CACHE\n"
              "        _CACHE = {}\n"
              "reader = lambda: _CACHE\n"
              "def clean():\n    return '_CACHE'  # _CACHE\n")
    assert readers(ast.parse(source), "_CACHE") == [
        "<lambda>", "imported", "inner", "method", "outer", "plain", "through_module"]


def test_the_guarded_modules_are_found():
    assert {p.name for p in MODULES} >= {"search.py", "verify.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_catalogue_reads_the_catalogue_cache(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {(path.name, name) for name in readers(tree, "_CATALOGUES")}
    assert found <= ALLOWED, \
        f"{path.name}: {sorted(found - ALLOWED)} name _CATALOGUES; call catalogue(n)"
