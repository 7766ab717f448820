"""The package holds what the laboratory runs: every top-level function and
class under src/vklab, and every member of its classes, is reached by the
package itself or by vkbench/, not only by tests, which build their own
graphs with networkx and compute their own checks.

A definition is reached when vkbench names it, when a package module names
it in code outside any definition (an import from another module, a table),
or when the body of a reached definition names it. The package `__init__`
does not count: re-exporting a name does not run it. Naming is by
identifier: a read or bound name, an imported name, or an attribute of
anything but a literal (so `"".join` does not reach a function `join`).
Comments and strings do not count.

A member of a package class (an annotated field, a method or a property,
dunders aside) is reached when its name is read as an attribute, again of
anything but a literal, in a package module or a vkbench file.
"""

import ast
from pathlib import Path

import vklab

PACKAGE = Path(vklab.__file__).parent
VKBENCH = Path(__file__).resolve().parents[1] / "vkbench"

# kept although nothing but tests reaches them; each entry must be needed
ALLOWED: set[str] = set()
ALLOWED_MEMBERS = {
    # argparse calls it on a usage error; no package code reads it by name
    "cli.py:_Parser.error",
}


def named(node: ast.AST) -> set[str]:
    """Every identifier the code under `node` names."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and not isinstance(sub.value, ast.Constant):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in sub.names)
    return names


def unreached(modules: dict, outside: set[str]) -> list[str]:
    """`module:name` of each top-level definition in `modules` ({file name:
    tree}) that neither `outside` nor any reached code names."""
    defs: dict = {}
    reached = set(outside)
    for tree in modules.values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append(stmt)
            else:
                reached |= named(stmt)
    done: set = set()
    while todo := (reached & defs.keys()) - done:
        done |= todo
        for name in todo:
            for node in defs[name]:
                reached |= named(node)
    dead = defs.keys() - done
    return sorted(f"{module}:{node.name}" for module, tree in modules.items()
                  for node in tree.body if getattr(node, "name", None) in dead)


def read_attributes(node: ast.AST) -> set[str]:
    """Every attribute name the code under `node` reads, of anything but a
    literal."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
            and not isinstance(sub.value, ast.Constant)}


def unread_members(modules: dict, outside: set[str]) -> list[str]:
    """`module:Class.member` of each annotated field, method and property,
    dunders aside, of the top-level classes in `modules` whose name neither
    `outside` nor any module reads as an attribute."""
    read = set(outside)
    for tree in modules.values():
        read |= read_attributes(tree)
    unread = []
    for module, tree in modules.items():
        for cls in tree.body:
            for stmt in cls.body if isinstance(cls, ast.ClassDef) else ():
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = stmt.name
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")) and name not in read:
                    unread.append(f"{module}:{cls.name}.{name}")
    return sorted(unread)


def package_modules() -> dict:
    return {p.name: ast.parse(p.read_text(), str(p))
            for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def test_the_name_finder_sees_every_way_of_naming():
    source = ("import a.b.first\n"
              "from .m import second as alias\n"
              "third(x)\n"
              "y = mod.fourth\n"
              "z = mod.sub.fifth\n"
              "'sep'.sixth(x)\n"
              "w = 'seventh'  # eighth\n")
    assert named(ast.parse(source)) == {"first", "second", "third", "x", "y", "mod",
                                        "fourth", "z", "sub", "fifth", "w"}


def test_reached_means_named_by_reached_code():
    modules = {"a.py": ast.parse("def used():\n    return helper()\n"
                                 "def helper():\n    return 1\n"
                                 "def alone():\n    return alone()\n"
                                 "def only_from_dead():\n    return 1\n"
                                 "class Dead:\n    def m(self):\n        return only_from_dead()\n"
                                 "TABLE = {1: tabled}\n"),
               "b.py": ast.parse("from .a import used\n"
                                 "def tabled():\n    return ''.join([])\n"
                                 "def join():\n    return 1\n")}
    assert unreached(modules, set()) == ["a.py:Dead", "a.py:alone", "a.py:only_from_dead",
                                         "b.py:join"]
    assert unreached(modules, {"Dead", "join"}) == ["a.py:alone"]


def test_the_package_and_vkbench_are_found():
    assert {"graphs.py", "search.py", "verify.py", "cli.py", "__main__.py"} <= \
        package_modules().keys()
    assert (VKBENCH / "run.py").is_file()


def test_a_member_is_reached_by_an_attribute_read():
    modules = {"a.py": ast.parse("class Spec:\n"
                                 "    size: int\n"
                                 "    flag: bool = False\n"
                                 "    LIMIT = 3\n"
                                 "    def __len__(self):\n        return self.size\n"
                                 "    @property\n    def ratio(self):\n        return 1\n"
                                 "    def split(self):\n        return 2\n"
                                 "    def strip(self):\n        return 3\n"
                                 "def use(s):\n"
                                 "    s.flag = True\n"
                                 "    return ' '.strip(), s.ratio\n")}
    assert unread_members(modules, set()) == ["a.py:Spec.flag", "a.py:Spec.split",
                                              "a.py:Spec.strip"]
    assert unread_members(modules, {"split"}) == ["a.py:Spec.flag", "a.py:Spec.strip"]


def vkbench_trees() -> list:
    return [ast.parse(path.read_text(), str(path)) for path in sorted(VKBENCH.glob("*.py"))]


def unexplained_definitions(allowed: set[str]) -> list[str]:
    outside = set(allowed)
    for tree in vkbench_trees():
        outside |= named(tree)
    return unreached(package_modules(), outside)


def unexplained_members(allowed: set[str]) -> list[str]:
    outside = set()
    for tree in vkbench_trees():
        outside |= read_attributes(tree)
    return [m for m in unread_members(package_modules(), outside) if m not in allowed]


def test_every_definition_is_reached_outside_tests():
    assert unexplained_definitions(ALLOWED) == [], \
        "reached only from tests: delete it, or build the graph with networkx in the test"


def test_every_member_is_read_outside_tests():
    assert unexplained_members(ALLOWED_MEMBERS) == [], \
        "read only by tests: delete it, or compute it in the test"


def test_every_allowed_entry_is_needed():
    """Without any one entry its guard fails on that entry, so no entry
    lingers once its name is deleted or reached."""
    for name in ALLOWED:
        assert any(d.endswith(f":{name}") for d in unexplained_definitions(ALLOWED - {name})), \
            f"{name} is reached or gone: drop it from ALLOWED"
    for member in ALLOWED_MEMBERS:
        assert unexplained_members(ALLOWED_MEMBERS - {member}) == [member], \
            f"{member} is read or gone: drop it from ALLOWED_MEMBERS"
