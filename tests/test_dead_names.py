"""No dead names in the package: a stdlib `ast` check in place of a linter.

A module must use every name it imports (the package `__init__`'s
`__all__` re-exports count as uses), and a function must read every local
it binds by plain assignment.  Unpacking targets, loop variables and
class bodies (whose names are attributes, not locals) are not checked.
Every public module-level function and class of the package must be
referenced somewhere in `src/`, `tests/` or `bench/`, `__all__` apart: by
a load (a name or an attribute), an import, or a string naming it, as
`bench/spans.py` names the functions it wraps.  A private module-level
function, class or constant belongs to its module, so the module itself
must load it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ammflow"
MODULES = sorted(PACKAGE.glob("*.py"))
SOURCES = sorted(p for d in ("src", "tests", "bench")
                 for p in (ROOT / d).rglob("*.py"))


def loaded_names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def all_values(tree: ast.Module) -> list[ast.AST]:
    """The values assigned to the module's `__all__`."""
    return [node.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)]


def unused_imports(tree: ast.Module) -> list[str]:
    used = loaded_names(tree)
    for value in all_values(tree):
        used |= set(ast.literal_eval(value))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0]
                         for alias in node.names]
    return sorted(name for name in imported if name not in used)


def references(tree: ast.Module) -> set[str]:
    """Names loaded, as names or attributes, imported, or spelled by a
    string outside `__all__`."""
    skip = {id(n) for value in all_values(tree) for n in ast.walk(value)}
    found = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {alias.name.rsplit(".")[-1] for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in skip:
            found.add(node.value)
    return found


def public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def private_definitions(tree: ast.Module) -> list[str]:
    """The module-level functions, classes and assigned names that begin
    with one underscore."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            found += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [name for name in found
            if name.startswith("_") and not name.startswith("__")]


def own_scope(function: ast.AST):
    """The nodes of a function's body, not descending into nested
    functions, lambdas or classes."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def unread_locals(tree: ast.Module) -> list[str]:
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned, declared = set(), set()
        for node in own_scope(function):
            if isinstance(node, ast.Assign):
                assigned |= {t.id for t in node.targets
                             if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and isinstance(node.target, ast.Name):
                assigned.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared |= set(node.names)
        # a nested function's read of a closure variable is a read
        unread = assigned - declared - loaded_names(function) - {"_"}
        found += [f"{function.name}: {name}" for name in sorted(unread)]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unused_imports(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unread_locals(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert unread_locals(tree) == []


def test_no_dead_public_definitions():
    used = set().union(*(references(ast.parse(p.read_text(encoding="utf-8")))
                         for p in SOURCES))
    defined = [f"{path.name}: {name}" for path in MODULES for name in
               public_definitions(ast.parse(path.read_text(encoding="utf-8")))]
    assert [d for d in defined if d.split(": ")[1] not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_private_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = loaded_names(tree)
    assert [name for name in private_definitions(tree)
            if name not in used] == []


def test_checks_catch_what_they_name():
    tree = ast.parse(
        "import os\nfrom x import y as z\n"
        "def f():\n"
        "    a = 1\n    b: int = 2\n    c = 3\n"
        "    def g():\n        return c\n"
        "    class K:\n        d = 4\n"
        "    return g\n")
    assert unused_imports(tree) == ["os", "z"]
    assert unread_locals(tree) == ["f: a", "f: b"]
    tree = ast.parse(
        "from m import f\n__all__ = ['g']\n"
        "def g():\n    pass\n"
        "class H:\n    pass\n"
        "def _i():\n    return x.j, 'k'\n")
    assert public_definitions(tree) == ["g", "H"]
    assert references(tree) == {"f", "x", "j", "k"}
    tree = ast.parse(
        "_A, (_B, c) = 1, (2, 3)\n_C: int = 4\n__d__ = 5\n"
        "def _f():\n    return _A\n"
        "class _K:\n    _e = 6\n")
    assert private_definitions(tree) == ["_A", "_B", "_C", "_f", "_K"]
    assert [name for name in private_definitions(tree)
            if name not in loaded_names(tree)] == ["_B", "_C", "_f", "_K"]
