"""No swap in the package builds a pool only to throw it away: a stdlib
`ast` check.

`swap_exact_in` returns the output and the pool the swap leaves; a caller
that wants the output alone quotes with `amount_out`, which builds no
pool.  So no module under `src/` may write `x, _ = swap_exact_in(...)` or
`swap_exact_in(...)[0]`.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ammflow"
MODULES = sorted(PACKAGE.glob("*.py"))


def is_swap_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", None)
    return name == "swap_exact_in"


def discarded_pools(tree: ast.Module) -> list[int]:
    """Line numbers of swaps whose pool is dropped on the spot."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_swap_call(node.value) and any(
                isinstance(t, ast.Tuple) and len(t.elts) == 2
                and isinstance(t.elts[1], ast.Name) and t.elts[1].id == "_"
                for t in node.targets):
            lines.append(node.lineno)
        elif isinstance(node, ast.Subscript) and is_swap_call(node.value):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_swap_discards_its_pool(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert discarded_pools(tree) == []


def test_check_catches_what_it_names():
    tree = ast.parse(
        "out, _ = swap_exact_in(pool, asset, 1)\n"
        "out = amm.swap_exact_in(pool, asset, 1)[0]\n"
        "out, pool = swap_exact_in(pool, asset, 1)\n"
        "out = amount_out(pool, asset, 1)\n")
    assert discarded_pools(tree) == [1, 2]
