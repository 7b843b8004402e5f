"""Every public name has a user outside the tests.

A public name is a key of `dstoch._HOME`.  A use is a call, an attribute
read or an import of the name, read with `ast` from `src/dstoch` (outside
`__init__.py` and outside the name's own module-level definition), from
`demos/` or from `perfbench/`, or an entry of `perfbench/spans.py`'s
TRACED table, whose wrappers reach functions by `getattr`.  A name that
only the tests use belongs in the tests.
"""

import ast
from pathlib import Path

import dstoch
from test_trace_hooks import _traced

ROOT = Path(__file__).resolve().parents[1]

# public names kept with no user outside the tests, each for a reason
EXEMPT = {
    "direct_sum": "a saturator is a direct sum of connected ones; the exact "
                  "census at orders 4 and 5 (ROADMAP item 2) assembles them with it",
    "random_ds": "the documented seeded generator of doubly stochastic matrices",
}


def _uses(tree):
    """The names a module reads: the ids of Name loads, the attrs of
    Attribute loads and the names it imports, each module-level def or
    class left out of its own name's uses."""
    used = set()
    for top in tree.body:
        own = getattr(top, "name", None) if isinstance(
            top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name != own:
                used.add(name)
    return used


def _used_outside_the_tests():
    files = [path for path in (ROOT / "src" / "dstoch").glob("*.py")
             if path.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(_uses(ast.parse(path.read_text())) for path in files))
    return used | {attr.partition(".")[0] for _, attr in _traced().values()}


def test_every_public_name_is_used_outside_the_tests():
    unused = set(dstoch._HOME) - _used_outside_the_tests()
    assert unused == set(EXEMPT), sorted(unused ^ set(EXEMPT))
    assert set(EXEMPT) <= set(dstoch._HOME)
