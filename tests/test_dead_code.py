"""No public helper in the package exists only for the tests.

Every public top-level function or class in `src/teasim` must be named
somewhere in `src/` or `scripts/` outside its own definition.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Paper definitions kept although only tests use them.
KEPT_FOR_TESTS = {
    # The ISA's cache invariant: every line is accessible and agrees
    # with data memory.  The fuzzed ISA invariants check it.
    "cache_invariant_ok",
}


def mentions(tree: ast.AST) -> Counter:
    """How often each identifier is named in a tree."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def test_every_public_definition_is_used_outside_tests():
    package = sorted((ROOT / "src" / "teasim").glob("*.py"))
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    trees = {f: ast.parse(f.read_text()) for f in package + scripts}
    total = sum((mentions(t) for t in trees.values()), Counter())
    unused = set()
    for f in package:
        for node in trees[f].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and total[node.name] == mentions(node)[node.name]):
                unused.add(node.name)
    assert unused == KEPT_FOR_TESTS
