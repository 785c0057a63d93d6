"""No public helper, and no parameter default, exists only for the tests.

Every public top-level function or class in `src/teasim` must be named
somewhere in `src/` or `scripts/` outside its own definition, and every
defaulted parameter of a function there must be set by some call in
`src/` or `scripts/`.
"""

import ast
import pathlib
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "teasim").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

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
    trees = {f: ast.parse(f.read_text()) for f in PACKAGE + SCRIPTS}
    total = sum((mentions(t) for t in trees.values()), Counter())
    unused = set()
    for f in PACKAGE:
        for node in trees[f].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and total[node.name] == mentions(node)[node.name]):
                unused.add(node.name)
    assert unused == KEPT_FOR_TESTS


# Parameter defaults kept although no call in src/ or scripts/ sets them.
DEFAULTS_SET_BY_TESTS = {
    # The console script calls main() and argparse reads sys.argv; tests
    # pass argv.
    ("main", "argv"),
}


def defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter with a default; keyword-only
    parameters have no position."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
    out += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
            if d is not None]
    return out


def test_every_parameter_default_is_overridden_outside_tests():
    trees = [ast.parse(f.read_text()) for f in PACKAGE + SCRIPTS]
    calls = defaultdict(list)  # called name -> its call nodes
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls[name].append(node)
    never_set = set()
    for tree in trees[:len(PACKAGE)]:
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for pos, param in defaulted(fn):
                if not any(any(k.arg == param for k in c.keywords)
                           or (pos is not None and len(c.args) > pos)
                           for c in calls[fn.name]):
                    never_set.add((fn.name, param))
    assert never_set == DEFAULTS_SET_BY_TESTS
