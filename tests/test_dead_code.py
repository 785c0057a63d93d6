"""No public helper, parameter default or field exists only for the tests.

Every public top-level function or class in `src/teasim` must be named
somewhere in `src/` or `scripts/` outside its own definition and the
package's `__init__` (a re-export is no use), every defaulted parameter
of a function there must be set by some call in `src/` or `scripts/`,
and every annotated field of a class there must be read as an attribute
in `src/` or `scripts/`.  No module there imports a name it never reads.
A definition kept although only tests use it must be named by some test.
The field rule is also checked per class, by running the product: every
field of every NamedTuple there must be read as an attribute of an
instance of its own class.
"""

import ast
import contextlib
import importlib
import pathlib
import pkgutil
from collections import Counter, defaultdict
from typing import NamedTuple

import teasim
from teasim import asm, cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "teasim").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# Paper definitions kept although only tests use them.
KEPT_FOR_TESTS = {
    # The paper's stutter witness, and the tests' reference for the
    # witness a walk reads off its own run.
    "stutter_wit",
    # The deterministic step's definition: the resource choice that
    # reproduces it (acceptance criterion 2, test_variants and
    # test_records).
    "maximal_choice",
    # The paper's observation label: the architectural state with the
    # cache erased (acceptance criteria 4 and 5).
    "label",
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
    """A mention in the body of a definition kept for the tests does not
    count: what only such a definition uses, only the tests use."""
    trees = {f: ast.parse(f.read_text()) for f in PACKAGE + SCRIPTS}
    total = sum((mentions(t) for f, t in trees.items()
                 if f.name != "__init__.py"), Counter())
    for tree in trees.values():
        for node in tree.body:
            if getattr(node, "name", None) in KEPT_FOR_TESTS:
                total.subtract(mentions(node))
    unused = set()
    for f in PACKAGE:
        for node in trees[f].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                # A kept definition's own body is already taken out.
                own = (0 if node.name in KEPT_FOR_TESTS
                       else mentions(node)[node.name])
                if total[node.name] == own:
                    unused.add(node.name)
    assert unused == KEPT_FOR_TESTS


def test_no_unused_imports():
    """Every name a module imports is read in it, so an import alias
    never counts as the only use of a definition.  The package's
    `__init__` re-exports the names in its `__all__`."""
    unused = set()
    for f in PACKAGE + SCRIPTS:
        tree = ast.parse(f.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if f.name == "__init__.py":
            read |= set(teasim.__all__)
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.add(f"{f.stem}.{name}")
    assert unused == set()


def test_every_kept_definition_is_used_by_tests():
    total = sum((mentions(ast.parse(f.read_text()))
                 for f in sorted((ROOT / "tests").rglob("*.py"))
                 if f.name != pathlib.Path(__file__).name), Counter())
    assert {name for name in KEPT_FOR_TESTS if not total[name]} == set()


# Parameter defaults kept although no call in src/ or scripts/ sets them.
# None: cli.main's argv, which the console script leaves to sys.argv, is
# passed by scripts/shrink_costs.py.
DEFAULTS_SET_BY_TESTS: set[tuple[str, str]] = set()


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


def test_every_field_is_read():
    trees = [ast.parse(f.read_text()) for f in PACKAGE + SCRIPTS]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = set()
    for tree in trees[:len(PACKAGE)]:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)
                        and node.target.id not in read):
                    unread.add(f"{cls.name}.{node.target.id}")
    assert unread == set()


# "Class.field" -> why no product run reads it.
FIELDS_READ_ONLY_BY_TESTS: dict[str, str] = {}


def named_tuples() -> list[type]:
    """Every NamedTuple class defined in the package."""
    out = []
    for info in pkgutil.iter_modules(teasim.__path__):
        mod = importlib.import_module(f"teasim.{info.name}")
        out += [v for v in vars(mod).values()
                if isinstance(v, type) and issubclass(v, tuple)
                and hasattr(v, "_fields") and v.__module__ == mod.__name__]
    return out


@contextlib.contextmanager
def field_reads(classes: list[type]):
    """For its duration, each field of each class is a property that
    adds "Class.field" to the yielded set when an instance reads it."""
    read: set[str] = set()
    saved = {}

    def counting(key: str, i: int) -> property:
        def get(self):
            read.add(key)
            return tuple.__getitem__(self, i)
        return property(get)

    try:
        for cls in classes:
            for i, name in enumerate(cls._fields):
                saved[cls, name] = cls.__dict__[name]
                setattr(cls, name, counting(f"{cls.__name__}.{name}", i))
        yield read
    finally:
        for (cls, name), getter in saved.items():
            setattr(cls, name, getter)


def product_runs(tmp_path) -> None:
    """A check of every suite writing its bundles, a run of each bundled
    program on each machine with its trace, both demos and a replay of
    one bundle, in this process."""
    out = tmp_path / "bundles"
    assert cli.main(["check", "--suite", "all", "--trials", "20", "--seed",
                     "1", "--json", "--bundle-dir", str(out)]) == 1
    for prog in sorted((ROOT / "src" / "teasim" / "programs").glob("*.asm")):
        for machine in ("isa", "ma", "ma-h"):
            assert cli.main(["run", str(prog), "--machine", machine,
                             "--trace"]) == 0
    for attack in ("meltdown", "spectre"):
        assert cli.main(["demo", attack]) == 0
    bundle = min(out.iterdir())
    assert cli.main(["check", "--replay", str(bundle)]) == 1


def test_every_field_is_read_by_its_own_class(tmp_path, capsys):
    classes = named_tuples()
    fields = {f"{c.__name__}.{name}" for c in classes for name in c._fields}
    with field_reads(classes) as read:
        product_runs(tmp_path)
    assert fields - read == set(FIELDS_READ_ONLY_BY_TESTS)
    assert all(FIELDS_READ_ONLY_BY_TESTS.values())


class Probe(NamedTuple):
    used: int
    only_tests_read_it: int


def test_field_reads_finds_a_field_only_a_test_reads():
    # A field that the product never reads, like this one, fails the
    # rule above; the fields are restored afterwards.
    getters = dict(vars(Probe))
    with field_reads([Probe]) as read:
        Probe(1, 2).used
    assert read == {"Probe.used"}
    assert Probe(1, 2).only_tests_read_it == 2
    assert {k: vars(Probe)[k] for k in getters} == getters
