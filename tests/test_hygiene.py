"""Source hygiene: every name a module imports is used in that module,
every top-level function and class and every method is named somewhere,
no source computes in floating point, no loop is written twice, and
every command imports only the modules it runs.

No linter ships with the package, so this test is the check.  It reads
each source file and each test file with `ast`, collects the names its
import statements bind and fails on those the file never loads.  It
also fails on a top-level definition or method that no source file
names, unless perfbench patches or calls it or a test backs it
(TEST_BACKED, with the reason); dunders and overrides of a name a base
class defines are called from outside and left out.  A true division,
a float literal or a float(...) call in a source fails too, unless
FLOAT_ALLOWED names its line with the reason, and so does a write
through the rows of a matrix: matrices are built once from row lists
and share rows, so none may change after it is built; for the same
reason every slot a class declares is set in its __init__ or __new__.
Two for/while loops of 20 or more AST nodes that match once every name
is blanked fail unless DUPLICATE_LOOPS_ALLOWED names the pair with the
reason: one idea, one loop.  Every lru_cache memo a module defines must have a
bound, and MEMOS lists them all.  A fresh interpreter per command shows
which modules that command loads.
"""

import ast
import copy
import importlib
import itertools
import os
import subprocess
import sys
import types
from functools import lru_cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "nilvar").glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_name():
    source = ("import os\nimport os.path as osp\n"
              "from .words import Word, parse_word\n"
              "def f():\n    return Word(os.sep)\n")
    assert unused_imports(source) == ["line 2: osp", "line 3: parse_word"]


def float_uses(source: str) -> list[str]:
    """The stripped source line of each true division (`/`, `/=`), float
    literal and `float(...)` call in `source`, in line order."""
    lines = source.splitlines()
    hits = [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.Div)
            or isinstance(node, ast.Constant) and isinstance(node.value, float)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float"]
    return [lines[line - 1].strip() for line in sorted(hits)]


# the floating point that src/nilvar keeps, "file: line" -> reason
FLOAT_ALLOWED = {
    "verify.py: if rng.random() < 0.3:": "the chance that the sampler of "
        "random modules adds a band summand; it picks test inputs and never "
        "enters an exact computation",
}


def test_no_floating_point():
    assert [f"{path.name}: {line}" for path in SOURCES
            for line in float_uses(path.read_text())] == list(FLOAT_ALLOWED)


def test_checker_flags_floating_point():
    source = ("q = 7 / 2\nr = 7 // 2\nq /= 2\nr //= 2\nz = 1.5\n"
              "w = float(3)\nu = 1e3\nv = 10 ** 3\nok = isinstance(v, float)\n")
    assert float_uses(source) == ["q = 7 / 2", "q /= 2", "z = 1.5",
                                  "w = float(3)", "u = 1e3"]


class _Blank(ast.NodeTransformer):
    """Replaces every identifier and argument name by one placeholder."""

    def visit_Name(self, node):
        node.id = "_"
        return node

    def visit_arg(self, node):
        node.arg = "_"
        return self.generic_visit(node)


def duplicate_loops(sources: dict, min_nodes=20) -> list[tuple[str, str]]:
    """The pairs of for/while statements of `sources` (file name -> text)
    of at least `min_nodes` AST nodes whose ASTs match once every
    identifier and argument name is blanked, each as two "file: first
    line" entries, files by name and loops outermost first.  A loop inside
    a loop that is flagged already is left out: its match comes with the
    outer one."""
    groups = {}
    for fname, text in sorted(sources.items()):
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.For, ast.While))
                    and sum(1 for _ in ast.walk(node)) >= min_nodes):
                shape = ast.dump(_Blank().visit(copy.deepcopy(node)))
                entry = (node, f"{fname}: {lines[node.lineno - 1].strip()}")
                groups.setdefault(shape, []).append(entry)
    flagged = [node for group in groups.values() if len(group) > 1 for node, _ in group]
    inner = {id(sub) for node in flagged for sub in ast.walk(node) if sub is not node}
    return [(one, two) for group in groups.values()
            for (n1, one), (n2, two) in itertools.combinations(group, 2)
            if id(n1) not in inner and id(n2) not in inner]


# the duplicate loops that src/nilvar keeps, pair of "file: line" -> reason
DUPLICATE_LOOPS_ALLOWED = {}


def test_no_duplicate_loops():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert duplicate_loops(sources) == list(DUPLICATE_LOOPS_ALLOWED)


def test_checker_flags_duplicate_loops():
    body = ("    for k, v in row.items():\n"
            "        for j, w in {m}[k].items():\n"
            "            acc[j] = acc.get(j, 0) + v * w\n")
    sources = {
        "a.py": "def f(row, right):\n" + body.format(m="right")
                + "    for i in range(3):\n        pass\n",
        "b.py": "def g(row, rows):\n" + body.format(m="rows")
                + "    for i in range(3):\n        pass\n"
                + "    while row:\n        row = [v * 2 for v in row if v]\n"
                + "    while acc:\n        acc = [u * 3 for u in acc if u]\n",
    }
    # the inner loops match too, but only the outer pair is named; the
    # range loops are under 20 nodes and the while loops differ in a
    # constant
    assert duplicate_loops(sources) == [("a.py: for k, v in row.items():",
                                         "b.py: for k, v in row.items():")]
    assert duplicate_loops(sources, min_nodes=5) == [
        ("a.py: for k, v in row.items():", "b.py: for k, v in row.items():"),
        ("a.py: for i in range(3):", "b.py: for i in range(3):")]


# the list and dict methods that change their receiver in place
MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove",
            "clear", "update", "setdefault", "sort", "reverse"}


def under_rows(node) -> bool:
    """Whether node is X.rows or a subscript of it (X.rows[i], ...)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "rows"


def row_writes(source: str) -> list[str]:
    """The stripped source line of each store or delete through a `.rows`
    attribute (X.rows[i][j] = v, X.rows[i] += r, del X.rows[i]) and each
    call of a mutating method on one (X.rows[i].update(...)), in line
    order."""
    lines = source.splitlines()
    hits = [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript)
            and isinstance(node.ctx, (ast.Store, ast.Del)) and under_rows(node.value)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS and under_rows(node.func.value)]
    return [lines[line - 1].strip() for line in sorted(hits)]


def test_no_source_writes_matrix_rows():
    assert [f"{path.name}: {line}" for path in SOURCES
            for line in row_writes(path.read_text())] == []


def test_checker_flags_a_row_write():
    source = ("A.rows[i][j] = 1\nm.A.rows[0] = {}\nA.rows[i][j] += 2\n"
              "del A.rows[i][j]\nA.rows[i].update(r)\nA.rows.append({})\n"
              "rows[i][j] = 1\nself.rows = rows\nv = A.rows[i][j]\n"
              "out += A.rows\nrow = dict(A.rows[i])\nrow.update(A.rows[i])\n")
    assert row_writes(source) == ["A.rows[i][j] = 1", "m.A.rows[0] = {}",
                                  "A.rows[i][j] += 2", "del A.rows[i][j]",
                                  "A.rows[i].update(r)", "A.rows.append({})"]


def unset_slots(source: str) -> list[str]:
    """Class.slot for each slot that a class's __slots__ declares but
    neither its __init__ nor its __new__ assigns (X.slot = v, or in a
    tuple target), in source order."""
    out = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        slots, assigned = (), set()
        for node in cls.body:
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__slots__"
                            for t in node.targets)):
                slots = ast.literal_eval(node.value)
            elif isinstance(node, ast.FunctionDef) and node.name in ("__init__", "__new__"):
                assigned |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                             and isinstance(n.ctx, ast.Store)}
        out += [f"{cls.name}.{slot}" for slot in slots if slot not in assigned]
    return out


def test_every_slot_is_set_at_construction():
    # an object is built once and never written after, like its matrix
    # rows: no slot is filled later as hidden state
    assert [f"{path.name}: {slot}" for path in SOURCES
            for slot in unset_slots(path.read_text())] == []


def test_checker_flags_an_unset_slot():
    source = ("class P:\n    __slots__ = ('a', 'b', 'c')\n"
              "    def __init__(self, a):\n        self.a = a\n"
              "    def fill(self):\n        self.b = 1\n"
              "class W(str):\n    __slots__ = ('p', 'q')\n"
              "    def __new__(cls, t, p):\n        w = super().__new__(cls, t)\n"
              "        w.p, w.q = p, None\n        return w\n"
              "class T(tuple):\n    __slots__ = ()\n"
              "class Plain:\n    def __init__(self):\n        self.x = 1\n")
    assert unset_slots(source) == ["P.b", "P.c"]


# every lru_cache memo of src/nilvar, as module.function: the tables a
# caller clears for a cold run
MEMOS = ["homalg._ext1_vanishes", "homalg._hom_count", "modmatrix._band_frame",
         "verify._string_summand", "words._middles"]


def memo_tables(modules) -> dict:
    """module.name -> cache_info() of each attribute of the modules that
    has a cache_info, under the module that defines it only, so a memo
    that another module imports counts once."""
    out = {}
    for mod in modules:
        for name, value in vars(mod).items():
            if (hasattr(value, "cache_info")
                    and getattr(value, "__module__", None) == mod.__name__):
                out[f"{mod.__name__.rsplit('.', 1)[-1]}.{name}"] = value.cache_info()
    return out


def test_every_memo_is_bounded():
    # __main__ runs the command line when imported, and defines nothing
    tables = memo_tables(importlib.import_module(f"nilvar.{path.stem}")
                         for path in SOURCES if path.stem != "__main__")
    assert sorted(tables) == MEMOS
    assert [name for name, info in tables.items() if info.maxsize is None] == []


def test_checker_finds_each_memo_once():
    mod = types.ModuleType("pkg.fake")
    exec("from functools import lru_cache\n"
         "@lru_cache(maxsize=None)\ndef grows(x):\n    return x\n"
         "@lru_cache(maxsize=8)\ndef capped(x):\n    return x\n"
         "def plain(x):\n    return x\n", mod.__dict__)
    other = types.ModuleType("pkg.other")
    other.grows = mod.grows  # an import of it, not a second memo
    other.own = lru_cache(maxsize=4)(lambda x: x)
    other.own.__module__ = "pkg.other"
    tables = memo_tables([mod, other])
    assert sorted(tables) == ["fake.capped", "fake.grows", "other.own"]
    assert [n for n, info in tables.items() if info.maxsize is None] == ["fake.grows"]


# definitions that nothing in src/nilvar names but that stay: each
# backs a test that holds the code to an independent computation
TEST_BACKED = {
    "diamond_family": "the band family of one regular pair, pinned over "
                      "1,407 pairs and held to the families of "
                      "regular_components",
    "dominates": "the dominance order that tests hold ip_maximal and the "
                 "V(n, n, n) components to",
    "is_regular_component": "the component criterion for one regular pair, "
                            "pinned over 1,407 pairs and held to the cells "
                            "regular_components keeps",
    "open_type": "the open-string type that the self-extension dichotomy "
                 "(type 1 iff Ext^1(M, M) = 0) is checked by",
}

PERFBENCH = ("tracing.py", "workloads.py")


def unreferenced_definitions(sources: dict, exempt=frozenset(),
                             inherited=lambda fname, cls, name: False) -> list[str]:
    """The top-level functions and classes of `sources` (file name ->
    text), and the methods of those classes, that no file of them names,
    as a variable or an attribute, leaving out the names in `exempt`
    (bare, or Class.method for a method).  Dunders are left out, and so
    are the methods for which inherited(file name, class, method) holds:
    overrides of a name that a base class defines."""
    defined, named = [], set()
    for fname, text in sorted(sources.items()):
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((fname, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(fname, f"{node.name}.{item.name}", item.name)
                            for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))
                            and not inherited(fname, node.name, item.name)]
        named |= identifiers(tree)
    return [f"{fname}: {qual}" for fname, qual, name in defined
            if name not in named and name not in exempt and qual not in exempt]


def overrides(fname, clsname, name) -> bool:
    """Whether a base class of nilvar's class `clsname` in file `fname`
    defines `name`."""
    cls = getattr(importlib.import_module(f"nilvar.{Path(fname).stem}"), clsname)
    return any(name in vars(base) for base in cls.__mro__[1:])


def identifiers(tree) -> set[str]:
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def perfbench_names() -> set[str]:
    """Every identifier, imported name and string constant of the
    perfbench files that patch or call nilvar, read as text: the tracer
    names what it wraps in strings."""
    out = set()
    for fname in PERFBENCH:
        tree = ast.parse((SRC.parent / "perfbench" / fname).read_text())
        out |= identifiers(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                out.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_definition_is_named():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert unreferenced_definitions(
        sources, perfbench_names() | set(TEST_BACKED), overrides) == []
    # and the list holds no name that the code uses or no longer has
    assert sorted(entry.split(": ")[1] for entry in unreferenced_definitions(
        sources, perfbench_names(), overrides)) == sorted(TEST_BACKED)


def test_checker_flags_an_unnamed_definition():
    sources = {"a.py": "def f():\n    return g()\n\ndef g():\n    pass\n\n"
                       "class Unused:\n    pass\n",
               "b.py": "from . import a\n\ndef h():\n    return a.f()\n"}
    assert unreferenced_definitions(sources) == ["a.py: Unused", "b.py: h"]
    assert unreferenced_definitions(sources, {"Unused", "h"}) == []


def test_checker_flags_an_unnamed_method():
    sources = {"c.py": "class K(Base):\n    def __init__(self):\n        self.used()\n"
                       "    def used(self):\n        pass\n"
                       "    def unused(self):\n        pass\n"
                       "    def hook(self):\n        pass\n\n"
                       "K()\n"}
    assert unreferenced_definitions(sources) == ["c.py: K.unused", "c.py: K.hook"]
    assert unreferenced_definitions(
        sources, {"K.unused"}, lambda fname, cls, name: name == "hook") == []


# modules that a command must not load unless it runs them: dataclasses
# pulls in inspect, ast, dis and tokenize; nilvar.verify is needed by
# `verify` alone and nilvar.indexmod by its stratum-dims check; the Hom
# layer (nilvar.homalg) by `hom`, `ext`, the classifier and the checks
# that count Hom or Ext; the matrix stack (nilvar.modmatrix,
# nilvar.exactla) by `module`, `hom --oracle` and the checks, and
# fractions only by a matrix entry that is not an int, as
# `module --lambdas 1,1/2` gives; json by --format json
NEVER = ("dataclasses", "inspect", "nilvar.indexmod", "nilvar.verify")
MATRICES = ("nilvar.modmatrix", "nilvar.exactla", "fractions")
# the classifier, needed by `classify`, `tables`, `module` (partitions,
# for the Jordan types) and the checks that compare against it
CLASSIFIER = ("nilvar.classify", "nilvar.partitions")

# command -> (argv, the modules it must not load)
COMMANDS = {
    "classify": (["classify", "--n", "4", "--a", "3", "--b", "3"],
                 NEVER + MATRICES + ("json",)),
    "classify-json": (["classify", "--n", "4", "--a", "3", "--b", "3",
                       "--format", "json"], NEVER + MATRICES),
    "tables": (["tables", "--a", "3", "--b", "3", "--max-n", "4"],
               NEVER + MATRICES + ("json",)),
    "hom": (["hom", "--source", "xxy", "--target", "xy"],
            NEVER + MATRICES + CLASSIFIER + ("json",)),
    "hom-oracle": (["hom", "--source", "xxy", "--target", "xy", "--oracle"],
                   NEVER + CLASSIFIER + ("json",)),
    "ext": (["ext", "--source", "xy", "--target", "xxyy"],
            NEVER + MATRICES + CLASSIFIER + ("json",)),
    "module": (["module", "--word", "xy", "--lambdas", "1,1/2"],
               NEVER + ("nilvar.homalg", "json")),
}


def modules_loaded(argv, candidates) -> list[str]:
    """The `candidates` a fresh interpreter holds after running
    `nilvar <argv>` through nilvar.cli.main."""
    code = ("import contextlib, io, sys\n"
            "from nilvar.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            f"print(*[m for m in {candidates!r} if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.split()


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_what_it_runs(command):
    argv, never = COMMANDS[command]
    assert modules_loaded(argv, never) == []


def test_verify_loads_the_checks():
    assert modules_loaded(["verify", "--check", "remarks"], NEVER) == [
        "nilvar.verify"]
    assert modules_loaded(["verify", "--check", "stratum-dims"], NEVER) == [
        "nilvar.indexmod", "nilvar.verify"]


@pytest.mark.parametrize("check", ["random-modules", "hom-agreement"])
def test_matrix_checks_load_no_fractions(check):
    # their matrices hold int entries only; exactla imports fractions on
    # the first entry that is not an int
    assert modules_loaded(["verify", "--check", check],
                          MATRICES + ("json",)) == [
        "nilvar.modmatrix", "nilvar.exactla"]


@pytest.mark.parametrize("check", ["random-modules", "hom-agreement"])
def test_matrix_checks_load_no_classifier(check):
    # neither check compares against the classification tables, and
    # random-modules counts no Hom either
    hom = ["nilvar.homalg"] if check == "hom-agreement" else []
    assert modules_loaded(["verify", "--check", check],
                          CLASSIFIER + ("nilvar.homalg",)) == hom
