"""Every name a library module imports is used in that module, every
private top-level function is used somewhere in the library, no library
module uses `assert`, only the modules that hold rational values import
`fractions`, `classnum` and `theta` do not walk local index sets, one
walker splits every slot of a local count, the tests' oracles stay out of
the package, no module keeps state between
calls, no module imports `dataclasses`, importing the CLI loads no
introspection module and no argparse, `cli` imports no private name from
`classnum`, the package exports exactly what its `__init__.py`
imports, and every name the benchmark reads from the package resolves."""

from __future__ import annotations

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import csaclass

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "csaclass"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_found():
    source = "import os\nfrom math import gcd, prod\nprint(prod([os.sep]))\n"
    assert unused_imports(source) == ["line 2: gcd"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_private_functions(sources: list[str]) -> list[str]:
    """Private top-level functions that no module names outside their own
    `def`; a recursive call alone does not count as a use."""
    private, used = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            own = None
            if (isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                private.add(node.name)
                own = node.name
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name) else
                        sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != own:
                    used.add(name)
    return sorted(private - used)


def test_unused_private_functions_are_found():
    sources = ["def _helper(n):\n    return _helper(n - 1) if n else 0\n",
               "def _used():\n    return 1\n",
               "from m import _used\nVALUE = _used()\n"]
    assert unused_private_functions(sources) == ["_helper"]


def test_no_unused_private_functions():
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert unused_private_functions(sources) == []


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_asserts_are_found():
    source = "def f(x):\n    assert x\n    return x\n"
    assert assert_lines(source) == [2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_in_src(path):
    # `python -O` strips assert statements, so invariants are typed errors.
    assert assert_lines(path.read_text(encoding="utf-8")) == []


# Invariants, masses, zeta values and their output are rational; theta
# factors, unit indices and index set sizes are integers.
FRACTION_MODULES = {"basefield", "algebra", "massform", "classnum", "cli"}


def imports_fractions(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == "fractions" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            return True
    return False


def test_fractions_imports_are_found():
    assert imports_fractions("from fractions import Fraction\n")
    assert imports_fractions("def f():\n    import fractions\n")
    assert not imports_fractions("from math import gcd\n")


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_fractions_only_where_values_are_rational(path):
    if path.stem not in FRACTION_MODULES:
        assert not imports_fractions(path.read_text(encoding="utf-8"))


def imported_names(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


# Transfer and selfcheck count local index sets by their strips, and theta
# sums them by rows; the walk is an oracle.
WALKS = {"enumerate_omega"}


def test_walk_imports_are_found():
    planted = "from .omega import enumerate_omega, strip_counts\n"
    assert imported_names(planted) & WALKS == {"enumerate_omega"}
    assert not imported_names("from .omega import strip_counts\n") & WALKS


def test_classnum_does_not_walk_index_sets():
    source = (SRC / "classnum.py").read_text(encoding="utf-8")
    assert imported_names(source) & WALKS == set()


def test_theta_does_not_walk_index_sets():
    source = (SRC / "theta.py").read_text(encoding="utf-8")
    assert imported_names(source) & WALKS == set()


def functions_naming(source: str, name: str) -> set[str]:
    """Top-level functions of `source` that name `name`, nested functions
    counted as their enclosing one, and "<module>" for a name or import
    outside any function; a `def` of `name` is not a use."""
    found = set()
    for node in ast.parse(source).body:
        where = (node.name if isinstance(node, ast.FunctionDef)
                 else "<module>")
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Name) and sub.id == name
                    or isinstance(sub, ast.Attribute) and sub.attr == name
                    or isinstance(sub, ast.alias) and sub.name == name):
                found.add(where)
    return found


def test_functions_naming_are_found():
    source = ("from .omega import _slot_entries\n"
              "def _slot_entries(key):\n    return key\n"
              "def _walk(key):\n    def split():\n"
              "        return _slot_entries(key)\n    return split()\n"
              "def other(omega):\n    return omega._slot_entries\n"
              "def unrelated():\n    return 0\n")
    assert functions_naming(source, "_slot_entries") == {
        "<module>", "_walk", "other"}


def test_one_walker_splits_every_slot():
    # theta, omega_size and strip_counts are one dynamic program: only
    # `omega._walk` splits a slot, and theta takes the walk, not the step.
    callers = {f"{path.stem}.{where}" for path in sorted(SRC.glob("*.py"))
               for where in functions_naming(
                   path.read_text(encoding="utf-8"), "_slot_entries")}
    assert callers == {"omega._walk"}
    names = imported_names((SRC / "theta.py").read_text(encoding="utf-8"))
    assert "_walk" in names and "_slot_entries" not in names


def private_imports(source: str, module: str) -> set[str]:
    """Underscore-prefixed names `source` imports from the sibling
    `module`."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == module for alias in node.names
            if alias.name.startswith("_")}


def test_private_imports_are_found():
    planted = ("from .classnum import DEFAULT_BUDGET, _resum, selfcheck\n"
               "from classnum import _level_solver\n")
    assert private_imports(planted, "classnum") == {"_resum"}


def test_cli_imports_no_private_name_from_classnum():
    # The solve's internals stay behind `classnum`'s public functions.
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert private_imports(source, "classnum") == set()


def test_test_oracles_stay_out_of_the_package():
    # The tests build these from the library in conftest.py.
    from csaclass import algebra, classnum, omega, orders
    assert not hasattr(omega, "flatten_strip")
    assert not hasattr(orders, "enumerate_genera")
    assert not hasattr(orders, "genus_reduce")
    assert not hasattr(classnum.GeneraReport, "per_genus")
    assert not hasattr(algebra.AlgebraSpec, "with_listed_place")
    assert not hasattr(sys.modules["csaclass.theta"], "theta_enum")
    assert "theta_enum" not in csaclass.__all__
    assert not hasattr(algebra, "centralizer_spec")
    assert "centralizer_spec" not in csaclass.__all__


# Nothing is kept between calls: the one cached function builds the argument
# parser, and the only module-level containers are the export list and the
# command table.
STATE_ALLOWED = {"__init__.py": {"container __all__"},
                 "cli.py": {"cached build_parser", "container _COMMANDS"}}
CACHES = {"cache", "lru_cache"}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
              ast.SetComp)


def kept_state(source: str) -> list[str]:
    """Functions decorated with a functools cache, `global` statements and
    module-level names bound to a dict, list or set display."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    decorator = decorator.func
                name = (decorator.attr if isinstance(decorator, ast.Attribute)
                        else getattr(decorator, "id", None))
                if name in CACHES:
                    found.append(f"cached {node.name}")
        elif isinstance(node, ast.Global):
            found += [f"global {name}" for name in node.names]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, CONTAINERS):
            found += [f"container {ast.unparse(t)}" for t in targets]
    return found


def test_kept_state_is_found():
    source = ("import functools\nfrom functools import lru_cache\n"
              "SEEN = {}\nNAMES: list[str] = [n for n in 'ab']\n"
              "LIMIT = 3\nPAIR = (1, 2)\n"
              "@functools.cache\ndef f():\n    return 1\n"
              "@lru_cache(maxsize=None)\ndef g():\n    global LIMIT\n"
              "    local = []\n    return local\n")
    assert sorted(kept_state(source)) == [
        "cached f", "cached g", "container NAMES", "container SEEN",
        "global LIMIT"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_state_between_calls(path):
    found = kept_state(path.read_text(encoding="utf-8"))
    assert set(found) - STATE_ALLOWED.get(path.name, set()) == set()


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules `source` imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_imported_modules_are_found():
    source = ("import os.path\nfrom . import errors\n"
              "def f():\n    from dataclasses import dataclass\n")
    assert imported_modules(source) == {"os", "dataclasses"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_dataclasses_in_src(path):
    # `dataclasses` loads inspect, ast, dis and tokenize, and each decorator
    # execs its generated methods: most of the CLI's start-up time.
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_cli_import_loads_no_introspection_modules():
    # -S -E as perfbench/worker.py runs: no site module, no PYTHON* variables.
    # argparse, and the gettext it loads, come only with `build_parser`.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import csaclass.cli; "
            "print(' '.join(sorted({'dataclasses', 'inspect', 'ast', 'dis', "
            "'tokenize', 'argparse', 'gettext'} & set(sys.modules))))")
    done = subprocess.run([sys.executable, "-S", "-E", "-c", code,
                           str(SRC.parent)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


def test_exports_are_the_imported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(csaclass.__all__) == sorted(imported)
    missing = [name for name in csaclass.__all__
               if not hasattr(csaclass, name)]
    assert missing == []


def benchmark_names(sources: list[str]) -> set[str]:
    """Dotted `csaclass` names the sources read: each name a `from csaclass`
    import binds, each module `importlib.import_module` loads, and each
    attribute read off a module so imported.  The worker hands the modules
    it imports to the pass runner under the same names, so the bindings of
    all the sources are shared."""
    names, modules = set(), {}
    trees = [ast.parse(source) for source in sources]
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom) and not node.level and \
                node.module.split(".")[0] == "csaclass":
            for alias in node.names:
                modules[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "import_module" and node.args
              and isinstance(node.args[0], ast.Constant)
              and str(node.args[0].value).startswith("csaclass")):
            names.add(node.args[0].value)
    names |= set(modules.values())
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(f"{modules[node.value.id]}.{node.attr}")
    return names


def resolve(dotted: str):
    """The module or attribute a dotted name stands for."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        parent, _, name = dotted.rpartition(".")
        return getattr(resolve(parent), name)


def test_benchmark_names_are_found():
    worker = "def main():\n    from csaclass import cli as c, classnum\n"
    runner = ("import importlib\nfrom csaclass.algebra import Place\n"
              "def run(c, classnum, other):\n"
              "    c.main([]); classnum.solve(other.x)\n"
              "    return importlib.import_module('csaclass.theta')\n")
    assert benchmark_names([worker, runner]) == {
        "csaclass.cli", "csaclass.cli.main", "csaclass.classnum",
        "csaclass.classnum.solve", "csaclass.algebra.Place", "csaclass.theta"}
    assert resolve("csaclass.cli.main") is csaclass.cli.main
    with pytest.raises(AttributeError):
        resolve("csaclass.classnum.no_such_name")


def test_names_the_benchmark_reads_resolve():
    # perfbench runs every op through these names; one renamed or moved
    # fails every benchmark run, so the tests fail first.
    sources = [(ROOT / "perfbench" / name).read_text(encoding="utf-8")
               for name in ("worker.py", "pass_runner.py")]
    names = benchmark_names(sources)
    assert "csaclass.cli.main" in names
    unresolved = []
    for name in sorted(names):
        try:
            resolve(name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []
    # The prime-degree check reads the order off the parsed config.
    config = (ROOT / "configs" / "dvg-example.json").read_text(encoding="utf-8")
    assert hasattr(resolve("csaclass.cli").parse_config(config), "order")
