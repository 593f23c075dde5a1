"""Every name a package module imports at top level is used in that module.

No linter ships with the test dependencies, so the check reads each
module's syntax tree with the standard library's `ast`. A name counts as
used when it is read anywhere in the module, a string annotation included.
`__init__.py` is exempt: its imports are the package's re-exports.

A private function, class or method (one leading underscore) that nothing
in the package names is dead code: every such definition must be read,
called or subclassed somewhere in `src/conedom`, its own module included.

A cache that grows with the number of distinct arguments (`functools.cache`
or `lru_cache(maxsize=None)`) keeps every program, facet set or order a
long-running caller ever asked about. No module may hold one: a kept
result lives on the object it belongs to, or in a cache of fixed size.

The benchmark's span tracer (`bench/spans.py`) wraps every function named
in its `TRACED` table, looked up by name, so a name deleted or renamed in
the package breaks every traced run. The last test reads that table from
the file, without importing the benchmark, and looks each name up.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conedom"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names imported at the module's top level that it never reads."""
    tree = ast.parse(source)
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation such as "Facets | None" reads its names too.
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [name for name in imported if name not in used]


def test_the_package_has_modules_to_scan():
    assert "linalg.py" in MODULES and "dominance.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_every_top_level_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_scan_finds_a_leftover_import():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "from .linalg import LpStatus, lp_solve, vadd\n"
        "def f(a: 'Vec') -> 'LpStatus':\n"
        "    def g():\n"
        "        from .sets import materialize\n"
        "        return materialize\n"
        "    return vadd(a, a)\n"
    )
    assert unused_imports(source) == ["json", "lp_solve"]


def private_definitions(tree: ast.AST) -> list[str]:
    """The private functions, classes and methods defined anywhere in the tree."""
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, as a bare name or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def unreferenced_private_definitions(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    used = set().union(*map(referenced_names, trees))
    return [name for tree in trees for name in private_definitions(tree) if name not in used]


def package_sources() -> list[str]:
    return [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]


def test_every_private_definition_is_referenced_in_the_package():
    trees = [ast.parse(source) for source in package_sources()]
    assert sum(len(private_definitions(tree)) for tree in trees) > 50
    assert unreferenced_private_definitions(package_sources()) == []


def test_the_scan_finds_an_orphaned_helper():
    source = (
        "def _used(x):\n"
        "    return x\n"
        "def _orphan(x):\n"
        "    return _used(x)\n"
        "class _Shape:\n"
        "    def _area(self):\n"
        "        return 0\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "def public(s):\n"
        "    return s._area()\n"
    )
    other = "from .m import _Shape\nSHAPES = [_Shape()]\n"
    assert unreferenced_private_definitions([source, other]) == ["_orphan"]


def unbounded_caches(source: str) -> list[str]:
    """Each `functools.cache` and each `lru_cache(maxsize=None)` in the
    source, imported, read or called, as 'line N: form'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"line {node.lineno}: functools.cache" for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and getattr(node.value, "id", None) == "functools":
            found.append(f"line {node.lineno}: functools.cache")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lru_cache":
            size = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and size.value is None:
                found.append(f"line {node.lineno}: lru_cache(maxsize=None)")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_module_holds_an_unbounded_cache(module):
    assert unbounded_caches((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_scan_finds_each_unbounded_cache():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache, cached_property\n"
        "@functools.cache\n"
        "def a(x): return x\n"
        "@lru_cache(maxsize=None)\n"
        "def b(x): return x\n"
        "@functools.lru_cache(None)\n"
        "def c(x): return x\n"
        "@lru_cache(maxsize=1)\n"
        "def d(x): return x\n"
        "@lru_cache\n"
        "def e(x): return x\n"
    )
    assert unbounded_caches(source) == [
        "line 2: functools.cache",
        "line 3: functools.cache",
        "line 5: lru_cache(maxsize=None)",
        "line 7: lru_cache(maxsize=None)",
    ]


def test_every_name_the_benchmark_traces_is_a_package_function():
    spec = importlib.util.spec_from_file_location("traced_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = [(module, name) for module, names in spans.TRACED.items() for name in names]
    assert len(traced) > 20
    missing = [
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"conedom.{module}"), name, None))
    ]
    assert missing == []
