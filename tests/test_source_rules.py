"""Rules the package keeps at the source level, checked on its parsed source.

- No `assert` under src/: invariants must fire under `python -O`.
- Only the standard library is imported: the runtime has no dependencies.
- cli.py imports nothing from hypermatch.rng: every seeded draw is a library
  call, so library callers reproduce it.
- Only cli.py imports gc: the command pauses the cyclic collector in one
  place, and the library never touches it.
- Hypergraph._canonical is called only by the generators of canonical edges,
  so outside input is always validated.
- core._looks_up, the route rule for H[X], is named only in core.py: every
  other module counts H[X] through core.edges_within or core.induced.

Each file under src/ is parsed once. A rule takes (path, tree) and returns its
violations as "path:line: detail" lines, so each rule is also run on a planted
violation given as in-memory source: a walker bug cannot pass silently.
"""

import ast
import functools
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The functions that may call Hypergraph._canonical, as module.function; see the core docstring.
CANONICAL_CALLERS = frozenset({
    "core.induced", "core.complete_hypergraph", "rng.random_hypergraph",
    "constructions.build_space_barrier_at", "constructions.build_parity",
    "constructions.build_clique_minus", "stability.downward_closure", "pipeline.round2_sparsify",
})
ALLOWED_TOP_LEVEL = frozenset(sys.stdlib_module_names) | {"hypermatch"}


@functools.cache
def source_trees() -> dict:
    """Each .py file under src/, by its path from the repository root, parsed."""
    return {
        path.relative_to(ROOT): ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "src").rglob("*.py"))
    }


def imported_names(tree):
    """(line, name) for each name an import brings in, fully qualified:
    `import a.b` gives a.b, `from a import b` gives a and a.b, and a relative
    import is read under hypermatch."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["hypermatch" if node.level else None, node.module]))
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def asserts(path, tree) -> list:
    return [f"{path}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def non_stdlib_imports(path, tree) -> list:
    return [
        f"{path}:{line}: {name}"
        for line, name in imported_names(tree)
        if name.partition(".")[0] not in ALLOWED_TOP_LEVEL
    ]


def rng_imports_in_cli(path, tree) -> list:
    if path.name != "cli.py":
        return []
    return [
        f"{path}:{line}: {name}"
        for line, name in imported_names(tree)
        if (name + ".").startswith("hypermatch.rng.")
    ]


def gc_imports_outside_cli(path, tree) -> list:
    if path.name == "cli.py":
        return []
    return [f"{path}:{line}: {name}" for line, name in imported_names(tree) if name.partition(".")[0] == "gc"]


def unlisted_canonical_calls(path, tree) -> list:
    """Each `._canonical` outside the top-level functions in CANONICAL_CALLERS."""
    owners = {}
    for top in tree.body:
        for node in ast.walk(top):
            owners[node] = f"{path.stem}.{top.name}" if isinstance(top, ast.FunctionDef) else None
    return [
        f"{path}:{node.lineno}: {owners[node]}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_canonical"
        and owners[node] not in CANONICAL_CALLERS
    ]


def looks_up_outside_core(path, tree) -> list:
    """Each use, import or definition of the name _looks_up outside core.py."""
    if path.name == "core.py":
        return []
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.FunctionDef: "name"}
    return [
        f"{path}:{node.lineno}"
        for node in ast.walk(tree)
        if getattr(node, fields.get(type(node), ""), None) == "_looks_up"
    ]


RULES = [
    asserts, non_stdlib_imports, rng_imports_in_cli, gc_imports_outside_cli, unlisted_canonical_calls,
    looks_up_outside_core,
]


def test_every_package_module_is_parsed():
    names = {path.name for path in source_trees() if path.parent == Path("src", "hypermatch")}
    assert {"__init__.py", "cli.py", "core.py", "rng.py"} <= names


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_source_keeps_the_rule(rule):
    assert [hit for path, tree in source_trees().items() for hit in rule(path, tree)] == []


CLI, CORE = Path("src/hypermatch/cli.py"), Path("src/hypermatch/core.py")
PIPELINE = Path("src/hypermatch/pipeline.py")


@pytest.mark.parametrize(
    "rule, path, source, hits",
    [
        (asserts, CORE, "def f(x):\n    assert x\n", ["src/hypermatch/core.py:2"]),
        (non_stdlib_imports, CORE, "import json\nimport numpy as np\n", ["src/hypermatch/core.py:2: numpy"]),
        (non_stdlib_imports, CORE, "from scipy import optimize\n",
         ["src/hypermatch/core.py:1: scipy", "src/hypermatch/core.py:1: scipy.optimize"]),
        (rng_imports_in_cli, CLI, "from . import core, rng\n", ["src/hypermatch/cli.py:1: hypermatch.rng"]),
        (rng_imports_in_cli, CLI, "from hypermatch import rng\n", ["src/hypermatch/cli.py:1: hypermatch.rng"]),
        (rng_imports_in_cli, CLI, "import hypermatch.rng\n", ["src/hypermatch/cli.py:1: hypermatch.rng"]),
        (rng_imports_in_cli, CLI, "from .rng import CounterRng\n",
         ["src/hypermatch/cli.py:1: hypermatch.rng", "src/hypermatch/cli.py:1: hypermatch.rng.CounterRng"]),
        (gc_imports_outside_cli, CORE, "import json, gc\n", ["src/hypermatch/core.py:1: gc"]),
        (unlisted_canonical_calls, CORE, "def f():\n    return Hypergraph._canonical(1, 1, [])\n",
         ["src/hypermatch/core.py:2: core.f"]),
        (unlisted_canonical_calls, CORE, "H = Hypergraph._canonical(1, 1, [])\n", ["src/hypermatch/core.py:1: None"]),
        (looks_up_outside_core, PIPELINE, "from .core import induced, _looks_up\n", ["src/hypermatch/pipeline.py:1"]),
        (looks_up_outside_core, PIPELINE, "x = core._looks_up(H, 3)\n", ["src/hypermatch/pipeline.py:1"]),
        (looks_up_outside_core, PIPELINE, "f = core.edges_within\ng = _looks_up\n", ["src/hypermatch/pipeline.py:2"]),
        (looks_up_outside_core, PIPELINE, "def _looks_up(H, size):\n    return True\n", ["src/hypermatch/pipeline.py:1"]),
    ],
)
def test_rule_catches_a_planted_violation(rule, path, source, hits):
    assert rule(path, ast.parse(source)) == hits


@pytest.mark.parametrize(
    "rule, path, source",
    [
        (rng_imports_in_cli, CORE, "from . import rng\n"),
        (rng_imports_in_cli, CLI, "from . import rngx\n"),
        (gc_imports_outside_cli, CLI, "import gc\n"),
        (unlisted_canonical_calls, CORE, "def induced():\n    return Hypergraph._canonical(1, 1, [])\n"),
        (looks_up_outside_core, CORE, "def _looks_up(H, size):\n    return size < 3\nx = _looks_up(H, 2)\n"),
        (looks_up_outside_core, PIPELINE, "x = core.edges_within(H, xs)\n"),
    ],
)
def test_rule_passes_what_it_allows(rule, path, source):
    assert rule(path, ast.parse(source)) == []
