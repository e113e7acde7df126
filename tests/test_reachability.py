"""Which modules can a paper experiment, an oracle or a CLI command run?

A static walk over ``import`` statements (read with :mod:`ast`, nothing is
imported) from the entry points: ``repro.__main__``, ``repro.scenario``
and every module of ``repro.harness`` and ``repro.experiments``. Imports
inside functions count, since the CLI imports lazily.

Importing ``repro.x.y`` also runs ``repro/x/__init__.py``. Apart from
``repro.obs``, no package ``__init__`` imports a repro module (checked
below), so the walk reaches what a process loads, and a package
``__init__`` reaches nothing by itself. ``from repro import obs`` reaches
everything ``repro/obs/__init__.py`` imports.

Every module is reached: a new module that nothing runs fails this test.
The same holds one and two levels down: a top-level function or class of
a reached module, or a method or property of such a class, that no
``src`` code names fails it too, unless it is pinned below as the
reference a test checks reached code against.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ROOT_PACKAGES = ("repro.harness", "repro.experiments")
ROOT_MODULES = ("repro.__main__", "repro.scenario")

#: Modules no entry point reaches. Empty: a module that nothing runs is
#: connected to an experiment, an oracle or a CLI command, or deleted.
UNREACHED: set[str] = set()

#: Names that no ``src`` code uses but a test keeps as the reference for
#: reached code, each with that reason. The dict may only shrink.
TEST_REFERENCES = {
    "repro.safedrones.battery.battery_chain": (
        "the CTMC a test solves with expm against the closed-form "
        "battery_transient"
    ),
    "repro.safedrones.markov.ContinuousMarkovChain.scaled": (
        "battery_chain(rate).scaled(stress) is the reference for the "
        "stress-accelerated battery update"
    ),
    "repro.plan.grid.OccupancyGrid3D.path_free": (
        "the clearance check the planner tests and benches run on flown paths"
    ),
}


def _source_files() -> dict[str, Path]:
    """Dotted module name → source file; a package maps to its ``__init__``."""
    found = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


FILES = _source_files()
PACKAGES = {name for name, path in FILES.items() if path.name == "__init__.py"}


@cache
def _tree(module: str) -> ast.Module:
    return ast.parse(FILES[module].read_text(encoding="utf-8"))


def _base(module: str, node: ast.ImportFrom) -> str:
    """The absolute module an ``ImportFrom`` reads from."""
    if not node.level:
        return node.module or ""
    package = module if module in PACKAGES else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        package = package.rpartition(".")[0]
    return f"{package}.{node.module}" if node.module else package


def _target(base: str, name: str) -> str:
    """What ``from base import name`` reaches."""
    submodule = f"{base}.{name}"
    return submodule if submodule in FILES else base


def _imports(module: str) -> set[str]:
    """Every repro module ``module`` reaches directly."""
    targets = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _base(module, node)
            targets.update(_target(base, alias.name) for alias in node.names)
    return {t for t in targets if t in FILES}


def reached_modules() -> set[str]:
    roots = set(ROOT_MODULES) | {
        name
        for name in FILES
        for package in ROOT_PACKAGES
        if name == package or name.startswith(package + ".")
    }
    seen: set[str] = set()
    frontier = list(roots)
    while frontier:
        module = frontier.pop()
        if module not in seen:
            seen.add(module)
            frontier.extend(_imports(module) - seen)
    return seen


def test_unreached_modules_are_exactly_the_pinned_set():
    assert set(FILES) - PACKAGES - reached_modules() == UNREACHED


@cache
def _names(module: str) -> frozenset[str]:
    """Every identifier ``module``'s code names: loads, attributes, imports."""
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name.rpartition(".")[2])
    return frozenset(names)


def _definitions(module: str):
    """``(dotted name, def name)`` for each top-level function and class of
    ``module`` and each non-dunder method or property of those classes."""
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(
                    member, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not (member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{module}.{node.name}.{member.name}", member.name


def test_test_only_names_are_exactly_the_test_references():
    # A definition is not a use: ``def f`` and ``class C`` add no Name node.
    test_only = {
        dotted
        for module in reached_modules()
        for dotted, name in _definitions(module)
        if not any(name in _names(other) for other in FILES)
    }
    assert test_only == set(TEST_REFERENCES), (
        f"newly test-only: {sorted(test_only - set(TEST_REFERENCES))}; "
        f"now used or gone: {sorted(set(TEST_REFERENCES) - test_only)}"
    )


def test_no_package_init_but_obs_imports_a_repro_module():
    # An __init__ that imports a sibling makes every import of the package
    # load it, whether or not the entry point uses it.
    offenders = {
        package: sorted(_imports(package))
        for package in PACKAGES - {"repro.obs"}
        if _imports(package)
    }
    assert offenders == {}
