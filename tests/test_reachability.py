"""Which modules can a paper experiment, an oracle or a CLI command run?

A static walk over ``import`` statements (read with :mod:`ast`, nothing is
imported) from the entry points: ``repro.__main__``, ``repro.scenario``
and every module of ``repro.harness`` and ``repro.experiments``. Imports
inside functions count, since the CLI imports lazily.

A name imported from a package resolves to the module that defines it,
so a package ``__init__`` that re-exports a module does not by itself
reach it. A package bound as a namespace (``from repro import obs``), or
a name its ``__init__`` defines, reaches everything that ``__init__``
imports.

The modules the walk does not reach are pinned below. Connecting one to
an experiment, an oracle or a CLI command, or deleting it, shrinks the
set; a new module that nothing runs grows it and fails this test.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ROOT_PACKAGES = ("repro.harness", "repro.experiments")
ROOT_MODULES = ("repro.__main__", "repro.scenario")

#: Modules no entry point reaches, each waiting to be connected or cut.
UNREACHED = {
    "repro.core.ode",
    "repro.core.responses",
    "repro.sar.redistribution",
    "repro.platform.api",
    "repro.platform.gcs",
    "repro.safedrones.arrangement",
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


def _defining_module(module: str, name: str) -> str:
    """Follow a package's re-export of ``name`` to the module defining it."""
    if module not in PACKAGES:
        return module
    for node in _tree(module).body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _target(_base(module, node), alias.name)
    return module


def _target(base: str, name: str) -> str:
    """What ``from base import name`` reaches."""
    submodule = f"{base}.{name}"
    if submodule in FILES:
        return submodule
    return _defining_module(base, name)


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
    modules = set(FILES) - PACKAGES
    unreached = modules - reached_modules()
    assert unreached == UNREACHED, (
        f"newly unreached: {sorted(unreached - UNREACHED)}; "
        f"now reached or gone: {sorted(UNREACHED - unreached)}"
    )


def test_re_exports_resolve_to_the_defining_module():
    # Importing a re-exported name reaches only the module defining it.
    assert _target("repro.core", "MissionDecider") == "repro.core.decider"
    assert _target("repro", "load_scenario") == "repro.scenario"
    # A subpackage bound as a namespace reaches its __init__.
    assert _target("repro", "obs") == "repro.obs"
