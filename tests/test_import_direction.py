"""Imports point one way: the library layers never reach into serving.

``repro.serving`` builds on the engine, storage and observability
layers.  If any module below it imported serving code back, loading the
graph or storage layer would drag in the server, the replica pool and
their dependencies, and the two packages could no longer be imported
eagerly without a cycle.  The check parses source instead of importing
it, so a lazy import inside a function body is caught too.

The same check keeps the concrete 2-hop covers out of ``repro.api``: the
engine builds, exports and restores indexes through
:mod:`repro.graph.distance`, so it never names an oracle class.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
LOWER_LAYERS = ("graph", "obs", "storage", "core", "expertise", "api")
ORACLE_MODULES = ("repro.graph.pll", "repro.graph.sharded_oracle")


def forbidden_imports(
    source: str, package: str, modules: tuple[str, ...] = ("repro.serving",)
) -> list[int]:
    """Line numbers of imports in ``source`` that name one of ``modules``.

    ``package`` is the dotted package the module lives in (for example
    ``"repro.api"``); relative imports are resolved against it.  A
    module matches itself and its submodules.
    """
    parts = package.split(".")
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = parts[: len(parts) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == m or n.startswith(m + ".") for n in names for m in modules):
            lines.append(node.lineno)
    return lines


def offenders(layer: str, modules: tuple[str, ...]) -> list[str]:
    """``path:line`` of every import of ``modules`` under ``repro/<layer>``."""
    paths = sorted((PACKAGE_ROOT / layer).rglob("*.py"))
    assert paths, f"no modules found under repro/{layer}"
    found = []
    for path in paths:
        package = ".".join(path.relative_to(PACKAGE_ROOT.parent).parent.parts)
        source = path.read_text(encoding="utf-8")
        for line in forbidden_imports(source, package, modules):
            found.append(f"{path.relative_to(PACKAGE_ROOT)}:{line}")
    return found


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_layer_never_imports_serving(layer):
    found = offenders(layer, ("repro.serving",))
    assert found == [], f"repro.{layer} imports repro.serving: {found}"


def test_api_never_imports_an_oracle_module():
    found = offenders("api", ORACLE_MODULES)
    assert found == [], f"repro.api imports an oracle module: {found}"


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("from .. import serving", True),
        ("import repro.serving.pool", True),
        ("from repro.serving import TeamServer", True),
        ("def f():\n    from ..serving.locks import ReadWriteLock", True),
        ("from ..storage.codec import strip_shard_tag", False),
        ("from .locks import ReadWriteLock", False),
        ("import repro.servingx", False),
    ],
)
def test_checker_resolves_relative_and_absolute_imports(source, expected):
    assert bool(forbidden_imports(source, "repro.api")) is expected


@pytest.mark.parametrize(
    ("source", "expected"),
    [
        ("from ..graph.pll import PrunedLandmarkLabeling", True),
        ("from ..graph import sharded_oracle", True),
        ("import repro.graph.sharded_oracle", True),
        ("from ..graph import pll_build_count", False),
        ("from ..graph.pll_kernel import numpy_available", False),
        ("from ..graph.distance import restore_oracle", False),
    ],
)
def test_checker_matches_oracle_modules(source, expected):
    assert bool(forbidden_imports(source, "repro.api", ORACLE_MODULES)) is expected
