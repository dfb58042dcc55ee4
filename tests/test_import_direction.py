"""Imports point one way: the library layers never reach into serving.

``repro.serving`` builds on the engine, storage and observability
layers.  If any module below it imported serving code back, loading the
graph or storage layer would drag in the server, the replica pool and
their dependencies, and the two packages could no longer be imported
eagerly without a cycle.  The check parses source instead of importing
it, so a lazy import inside a function body is caught too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
LOWER_LAYERS = ("graph", "obs", "storage", "core", "expertise", "api")


def serving_imports(source: str, package: str) -> list[int]:
    """Line numbers of imports in ``source`` that name ``repro.serving``.

    ``package`` is the dotted package the module lives in (for example
    ``"repro.api"``); relative imports are resolved against it.
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
        if any(n == "repro.serving" or n.startswith("repro.serving.") for n in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_layer_never_imports_serving(layer):
    modules = sorted((PACKAGE_ROOT / layer).rglob("*.py"))
    assert modules, f"no modules found under repro/{layer}"
    offenders = []
    for path in modules:
        package = ".".join(path.relative_to(PACKAGE_ROOT.parent).parent.parts)
        for line in serving_imports(path.read_text(encoding="utf-8"), package):
            offenders.append(f"{path.relative_to(PACKAGE_ROOT)}:{line}")
    assert offenders == [], f"repro.{layer} imports repro.serving: {offenders}"


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
    assert bool(serving_imports(source, "repro.api")) is expected
