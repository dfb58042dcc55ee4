"""The names the traced benchmark patches stay where it patches them.

``perfbench/layers.py`` wraps every ``(owner, attr)`` in ``TARGETS``
through ``owner.__dict__[attr]``.  A method that is renamed, deleted or
moved to a base class would raise ``KeyError`` only when a traced
benchmark run (``perfbench/run.py --trace 1``) starts; this catches it
in the test suite instead.  perfbench is imported read-only.
"""

from __future__ import annotations

import pytest
from perfbench.layers import TARGETS


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in TARGETS],
    ids=[f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in TARGETS],
)
def test_traced_benchmark_target_is_defined_on_its_owner(owner, attr):
    assert attr in owner.__dict__
