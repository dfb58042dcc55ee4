"""Run pytest the way an install without numpy would see the package.

A ``sys.meta_path`` finder makes every ``import numpy`` (and its
submodules) raise :class:`ImportError` before pytest starts, so the PLL
builds its stdlib kernel and greedy runs its stdlib sweep.  Setting
``sys.modules["numpy"] = None`` instead makes hypothesis fail with an
``AttributeError``.  Arguments go to pytest::

    PYTHONPATH=src python scripts/pytest_without_numpy.py -x -q
"""

from __future__ import annotations

import sys


class _BlockNumpy:
    """Meta-path finder that refuses ``numpy`` and ``numpy.*``."""

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is hidden for this run")
        return None


def main(argv: list[str]) -> int:
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before it could be hidden")
    sys.meta_path.insert(0, _BlockNumpy())
    import pytest

    return pytest.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
