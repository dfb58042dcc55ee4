"""One shared bounded-FIFO eviction helper for query caches.

Both distance oracles keep a dict memo of per-source query state — the
2-hop-cover oracle its per-source distance results, the Dijkstra oracle
its shortest-path trees — bounded by evicting the *oldest* key before an
insertion would exceed the bound (dicts preserve insertion order, so the
first key is the oldest).

The eviction must be **tolerant**: the engine hands one oracle instance
to every concurrent solve, so two threads can race to evict at the same
time.  Losing that race is harmless — the other thread already made
room — which is why the pop ignores a key that vanished mid-step
(``StopIteration`` from an emptied dict, ``RuntimeError`` from a resize
during iteration) instead of surfacing it.  PR 5 left one copy of this
tolerant pop in each oracle; this module is the single shared home.
"""

from __future__ import annotations

__all__ = ["evict_for_insert"]


def evict_for_insert(cache: dict, bound: int) -> bool:
    """Make room in ``cache`` for one more entry under ``bound`` keys.

    Pops the oldest (first-inserted) key when the cache is full,
    tolerating concurrent evictors; no-op while under the bound.
    Returns whether this call popped a key (for eviction counters).
    """
    if len(cache) < bound:
        return False
    try:
        return cache.pop(next(iter(cache)), None) is not None
    except (StopIteration, RuntimeError):
        return False
