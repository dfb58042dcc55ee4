"""Synchronization primitives for the thread-safe engine.

The engine's concurrency contract has two tiers of exclusion:

* a **reader/writer discipline** — many solves may run concurrently
  (readers), but state transitions that would tear an in-flight solve
  (network mutation through :meth:`TeamFormationEngine.mutate`, eager
  reconciliation in :meth:`~TeamFormationEngine.apply_updates`,
  :meth:`~TeamFormationEngine.refresh_scales`) are writers and run
  alone;
* **single-flight index builds** — concurrent cache misses on the same
  oracle key block on one per-key :class:`threading.Lock` so a cold
  engine hammered from N threads pays for exactly one PLL build
  (asserted via ``pll_build_count`` in the regression suite).

This module provides the first tier.  :class:`ReadWriteLock` is
deliberately small: reentrant for readers and the writer (a solve may
nest engine calls; ``mutate`` may nest ``apply_updates``), writer-
preferring (a waiting writer blocks *new* top-level readers, so a
mutation burst cannot be starved by a solve stream), and it refuses
read→write upgrades outright — upgrade deadlocks are a bug in the
caller, not a scheduling problem to solve here.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["ReadWriteLock"]


class ReadWriteLock:
    """A reentrant, writer-preferring readers/writer lock.

    * Any number of threads may hold the **read** side concurrently.
    * The **write** side is exclusive against readers and other writers.
    * A thread already holding either side may re-acquire the read side,
      and the writer may re-acquire the write side (recursion depths are
      tracked per thread), so nested engine entry points never
      self-deadlock.
    * A thread holding only the read side must not request the write
      side: two such threads would deadlock symmetrically, so the
      attempt raises :class:`RuntimeError` immediately.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers: dict[int, int] = {}  # thread ident -> recursion depth
        self._writer: int | None = None
        self._writer_depth = 0
        self._writers_waiting = 0

    # ------------------------------------------------------------------
    # read side
    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        """Take (or deepen) this thread's hold on the read side."""
        me = threading.get_ident()
        with self._cond:
            # Reentrant fast path: a thread already inside (either side)
            # may deepen its read hold even while a writer is queued —
            # blocking it would deadlock the lock against itself.
            if self._writer == me or me in self._readers:
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            while self._writer is not None or self._writers_waiting:
                self._cond.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        """Undo one :meth:`acquire_read` by this thread."""
        me = threading.get_ident()
        with self._cond:
            depth = self._readers.get(me, 0)
            if depth <= 0:
                raise RuntimeError("release_read without a matching acquire")
            if depth == 1:
                del self._readers[me]
                if not self._readers:
                    self._cond.notify_all()
            else:
                self._readers[me] = depth - 1

    @contextmanager
    def read_locked(self):
        """``with rw.read_locked():`` — hold the read side for the block."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    # ------------------------------------------------------------------
    # write side
    # ------------------------------------------------------------------
    def acquire_write(self) -> None:
        """Take (or deepen) exclusive ownership of the lock."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if self._readers.get(me):
                raise RuntimeError(
                    "cannot upgrade a read lock to a write lock; release "
                    "the read side first"
                )
            self._writers_waiting += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        """Undo one :meth:`acquire_write` by the writer thread."""
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError("release_write by a non-writer thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = None
                self._cond.notify_all()

    @contextmanager
    def write_locked(self):
        """``with rw.write_locked():`` — hold the write side for the block."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    # ------------------------------------------------------------------
    # introspection (tests / diagnostics)
    # ------------------------------------------------------------------
    @property
    def active_readers(self) -> int:
        """How many distinct threads currently hold the read side."""
        with self._cond:
            return len(self._readers)

    @property
    def write_held(self) -> bool:
        """Whether any thread currently holds the write side."""
        with self._cond:
            return self._writer is not None

    @property
    def write_held_by_current_thread(self) -> bool:
        """Whether *this* thread holds the write side.

        This is what the engine's mutation guard asks: a direct network
        mutation is sanctioned exactly when the calling thread is inside
        ``engine.mutate()`` (or another exclusive-writer entry point).
        """
        with self._cond:
            return self._writer == threading.get_ident()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReadWriteLock(readers={self.active_readers}, "
            f"writer={self.write_held})"
        )
