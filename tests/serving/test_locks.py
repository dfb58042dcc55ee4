"""Unit behavior of the engine's readers/writer lock."""

from __future__ import annotations

import threading
import time

import pytest

from repro.api.locks import ReadWriteLock


def test_readers_share():
    rw = ReadWriteLock()
    held = threading.Event()
    release = threading.Event()

    def reader() -> None:
        with rw.read_locked():
            held.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=reader, daemon=True)
    thread.start()
    assert held.wait(timeout=30)
    # A second reader enters while the first still holds the lock.
    with rw.read_locked():
        assert rw.active_readers == 2
    release.set()
    thread.join(timeout=30)
    assert rw.active_readers == 0


def test_writer_excludes_readers_and_writers():
    rw = ReadWriteLock()
    order: list[str] = []
    in_write = threading.Event()
    release = threading.Event()

    def writer() -> None:
        with rw.write_locked():
            in_write.set()
            release.wait(timeout=30)
            order.append("writer-done")

    def reader() -> None:
        in_write.wait(timeout=30)
        with rw.read_locked():
            order.append("reader")

    w = threading.Thread(target=writer, daemon=True)
    r = threading.Thread(target=reader, daemon=True)
    w.start()
    assert in_write.wait(timeout=30)
    r.start()
    time.sleep(0.1)  # give the reader a chance to (incorrectly) enter
    assert order == []
    release.set()
    w.join(timeout=30)
    r.join(timeout=30)
    assert order == ["writer-done", "reader"]


def test_reentrant_read_and_write():
    rw = ReadWriteLock()
    with rw.read_locked():
        with rw.read_locked():
            assert rw.active_readers == 1
    assert rw.active_readers == 0
    with rw.write_locked():
        with rw.write_locked():
            assert rw.write_held
        # A writer may also take the read side (it is exclusive anyway).
        with rw.read_locked():
            pass
        assert rw.write_held
    assert not rw.write_held


def test_waiting_writer_blocks_new_readers():
    """Writer preference: a queued writer wins over later readers."""
    rw = ReadWriteLock()
    release_first = threading.Event()
    first_in = threading.Event()
    order: list[str] = []

    def first_reader() -> None:
        with rw.read_locked():
            first_in.set()
            release_first.wait(timeout=30)

    def writer() -> None:
        with rw.write_locked():
            order.append("writer")

    def late_reader() -> None:
        with rw.read_locked():
            order.append("reader")

    r1 = threading.Thread(target=first_reader, daemon=True)
    r1.start()
    assert first_in.wait(timeout=30)
    w = threading.Thread(target=writer, daemon=True)
    w.start()
    time.sleep(0.1)  # let the writer queue up behind the reader
    r2 = threading.Thread(target=late_reader, daemon=True)
    r2.start()
    time.sleep(0.1)
    assert order == []  # both blocked behind the first reader
    release_first.set()
    w.join(timeout=30)
    r2.join(timeout=30)
    r1.join(timeout=30)
    assert order == ["writer", "reader"]


def test_upgrade_attempt_raises():
    rw = ReadWriteLock()
    with rw.read_locked():
        with pytest.raises(RuntimeError):
            rw.acquire_write()


def test_unbalanced_releases_raise():
    rw = ReadWriteLock()
    with pytest.raises(RuntimeError):
        rw.release_read()
    with pytest.raises(RuntimeError):
        rw.release_write()
