"""Unit + concurrent stress tests: repro.comm.shmring (real shared memory)."""

from __future__ import annotations

import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.comm import list_segments
from repro.comm.shmring import ShmRing, slot_bytes_for
from repro.errors import CommError
from repro.sw.constants import DTYPE


def _message(index: int, rows: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Deterministic message contents derived from the message index."""
    h = (np.arange(rows, dtype=DTYPE) * 7 + index) % 1000
    e = (np.arange(rows, dtype=DTYPE) * 13 - index) % 997
    return h, e, index * 3 - 1


def _producer_ok(ring: ShmRing, count: int, rows: int) -> None:
    for i in range(count):
        h, e, corner = _message(i, 1 + (i * 37) % rows)
        ring.send_border(h, e, corner, timeout=30.0)


def _producer_crash(ring: ShmRing, count: int, rows: int) -> None:
    for i in range(count):
        h, e, corner = _message(i, rows)
        ring.send_border(h, e, corner, timeout=30.0)
    os._exit(1)  # hard crash: no close, no further messages


class TestSingleProcess:
    def test_fifo_and_wraparound(self):
        """Many more messages than slots: cursors wrap, contents survive."""
        ctx = mp.get_context()
        with ShmRing(ctx, capacity=3, max_rows=16) as ring:
            for i in range(20):
                h, e, corner = _message(i, 1 + i % 16)
                ring.send_border(h, e, corner, timeout=1.0)
                got_h, got_e, got_c = ring.recv_border(timeout=1.0)
                np.testing.assert_array_equal(got_h, h)
                np.testing.assert_array_equal(got_e, e)
                assert got_c == corner
            assert ring.sent == ring.received == 20

    def test_full_ring_blocks_then_times_out(self):
        ctx = mp.get_context()
        with ShmRing(ctx, capacity=2, max_rows=4) as ring:
            h, e, _ = _message(0, 4)
            ring.send_border(h, e, 0, timeout=1.0)
            ring.send_border(h, e, 1, timeout=1.0)
            with pytest.raises(CommError, match="full"):
                ring.send_border(h, e, 2, timeout=0.05)
            # Draining one slot unblocks the producer side again.
            ring.recv_border(timeout=1.0)
            ring.send_border(h, e, 2, timeout=1.0)

    def test_empty_ring_times_out(self):
        ctx = mp.get_context()
        with ShmRing(ctx, capacity=2, max_rows=4) as ring:
            with pytest.raises(CommError, match="empty"):
                ring.recv_border(timeout=0.05)

    def test_rejects_bad_messages_and_params(self):
        ctx = mp.get_context()
        with pytest.raises(CommError):
            ShmRing(ctx, capacity=0, max_rows=4)
        with pytest.raises(CommError):
            slot_bytes_for(0)
        with ShmRing(ctx, capacity=2, max_rows=4) as ring:
            too_long = np.zeros(5, dtype=DTYPE)
            with pytest.raises(CommError, match="rows"):
                ring.send_border(too_long, too_long, 0, timeout=0.1)
            with pytest.raises(CommError, match="lengths"):
                ring.send_border(np.zeros(3, dtype=DTYPE),
                                 np.zeros(2, dtype=DTYPE), 0, timeout=0.1)


class TestConcurrent:
    @pytest.mark.parametrize("capacity", [1, 3, 8])
    def test_stress_cross_process_fifo(self, capacity):
        """A real producer process; every message arrives in order, intact."""
        ctx = mp.get_context()
        count, rows = 300, 32
        ring = ShmRing(ctx, capacity=capacity, max_rows=rows)
        try:
            proc = ctx.Process(target=_producer_ok, args=(ring, count, rows))
            proc.start()
            for i in range(count):
                h, e, corner = ring.recv_border(timeout=30.0)
                want_h, want_e, want_c = _message(i, 1 + (i * 37) % rows)
                np.testing.assert_array_equal(h, want_h)
                np.testing.assert_array_equal(e, want_e)
                assert corner == want_c
            proc.join(timeout=10.0)
            assert proc.exitcode == 0
        finally:
            ring.unlink()

    def test_spawn_context_roundtrip(self):
        """The ring pickles across a spawn boundary and still delivers."""
        ctx = mp.get_context("spawn")
        count, rows = 10, 8
        ring = ShmRing(ctx, capacity=2, max_rows=rows)
        try:
            proc = ctx.Process(target=_producer_ok, args=(ring, count, rows))
            proc.start()
            for i in range(count):
                h, e, corner = ring.recv_border(timeout=30.0)
                want_h, want_e, want_c = _message(i, 1 + (i * 37) % rows)
                np.testing.assert_array_equal(h, want_h)
                assert corner == want_c
            proc.join(timeout=30.0)
            assert proc.exitcode == 0
        finally:
            ring.unlink()

    def test_producer_crash_mid_stream(self):
        """A dead producer surfaces as a bounded timeout, not a hang."""
        ctx = mp.get_context()
        sent = 3
        ring = ShmRing(ctx, capacity=8, max_rows=4)
        try:
            proc = ctx.Process(target=_producer_crash, args=(ring, sent, 4))
            proc.start()
            proc.join(timeout=10.0)
            assert proc.exitcode == 1
            # The messages sent before the crash are intact...
            for i in range(sent):
                h, _e, corner = ring.recv_border(timeout=5.0)
                want_h, _we, want_c = _message(i, 4)
                np.testing.assert_array_equal(h, want_h)
                assert corner == want_c
            # ...and the next receive fails cleanly within its timeout.
            with pytest.raises(CommError, match="timed out"):
                ring.recv_border(timeout=0.2)
        finally:
            ring.unlink()


class TestTeardown:
    def test_no_leaks_after_concurrent_use(self):
        before = set(list_segments())
        ctx = mp.get_context()
        ring = ShmRing(ctx, capacity=2, max_rows=8)
        proc = ctx.Process(target=_producer_ok, args=(ring, 5, 8))
        proc.start()
        for _ in range(5):
            ring.recv_border(timeout=10.0)
        proc.join(timeout=10.0)
        ring.unlink()
        assert set(list_segments()) <= before
