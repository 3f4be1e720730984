"""Scoreboard tests: monotonic publish, cross-process reads, failure injection.

The shared-memory scoreboard is the piece of distributed pruning that can
actually go wrong operationally — every *correctness* property (stale
reads prune less, never wrongly) is covered by the oracle harness
(``test_oracle.py``), so this file concentrates on the scoreboard contract
itself: monotonic compare-and-raise, slot isolation, spawn-safe pickling,
segment hygiene, and the lock-free claim that a worker dying mid-publish
cannot wedge any reader.  The lifecycle shared by every segment kind is
tested once in ``tests/test_shm_segment.py``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.comm import LocalScoreboard, SharedScoreboard, list_segments
from repro.errors import CommError
from repro.multigpu.procchain import pick_context


class TestLocalScoreboard:
    def test_monotonic_compare_and_raise(self):
        board = LocalScoreboard()
        assert board.read() == 0
        board.publish(0, 7)
        assert board.read() == 7
        board.publish(3, 4)  # lower: ignored (slot is irrelevant locally)
        assert board.read() == 7
        board.publish(1, 11)
        assert board.read() == 11


class TestSharedScoreboard:
    def test_read_is_max_over_slots(self):
        with SharedScoreboard(3) as board:
            board.publish(0, 5)
            board.publish(1, 12)
            board.publish(2, 3)
            assert board.read() == 12
            board.publish(1, 2)  # lower publish never lowers the slot
            assert board.read() == 12

    def test_reset_and_bad_slot(self):
        with SharedScoreboard(2) as board:
            board.publish(1, 40)
            board.reset()
            assert board.read() == 0
            with pytest.raises(CommError):
                board.publish(2, 1)
            with pytest.raises(CommError):
                board.publish(-1, 1)

    def test_needs_a_slot(self):
        with pytest.raises(CommError):
            SharedScoreboard(0)

    def test_unlink_removes_segment(self):
        before = list_segments()
        board = SharedScoreboard(2)
        assert board.name in list_segments()  # segment exists while owned
        board.unlink()
        assert list_segments() == before
        board.unlink()  # idempotent

    def test_spawn_safe_pickling(self):
        """A child attached via pickle publishes; the parent reads it."""
        ctx = pick_context()
        with SharedScoreboard(2) as board:
            proc = ctx.Process(target=_publish_and_exit, args=(board, 1, 77))
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == 0
            assert board.read() == 77


def _publish_and_exit(board: SharedScoreboard, slot: int, score: int) -> None:
    board.publish(slot, score)
    board.close()


def _publish_forever(board: SharedScoreboard, slot: int, started) -> None:
    score = 1
    while True:
        board.publish(slot, score)
        score += 1
        started.set()


class TestFailureInjection:
    def test_writer_death_mid_publish_does_not_wedge_readers(self):
        """SIGKILL a publisher in its hot loop; reads keep working.

        The lock-free design means there is nothing a dying writer can
        hold: the surviving reader sees the last fully-stored value (an
        aligned int64 store — no torn reads) and never blocks.
        """
        ctx = pick_context()
        with SharedScoreboard(2) as board:
            started = ctx.Event()
            proc = ctx.Process(target=_publish_forever, args=(board, 0, started))
            proc.start()
            assert started.wait(timeout=30), "publisher never started"
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=30)
            assert proc.exitcode == -signal.SIGKILL

            # Reads after the death are non-blocking and monotone-sane.
            deadline = time.monotonic() + 5
            last = board.read()
            assert last >= 1
            while time.monotonic() < deadline:
                now = board.read()
                assert now == last  # nobody writes anymore; value is stable
            # The survivor's slot still works.
            board.publish(1, last + 100)
            assert board.read() == last + 100

    def test_no_segment_leak_after_death(self):
        before = list_segments()
        ctx = pick_context()
        board = SharedScoreboard(1)
        started = ctx.Event()
        proc = ctx.Process(target=_publish_forever, args=(board, 0, started))
        proc.start()
        assert started.wait(timeout=30)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=30)
        board.unlink()
        assert list_segments() == before
