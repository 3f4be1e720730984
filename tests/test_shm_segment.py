"""The one shared-memory segment lifecycle (repro.comm.shm), checked once
for every segment kind: ring, scoreboard, progress board, checkpoint area.
"""

from __future__ import annotations

import errno
import multiprocessing as mp
import os

import numpy as np
import pytest

import repro.comm.shm as shm_mod
from repro.comm import ProgressBoard, SharedScoreboard, ShmRing, list_segments
from repro.multigpu import CheckpointArea
from repro.sw.constants import DTYPE
from repro.sw.kernel import BestCell

#: Per kind: (factory, child-side write, parent-side check of that write).
KINDS = {
    "ring": (
        lambda ctx: ShmRing(ctx, 2, 4, label="test-ring"),
        lambda seg: seg.send_border(np.full(3, 7, DTYPE),
                                    np.full(3, -7, DTYPE), 5, timeout=5.0),
        lambda seg: ([int(x) for x in seg.recv_border(timeout=5.0)[0]],
                     [7, 7, 7]),
    ),
    "board": (
        lambda ctx: SharedScoreboard(2, label="test-board"),
        lambda seg: seg.publish(1, 77),
        lambda seg: (seg.read(), 77),
    ),
    "beat": (
        lambda ctx: ProgressBoard(2, label="test-beat"),
        lambda seg: seg.beat(1, 42, "send"),
        lambda seg: ((seg.read(1).rows_done, seg.read(1).phase), (42, "send")),
    ),
    "ckpt": (
        lambda ctx: CheckpointArea([2], label="test-ckpt"),
        lambda seg: seg.publish(0, 4, np.ones(2, DTYPE), np.ones(2, DTYPE),
                                BestCell(1, 0, 0)),
        lambda seg: (seg.newest_row(0), 4),
    ),
}


def _attached_child(kind: str, segment) -> None:
    """Runs in a spawned child on the unpickled (attached) copy."""
    segment.unlink()  # not the creator: a no-op
    KINDS[kind][1](segment)
    segment.close()
    segment.close()  # idempotent


class TestSegmentLifecycle:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_lifecycle(self, kind):
        ctx = mp.get_context("spawn")
        make, _write, check = KINDS[kind]
        segment = make(ctx)
        try:
            assert segment.name.startswith(f"mgsw{kind}_{os.getpid()}_")
            assert segment.name in list_segments()

            # Pickled across a spawn boundary: the child attaches, writes,
            # and its unlink leaves the creator's segment alone.
            proc = ctx.Process(target=_attached_child, args=(kind, segment))
            proc.start()
            proc.join(timeout=60.0)
            assert proc.exitcode == 0
            assert segment.name in list_segments()
            got, want = check(segment)
            assert got == want

            segment.close()
            segment.close()  # idempotent, and unlink still works after it
        finally:
            segment.unlink()
        assert segment.name not in list_segments()
        segment.unlink()  # idempotent

        with make(ctx) as owned:
            assert owned.name in list_segments()
        assert owned.name not in list_segments()


class TestListSegments:
    def test_fd_exhaustion_is_not_an_empty_listing(self, monkeypatch):
        """Out of file descriptors, a leak check must fail, not pass."""
        def exhausted(path):
            raise OSError(errno.EMFILE, "Too many open files", path)

        monkeypatch.setattr(shm_mod.os, "listdir", exhausted)
        with pytest.raises(OSError) as err:
            list_segments()
        assert err.value.errno == errno.EMFILE

    def test_no_dev_shm_lists_nothing(self, monkeypatch):
        def missing(path):
            raise FileNotFoundError(errno.ENOENT, "No such directory", path)

        monkeypatch.setattr(shm_mod.os, "listdir", missing)
        assert list_segments() == []
