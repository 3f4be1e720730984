"""Shared-memory border ring: the real-world analogue of :mod:`.ringbuf`.

:class:`~repro.comm.ringbuf.SimRingBuffer` models the paper's host
circular buffer on a virtual clock; this module is the same bounded-FIFO
discipline over **real** OS shared memory, used by the real-process chain
(:mod:`repro.multigpu.procchain`) to move H/E border columns between slab
workers without pickling or pipe copies.

Design
------
One :class:`ShmRing` connects exactly one producer process to one
consumer process (slab *g* -> slab *g+1*), mirroring the paper's one
buffer per GPU boundary.  The ring is a single
:class:`multiprocessing.shared_memory.SharedMemory` segment holding
``capacity`` fixed-size slots; each slot carries one border message::

    [ rows : int64 | corner : int64 | H : rows * int32 | E : rows * int32 ]

Flow control is two counting semaphores (the classic single-producer /
single-consumer construction):

* ``free``   — starts at ``capacity``; the producer acquires one per
  ``send_border`` (blocking while the ring is full),
* ``filled`` — starts at 0; the consumer acquires one per
  ``recv_border`` (blocking while the ring is empty).

Because each side is a single process, the write and read cursors need no
locking: each side advances its own private cursor after the matching
semaphore acquire, and the semaphores guarantee the cursors never cross.
Messages are therefore delivered in FIFO order with release/acquire
ordering (the semaphore pair is the ordering fence), and the producer can
run ahead of the consumer by up to ``capacity`` border segments — exactly
the overlap-window semantics of the simulated ring.

Robustness: both operations accept a timeout and raise
:class:`~repro.errors.CommError` when it expires — a crashed peer
surfaces as a timeout on the survivor's side rather than a hang.
Ownership, spawn-safe pickling (the segment name plus the semaphores)
and teardown are the :class:`~repro.comm.shm.ShmSegment` lifecycle.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import CommError
from ..sw.constants import DTYPE
from .shm import ShmSegment

#: Per-slot header: rows (int64) then corner (int64).
HEADER_BYTES = 16
HEADER_STRUCT = struct.Struct("<qq")


def slot_bytes_for(max_rows: int) -> int:
    """Size of one slot holding up to *max_rows* border rows (H + E int32)."""
    if max_rows <= 0:
        raise CommError("max_rows must be positive")
    return HEADER_BYTES + 2 * 4 * max_rows


class ShmRing(ShmSegment):
    """Bounded SPSC FIFO of border messages in POSIX shared memory.

    Parameters
    ----------
    ctx:
        A ``multiprocessing`` context (fork or spawn); supplies the
        semaphores so they match the start method of the worker processes.
    capacity:
        Number of slots — how far the producer may run ahead.
    max_rows:
        Largest border column (in rows) one message may carry; the block
        row height of the run bounds this.
    label:
        Human-readable name used in error messages.
    """

    kind = "ring"

    def __init__(self, ctx, capacity: int, max_rows: int, *, label: str = "shmring") -> None:
        if capacity <= 0:
            raise CommError("ring capacity must be positive")
        self.capacity = capacity
        self.max_rows = max_rows
        self.slot_bytes = slot_bytes_for(max_rows)
        self._free = ctx.Semaphore(capacity)
        self._filled = ctx.Semaphore(0)
        self._wpos = 0  # producer-private slot cursor
        self._rpos = 0  # consumer-private slot cursor
        self.sent = 0
        self.received = 0
        super().__init__(capacity * self.slot_bytes, label=label)

    # -- producer side -------------------------------------------------------
    def send_border(self, h: np.ndarray, e: np.ndarray, corner: int,
                    timeout: float | None = None) -> None:
        """Copy one ``(H, E, corner)`` border message into the next slot.

        Blocks while the ring is full; raises :class:`CommError` after
        *timeout* seconds (``None`` blocks forever).
        """
        rows = int(h.size)
        if rows == 0 or rows > self.max_rows:
            raise CommError(
                f"{self.label}: message of {rows} rows outside (0, {self.max_rows}]")
        if e.size != rows:
            raise CommError(f"{self.label}: H and E lengths differ")
        if not self._free.acquire(timeout=timeout):
            raise CommError(
                f"{self.label}: send timed out after {timeout}s (ring full; "
                f"consumer stalled or dead)")
        off = (self._wpos % self.capacity) * self.slot_bytes
        buf = self._shm.buf
        HEADER_STRUCT.pack_into(buf, off, rows, int(corner))
        view = np.frombuffer(buf, dtype=DTYPE, count=2 * rows,
                             offset=off + HEADER_BYTES)
        view[:rows] = h
        view[rows:] = e
        del view
        self._wpos += 1
        self.sent += 1
        self._filled.release()

    # -- consumer side -------------------------------------------------------
    def recv_border(self, timeout: float | None = None) -> tuple[np.ndarray, np.ndarray, int]:
        """Next ``(H, E, corner)`` message, copied out of shared memory.

        Blocks while the ring is empty; raises :class:`CommError` after
        *timeout* seconds (``None`` blocks forever).
        """
        if not self._filled.acquire(timeout=timeout):
            raise CommError(
                f"{self.label}: recv timed out after {timeout}s (ring empty; "
                f"producer stalled or dead)")
        off = (self._rpos % self.capacity) * self.slot_bytes
        buf = self._shm.buf
        rows, corner = HEADER_STRUCT.unpack_from(buf, off)
        if rows <= 0 or rows > self.max_rows:
            raise CommError(f"{self.label}: corrupt slot header (rows={rows})")
        view = np.frombuffer(buf, dtype=DTYPE, count=2 * rows,
                             offset=off + HEADER_BYTES)
        h = view[:rows].copy()
        e = view[rows:].copy()
        del view
        self._rpos += 1
        self.received += 1
        self._free.release()
        return h, e, int(corner)
