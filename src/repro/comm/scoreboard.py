"""Best-score scoreboards: the shared state behind distributed pruning.

Block pruning (:mod:`repro.sw.pruning`) compares a block's score upper
bound against the best alignment score found *anywhere* so far.  On one
device that is a local variable; across a chain of engines it is shared
state, and this module provides it in two flavours behind one interface:

* :class:`LocalScoreboard` — a plain in-process maximum, used by the
  simulated :class:`~repro.multigpu.chain.MultiGpuChain` whose device
  processes all run inside one event loop;
* :class:`SharedScoreboard` — a lock-free shared-memory scoreboard for
  the real-process engine (:class:`~repro.multigpu.pool.WorkerPool`, which
  :func:`~repro.multigpu.procchain.align_multi_process` runs on).

Why lock-free is safe here
--------------------------
The scoreboard holds **one int64 slot per worker** in a single
:class:`multiprocessing.shared_memory.SharedMemory` segment.  Every slot
has exactly one writer (its worker), so a publish is a plain aligned
8-byte store — no read-modify-write race exists, and each slot is
monotonically non-decreasing because the writer only stores strictly
larger values (*compare-and-raise*).  Readers take the max over all
slots without any synchronisation, so a read may be **stale** (miss a
publish in flight) but never *wrong*: every value ever stored is the
score of a real alignment, hence a legal lower bound of the final
optimum.  That includes the *floor* a comparison starts from
(:meth:`SharedScoreboard.reset`): the score of a seeded alignment
(:func:`repro.sw.pruning.seed_floor`) or of a checkpointed best cell.

Staleness is exactly what makes distributed pruning exact: the pruning
criterion skips a block only when its upper bound cannot beat the best
score read from the scoreboard.  A lagged read under-estimates the true
best, which can only make the criterion *more* conservative — a stale
scoreboard prunes less, never wrongly.  (INTERNALS.md section 7 gives
the full argument.)

Because there are no locks or blocking operations anywhere, a worker
that dies mid-publish cannot wedge any reader: the surviving workers
keep reading whatever the dead worker last stored (an aligned int64
store is indivisible on the supported platforms, so no torn value is
ever observed).  The failure-injection tests in
``tests/test_scoreboard.py`` exercise exactly this.
"""

from __future__ import annotations

import numpy as np

from ..errors import CommError
from .shm import ShmSegment

#: Bytes per worker slot (one int64).
SLOT_BYTES = 8


class LocalScoreboard:
    """In-process scoreboard: a monotonic best-score maximum.

    Mirrors :class:`SharedScoreboard`'s publish/read interface so the
    simulated chain and the real-process engines share one pruning code
    path; each run builds a fresh board at its floor.  The
    ``slot`` argument is accepted for parity and ignored — all callers
    live in one process, so a single maximum suffices.
    """

    __slots__ = ("_best",)

    def __init__(self, floor: int = 0) -> None:
        self._best = floor

    def publish(self, slot: int, score: int) -> None:
        """Raise the scoreboard to *score* if it improves (monotonic)."""
        if score > self._best:
            self._best = score

    def read(self) -> int:
        """The best score published so far (the floor before any
        publish)."""
        return self._best


class SharedScoreboard(ShmSegment):
    """Lock-free cross-process scoreboard: one int64 slot per worker.

    Parameters
    ----------
    n_slots:
        Number of writer slots — one per slab worker.  Each worker must
        publish only to its own slot (the single-writer invariant that
        makes the design lock-free; see the module docstring).
    label:
        Human-readable name used in error messages.

    Ownership, spawn-safe pickling and teardown are the
    :class:`~repro.comm.shm.ShmSegment` lifecycle.
    """

    kind = "board"

    def __init__(self, n_slots: int, *, label: str = "scoreboard") -> None:
        if n_slots <= 0:
            raise CommError("scoreboard needs at least one slot")
        self.n_slots = n_slots
        super().__init__(n_slots * SLOT_BYTES, label=label)
        self.reset()

    def _slots(self) -> np.ndarray:
        return np.frombuffer(self._shm.buf, dtype=np.int64, count=self.n_slots)

    # -- the scoreboard ------------------------------------------------------
    def publish(self, slot: int, score: int) -> None:
        """Compare-and-raise *slot* to *score* (single writer per slot).

        A plain aligned store — never blocks, never takes a lock, so a
        publisher can die at any point without affecting anyone else.
        """
        self._check_slot(slot)
        slots = self._slots()
        if score > int(slots[slot]):
            slots[slot] = score

    def read(self) -> int:
        """Max over all slots, clamped to >= 0 (read-mostly, non-blocking).

        May lag concurrent publishes — safe by monotonicity (module
        docstring): a stale best only prunes less, never wrongly.
        """
        return max(0, int(self._slots().max()))

    def reset(self, floor: int = 0) -> None:
        """Set every slot to *floor*, the score of a real alignment or 0
        (creator only, between comparisons — callers must ensure no
        comparison is in flight)."""
        self._slots().fill(floor)
