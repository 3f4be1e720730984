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
optimum.

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

import os
import uuid
from multiprocessing import shared_memory

import numpy as np

from ..errors import CommError

#: Prefix of every segment this module creates (leak checks grep for it).
SCOREBOARD_NAME_PREFIX = "mgswboard"

#: Bytes per worker slot (one int64).
SLOT_BYTES = 8


class LocalScoreboard:
    """In-process scoreboard: a monotonic best-score maximum.

    Mirrors :class:`SharedScoreboard`'s interface so the simulated chain
    and the real-process engines share one pruning code path.  The
    ``slot`` argument is accepted for parity and ignored — all callers
    live in one process, so a single maximum suffices.
    """

    __slots__ = ("_best",)

    def __init__(self) -> None:
        self._best = 0

    def publish(self, slot: int, score: int) -> None:
        """Raise the scoreboard to *score* if it improves (monotonic)."""
        if score > self._best:
            self._best = score

    def read(self) -> int:
        """The best score published so far (0 before any publish)."""
        return self._best

    def reset(self) -> None:
        """Forget every published score (between comparisons)."""
        self._best = 0


class SharedScoreboard:
    """Lock-free cross-process scoreboard: one int64 slot per worker.

    Parameters
    ----------
    n_slots:
        Number of writer slots — one per slab worker.  Each worker must
        publish only to its own slot (the single-writer invariant that
        makes the design lock-free; see the module docstring).
    label:
        Human-readable name used in error messages.

    The object is spawn-safe: pickling it (as a ``Process`` argument)
    ships only the segment name, and the child re-attaches on unpickle.
    The creating process owns the segment and must call :meth:`unlink`;
    attached processes only ever :meth:`close` their mapping.
    """

    def __init__(self, n_slots: int, *, label: str = "scoreboard") -> None:
        if n_slots <= 0:
            raise CommError("scoreboard needs at least one slot")
        self.n_slots = n_slots
        self.label = label
        name = f"{SCOREBOARD_NAME_PREFIX}_{os.getpid()}_{uuid.uuid4().hex[:12]}"
        self._shm = shared_memory.SharedMemory(
            name=name, create=True, size=n_slots * SLOT_BYTES)
        self.name = self._shm.name
        self._owner = True
        self._closed = False
        self._slots().fill(0)

    def _slots(self) -> np.ndarray:
        return np.frombuffer(self._shm.buf, dtype=np.int64, count=self.n_slots)

    # -- pickling (spawn-safe hand-off to worker processes) -----------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_shm"] = None
        state["_owner"] = False
        state["_closed"] = False
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._shm = shared_memory.SharedMemory(name=self.name)

    # -- the scoreboard ------------------------------------------------------
    def publish(self, slot: int, score: int) -> None:
        """Compare-and-raise *slot* to *score* (single writer per slot).

        A plain aligned store — never blocks, never takes a lock, so a
        publisher can die at any point without affecting anyone else.
        """
        if not 0 <= slot < self.n_slots:
            raise CommError(
                f"{self.label}: slot {slot} outside [0, {self.n_slots})")
        slots = self._slots()
        if score > int(slots[slot]):
            slots[slot] = score

    def read(self) -> int:
        """Max over all slots, clamped to >= 0 (read-mostly, non-blocking).

        May lag concurrent publishes — safe by monotonicity (module
        docstring): a stale best only prunes less, never wrongly.
        """
        return max(0, int(self._slots().max()))

    def reset(self) -> None:
        """Zero every slot (creator only, between comparisons — callers
        must ensure no comparison is in flight)."""
        self._slots().fill(0)

    # -- teardown ------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (idempotent)."""
        if self._closed or self._shm is None:
            return
        self._closed = True
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - platform noise
            pass

    def unlink(self) -> None:
        """Remove the segment from the OS (creator only; idempotent)."""
        if not self._owner or self._shm is None:
            return
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        self._owner = False

    def __enter__(self) -> "SharedScoreboard":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink() if self._owner else self.close()
