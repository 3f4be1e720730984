"""One POSIX shared-memory segment lifecycle for the process engines.

The real-process engine keeps four kinds of shared state in POSIX shared
memory: the border rings (:class:`~repro.comm.shmring.ShmRing`), the
pruning scoreboard (:class:`~repro.comm.scoreboard.SharedScoreboard`),
the heartbeat board (:class:`~repro.comm.progress.ProgressBoard`) and
the recovery checkpoints
(:class:`~repro.multigpu.checkpoint.CheckpointArea`).  Each is a
:class:`ShmSegment` subclass that only declares its layout and
operations; the lifecycle lives here, once:

* **naming** — ``mgsw{kind}_{pid}_{uuid12}``, so every segment the
  package creates is found by :func:`list_segments` (teardown tests and
  the CI leak check);
* **ownership** — the creating process owns the segment and must
  :meth:`~ShmSegment.unlink` it; attached copies only ever
  :meth:`~ShmSegment.close` their mapping, and their ``unlink`` is a
  no-op;
* **spawn-safe hand-off** — pickling (as a ``Process`` argument) ships
  the name and the geometry, never the mapping; unpickling attaches
  (after the :meth:`~ShmSegment._check_attach` hook may refuse);
* **teardown** — ``close`` and ``unlink`` are idempotent, and the context
  manager unlinks for the owner and closes for everyone else.
"""

from __future__ import annotations

import os
import uuid
from multiprocessing import shared_memory

from ..errors import CommError

#: Prefix of every segment name this package creates.
SEGMENT_PREFIX = "mgsw"


def list_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live POSIX shared-memory segments starting with *prefix*
    (by default every segment kind this package creates).

    Linux exposes them as ``/dev/shm`` entries; on platforms without that
    directory the check degrades to "none visible".  Any other error
    (EMFILE included) propagates: a leak check must never pass because
    it could not look.
    """
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:  # pragma: no cover - no /dev/shm
        return []
    return sorted(n for n in names if n.startswith(prefix))


class ShmSegment:
    """One owned-or-attached POSIX shared-memory segment (module docstring).

    Subclasses set :attr:`kind`, compute their layout, and call
    ``super().__init__(size, label=...)`` as their last fallible step, so
    a constructor that raises never leaves a segment behind.
    """

    #: Segment-kind tag in the name (``mgsw{kind}_...``); set by subclasses.
    kind: str

    def __init__(self, size: int, *, label: str) -> None:
        self.label = label
        tag = uuid.uuid4().hex[:12]
        self._shm = shared_memory.SharedMemory(
            name=f"{SEGMENT_PREFIX}{self.kind}_{os.getpid()}_{tag}",
            create=True, size=size)
        self.name = self._shm.name
        self._owner = True
        self._closed = False

    # -- pickling (spawn-safe hand-off to worker processes) -----------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_shm"] = None
        state["_owner"] = False
        state["_closed"] = False
        return state

    def __setstate__(self, state):
        # CPython < 3.13 registers the attach with the (shared) resource
        # tracker too; that is harmless — the tracker's cache is a set, so
        # the duplicate collapses and the creator's unlink() removes it.
        self.__dict__.update(state)
        self._check_attach()
        self._shm = shared_memory.SharedMemory(name=self.name)

    def _check_attach(self) -> None:
        """Run on unpickle before attaching; raise to refuse the attach."""

    def _check_slot(self, slot: int) -> None:
        """Refuse a *slot* outside ``[0, n_slots)`` (per-slot layouts)."""
        if not 0 <= slot < self.n_slots:
            raise CommError(
                f"{self.label}: slot {slot} outside [0, {self.n_slots})")

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

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.unlink() if self._owner else self.close()
