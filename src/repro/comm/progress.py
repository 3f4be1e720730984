"""Shared-memory progress board: live worker heartbeats for the parent.

The real-process engines detect a *dead* worker quickly (the parent polls
``Process.is_alive``), but a worker that is merely *stuck* — wedged on a
border that will never arrive, spinning in a kernel, or starved by the
scheduler — looks healthy until its border timeout finally fires.  The
:class:`ProgressBoard` closes that gap: every slab worker publishes
``(rows_done, phase, last_beat)`` into its own slot of a small
POSIX-shared-memory segment (the same single-writer layout as the pruning
:class:`~repro.comm.scoreboard.SharedScoreboard` that lives next to it),
and one parent-side thread, the
:class:`~repro.obs.timeseries.TimeSeriesSampler`, reads the board
without any synchronisation (the stall watchdog,
:class:`~repro.obs.heartbeat.HeartbeatMonitor`, acts on its frames).

Why lock-free reads are safe here
---------------------------------
Each slot has exactly one writer (its worker), every field is an aligned
8-byte store, and the *beat timestamp is stored last*: a reader that sees
a fresh timestamp therefore sees row/phase values at least as fresh as
the previous beat.  ``rows_done`` is monotonically non-decreasing and the
timestamps come from ``time.monotonic()`` (CLOCK_MONOTONIC — system-wide
on the supported platforms), so "how long has this worker been silent"
is a plain subtraction in the parent, immune to wall-clock steps.  A
stale read can only *under*-report progress, which makes the watchdog
conservative — it may flag a worker a sample late, never wrongly early.

Single-host clock domain
------------------------
``time.monotonic()`` (CLOCK_MONOTONIC) is system-wide *within one host*
but has an arbitrary, boot-relative epoch: beat timestamps from two
different machines are **not comparable**, and neither are readings
taken on one host against beats stored on another.  Every reader in
this repository (the time-series sampler, and the stall watchdog's
failure diagnosis) runs in the same host's process tree as the
writers, so the subtraction in :meth:`ProgressSample.silent_s` is
well-defined — and it still clamps at zero, because even same-host
readers can race one in-flight store and observe a beat "from the
future" by a few microseconds.  A future cross-node replication layer
must therefore ship *derived* quantities (rows done, phase,
seconds-of-silence measured by the origin host), never raw beat
timestamps; :meth:`ProgressBoard._check_attach` asserts the same-host
invariant at unpickle time so a violation fails loudly instead of
producing nonsense silence readings.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass

import numpy as np

from ..errors import CommError
from .shm import ShmSegment

#: Worker phases, in the order they occur inside one block row.  The
#: board stores the index; readers translate back through this tuple.
#: ``warmup`` (appended last to keep older encodings stable) marks the
#: one-time per-process JIT compile of the compiled kernel backend —
#: like ``idle``, no rows are advancing.
PHASES = ("idle", "wait", "compute", "pruned", "send", "done", "checkpoint",
          "warmup")

#: Bytes per worker slot: rows_done (int64) + phase (int64) + beat (float64).
SLOT_BYTES = 24


@dataclass(frozen=True)
class ProgressSample:
    """One slot's state as read by the parent (possibly slightly stale)."""

    worker: int
    rows_done: int
    phase: str
    last_beat: float  #: ``time.monotonic()`` of the last beat; 0.0 = never

    @property
    def started(self) -> bool:
        return self.last_beat > 0.0

    def silent_s(self, now: float | None = None) -> float:
        """Seconds since the last beat (0.0 for a worker that never beat).

        Clamped at zero: a reader racing an in-flight beat store (or
        handed a *now* captured just before the beat) can see a
        timestamp slightly in the future, and "negative silence" must
        never propagate into stall math.  Beat timestamps are only
        comparable within one host (module docstring) — a genuinely
        cross-host reading would be rejected at unpickle time by
        :meth:`ProgressBoard._check_attach` long before reaching here.
        """
        if not self.started:
            return 0.0
        return max(0.0, (time.monotonic() if now is None else now) - self.last_beat)


class ProgressBoard(ShmSegment):
    """Lock-free cross-process heartbeat board: one slot per worker.

    Ownership, spawn-safe pickling and teardown are the
    :class:`~repro.comm.shm.ShmSegment` lifecycle; the board adds one
    attach-time check, that the attaching process runs on the creating
    host (module docstring).
    """

    kind = "beat"

    def __init__(self, n_slots: int, *, label: str = "progress") -> None:
        if n_slots <= 0:
            raise CommError("progress board needs at least one slot")
        self.n_slots = n_slots
        #: Host that owns the clock domain of every beat timestamp —
        #: checked on unpickle (module docstring: monotonic clocks do
        #: not compare across hosts).
        self.host = platform.node()
        super().__init__(n_slots * SLOT_BYTES, label=label)
        self.reset()

    # Three parallel arrays in one segment: all int64/float64 stores are
    # aligned 8-byte writes (the single-writer lock-free contract).
    def _rows_view(self) -> np.ndarray:
        return np.frombuffer(self._shm.buf, dtype=np.int64, count=self.n_slots)

    def _phases_view(self) -> np.ndarray:
        return np.frombuffer(self._shm.buf, dtype=np.int64, count=self.n_slots,
                             offset=8 * self.n_slots)

    def _beats_view(self) -> np.ndarray:
        return np.frombuffer(self._shm.buf, dtype=np.float64, count=self.n_slots,
                             offset=16 * self.n_slots)

    def _check_attach(self) -> None:
        # Same-host invariant: beat timestamps are time.monotonic()
        # readings, whose epoch is boot-relative — comparable only
        # within the creating host.  A board shipped to another machine
        # (e.g. by a future cross-node replication layer) must
        # replicate derived state instead of attaching here.
        here = platform.node()
        if self.host != here:
            raise CommError(
                f"{self.label}: progress board created on host "
                f"{self.host!r} cannot attach on {here!r} — monotonic "
                "beat timestamps are not comparable across hosts "
                "(replicate derived progress, not the raw board)")

    # -- the board -----------------------------------------------------------
    def beat(self, slot: int, rows_done: int, phase: str) -> None:
        """Publish this worker's progress (single writer per slot).

        ``rows_done`` must be non-decreasing per slot; the beat timestamp
        is stored *last* so readers never see a fresh beat with stale
        row/phase values (module docstring).
        """
        self._check_slot(slot)
        try:
            code = PHASES.index(phase)
        except ValueError:
            raise CommError(
                f"{self.label}: unknown phase {phase!r}; expected one of {PHASES}"
            ) from None
        self._rows_view()[slot] = int(rows_done)
        self._phases_view()[slot] = code
        self._beats_view()[slot] = time.monotonic()

    def read(self, slot: int) -> ProgressSample:
        """One slot's state (non-blocking; may lag by one store)."""
        self._check_slot(slot)
        return ProgressSample(
            worker=slot,
            rows_done=int(self._rows_view()[slot]),
            phase=PHASES[int(self._phases_view()[slot]) % len(PHASES)],
            last_beat=float(self._beats_view()[slot]),
        )

    def snapshot(self) -> tuple[ProgressSample, ...]:
        """Every slot's state, in worker order."""
        return tuple(self.read(slot) for slot in range(self.n_slots))

    def reset(self) -> None:
        """Zero every slot (creator, between comparisons — callers must
        ensure no comparison is in flight)."""
        self._rows_view().fill(0)
        self._phases_view().fill(0)
        self._beats_view().fill(0.0)
