"""Checkpoint/restart for chain runs — on disk and in shared memory.

Paper-scale comparisons run for hours; the system family supports stopping
and resuming a comparison at a matrix-row boundary.  A consistent
checkpoint of the chain is exactly the DP state of one full matrix row, a
:class:`~repro.sw.blocks.RowState` (exported here as
:class:`ChainCheckpoint`):

* the row index,
* the H and F values of that row across the *whole* width (compute mode),
* the best cell found so far and the prune decisions made so far,
* the virtual time already spent.

Nothing about in-flight borders needs saving because checkpoints are
taken with the pipeline drained (the run simply stops after a block-row
boundary; resuming re-fills the pipeline, whose cost is the fill time the
overlap model predicts).

:func:`save_checkpoint` / :func:`load_checkpoint` serialise to ``.npz``.

The same row state powers live fault tolerance on the real-process
engines (INTERNALS.md section 9): every slab worker periodically
publishes its slab's state at a block-row boundary into a
:class:`CheckpointArea`, a small POSIX-shared-memory segment the
*parent* owns, so the state survives any worker's death.  After a
failure the supervisor assembles the newest row every slab published
(:meth:`CheckpointArea.consistent_row` / :meth:`CheckpointArea.assemble`),
re-partitions the matrix across the surviving workers, and resumes from
that row under a :class:`RetryPolicy` instead of aborting the whole
comparison.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..comm.shm import ShmSegment
from ..errors import CommError, ConfigError
from ..sw.blocks import RowState
from ..sw.constants import DTYPE
from ..sw.kernel import BestCell

#: The chain's checkpoint is the one row state every resume carries.
ChainCheckpoint = RowState

#: Block rows between two checkpoints a slab worker publishes (plus the
#: final row).
CHECKPOINT_BLOCKS = 4


def _npz_path(path: str | os.PathLike) -> str:
    """The path ``np.savez`` actually writes for *path*.

    ``np.savez`` silently appends ``.npz`` to extension-less paths, so
    without normalisation ``load_checkpoint(p)`` fails with
    ``FileNotFoundError`` on the very path that was passed to
    ``save_checkpoint(p)``.  Both functions route through this helper so
    any spelling round-trips.
    """
    p = os.fspath(path)
    return p if p.endswith(".npz") else p + ".npz"


def save_checkpoint(path: str | os.PathLike, ckpt: ChainCheckpoint) -> None:
    """Serialise a checkpoint to an ``.npz`` file (the suffix is appended
    when *path* lacks it, matching what :func:`load_checkpoint` opens)."""
    arrays = dict(
        row=np.int64(ckpt.row),
        elapsed=np.float64(ckpt.elapsed_s),
        best=np.array([ckpt.best.score, ckpt.best.row, ckpt.best.col], dtype=np.int64),
        blocks=np.array([ckpt.blocks_checked, ckpt.blocks_pruned], dtype=np.int64),
        phantom=np.bool_(ckpt.phantom),
    )
    if not ckpt.phantom:
        arrays["h_row"] = ckpt.h_row
        arrays["f_row"] = ckpt.f_row
    np.savez(_npz_path(path), **arrays)


def load_checkpoint(path: str | os.PathLike) -> ChainCheckpoint:
    """Load a checkpoint written by :func:`save_checkpoint` under either
    spelling of the path (with or without the ``.npz`` suffix)."""
    exact = os.fspath(path)
    with np.load(exact if os.path.exists(exact) else _npz_path(path)) as data:
        best = BestCell(int(data["best"][0]), int(data["best"][1]), int(data["best"][2]))
        phantom = bool(data["phantom"])
        # Checkpoints saved before the counters were stored carry none.
        checked, pruned = ((int(x) for x in data["blocks"])
                           if "blocks" in data.files else (0, 0))
        return ChainCheckpoint(
            row=int(data["row"]),
            h_row=None if phantom else data["h_row"].copy(),
            f_row=None if phantom else data["f_row"].copy(),
            best=best,
            blocks_checked=checked,
            blocks_pruned=pruned,
            elapsed_s=float(data["elapsed"]),
        )


# ---------------------------------------------------------------------------
# Live recovery: retry policy + shared-memory per-slab checkpoint area
# ---------------------------------------------------------------------------

#: Worker-raised exception types that re-executing cannot fix: the same
#: inputs would fail the same way, so the supervisor must not retry them.
_PERMANENT_MARKERS = ("ConfigError(", "PartitionError(")


@dataclass(frozen=True)
class RetryPolicy:
    """How the real-process supervisors respond to a failed attempt.

    ``max_restarts`` bounds how many times one comparison may be resumed
    (0 keeps the old fail-fast behaviour); between attempts the
    supervisor sleeps an exponential backoff.  Worker failures whose
    error text names a deterministic configuration error are classified
    *permanent* and never retried — re-dispatching the same bad inputs
    cannot succeed.
    """

    max_restarts: int = 0
    backoff_s: float = 0.5
    backoff_multiplier: float = 2.0
    max_backoff_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigError("max_restarts must be >= 0")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ConfigError("backoff times must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be >= 1")

    def delay_s(self, restarts_done: int) -> float:
        """Backoff before restart number ``restarts_done + 1``."""
        return min(self.max_backoff_s,
                   self.backoff_s * self.backoff_multiplier ** restarts_done)

    @staticmethod
    def is_permanent(failure: str) -> bool:
        """True when *failure* (a worker error description) is one
        re-execution cannot fix (see :data:`_PERMANENT_MARKERS`)."""
        return any(marker in failure for marker in _PERMANENT_MARKERS)


#: Per-entry header: row, score, best_row, best_col, checked, pruned.
_ENTRY_HEADER = struct.Struct("<qqqqqq")


class CheckpointArea(ShmSegment):
    """Shared-memory per-slab checkpoint board for the process engines.

    One POSIX-shared-memory segment, owned by the *parent*, holding a
    small ring of :class:`~repro.sw.blocks.RowState` entries per slab
    (``history`` deep, newest overwrites oldest).  Each slab worker
    publishes into its own ring on the global checkpoint ladder (every
    :data:`CHECKPOINT_BLOCKS` block rows, plus the final row), so the
    rows published by different slabs line up and a full matrix row can
    be reassembled after a crash.

    Consistency argument — why post-mortem reads are safe:

    * each ring has exactly one writer (its worker), and the per-slab
      entry *count* is stored **last**, so a worker killed mid-publish
      (even SIGKILL) leaves the previously published entries intact and
      the torn entry invisible;
    * the supervisor only reads the area **after** every worker of the
      failed attempt has been joined or killed, so there are no
      concurrent writers at read time at all;
    * ``history`` is sized from the border rings' *capacity*: adjacent
      slabs drift by at most ``capacity`` block rows, so across the
      chain the spread is ``(slabs - 1) * capacity`` block rows —
      ``ceil`` of that in checkpoint-ladder units, plus slack for the
      final-row entry and one in-flight publish — and the newest row of
      the laggard is always still present in every leader's ring.  If
      it ever is not (defence in depth), :meth:`consistent_row` returns
      0 and the run restarts from scratch — slower, never wrong.  An
      explicit *history* overrides the depth.

    Ownership, spawn-safe pickling (the segment name and geometry) and
    teardown are the :class:`~repro.comm.shm.ShmSegment` lifecycle.
    """

    kind = "ckpt"

    def __init__(self, widths: Sequence[int], *, capacity: int = 4,
                 history: int | None = None,
                 label: str = "checkpoints") -> None:
        if not widths:
            raise CommError("checkpoint area needs at least one slab")
        if any(int(w) <= 0 for w in widths):
            raise CommError("slab widths must be positive")
        if history is None:
            per_link = -(-capacity // CHECKPOINT_BLOCKS)  # ceil division
            history = max(4, (len(widths) - 1) * per_link + 2)
        if history <= 0:
            raise CommError("checkpoint history must be positive")
        self.widths = tuple(int(w) for w in widths)
        self.n_slots = len(self.widths)
        self.history = int(history)
        # Per-slab region: one int64 publish count, then `history` entries
        # of (header + H + F), each sized for that slab's width.
        self._entry_bytes = tuple(
            _ENTRY_HEADER.size + 2 * 4 * w for w in self.widths)
        self._offsets = []
        off = 0
        for eb in self._entry_bytes:
            self._offsets.append(off)
            off += 8 + self.history * eb
        super().__init__(off, label=label)
        for slot in range(self.n_slots):
            self._count_view(slot)[0] = 0

    def _count_view(self, slot: int) -> np.ndarray:
        return np.frombuffer(self._shm.buf, dtype=np.int64, count=1,
                             offset=self._offsets[slot])

    def _entry_offset(self, slot: int, index: int) -> int:
        return self._offsets[slot] + 8 + index * self._entry_bytes[slot]

    # -- worker side ---------------------------------------------------------
    def publish(self, slot: int, state: RowState) -> None:
        """Publish *slot*'s row *state* (single writer per slab ring).

        The entry payload is written first and the ring count last, so a
        writer killed at any point never corrupts an already-published
        entry (class docstring).
        """
        self._check_slot(slot)
        w = self.widths[slot]
        h, f, best = state.h_row, state.f_row, state.best
        if h.size != w or f.size != w:
            raise CommError(
                f"{self.label}: slot {slot} expects width {w}, "
                f"got H={h.size} F={f.size}")
        count = int(self._count_view(slot)[0])
        off = self._entry_offset(slot, count % self.history)
        buf = self._shm.buf
        _ENTRY_HEADER.pack_into(buf, off, state.row, best.score, best.row,
                                best.col, state.blocks_checked,
                                state.blocks_pruned)
        view = np.frombuffer(buf, dtype=DTYPE, count=2 * w,
                             offset=off + _ENTRY_HEADER.size)
        view[:w] = h
        view[w:] = f
        del view
        self._count_view(slot)[0] = count + 1  # count last: commit point

    # -- supervisor side (read only after the attempt is torn down) ----------
    def entries(self, slot: int) -> list[RowState]:
        """Valid entries of *slot*'s ring (slab states), oldest first."""
        self._check_slot(slot)
        count = int(self._count_view(slot)[0])
        valid = min(count, self.history)
        out = []
        w = self.widths[slot]
        for k in range(count - valid, count):
            off = self._entry_offset(slot, k % self.history)
            row, score, brow, bcol, checked, pruned = _ENTRY_HEADER.unpack_from(
                self._shm.buf, off)
            view = np.frombuffer(self._shm.buf, dtype=DTYPE, count=2 * w,
                                 offset=off + _ENTRY_HEADER.size)
            out.append(RowState(row, view[:w].copy(), view[w:].copy(),
                                BestCell(score, brow, bcol), checked, pruned))
        return out

    def consistent_row(self) -> int:
        """Newest matrix row present in **every** slab's ring (0 if none).

        This is the resume point: rows ``[0, consistent_row())`` are
        fully captured across the whole width, so the chain can restart
        there with any new partition.
        """
        common: set[int] | None = None
        for slot in range(self.n_slots):
            rows = {e.row for e in self.entries(slot)}
            common = rows if common is None else common & rows
            if not common:
                return 0
        return max(common) if common else 0

    def assemble(self, row: int) -> RowState:
        """The full-width :class:`~repro.sw.blocks.RowState` at *row*: the
        join of every slab's entry at *row*, whose best cell is the best
        over every published entry (monotone, so folding newer-than-*row*
        bests is safe — any cell they name was truly scored)."""
        at_row, bests = [], []
        for slot in range(self.n_slots):
            entries = self.entries(slot)
            found = [e for e in entries if e.row == row]
            if not found:
                raise CommError(
                    f"{self.label}: slab {slot} has no entry at row {row}")
            at_row.append(found[-1])
            bests += [e.best for e in entries]
        return replace(RowState.join(at_row), best=BestCell.best_of(bests))
