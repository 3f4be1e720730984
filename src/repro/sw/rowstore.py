"""Special-row storage with a memory budget and disk spilling.

Stage 1 over megabase sequences produces special rows totalling gigabytes
(two int32 vectors of matrix width every ``interval`` rows).  The real
system writes them to disk as it goes and reads them back during the
traceback stages.  :class:`BudgetedRowStore` reproduces that behaviour:
rows are kept in memory up to ``max_memory_bytes`` and transparently
spilled to a directory beyond that, with access-order retrieval and
explicit lifetime management (:meth:`close` removes the spill files).
It is the one special-row store: :func:`~repro.sw.stages.stage1_score`
writes into it and the crossing search reads it back with :meth:`load`.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass
class StoreStats:
    """Accounting for one store: what stayed in RAM, what spilled."""

    rows_in_memory: int = 0
    rows_spilled: int = 0
    bytes_in_memory: int = 0
    bytes_spilled: int = 0
    spill_reads: int = 0


class BudgetedRowStore:
    """Special rows under a memory budget (see module docstring).

    Not thread-safe (neither is the sweep that feeds it).  Use as a
    context manager, or call :meth:`close` to remove spill files.
    """

    def __init__(
        self,
        interval: int,
        *,
        max_memory_bytes: int = 256 * 1024 * 1024,
        spill_dir: str | None = None,
    ) -> None:
        if interval <= 0:
            raise ConfigError("interval must be positive")
        if max_memory_bytes < 0:
            raise ConfigError("max_memory_bytes must be >= 0")
        self.interval = interval
        self.max_memory_bytes = max_memory_bytes
        self._mem: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._spilled: dict[int, str] = {}
        self._dir_owned = spill_dir is None
        self._dir = spill_dir  # an owned directory is made on first spill
        self.stats = StoreStats()
        self._closed = False

    # -- write path ----------------------------------------------------------
    def store(self, row: int, h: np.ndarray, f: np.ndarray) -> None:
        """Record one special row; spills when the budget is exceeded."""
        if self._closed:
            raise ConfigError("store is closed")
        nbytes = h.nbytes + f.nbytes
        if self.stats.bytes_in_memory + nbytes <= self.max_memory_bytes:
            self._mem[row] = (h.copy(), f.copy())
            self.stats.rows_in_memory += 1
            self.stats.bytes_in_memory += nbytes
        else:
            if self._dir is None:
                self._dir = tempfile.mkdtemp(prefix="repro-rows-")
            path = os.path.join(self._dir, f"row-{row}.npz")
            np.savez(path, h=h, f=f)
            self._spilled[row] = path
            self.stats.rows_spilled += 1
            self.stats.bytes_spilled += nbytes

    # -- read path -------------------------------------------------------------
    def load(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Fetch one special row (from RAM or disk)."""
        if row in self._mem:
            return self._mem[row]
        if row in self._spilled:
            self.stats.spill_reads += 1
            with np.load(self._spilled[row]) as data:
                return data["h"].copy(), data["f"].copy()
        raise KeyError(row)

    def row_indices(self) -> list[int]:
        return sorted(set(self._mem) | set(self._spilled))

    @property
    def bytes_stored(self) -> int:
        return self.stats.bytes_in_memory + self.stats.bytes_spilled

    # -- lifetime -----------------------------------------------------------------
    def close(self) -> None:
        """Delete spill files (and the directory if this store made it)."""
        if self._closed:
            return
        self._closed = True
        for path in self._spilled.values():
            try:
                os.unlink(path)
            except OSError:
                pass
        if self._dir_owned and self._dir is not None:
            try:
                os.rmdir(self._dir)
            except OSError:
                pass
        self._spilled.clear()
        self._mem.clear()

    def __enter__(self) -> "BudgetedRowStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass
