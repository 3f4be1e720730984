"""The simulated GPU: compute engine + PCIe copy engines + counters.

A :class:`SimulatedGPU` binds a :class:`~repro.device.spec.DeviceSpec` to a
virtual-time :class:`~repro.device.engine.Engine`.  Its three facilities:

* :meth:`compute` — charge virtual time for a block of DP cells at the
  device's occupancy-adjusted rate, while (optionally) *actually computing*
  the block through a caller-supplied thunk.  Correctness and timing are
  thus decoupled: the NumPy kernel produces bit-exact borders instantly in
  wall-clock terms, and the virtual clock models what the real device
  would have taken.
* :meth:`copy_to_host` / :meth:`copy_to_device` — PCIe transfers through
  the device's copy engine(s).  With one engine the two directions
  serialise (Fermi consumer cards); with two they are full duplex.
* Counters — busy/transfer/wait time per GPU, cells computed, bytes moved;
  the experiments' time-breakdown figures read these.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DeviceError
from .engine import Engine, Event
from .spec import DeviceSpec


@dataclass
class GpuCounters:
    """Virtual-time accounting for one device."""

    compute_s: float = 0.0
    d2h_s: float = 0.0
    h2d_s: float = 0.0
    wait_s: float = 0.0
    cells: int = 0
    bytes_out: int = 0
    bytes_in: int = 0

    @property
    def transfer_s(self) -> float:
        return self.d2h_s + self.h2d_s

    def breakdown(self, total_s: float) -> dict[str, float]:
        """Fractions of *total_s* spent per category (idle = remainder)."""
        if total_s <= 0:
            raise DeviceError("total time must be positive")
        busy = self.compute_s / total_s
        comm = self.transfer_s / total_s
        wait = self.wait_s / total_s
        return {
            "compute": busy,
            "transfer": comm,
            "wait": wait,
            "idle": max(0.0, 1.0 - busy - comm - wait),
        }


class _EngineLock:
    """A FIFO mutex on the event engine (models a single copy engine)."""

    def __init__(self, engine: Engine, label: str) -> None:
        self.engine = engine
        self.label = label
        self._locked = False
        self._waiters: list[Event] = []

    def acquire(self) -> Event:
        evt = self.engine.event(f"acquire:{self.label}")
        if not self._locked:
            self._locked = True
            evt.succeed()
        else:
            self._waiters.append(evt)
        return evt

    def release(self) -> None:
        if not self._locked:
            raise DeviceError(f"{self.label}: release without acquire")
        if self._waiters:
            self._waiters.pop(0).succeed()
        else:
            self._locked = False


class SimulatedGPU:
    """One device on the virtual clock (see module docstring)."""

    def __init__(self, engine: Engine, spec: DeviceSpec, index: int = 0,
                 tracer=None) -> None:
        self.engine = engine
        self.spec = spec
        self.index = index
        self.tracer = tracer  #: optional repro.device.trace.Tracer
        self.counters = GpuCounters()
        self._compute_lock = _EngineLock(engine, f"gpu{index}-compute")
        if spec.copy_engines == 1:
            shared = _EngineLock(engine, f"gpu{index}-copy")
            self._d2h_lock = shared
            self._h2d_lock = shared
        else:
            self._d2h_lock = _EngineLock(engine, f"gpu{index}-d2h")
            self._h2d_lock = _EngineLock(engine, f"gpu{index}-h2d")

    @property
    def name(self) -> str:
        return f"[{self.index}] {self.spec.name}"

    # -- processes ---------------------------------------------------------
    def compute(
        self,
        cells: int,
        slab_cols: int,
        block_rows: int | None = None,
    ):
        """Process: execute *cells* DP cells on the device.

        Charges ``cells / effective_rate(slab_cols, block_rows)`` of
        virtual time; the engine runs the real block sweep itself.
        """
        if cells <= 0:
            raise DeviceError("cells must be positive")
        yield self._compute_lock.acquire()
        try:
            duration = cells / self.spec.effective_rate(slab_cols, block_rows)
            start = self.engine.now
            yield self.engine.timeout(duration, f"{self.name} compute {cells} cells")
            self.counters.compute_s += duration
            self.counters.cells += cells
            if self.tracer is not None:
                self.tracer.record(self.name, "compute", start, self.engine.now)
        finally:
            self._compute_lock.release()

    def copy_to_host(self, nbytes: int):
        """Process: D2H transfer of *nbytes* over PCIe."""
        yield self._d2h_lock.acquire()
        try:
            duration = self.spec.transfer_time(nbytes)
            start = self.engine.now
            yield self.engine.timeout(duration, f"{self.name} d2h {nbytes}B")
            self.counters.d2h_s += duration
            self.counters.bytes_out += nbytes
            if self.tracer is not None:
                self.tracer.record(self.name, "d2h", start, self.engine.now)
        finally:
            self._d2h_lock.release()

    def copy_to_device(self, nbytes: int):
        """Process: H2D transfer of *nbytes* over PCIe."""
        yield self._h2d_lock.acquire()
        try:
            duration = self.spec.transfer_time(nbytes)
            start = self.engine.now
            yield self.engine.timeout(duration, f"{self.name} h2d {nbytes}B")
            self.counters.h2d_s += duration
            self.counters.bytes_in += nbytes
            if self.tracer is not None:
                self.tracer.record(self.name, "h2d", start, self.engine.now)
        finally:
            self._h2d_lock.release()

    def record_wait(self, started_at: float) -> None:
        """Attribute elapsed virtual time since *started_at* to waiting."""
        self.counters.wait_s += self.engine.now - started_at
        if self.tracer is not None and self.engine.now > started_at:
            self.tracer.record(self.name, "wait", started_at, self.engine.now)
