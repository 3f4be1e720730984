"""Configuration autotuning: analytic model and measured sweeps.

The chain has two tuning knobs the paper's system sets by hand: the block
row height (border-segment granularity) and the circular-buffer capacity.
They trade off against each other:

* **Small block rows** → frequent small transfers: per-segment latency
  dominates, and the pipeline's fill time shrinks (finer stagger).
* **Large block rows** → few large transfers: bandwidth-efficient, but the
  fill time grows (each device must finish a taller block row before its
  neighbour starts) and so does the border memory footprint.
* **Buffer capacity ≥ 2** pipelines the two PCIe hops; beyond the point
  where the producer never blocks, more slots only cost host memory.

:func:`autotune` evaluates the analytic model (``predict_chain``) over a
candidate grid and returns the configuration minimising predicted total
time, with the footprint constraint checked against device memory.  With
``measured=True`` every surviving candidate is instead **run** through
the event simulator (:func:`~repro.multigpu.chain.time_multi_gpu`) and
judged on its simulated makespan — slower per candidate, but exact with
respect to the simulator, so it can only match or beat the analytic pick
on the simulator's own workload (benchmark ``X3`` asserts exactly that).
Measured runs are memoised per (devices, matrix, grid) for the process
lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..device.spec import DeviceSpec
from ..errors import ConfigError
from .chain import ChainConfig, time_multi_gpu
from .overlap import predict_chain, segment_bytes
from .partition import proportional_partition

#: Candidate block-row heights (powers of two spanning the practical range).
DEFAULT_BLOCK_ROWS = (256, 512, 1024, 2048, 4096, 8192, 16384, 32768)
#: Candidate circular-buffer capacities.
DEFAULT_CAPACITIES = (2, 4, 8, 16)


@dataclass(frozen=True)
class TuneResult:
    """Chosen configuration and the model's forecast for it."""

    config: ChainConfig
    predicted_total_s: float
    predicted_gcups: float
    evaluated: int
    #: True when the forecast came from simulator runs, not the model.
    measured: bool = False

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        how = "measured" if self.measured else "predicted"
        return (
            f"block_rows={self.config.block_rows} "
            f"capacity={self.config.channel_capacity} "
            f"→ {self.predicted_gcups:.2f} GCUPS {how}"
        )


def border_footprint_bytes(block_rows: int, capacity: int, device_slots: int) -> int:
    """Host+device bytes one channel needs for its buffering."""
    return segment_bytes(block_rows) * (capacity + 2 * device_slots)


def _devices_key(devices: Sequence[DeviceSpec]) -> tuple:
    """Hashable identity of a device list (every model-relevant field)."""
    return tuple(
        (d.name, d.gcups, d.pcie_gbps, d.pcie_latency_s, d.mem_bytes,
         d.saturation_cols, d.copy_engines)
        for d in devices
    )


#: Process-lifetime memo for measured ``autotune`` runs.
_MEASURED_CACHE: dict[tuple, TuneResult] = {}


def clear_tuner_caches() -> None:
    """Drop the measured-run memo (tests, or after device specs change)."""
    _MEASURED_CACHE.clear()


def autotune(
    devices: Sequence[DeviceSpec],
    rows: int,
    cols: int,
    *,
    block_rows_candidates: Sequence[int] = DEFAULT_BLOCK_ROWS,
    capacity_candidates: Sequence[int] = DEFAULT_CAPACITIES,
    device_slots: int = 2,
    host_buffer_limit_bytes: int | None = None,
    measured: bool = False,
) -> TuneResult:
    """Pick ``(block_rows, channel_capacity)`` minimising total time.

    The default judges candidates on the analytic model
    (:func:`~repro.multigpu.overlap.predict_chain`); ``measured=True``
    runs every surviving candidate through the event simulator
    (:func:`~repro.multigpu.chain.time_multi_gpu`) and judges the
    simulated makespan instead — by construction it can only match or
    beat the analytic pick *on the simulator*, at the cost of one
    phantom run per candidate (milliseconds each; results are memoised
    for the process lifetime).

    Ties break toward smaller memory footprint (fewer slots, then smaller
    blocks).  Raises :class:`ConfigError` when no candidate fits the
    constraints (e.g. every block height exceeds the row count).
    """
    if not devices:
        raise ConfigError("need at least one device")
    if rows <= 0 or cols <= 0:
        raise ConfigError("matrix dimensions must be positive")
    cache_key = None
    if measured:
        cache_key = (_devices_key(devices), rows, cols,
                     tuple(sorted(block_rows_candidates)),
                     tuple(sorted(capacity_candidates)),
                     device_slots, host_buffer_limit_bytes)
        hit = _MEASURED_CACHE.get(cache_key)
        if hit is not None:
            return hit
    slabs = proportional_partition(cols, [d.gcups for d in devices])

    best: TuneResult | None = None
    evaluated = 0
    for br in sorted(block_rows_candidates):
        if br > rows:
            continue
        for cap in sorted(capacity_candidates):
            if host_buffer_limit_bytes is not None:
                if border_footprint_bytes(br, cap, device_slots) > host_buffer_limit_bytes:
                    continue
            cfg = ChainConfig(block_rows=br, channel_capacity=cap,
                              device_slots=device_slots)
            if measured:
                total_s = time_multi_gpu(rows, cols, devices,
                                         config=cfg).total_time_s
            else:
                total_s = predict_chain(devices, slabs, rows, cfg).total_s
            evaluated += 1
            if best is None or total_s < best.predicted_total_s * (1 - 1e-12):
                best = TuneResult(
                    config=cfg,
                    predicted_total_s=total_s,
                    predicted_gcups=rows * cols / total_s / 1e9,
                    evaluated=0,
                    measured=measured,
                )
    if best is None:
        raise ConfigError("no feasible configuration among the candidates")
    result = TuneResult(
        config=best.config,
        predicted_total_s=best.predicted_total_s,
        predicted_gcups=best.predicted_gcups,
        evaluated=evaluated,
        measured=measured,
    )
    if cache_key is not None:
        _MEASURED_CACHE[cache_key] = result
    return result

