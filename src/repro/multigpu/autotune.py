"""Configuration autotuning: analytic model, measured sweeps, re-balancing.

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

Two tuners live here:

* :func:`autotune` — evaluates the analytic model (``predict_chain``)
  over a candidate grid and returns the configuration minimising
  predicted total time, with the footprint constraint checked against
  device memory.  With ``measured=True`` every surviving candidate is
  instead **run** through the event simulator
  (:func:`~repro.multigpu.chain.time_multi_gpu`) and judged on its
  simulated makespan — slower per candidate, but exact with respect to
  the simulator, so it can only match or beat the analytic pick on the
  simulator's own workload (benchmark ``X3`` asserts exactly that).
  Measured runs are memoised per (devices, matrix, grid) for the
  process lifetime.
* :func:`rebalance_weights` (+ :func:`estimate_capacities`) — the
  online half: after a :class:`~repro.multigpu.pool.WorkerPool`
  comparison, per-worker capacity is measured from each worker's own
  ``compute`` spans, and the pool's slab weights are updated when the
  drift exceeds a threshold (INTERNALS.md section 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..device.spec import DeviceSpec
from ..errors import ConfigError
from .chain import ChainConfig, time_multi_gpu
from .overlap import predict_chain, segment_bytes
from .partition import Slab, proportional_partition

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


# -- online slab re-balancing -------------------------------------------------

def compute_rates(reports: Sequence, rows: int) -> list[float]:
    """Matrix rows per second of compute, one per worker's
    :class:`~repro.multigpu.procchain.SlabReport`: *rows* (swept by the
    attempt) over the summed length of its ``compute`` spans, 0.0 for a
    worker that computed nothing."""
    rates = []
    for report in reports:
        busy = sum(end - start for kind, start, end in report.records
                   if kind == "compute")
        rates.append(rows / busy if busy > 0 else 0.0)
    return rates


@dataclass(frozen=True)
class RebalanceDecision:
    """Outcome of one re-balance check (fired or not, with the evidence)."""

    fired: bool
    drift: float
    threshold: float
    old_weights: tuple[float, ...]
    new_weights: tuple[float, ...]
    capacities: tuple[float, ...]


def estimate_capacities(reports: Sequence, slabs: Sequence[Slab],
                        rows: int) -> list[float]:
    """Per-worker capacity from one comparison's slab reports.

    A worker that swept ``cols_g x rows`` cells in ``compute_g`` seconds
    of compute pushes ``cols_g * rows / compute_g`` cells/s while not
    starved — the paper's per-device throughput, measured instead of
    declared; time spent waiting on borders is not in the spans.
    Workers with no compute time fall back to their slab width
    (neutral: they neither gain nor lose columns).
    """
    if len(reports) != len(slabs):
        raise ConfigError("need one slab report per slab")
    return [slab.cols * rate if rate > 0.0 else float(slab.cols)
            for slab, rate in zip(slabs, compute_rates(reports, rows))]


def rebalance_weights(
    weights: Sequence[float],
    capacities: Sequence[float],
    *,
    threshold: float = 0.25,
    floor: float = 0.05,
) -> RebalanceDecision:
    """Decide whether measured *capacities* warrant new slab *weights*.

    Drift is the largest relative gap between a worker's current weight
    share and its capacity share; the decision fires when it exceeds
    *threshold*.  New weights are the capacity shares floored at *floor*
    (no worker is starved to zero — it could never demonstrate recovered
    speed with an empty slab).  Pure arithmetic, deterministic, and
    side-effect free: callers apply ``new_weights`` themselves.
    """
    if len(weights) != len(capacities):
        raise ConfigError("weights and capacities must have equal length")
    if not weights:
        raise ConfigError("need at least one worker")
    if threshold <= 0:
        raise ConfigError("threshold must be positive")
    w_total = float(sum(weights))
    c_total = float(sum(capacities))
    if w_total <= 0 or c_total <= 0:
        raise ConfigError("weights and capacities must sum positive")
    w_shares = [w / w_total for w in weights]
    c_shares = [max(c / c_total, floor) for c in capacities]
    c_norm = sum(c_shares)
    c_shares = [c / c_norm for c in c_shares]
    drift = max(abs(c - w) / w if w > 0 else float("inf")
                for w, c in zip(w_shares, c_shares))
    fired = drift > threshold
    return RebalanceDecision(
        fired=fired,
        drift=drift,
        threshold=threshold,
        old_weights=tuple(weights),
        new_weights=tuple(c_shares if fired else w_shares),
        capacities=tuple(capacities),
    )
