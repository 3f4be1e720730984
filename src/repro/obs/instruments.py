"""The standard engine instrument set, bound once per engine actor.

All three engines — the blocked single-device executor, the simulated
:class:`~repro.multigpu.chain.MultiGpuChain` and the real-process
:class:`~repro.multigpu.pool.WorkerPool` — emit the
same metric families under the same names, labelled by ``device``:

=============================  ========= ====================================
``blocks_computed``            counter   blocks actually swept
``blocks_pruned``              counter   blocks skipped by pruning
``cells_computed``             counter   DP cells actually computed
``border_bytes_sent``          counter   border payload bytes shipped right
``border_bytes_received``      counter   border payload bytes consumed
``block_sweep_seconds``        histogram per-block sweep latency
``prune_rate``                 gauge     pruned / checked blocks (per run)
``heuristic_hits``             counter   auto runs answered by the heuristic
``escalations``                counter   auto runs re-run on the exact tier
``blocks_narrow``              counter   blocks computed in a narrow DP dtype
``blocks_wide``                counter   blocks computed wide under a narrow policy
``dtype_escalations``          counter   narrow sweeps redone in int32 (overflow)
=============================  ========= ====================================

Centralising the names here is what makes the cross-engine invariant
testable: for every engine, ``blocks_computed + blocks_pruned`` summed
over devices equals the number of blocks checked, block rows times the
device count; a chain's ``cells_computed`` counts the cells of each
swept row's live window (:class:`repro.sw.kernel.LiveWindow`).
"""

from __future__ import annotations

from .registry import MetricsRegistry

#: Histogram buckets for block-sweep latencies: virtual-clock sweeps sit
#: in the sub-millisecond decades, wall-clock slab rows in the upper ones.
SWEEP_BUCKETS = (
    1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 30.0,
)


class EngineInstruments:
    """One engine actor's bound handles into a shared registry.

    Construction registers (or re-binds) the standard families; the
    per-call methods are cheap dictionary updates, safe on hot paths.
    """

    def __init__(self, registry: MetricsRegistry, device: str) -> None:
        self.registry = registry
        self.device = device
        self._blocks = registry.counter(
            "blocks_computed", help="blocks actually swept")
        self._pruned = registry.counter(
            "blocks_pruned", help="blocks skipped by distributed pruning")
        self._cells = registry.counter(
            "cells_computed", help="DP cells actually computed")
        self._sent = registry.counter(
            "border_bytes_sent", help="border payload bytes shipped downstream")
        self._received = registry.counter(
            "border_bytes_received", help="border payload bytes consumed")
        self._sweep = registry.histogram(
            "block_sweep_seconds", help="per-block-row sweep latency",
            buckets=SWEEP_BUCKETS)

    def block_computed(self, seconds: float, cells: int = 0) -> None:
        self._blocks.inc(1, device=self.device)
        if cells:
            self._cells.inc(cells, device=self.device)
        self._sweep.observe(seconds, device=self.device)

    def block_pruned(self, count: int = 1) -> None:
        self._pruned.inc(count, device=self.device)

    def border_sent(self, nbytes: int) -> None:
        self._sent.inc(nbytes, device=self.device)

    def border_received(self, nbytes: int) -> None:
        self._received.inc(nbytes, device=self.device)

    def checkpoint_published(self) -> None:
        self.registry.counter(
            "checkpoints_published",
            help="row states published into the shared checkpoint area",
        ).inc(1, device=self.device)

    def block_dtype(self, *, narrow: int = 0, wide: int = 0,
                    escalations: int = 0) -> None:
        """Record the narrow/wide split of swept blocks under a narrow
        DP policy (never called when the policy is plain int32, so the
        counters stay absent — and cost nothing — on wide runs)."""
        record_dtype(self.registry, device=self.device,
                     narrow=narrow, wide=wide, escalations=escalations)


def record_dtype(registry: MetricsRegistry, *, device: str,
                 narrow: int = 0, wide: int = 0, escalations: int = 0) -> None:
    """Record the DP-dtype outcome of swept blocks on one device.

    ``blocks_narrow`` counts blocks the narrow kernel answered,
    ``blocks_wide`` blocks computed in int32 despite a narrow policy
    (overflow escalations plus entry-cap rejects), ``dtype_escalations``
    the narrow attempts that overflowed mid-sweep and were recomputed.
    Only fired when a narrow policy is active, so wide runs carry no
    extra metric series (the X9 overhead bound stays intact).
    """
    if narrow:
        registry.counter(
            "blocks_narrow",
            help="blocks computed in the narrow DP dtype",
        ).inc(narrow, device=device)
    if wide:
        registry.counter(
            "blocks_wide",
            help="blocks computed wide despite a narrow DP policy",
        ).inc(wide, device=device)
    if escalations:
        registry.counter(
            "dtype_escalations",
            help="narrow sweeps recomputed in int32 after overflow detection",
        ).inc(escalations, device=device)


def record_recovery(registry: MetricsRegistry, *, backend: str,
                    rows_recomputed: int) -> None:
    """Record one worker-failure recovery on the run's registry.

    ``worker_restarts`` counts recovery episodes (attempt resumptions),
    ``rows_recomputed`` the matrix rows swept again because they lay past
    the newest consistent checkpoint when the failure hit.
    """
    registry.counter(
        "worker_restarts",
        help="recoveries after a worker death (attempt resumptions)",
    ).inc(1, backend=backend)
    if rows_recomputed > 0:
        registry.counter(
            "rows_recomputed",
            help="matrix rows recomputed during checkpoint recovery",
        ).inc(rows_recomputed, backend=backend)


def record_heuristic(registry: MetricsRegistry, *, backend: str,
                     tier: str, escalated: bool) -> None:
    """Record which tier answered a ``mode="auto"`` run.

    ``heuristic_hits`` counts runs the heuristic tier answered outright;
    ``escalations`` counts runs re-run on the exact tier because the
    confidence check failed.  Exactly one of the two increments per
    auto-mode run.
    """
    if escalated:
        registry.counter(
            "escalations",
            help="auto-mode runs escalated to the exact tier",
        ).inc(1, backend=backend, tier=tier)
    else:
        registry.counter(
            "heuristic_hits",
            help="auto-mode runs answered by the heuristic tier",
        ).inc(1, backend=backend, tier=tier)


def finalize_run_metrics(registry: MetricsRegistry, *, backend: str,
                         blocks_checked: int, blocks_pruned: int,
                         wall_time_s: float, gcups: float) -> None:
    """Record the run-level summary gauges every engine publishes."""
    registry.counter("alignments_total",
                     help="alignments completed").inc(1, backend=backend)
    registry.gauge("prune_rate",
                   help="pruned / checked blocks of the last run").set(
        blocks_pruned / blocks_checked if blocks_checked else 0.0,
        backend=backend)
    registry.gauge("last_run_wall_time_s",
                   help="elapsed time of the last run").set(
        wall_time_s, backend=backend)
    registry.gauge("last_run_gcups",
                   help="throughput of the last run").set(gcups, backend=backend)
