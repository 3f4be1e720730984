"""Campaign runner: many chromosome pairs over one GPU environment.

The paper's evaluation is a campaign — four chromosome pairs, each run on
several device subsets.  This module executes such campaigns and compares
the two ways to use the machine for *multiple* huge comparisons:

* ``chained``: run the pairs one after another, each using ALL devices
  through the fine-grain chain (the paper's strategy);
* ``split``: give each pair its own device (inter-task style), running
  pairs concurrently but each on a single GPU.

For similar-sized pairs the two have comparable aggregate cell rates, but
``chained`` finishes every *individual* comparison sooner (latency) and
keeps heterogeneous devices fully used even when the pair count does not
divide the device count — the trade-off the campaign report quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..device.spec import DeviceSpec
from ..errors import ConfigError
from ..workloads.catalog import ChromosomePair
from .chain import ChainConfig, ChainResult, MultiGpuChain, PhantomWorkload


@dataclass(frozen=True)
class CampaignItem:
    """Outcome for one pair inside a campaign."""

    pair: ChromosomePair
    start_s: float
    end_s: float
    gcups: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class CampaignResult:
    """Outcome of a whole campaign."""

    strategy: str
    items: list[CampaignItem]
    makespan_s: float

    @property
    def total_cells(self) -> int:
        return sum(item.pair.cells for item in self.items)

    @property
    def aggregate_gcups(self) -> float:
        if self.makespan_s <= 0:
            return 0.0
        return self.total_cells / self.makespan_s / 1e9

    @property
    def mean_latency_s(self) -> float:
        """Mean completion time of individual comparisons."""
        return sum(item.end_s for item in self.items) / len(self.items)


def run_campaign_chained(
    pairs: Sequence[ChromosomePair],
    devices: Sequence[DeviceSpec],
    *,
    config: ChainConfig | None = None,
) -> CampaignResult:
    """Run pairs sequentially, each over the full device chain."""
    if not pairs:
        raise ConfigError("campaign needs at least one pair")
    chain = MultiGpuChain(devices, config=config)
    items: list[CampaignItem] = []
    clock = 0.0
    for pair in pairs:
        res: ChainResult = chain.run(PhantomWorkload(pair.human_len, pair.chimp_len))
        items.append(CampaignItem(pair=pair, start_s=clock,
                                  end_s=clock + res.total_time_s, gcups=res.gcups))
        clock += res.total_time_s
    return CampaignResult(strategy="chained", items=items, makespan_s=clock)


def run_campaign_split(
    pairs: Sequence[ChromosomePair],
    devices: Sequence[DeviceSpec],
    *,
    config: ChainConfig | None = None,
) -> CampaignResult:
    """Run pairs concurrently, one whole pair per device (LPT order).

    Each device processes its queue of pairs back-to-back as a
    single-device chain; the campaign ends when the last device drains.
    """
    if not pairs:
        raise ConfigError("campaign needs at least one pair")
    if not devices:
        raise ConfigError("campaign needs at least one device")
    order = sorted(range(len(pairs)), key=lambda i: pairs[i].cells, reverse=True)
    device_clock = [0.0] * len(devices)
    placed: list[tuple[int, int]] = []  # (pair index, device index)
    cache: dict[tuple[int, int], float] = {}

    def pair_time(i: int, d: int) -> float:
        key = (i, d)
        if key not in cache:
            chain = MultiGpuChain([devices[d]], config=config)
            res = chain.run(PhantomWorkload(pairs[i].human_len, pairs[i].chimp_len))
            cache[key] = res.total_time_s
        return cache[key]

    for i in order:
        finish = [device_clock[d] + pair_time(i, d) for d in range(len(devices))]
        d = finish.index(min(finish))
        placed.append((i, d))
        device_clock[d] = finish[d]

    items: list[CampaignItem] = []
    per_device_clock = [0.0] * len(devices)
    for i, d in placed:
        t = pair_time(i, d)
        start = per_device_clock[d]
        per_device_clock[d] = start + t
        items.append(CampaignItem(pair=pairs[i], start_s=start, end_s=start + t,
                                  gcups=pairs[i].cells / t / 1e9))
    items.sort(key=lambda item: item.pair.name)
    return CampaignResult(strategy="split", items=items, makespan_s=max(device_clock))
