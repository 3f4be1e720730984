"""``mgsw align --backend process``, one fresh process per run."""

from __future__ import annotations

import json
import time
from pathlib import Path

from .common import (WORK, Run, Tally, leaks_since, median, parse_best,
                     parse_tier, python_argv, run_measured, snapshot)
from .inputs import Pair, reference, tiny_pair, write_pair

#: The flags that define the user's request; every tuning knob keeps its
#: CLI default so a later change of default shows in these numbers.
BASE_ARGS = ("--backend", "process", "--workers", "2")


def align_argv(fa: Path, fb: Path, args) -> list:
    return python_argv("-m", "repro.cli", "align", str(fa), str(fb),
                       *BASE_ARGS, *args)


def checked_run(argv, expect, tier, tally: Tally, out_dir: Path) -> Run:
    """One measured run whose score, tier and resource release are checked."""
    before = snapshot()
    run = run_measured(argv, out_dir=out_dir)
    leaked = leaks_since(before, pgid=run.pid)
    got = parse_best(run.stdout)
    if run.timed_out:
        tally.fail(f"timed out after {run.wall_s:.1f}s")
    elif run.returncode != 0:
        tally.fail(f"exit {run.returncode}: {run.stderr.strip()[-200:]}")
    elif got != expect:
        tally.fail(f"printed {got}, reference {expect}", wrong=True)
    elif tier is not None and parse_tier(run.stdout) != tier:
        tally.fail(f"answered by {parse_tier(run.stdout)}, expected {tier}",
                   wrong=True)
    elif leaked:
        tally.fail("leaked " + ", ".join(leaked), leak=True)
    else:
        tally.ok()
    return run


class AlignBench:
    """One align workload on one seed: inputs, references and runs."""

    def __init__(self, name: str, pair: Pair, args, tier: str | None) -> None:
        self.pair = pair
        self.args = tuple(args)
        self.tier = tier
        self.dir = WORK / name
        self.fa, self.fb = write_pair(pair, self.dir / "inputs")
        self.tiny = write_pair(tiny_pair(), self.dir / "tiny")
        self.expect = reference(pair)
        self.tiny_expect = reference(tiny_pair())
        self.tally = Tally()

    def run(self, extra=()) -> Run:
        return checked_run(align_argv(self.fa, self.fb, (*self.args, *extra)),
                           self.expect, self.tier, self.tally, self.dir / "run")

    def setup_s(self, reps: int = 3) -> float:
        """Median wall of the same command on the 10 bp pair."""
        walls = [checked_run(align_argv(*self.tiny, self.args),
                             self.tiny_expect, None, self.tally,
                             self.dir / "tiny-run").wall_s
                 for _ in range(reps)]
        return median(walls)

    def timed(self, seconds: float, min_runs: int = 3) -> list[Run]:
        """Runs back to back; a new one starts while at least half of it
        is expected to fit inside *seconds*."""
        runs: list[Run] = []
        t0 = time.perf_counter()
        while len(runs) < min_runs or (
                time.perf_counter() - t0 + 0.5 * median([r.wall_s for r in runs])
                < seconds):
            runs.append(self.run())
        return runs

    def e2e(self, seconds: float) -> tuple[dict, list]:
        setup = self.setup_s()
        runs = self.timed(seconds)
        walls = [r.wall_s for r in runs]
        wall = median(walls)
        return {
            "wall_s": wall,
            "gcups": self.pair.cells / wall / 1e9,
            "setup_s": setup,
            "peak_rss_mb": median([r.maxrss_mb for r in runs]),
        }, walls

    def traced(self, reps: int = 2) -> dict:
        """The traced stand-in run(s); returns the median-wall one with its
        process wall attached."""
        outs = []
        for _ in range(reps):
            before = snapshot()
            run = run_measured(python_argv("-m", "perfbench.layers",
                                           str(self.fa), str(self.fb),
                                           *BASE_ARGS, *self.args),
                               out_dir=self.dir / "traced")
            leaked = leaks_since(before, pgid=run.pid)
            if run.returncode != 0:
                raise RuntimeError(f"traced run failed: {run.stderr[-400:]}")
            doc = json.loads(run.stdout.strip().splitlines()[-1])
            got = tuple(doc["best"])
            if got != self.expect:
                self.tally.fail(f"traced run printed {got}, reference "
                                f"{self.expect}", wrong=True)
            elif leaked:
                self.tally.fail("traced run leaked " + ", ".join(leaked),
                                leak=True)
            else:
                self.tally.ok()
            doc["process_wall_s"] = run.wall_s
            doc["start_s"] = doc["entry"] - run.started
            doc["exit_s"] = run.started + run.wall_s - doc["done"]
            outs.append(doc)
        outs.sort(key=lambda d: d["process_wall_s"])
        return outs[(len(outs) - 1) // 2]
