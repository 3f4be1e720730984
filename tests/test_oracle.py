"""One oracle harness: every engine and front door against the naive oracle.

The paper's claim is that the chained sweep gives the single-device answer
bit for bit.  Each example draws a whole :class:`~repro.sw.config.AlignConfig`,
a pair, a scoring scheme and a door: one of the four library engines, or a
front door (``mgsw align`` on either backend, or ``mgsw submit`` to a
daemon), which reads DNA and scores it under ``DNA_DEFAULT``.  The answer
is checked against :func:`~repro.sw.naive.sw_score_naive` and against a twin
run that differs only in knobs that cannot change it.  INTERNALS.md section
16 states the draw space and the properties P1-P6.  A new knob joins as one
more strategy value, a new engine or front door as one more ``Doors``
method.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
from dataclasses import asdict, dataclass, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import seq
from repro.baselines.single_gpu import run_single_gpu
from repro.cli import main
from repro.comm import list_segments
from repro.device import TESLA_M2090
from repro.errors import ConfigError
from repro.multigpu import (ChainConfig, MatrixWorkload, MultiGpuChain,
                            WorkerPool, align_multi_gpu, align_multi_process)
from repro.multigpu.partition import proportional_partition
from repro.obs import EventJournal
from repro.seq import BLOSUM62_SCORING, DNA_DEFAULT, Scoring
from repro.serve import JobSpec, ServeConfig, ServeDaemon
from repro.sw import AlignConfig, sw_score_naive
from repro.sw.xdrop import MODES
from repro.workloads import HUMAN_CHIMP, insert_n_runs, mutate, random_dna

#: Per-cell gain 1500 overflows int16 on a 22-match diagonal, so an int16
#: sweep of a homolog escalates to int32.
HOT = Scoring(match=1500, mismatch=-3, gap_open=3, gap_extend=2)

KERNELS = st.sampled_from(("scalar", "batched", "compiled", "auto"))
DP_DTYPES = st.sampled_from(("auto", "int16", "int32"))
BLOCK_ROWS = st.integers(1, 96)

configs = st.builds(
    AlignConfig, block_rows=BLOCK_ROWS, kernel=KERNELS,
    pruning=st.booleans(), mode=st.sampled_from(MODES),
    band_width=st.integers(1, 64), xdrop_x=st.integers(1, 40),
    dp_dtype=DP_DTYPES)

#: The knobs that cannot change the answer (P5), as config overrides: a
#: twin either changes only the kernel or redraws all four.
neutral_knobs = st.one_of(
    st.fixed_dictionaries({"kernel": KERNELS}),
    st.fixed_dictionaries({"kernel": KERNELS, "pruning": st.booleans(),
                           "block_rows": BLOCK_ROWS, "dp_dtype": DP_DTYPES}))

schemes = st.one_of(
    st.just(DNA_DEFAULT),
    st.builds(Scoring, match=st.integers(1, 4), mismatch=st.integers(-4, 0),
              gap_open=st.integers(0, 5), gap_extend=st.integers(1, 3)),
    st.just(HOT),
    st.just(BLOSUM62_SCORING))

#: Engine plans: slab weights (their count is the device or worker
#: count) and the single device's block width.
weights_lists = st.lists(st.floats(0.5, 4.0), min_size=1, max_size=3)
block_cols = st.integers(1, 96)


@dataclass(frozen=True)
class Pair:
    kind: str
    a: np.ndarray
    b: np.ndarray


@st.composite
def pairs(draw, protein: bool):
    """A homolog, a divergent pair, a tie-heavy 1-3-letter pair or (DNA)
    a homolog with N runs; m, n <= 160 (n >= 3 for three workers)."""
    kinds = ("ties", "homolog", "divergent") + (() if protein else ("n-runs",))
    kind = draw(st.sampled_from(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        letters = draw(st.integers(1, 3))
        a, b = (rng.integers(0, letters, draw(st.integers(3, 48)))
                .astype(np.uint8) for _ in "ab")
        return Pair(kind, a, b)
    m = draw(st.integers(24, 160))
    if protein:
        a = rng.integers(0, 20, m).astype(np.uint8)
        b = a.copy()
        swap = rng.random(m) < 0.1
        b[swap] = rng.integers(0, 20, int(swap.sum()))
    else:
        a = random_dna(m, rng=rng)
        if kind == "n-runs":
            a = insert_n_runs(a, rng=rng, run_count=2, run_fraction=0.1)
        b = mutate(a, HUMAN_CHIMP, rng=rng)
    if kind == "divergent":
        n = draw(st.integers(24, 160))
        b = (rng.integers(0, 20, n).astype(np.uint8) if protein
             else random_dna(n, rng=rng))
    return Pair(kind, a, b)


@st.composite
def comparisons(draw, front: bool = False):
    """A pair and its scoring scheme; a front door reads DNA FASTA and
    scores it under ``DNA_DEFAULT``."""
    scoring = DNA_DEFAULT if front else draw(schemes)
    return draw(pairs(scoring is BLOSUM62_SCORING)), scoring


def own_segments() -> list[str]:
    """The live shared-memory segments this process created.  Each name
    carries its creator's pid (``mgsw{kind}_{pid}_{tag}``), and every
    door's segments, the test daemon's included, are created here, so a
    concurrent session's runs cannot race the leak check."""
    tag = f"_{os.getpid()}_"
    return [name for name in list_segments() if tag in name]


@dataclass(frozen=True)
class Answer:
    """What every door reports: score, end cell and tier, plus the
    library result (``None`` from a front door)."""

    score: int
    row: int
    col: int
    tier: str
    result: object = None

    @classmethod
    def of(cls, res) -> "Answer":
        assert res.escalated == (res.mode == "auto" and res.tier == "exact")
        return cls(res.score, res.best.row, res.best.col, res.tier, res)

    @property
    def key(self) -> tuple:
        return self.score, self.row, self.col, self.tier


def config_flags(cfg: AlignConfig) -> list[str]:
    """The CLI flags that name *cfg*."""
    flags = []
    for name, value in asdict(cfg).items():
        if name == "pruning":
            flags.append("--pruning" if value else "--no-pruning")
        else:
            flags += ["--" + name.replace("_", "-"), str(value)]
    return flags


#: The tiers each mode may answer from.
TIERS = {"exact": ("exact",), "banded": ("banded",), "xdrop": ("xdrop",),
         "auto": ("banded", "exact")}

#: The report lines the front doors' answers are parsed from.
BEST = re.compile(r"best score: (\d+)(?: ending at \((\d+), (\d+)\))?")
TIER = re.compile(r"tier: mode=\w+ answered_by=(\w+)")
SUBMITTED = re.compile(r"score (\d+) at \((-?\d+), (-?\d+)\)  tier=(\w+)")


class Doors:
    """Every way in: the four library engines and the three front doors.
    Each takes the pair, scoring, config and engine plan and returns an
    :class:`Answer`."""

    LIBRARY = ("single", "sim", "process", "pool")
    FRONT = ("cli-sim", "cli-process", "submit")

    def __init__(self, pool, daemon, tmp) -> None:
        self.warm_pool, self.daemon = pool, daemon
        self.fasta = (str(tmp / "a.fa"), str(tmp / "b.fa"))

    def single(self, a, b, scoring, cfg, weights, cols):
        return Answer.of(run_single_gpu(a, b, scoring, TESLA_M2090,
                                        config=cfg, block_cols=cols))

    def sim(self, a, b, scoring, cfg, weights, cols):
        partition = proportional_partition(int(b.size), weights)
        chain = MultiGpuChain([TESLA_M2090] * len(weights),
                              config=ChainConfig(**asdict(cfg)),
                              partition=partition)
        return Answer.of(chain.run(MatrixWorkload(a, b, scoring)))

    def process(self, a, b, scoring, cfg, weights, cols):
        journal = EventJournal()
        res = align_multi_process(a, b, scoring, config=cfg,
                                  workers=len(weights), weights=weights,
                                  events=journal)
        if res.tier == "exact":
            assert ([s.cols for s in res.partition] == [
                s.cols for s in proportional_partition(int(b.size), weights)])
        else:  # an inline tier spawns no worker
            assert res.workers == 0 and journal.count("worker_spawn") == 0
        return Answer.of(res)

    def pool(self, a, b, scoring, cfg, weights, cols):
        res = self.warm_pool.align(a, b, scoring, config=cfg)
        assert res.tier == "exact" or res.workers == 0
        return Answer.of(res)

    def _main(self, a, b, *args: str) -> str:
        for path, codes in zip(self.fasta, (a, b)):
            seq.write_fasta(path, seq.FastaRecord("s", "", codes))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([args[0], *self.fasta, *args[1:]]) == 0
        return out.getvalue()

    def _cli(self, a, b, cfg, *backend: str) -> Answer:
        text = self._main(a, b, "align", *config_flags(cfg), *backend)
        score, row, col = BEST.search(text).groups()
        tier = TIER.search(text)
        return Answer(int(score), int(row or -1), int(col or -1),
                      tier.group(1) if tier else "exact")

    def cli_sim(self, a, b, scoring, cfg, weights, cols):
        return self._cli(a, b, cfg, "--backend", "sim")

    def cli_process(self, a, b, scoring, cfg, weights, cols):
        return self._cli(a, b, cfg, "--backend", "process",
                         "--workers", str(len(weights)))

    def submit(self, a, b, scoring, cfg, weights, cols):
        """``--no-cache`` computes; a cached submit then stores (or hits)
        and a repeat of it must hit with the same answer."""
        args = ("submit", "--port", str(self.daemon.port), *config_flags(cfg))
        texts = [self._main(a, b, *args, "--no-cache"),
                 self._main(a, b, *args), self._main(a, b, *args)]
        assert "(cache hit)" not in texts[0] and "(cache hit)" in texts[2]
        answers = {SUBMITTED.search(t).groups() for t in texts}
        assert len(answers) == 1, answers
        score, row, col, tier = answers.pop()
        return Answer(int(score), int(row), int(col), tier)

    def run(self, door: str, *args) -> Answer:
        return getattr(self, door.replace("-", "_"))(*args)


@pytest.fixture(scope="module")
def doors(tmp_path_factory):
    """One warm pool and one daemon (its pool spawns on construction) for
    the whole module."""
    daemon = ServeDaemon(ServeConfig(pools=1, workers=2), status_port=None)
    daemon.start()
    try:
        with WorkerPool(2, events=EventJournal()) as pool:
            yield Doors(pool, daemon, tmp_path_factory.mktemp("oracle"))
    finally:
        daemon.stop()


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(door=st.sampled_from(Doors.LIBRARY + Doors.FRONT), data=st.data(),
       cfg=configs, weights=weights_lists, cols=block_cols,
       twin=neutral_knobs, twin_door=st.sampled_from(("single", "sim")),
       twin_weights=weights_lists, twin_cols=block_cols)
def test_every_door_answers_as_the_oracle(doors, door, data, cfg, weights,
                                          cols, twin, twin_door,
                                          twin_weights, twin_cols):
    pair, scoring = data.draw(comparisons(door in Doors.FRONT),
                              label="comparison")
    a, b = pair.a, pair.b
    want = sw_score_naive(a, b, scoring)
    segments = own_segments()
    got = doors.run(door, a, b, scoring, cfg, weights, cols)
    assert own_segments() == segments

    # P1: an exact answer (exact mode, or auto escalated) is the oracle's;
    # a best score of 0 has no end cell.
    assert got.tier in TIERS[cfg.mode]
    assert (got.score == 0) == (got.row == got.col == -1)
    if got.tier == "exact":
        assert (got.score, got.row, got.col) == want
    # P2: a heuristic answer never beats the oracle.
    else:
        assert got.score <= want[0]
    # P3: auto on a DNA_DEFAULT homolog of >= 100 bp answers from the band.
    if (cfg.mode == "auto" and scoring is DNA_DEFAULT
            and pair.kind == "homolog" and a.size >= 100):
        assert got.tier == "banded"
        assert (got.score, got.row, got.col) == want

    # P4, P5: a twin that differs only in knobs that cannot change the
    # answer agrees.  It runs on the single device or the simulated chain,
    # so a front door is checked against the library (P4); a kernel-only
    # twin of those two runs on the same engine and plan.
    kernel_only = twin.keys() == {"kernel"} and door in ("single", "sim")
    if kernel_only:
        twin_door, twin_weights, twin_cols = door, weights, cols
    twin_cfg = replace(cfg, **twin)
    mirror = doors.run(twin_door, a, b, scoring, twin_cfg, twin_weights,
                       twin_cols)
    assert got.key == mirror.key
    for ans, ran in ((got, cfg), (mirror, twin_cfg)):
        if ans.result is not None:
            check_stamps(ans.result, ran, scoring, want[0])
    # Changing only the kernel keeps every SweepTally field, but for the
    # batched wavefront grouping of a pruned single device, which decides
    # a diagonal at a time (INTERNALS.md section 16).
    if kernel_only and not (door == "single" and cfg.pruning and "batched"
                            in (cfg.kernel, twin_cfg.kernel)):
        assert got.result.tally == mirror.result.tally
        assert got.result.dp_dtype == mirror.result.dp_dtype


def gap_heavy_pair():
    """The C engine against the scalar kernel on a pair whose best path
    takes long gaps both ways, an 18-row vertical one deep inside 32-row
    blocks, under a cheap-extension scheme."""
    rng = np.random.default_rng(12)
    x, y, z = (random_dna(40, rng=rng) for _ in "xyz")
    a = np.concatenate([x, random_dna(18, rng=rng), y,
                        random_dna(14, rng=rng), z[:20]])
    b = np.concatenate([x, y, random_dna(9, rng=rng), z])
    scoring = Scoring(match=3, mismatch=-3, gap_open=4, gap_extend=1)
    return a, b, scoring, AlignConfig(block_rows=32, kernel="scalar"), {
        "kernel": "compiled"}


def overflowing_pair():
    """int16 against int32 on a homolog under ``HOT``: the narrow sweep
    overflows its cap and must escalate."""
    rng = np.random.default_rng(7)
    a = random_dna(160, rng=rng)
    b = mutate(a, HUMAN_CHIMP, rng=rng)
    return a, b, HOT, AlignConfig(block_rows=32, dp_dtype="int32"), {
        "dp_dtype": "int16"}


@pytest.mark.parametrize("case", [gap_heavy_pair, overflowing_pair])
def test_pinned_twin(doors, case):
    """P5 pinned where the draw rarely looks, on every library engine that
    keeps the plan: the twin answers as the run and the oracle, and a
    kernel-only twin keeps every tally field and the DP dtype."""
    a, b, scoring, cfg, knobs = case()
    want = sw_score_naive(a, b, scoring)
    twin_cfg = replace(cfg, **knobs)
    for door in ("single", "sim", "pool"):
        got = doors.run(door, a, b, scoring, cfg, [1.0, 2.0], 24)
        twin = doors.run(door, a, b, scoring, twin_cfg, [1.0, 2.0], 24)
        assert (got.score, got.row, got.col) == want, door
        assert twin.key == got.key, door
        check_stamps(twin.result, twin_cfg, scoring, want[0])
        if knobs.keys() == {"kernel"}:
            assert twin.result.tally == got.result.tally, door
            assert twin.result.dp_dtype == got.result.dp_dtype, door


def check_stamps(res, ran: AlignConfig, scoring, best: int) -> None:
    """A library result records the kernel and DP dtype it ran and the
    sweep it made: no prune decision without pruning, at least one with
    it, no narrow or wide block count at int32, and an escalation where
    the best score overflows an int16 sweep."""
    assert (getattr(res, "kernel", None) or res.config.kernel) == \
        ran.concrete().kernel
    if not ran.pruning:
        assert res.blocks_checked == res.blocks_pruned == 0
    elif res.tier == "exact":
        assert res.blocks_checked > 0
    if res.tier == "exact" and ran.dp_dtype != "auto":
        assert res.dp_dtype == ran.dp_dtype
    if res.dp_dtype == "int32":
        assert res.blocks_narrow == res.blocks_wide == 0
    elif res.tier == "exact" and best > np.iinfo(np.int16).max:
        assert res.dtype_escalations > 0


def _bad_codes(kind: str, codes: np.ndarray, letters: int):
    return {
        "past the alphabet": lambda: np.append(codes, letters).astype(np.uint8),
        "negative": lambda: np.append(codes, -1).astype(np.int8),
        "float": lambda: codes.astype(np.float64),
        "2-D": lambda: np.stack([codes, codes]),
        "empty": lambda: codes[:0],
        "a list": lambda: codes.tolist(),
    }[kind]()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(comparison=comparisons(),
       kind=st.sampled_from(("past the alphabet", "negative", "float", "2-D",
                             "empty", "a list")),
       side=st.sampled_from("ab"),
       door=st.sampled_from(("single", "sim", "process", "pool", "job")))
def test_bad_codes_are_refused_at_every_door(doors, comparison, kind, side,
                                             door):
    """P6: codes no engine can score raise ConfigError before anything is
    spawned or journaled; a warm pool stays usable."""
    (pair, scoring), good = comparison, (comparison[0].a, comparison[0].b)
    bad = _bad_codes(kind, good[side == "b"], scoring.matrix.shape[0])
    a, b = (bad, good[1]) if side == "a" else (good[0], bad)
    journal, pool = EventJournal(), doors.warm_pool
    run = {
        "single": lambda: run_single_gpu(a, b, scoring, TESLA_M2090),
        "sim": lambda: align_multi_gpu(a, b, scoring, [TESLA_M2090] * 2,
                                       events=journal),
        "process": lambda: align_multi_process(a, b, scoring, workers=2,
                                               events=journal),
        "pool": lambda: pool.align(a, b, scoring),
        "job": lambda: JobSpec(a_codes=a, b_codes=b, scoring=scoring),
    }[door]
    journaled, segments = pool.events.count(), own_segments()
    with pytest.raises(ConfigError):
        run()
    assert journal.count() == 0 and pool.events.count() == journaled
    assert own_segments() == segments
    assert not pool.broken
    got = pool.align(*good, scoring)
    assert (got.score, got.best.row, got.best.col) == \
        sw_score_naive(*good, scoring)
