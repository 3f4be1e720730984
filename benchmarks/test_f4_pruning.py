"""F4 — block pruning vs sequence similarity (single-GPU optimisation).

Paper lineage: CUDAlign's block pruning skips matrix blocks that provably
cannot improve the best score; its effectiveness grows with sequence
similarity (the human-chimp workloads are highly similar).  The harness
runs compute-mode single-GPU comparisons over an identity sweep and
prints pruned fraction and effective GCUPS uplift.
"""

from __future__ import annotations

from repro.baselines import run_single_gpu
from repro.device import GTX_680
from repro.perf import format_table
from repro.seq import DNA_DEFAULT
from repro.workloads import identity_pair

from bench_helpers import print_header

LENGTH = 1500


def run(identity: float):
    a, b = identity_pair(LENGTH, identity, seed=1)
    plain = run_single_gpu(a, b, DNA_DEFAULT, GTX_680, block_rows=64,
                           pruning=False)
    pruned = run_single_gpu(a, b, DNA_DEFAULT, GTX_680, block_rows=64, pruning=True)
    return plain, pruned


def test_f4_pruning_vs_similarity(benchmark):
    print_header("F4 pruning", "block pruning skips more work as similarity rises")
    rows = []
    fractions = []
    for identity in (0.5, 0.7, 0.9, 0.99):
        plain, pruned = run(identity)
        assert pruned.score == plain.score  # pruning is exact
        uplift = pruned.gcups / plain.gcups
        fractions.append(pruned.pruned_fraction)
        rows.append([
            f"{identity:.0%}", str(plain.score),
            f"{pruned.pruned_fraction:.1%}", f"{uplift:.2f}x",
        ])
    print(format_table(["identity", "score", "cells pruned", "GCUPS uplift"], rows))

    # Monotone (weakly) increasing pruning with similarity, and substantial
    # pruning at human-chimp-like identity.
    assert all(b >= a - 0.02 for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] > 0.4

    benchmark(run, 0.95)
