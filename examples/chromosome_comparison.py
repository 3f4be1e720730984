#!/usr/bin/env python3
"""Full chromosome-comparison pipeline: score, start point, alignment.

Mirrors the paper's end-to-end flow on a scaled chr21 homolog pair:

1. stage 1 distributed over the multi-GPU chain (exact score + end point),
2. stage 2: one anchored reverse pass finds the start point
   (early-terminated) and the crossing points on the saved special rows,
3. stage 3 Myers-Miller linear-space alignment, validated by re-scoring.

``repro.sw.align_local`` runs the same stages in one call, splitting
stage 3 at the crossing points.

Run:  python examples/chromosome_comparison.py
"""

from repro import ChainConfig, align_multi_gpu
from repro.device import ENV1_HETEROGENEOUS
from repro.seq import DNA_DEFAULT
from repro.sw import stage1_score, stage2_with_crossings, stage3_align
from repro.workloads import get_pair, synthesize_pair


def main() -> None:
    pair = get_pair("chr21")
    human, chimp = synthesize_pair(pair, scale=1e-4, seed=7)
    print(f"{pair.name}: {human.size:,} bp vs {chimp.size:,} bp (scaled stand-in)\n")

    # Stage 1 on the simulated multi-GPU chain — the distributed part.
    chain = align_multi_gpu(human, chimp, DNA_DEFAULT, ENV1_HETEROGENEOUS,
                            config=ChainConfig(block_rows=256))
    print(f"[stage 1] score={chain.score} end=({chain.best.row},{chain.best.col}) "
          f"{chain.gcups:.1f} GCUPS virtual")

    # Host-side stage 1 re-run to collect special rows for the traceback
    # stages (the real system spills these to disk during stage 1).
    s1 = stage1_score(human, chimp, DNA_DEFAULT, special_interval=512)
    assert s1.score == chain.score

    with s1.special_rows:  # closing the store removes any spilled rows
        si, sj, crossings = stage2_with_crossings(human, chimp, DNA_DEFAULT, s1)
    print(f"[stage 2] alignment starts at ({si},{sj}); optimal path crossings "
          f"on {len(crossings)} special rows "
          f"(first 3: {[(c.row, c.col) for c in crossings[:3]]})")

    aln = stage3_align(human, chimp, DNA_DEFAULT, s1.score,
                       (si, sj), (s1.end_i, s1.end_j))
    aln.validate(human, chimp, DNA_DEFAULT)
    print(f"[stage 3] alignment length={aln.length} columns, "
          f"identity={aln.identity(human, chimp):.1%}, CIGAR head: {aln.cigar()[:60]}...")
    print()
    print(aln.pretty(human, chimp, width=80, max_lines=4))


if __name__ == "__main__":
    main()
