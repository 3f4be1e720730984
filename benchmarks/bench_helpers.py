"""Shared helpers for the benchmark harness (see conftest for fixtures).

Each ``test_*`` module regenerates one table or figure of the paper's
evaluation (see DESIGN.md's experiment index) and prints the reproduced
rows; ``pytest benchmarks/ --benchmark-only -s`` shows them.  The
pytest-benchmark timings measure the *harness* (simulator wall time);
the scientific quantities — GCUPS, speedups, overhead fractions — are
virtual-clock results printed in the tables and asserted as shape checks.
"""

from __future__ import annotations

import os
import platform
import shlex
import subprocess
from pathlib import Path

from repro.multigpu import ChainConfig

#: Block-row height used by the paper-scale timing runs.
PAPER_BLOCK_ROWS = 8192

#: Circular-buffer capacity used unless an experiment sweeps it.
PAPER_BUFFER = 8


def paper_config(**overrides) -> ChainConfig:
    base = dict(block_rows=PAPER_BLOCK_ROWS, channel_capacity=PAPER_BUFFER)
    base.update(overrides)
    return ChainConfig(**base)


def print_header(experiment: str, claim: str) -> None:
    print()
    print(f"=== {experiment} ===")
    print(f"paper claim: {claim}")


def host_stamp() -> dict:
    """What a wall-clock record's figures depend on besides the code:
    cores, CPU model, Python, NumPy and the C compiler.  Records from
    different stamps are not compared."""
    import numpy

    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        cc = subprocess.run([*shlex.split(os.environ.get("CC") or "cc"),
                             "--version"], capture_output=True, text=True,
                            timeout=30, check=True).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, ValueError, IndexError):
        cc = None
    return {
        "cores": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": cc,
    }
