"""Integration tests: the mgsw command-line interface."""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import main


def test_devices_lists_presets(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    assert "GTX 680" in out
    assert "env1" in out and "140.4" in out


def test_transport_choices_are_the_engines():
    """The parser names the transports without loading the engine."""
    from repro import cli
    from repro.multigpu.front import TRANSPORTS

    assert cli.TRANSPORTS == TRANSPORTS


def test_generate_then_align(tmp_path, capsys):
    fa = str(tmp_path / "a.fa")
    fb = str(tmp_path / "b.fa")
    assert main(["generate", "chr22", fa, fb, "--scale", "2e-4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out

    assert main(["align", fa, fb, "--block-rows", "256"]) == 0
    out = capsys.readouterr().out
    assert "score:" in out
    assert "GCUPS" in out
    assert "GTX 580" in out


def test_align_with_trace(tmp_path, capsys):
    fa = str(tmp_path / "a.fa")
    fb = str(tmp_path / "b.fa")
    main(["generate", "chr22", fa, fb, "--scale", "3e-5"])
    capsys.readouterr()
    assert main(["align", fa, fb, "--trace", "--gpu", "gtx680", "--gpu", "k20"]) == 0
    out = capsys.readouterr().out
    assert "a: " in out  # pretty-printed alignment block


def test_time_subcommand(capsys):
    assert main(["time", "1000000", "2000000", "--env", "env2",
                 "--block-rows", "1024"]) == 0
    out = capsys.readouterr().out
    assert "GCUPS" in out
    assert "M2090" in out


def test_missing_file_reports_error(capsys):
    assert main(["align", "/nonexistent/a.fa", "/nonexistent/b.fa"]) == 1
    assert "error:" in capsys.readouterr().err


def test_generate_rejects_unknown_pair():
    with pytest.raises(SystemExit):
        main(["generate", "chrX", "a.fa", "b.fa"])


def test_tune_subcommand(capsys):
    assert main(["tune", "5000000", "5000000", "--env", "env2", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "choice" in out and "simulated:" in out


def test_stats_subcommand(capsys):
    assert main(["stats", "1000000", "1000000", "--samples", "25"]) == 0
    out = capsys.readouterr().out
    assert "lambda" in out and "E-value" in out


def test_dotplot_subcommand(tmp_path, capsys):
    fa = str(tmp_path / "a.fa")
    fb = str(tmp_path / "b.fa")
    main(["generate", "chr22", fa, fb, "--scale", "1e-4"])
    capsys.readouterr()
    assert main(["dotplot", fa, fb, "--tiles", "8"]) == 0
    out = capsys.readouterr().out
    assert "diagonal fraction" in out
    assert "@" in out  # the homology diagonal


def test_campaign_subcommand(capsys):
    assert main(["campaign", "--env", "env2", "--block-rows", "8192",
                 "--buffer", "8"]) == 0
    out = capsys.readouterr().out
    assert "chained:" in out and "split:" in out
    assert "chr19" in out


@pytest.mark.parametrize("backend", ["sim", "process"])
def test_align_reports_a_zero_optimum(tmp_path, capsys, backend):
    """A query that shares no base with the reference scores nothing
    anywhere: the report must still say so instead of omitting the
    best-score line.  (An all-N query is refused at the read.)"""
    fa = tmp_path / "a.fa"
    fb = tmp_path / "b.fa"
    fa.write_text(">q\n" + "A" * 16 + "\n")
    fb.write_text(">r\n" + "CGT" * 6 + "\n")
    assert main(["align", str(fa), str(fb), "--backend", backend]) == 0
    assert "best score: 0 (no positive-scoring cell)" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["sim", "process"])
def test_align_refuses_a_protein_fasta(tmp_path, capsys, backend):
    """A letter that is neither DNA nor IUPAC is refused with a message
    naming the file and the letter, before any worker or segment is
    made; IUPAC codes and lowercase stay accepted."""
    import multiprocessing as mp

    from repro.comm import list_segments

    prot = tmp_path / "prot.fa"
    dna = tmp_path / "dna.fa"
    prot.write_text(">p\nLQEFPILLEQ\n")
    dna.write_text(">d\nACGTacgtRYNNacgtACGT\n")
    before = list_segments()
    assert main(["align", str(prot), str(dna), "--backend", backend]) == 1
    err = capsys.readouterr().err
    assert str(prot) in err and "'L'" in err
    assert list_segments() == before
    assert mp.active_children() == []
    assert main(["align", str(dna), str(dna), "--backend", backend]) == 0
    assert "best score: 8 ending at (7, 7)" in capsys.readouterr().out


@pytest.mark.parametrize("backend", ["sim", "process"])
def test_align_refuses_an_all_n_fasta(tmp_path, capsys, backend):
    """An all-N record is refused at the read, naming the file, before
    any worker or segment is made."""
    import multiprocessing as mp

    from repro.comm import list_segments

    alln = tmp_path / "alln.fa"
    dna = tmp_path / "dna.fa"
    alln.write_text(">gap\n" + "N" * 40 + "\n")
    dna.write_text(">d\nACGTacgtRYNNacgtACGT\n")
    before = list_segments()
    assert main(["align", str(alln), str(dna), "--backend", backend]) == 1
    err = capsys.readouterr().err
    assert str(alln) in err and "all N" in err
    assert list_segments() == before
    assert mp.active_children() == []


@pytest.mark.parametrize("command", [("dotplot",), ("perf", "trace-export")],
                         ids=["dotplot", "trace-export"])
def test_fasta_subcommands_refuse_a_protein_fasta(tmp_path, capsys, command):
    """``dotplot`` and ``perf trace-export`` read FASTA as strictly as
    ``align``: a non-DNA letter is refused naming the file and the letter,
    before anything runs; IUPAC codes and lowercase stay accepted."""
    from repro.comm import list_segments

    prot = tmp_path / "prot.fa"
    dna = tmp_path / "dna.fa"
    prot.write_text(">p\nLQEFPILLEQ\n")
    dna.write_text(">d\nACGTacgtRYNNacgtACGT\n")
    out = tmp_path / "trace.json"
    extra = ["--out", str(out)] if command[0] == "perf" else ["--tiles", "4"]
    before = list_segments()
    assert main([*command, str(prot), str(dna), *extra]) == 1
    err = capsys.readouterr().err
    assert str(prot) in err and "'L'" in err
    assert list_segments() == before
    assert not out.exists()
    assert main([*command, str(dna), str(dna), *extra]) == 0


@pytest.mark.parametrize("backend", ["sim", "process"])
@pytest.mark.parametrize("mode", ["banded", "xdrop", "auto"])
def test_trace_refuses_a_heuristic_mode(tmp_path, capsys, backend, mode):
    """``--trace`` prints an exact alignment, so it is refused with a
    heuristic tier — before any FASTA is read (the files do not exist)
    and before any worker or segment is made."""
    import multiprocessing as mp

    from repro.comm import list_segments

    missing = str(tmp_path / "missing.fa")
    before = list_segments()
    assert main(["align", missing, missing, "--trace", "--mode", mode,
                 "--backend", backend]) == 1
    err = capsys.readouterr().err
    assert "exact" in err and "missing.fa" not in err
    assert list_segments() == before
    assert mp.active_children() == []


@pytest.mark.parametrize("backend", ["sim", "process"])
def test_trace_runs_one_host_stage1_pass(tmp_path, capsys, monkeypatch,
                                         backend):
    """``--trace`` reuses the engine's answer as the cross-check: the
    host runs stage 1 once (inside align_local), on both backends."""
    from helpers import count_calls
    from repro.sw import stages

    calls = count_calls(monkeypatch, stages, "stage1_score")
    fa = str(tmp_path / "a.fa")
    fb = str(tmp_path / "b.fa")
    main(["generate", "chr22", fa, fb, "--scale", "3e-5"])
    capsys.readouterr()
    assert main(["align", fa, fb, "--trace", "--backend", backend]) == 0
    out = capsys.readouterr().out
    assert "best score: " in out and "a: " in out
    assert len(calls) == 1


@pytest.mark.parametrize("backend_args", [
    ("--backend", "sim"),
    ("--backend", "process", "--workers", "2"),
], ids=["sim", "process"])
def test_kernel_auto_without_numba_is_scalar_on_every_backend(tmp_path,
                                                               backend_args):
    """``--kernel auto`` is one static rule: in a fresh interpreter with
    no C engine (``CC=false``, an empty cache) and no numba, which no
    kernel uses any more, both backends report ``kernel=scalar``."""
    fa, fb = str(tmp_path / "a.fa"), str(tmp_path / "b.fa")
    assert main(["generate", "chr22", fa, fb, "--scale", "2e-5",
                 "--seed", "9"]) == 0
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, CC="false", XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "align", fa, fb,
         "--kernel", "auto", *backend_args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert re.findall(r"kernel=(\w+)", out) == ["scalar"]


@pytest.mark.parametrize("mode", ["auto", "banded"])
def test_inline_process_report_is_pinned(tmp_path, capsys, mode):
    """A band-answered process align prints the report it always did:
    the same lines, the chain it did not use (transport, start method)
    on the config line and the tier line; only the timing digits move."""
    from repro.multigpu.procchain import pick_context
    from repro.sw import resolve_kernel

    fa, fb = str(tmp_path / "a.fa"), str(tmp_path / "b.fa")
    assert main(["generate", "chr22", fa, fb, "--scale", "2e-5",
                 "--seed", "5"]) == 0
    capsys.readouterr()
    assert main(["align", fa, fb, "--backend", "process",
                 "--mode", mode]) == 0
    out = re.sub(r"wall time: [\d.:]+( ms)?   throughput: [\d.]+ GCUPS",
                 "wall time: T   throughput: G GCUPS",
                 capsys.readouterr().out)
    start_method = pick_context().get_start_method()
    assert out.splitlines() == [
        f"== {fa} vs {fb} ==",
        "matrix: 492803 cells   wall time: T   throughput: G GCUPS",
        "best score: 649 ending at (700, 700)",
        f"config: workers=0 transport=shm start_method={start_method} "
        f"kernel={resolve_kernel('auto')} block_rows=64 pruning=on",
        f"tier: mode={mode} answered_by=banded escalated=no",
    ]
