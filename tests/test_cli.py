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
    """An all-N query scores nothing anywhere: the report must still say
    so instead of omitting the best-score line."""
    fa = tmp_path / "a.fa"
    fb = tmp_path / "b.fa"
    fa.write_text(">q\n" + "N" * 16 + "\n")
    fb.write_text(">r\n" + "ACGT" * 4 + "AC\n")
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


@pytest.mark.parametrize("backend_args", [
    ("--backend", "sim"),
    ("--backend", "process", "--workers", "2"),
], ids=["sim", "process"])
def test_kernel_auto_without_numba_is_scalar_on_every_backend(tmp_path,
                                                               backend_args):
    """``--kernel auto`` is one static rule: in a fresh interpreter with
    ``MGSW_NO_NUMBA=1`` both backends report ``kernel=scalar``."""
    fa, fb = str(tmp_path / "a.fa"), str(tmp_path / "b.fa")
    assert main(["generate", "chr22", fa, fb, "--scale", "2e-5",
                 "--seed", "9"]) == 0
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, MGSW_NO_NUMBA="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-m", "repro.cli", "align", fa, fb,
         "--kernel", "auto", *backend_args],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert re.findall(r"kernel=(\w+)", out) == ["scalar"]
