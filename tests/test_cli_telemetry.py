"""Integration tests: mgsw --telemetry and the mgsw perf subcommands."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import (
    load_chrome_trace,
    load_manifest,
    validate_chrome_trace,
    validate_manifest,
)


@pytest.fixture
def fasta_pair(tmp_path):
    fa = str(tmp_path / "a.fa")
    fb = str(tmp_path / "b.fa")
    assert main(["generate", "chr22", fa, fb, "--scale", "3e-5",
                 "--seed", "7"]) == 0
    return fa, fb


def _run_align(fasta_pair, outdir, *extra):
    fa, fb = fasta_pair
    return main(["align", fa, fb, "--block-rows", "64",
                 "--telemetry", str(outdir), *extra])


class TestAlignTelemetry:
    def test_sim_backend_writes_valid_bundle(self, fasta_pair, tmp_path, capsys):
        out = tmp_path / "tel"
        assert _run_align(fasta_pair, out) == 0
        stdout = capsys.readouterr().out
        assert "telemetry written to" in stdout

        manifest = load_manifest(out / "manifest.json")
        validate_manifest(manifest)
        assert manifest["backend"] == "sim"
        assert set(manifest["sequences"]) == {"a", "b"}
        assert manifest["wall_time_s"] > 0
        # The CLI records its own argv for reproducibility.
        assert "--telemetry" in manifest["command"]

        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics == manifest["metrics"]
        assert metrics["counters"]["blocks_computed"]["series"]

        prom = (out / "metrics.prom").read_text()
        assert "# TYPE blocks_computed counter" in prom

        trace = load_chrome_trace(out / "trace.json")
        validate_chrome_trace(trace)
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_process_backend_writes_valid_bundle(self, fasta_pair, tmp_path,
                                                 capsys):
        out = tmp_path / "tel"
        assert _run_align(fasta_pair, out, "--backend", "process",
                          "--workers", "2") == 0
        capsys.readouterr()
        manifest = load_manifest(out / "manifest.json")
        validate_manifest(manifest)
        assert manifest["backend"] == "process"
        assert manifest["config"]["workers"] == 2
        # Telemetry arms the heartbeat by default on this backend.
        assert manifest["config"]["heartbeat_s"] == 5.0
        counters = manifest["metrics"]["counters"]
        per_worker = {s["labels"]["device"]: s["value"]
                      for s in counters["blocks_computed"]["series"]}
        assert set(per_worker) == {"worker0", "worker1"}
        validate_chrome_trace(load_chrome_trace(out / "trace.json"))

    def test_inline_tier_manifest_names_the_parent(self, fasta_pair,
                                                    tmp_path, capsys):
        """``--mode banded`` answers in the CLI process: the result's one
        compute entry is the parent, with the parent's compute spans, not
        a ``worker0`` that never ran."""
        out = tmp_path / "tel"
        assert _run_align(fasta_pair, out, "--backend", "process",
                          "--mode", "banded") == 0
        capsys.readouterr()
        result = load_manifest(out / "manifest.json")["result"]
        assert result["config"]["workers"] == 0
        [entry] = result["workers"]
        assert entry["name"] == "parent"
        assert entry["compute_s"] > 0

    def test_heartbeat_zero_disables_watchdog(self, fasta_pair, tmp_path,
                                              capsys):
        out = tmp_path / "tel"
        assert _run_align(fasta_pair, out, "--backend", "process",
                          "--heartbeat-s", "0") == 0
        capsys.readouterr()
        manifest = load_manifest(out / "manifest.json")
        assert manifest["config"]["heartbeat_s"] is None

    def test_both_backends_write_one_config_block(self, fasta_pair, tmp_path,
                                                 capsys):
        """The same non-default flags land under the same manifest keys
        with the same values on both backends."""
        flags = ("--buffer", "3", "--kernel", "batched", "--pruning",
                 "--mode", "banded", "--band-width", "32", "--xdrop-x", "7",
                 "--dp-dtype", "int32")
        configs = {}
        for backend in ("sim", "process"):
            out = tmp_path / backend
            assert _run_align(fasta_pair, out, "--backend", backend,
                              *flags) == 0
            configs[backend] = load_manifest(out / "manifest.json")["config"]
        capsys.readouterr()
        keys = ("block_rows", "kernel", "pruning", "mode", "band_width",
                "xdrop_x", "dp_dtype", "capacity")
        sim, proc = ({k: c[k] for k in keys}
                     for c in (configs["sim"], configs["process"]))
        assert sim == proc == {
            "block_rows": 64, "kernel": "batched", "pruning": True,
            "mode": "banded", "band_width": 32, "xdrop_x": 7,
            "dp_dtype": "int32", "capacity": 3}

    def test_report_and_manifest_record_the_floor(self, fasta_pair, tmp_path,
                                                  capsys):
        """Pruning is on by default: both backends print the seeded floor
        and the manifest records its score, source, anchors and seconds;
        --no-pruning prints none and records source ``none``."""
        for backend in ("sim", "process"):
            out = tmp_path / backend
            assert _run_align(fasta_pair, out, "--backend", backend) == 0
            stdout = capsys.readouterr().out
            result = load_manifest(out / "manifest.json")["result"]
            floor = result["floor"]
            assert set(floor) == {"score", "source", "anchors", "seconds"}
            assert floor["source"] == "anchor-chain"
            assert 0 < floor["score"] <= result["score"]
            assert floor["anchors"] > 0 and floor["seconds"] >= 0
            assert f"floor: {floor['score']} from anchor-chain" in stdout

            off = tmp_path / f"{backend}-off"
            assert _run_align(fasta_pair, off, "--backend", backend,
                              "--no-pruning") == 0
            assert "floor:" not in capsys.readouterr().out
            off_result = load_manifest(off / "manifest.json")["result"]
            assert off_result["floor"]["source"] == "none"
            assert (off_result["score"], off_result["end"]) == \
                (result["score"], result["end"])

    def test_align_without_telemetry_writes_nothing(self, fasta_pair, tmp_path,
                                                    capsys):
        fa, fb = fasta_pair
        assert main(["align", fa, fb, "--block-rows", "64"]) == 0
        assert "telemetry written" not in capsys.readouterr().out
        assert list(tmp_path.glob("*/manifest.json")) == []


class TestPerfTraceExport:
    def test_export_writes_loadable_trace(self, fasta_pair, tmp_path, capsys):
        fa, fb = fasta_pair
        out = tmp_path / "trace.json"
        assert main(["perf", "trace-export", fa, fb, "--out", str(out),
                     "--workers", "2"]) == 0
        stdout = capsys.readouterr().out
        assert "trace events" in stdout
        doc = load_chrome_trace(out)
        validate_chrome_trace(doc)
        assert doc["otherData"]["actors"]  # at least one worker track

    def test_export_sim_backend(self, fasta_pair, tmp_path, capsys):
        fa, fb = fasta_pair
        out = tmp_path / "trace.json"
        assert main(["perf", "trace-export", fa, fb, "--out", str(out),
                     "--backend", "sim"]) == 0
        capsys.readouterr()
        validate_chrome_trace(load_chrome_trace(out))


class TestPerfDiff:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc))
        return str(path)

    def test_report_only_by_default(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"gcups": 10.0})
        new = self._write(tmp_path / "new.json", {"gcups": 5.0})
        assert main(["perf", "diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "REGRESSED" in out

    def test_fail_on_regression_exits_nonzero(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"gcups": 10.0})
        new = self._write(tmp_path / "new.json", {"gcups": 5.0})
        assert main(["perf", "diff", old, new, "--fail-on-regression"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_clean_diff_passes_even_with_fail_flag(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"gcups": 10.0})
        new = self._write(tmp_path / "new.json", {"gcups": 10.2})
        assert main(["perf", "diff", old, new, "--fail-on-regression"]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_threshold_flag_widens_tolerance(self, tmp_path, capsys):
        old = self._write(tmp_path / "old.json", {"wall_time_s": 1.0})
        new = self._write(tmp_path / "new.json", {"wall_time_s": 1.08})
        assert main(["perf", "diff", old, new, "--threshold", "0.10",
                     "--fail-on-regression"]) == 0
        capsys.readouterr()

    def test_diff_two_manifests_end_to_end(self, fasta_pair, tmp_path, capsys):
        """Two real telemetry runs of the same workload diff cleanly
        (identity keys and histogram internals never regress)."""
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert _run_align(fasta_pair, out1) == 0
        assert _run_align(fasta_pair, out2) == 0
        capsys.readouterr()
        rc = main(["perf", "diff", str(out1 / "manifest.json"),
                   str(out2 / "manifest.json")])
        assert rc == 0
        assert "regression(s)" in capsys.readouterr().out
