"""Unit tests: repro.multigpu.pipeline and repro.perf.report."""

from __future__ import annotations

import pytest

from repro.device import ENV1_HETEROGENEOUS, ENV2_HOMOGENEOUS
from repro.errors import AlignmentError, ConfigError
from repro.multigpu import (
    ChainConfig,
    MultiGpuChain,
    align_and_trace,
    time_multi_gpu,
)
from repro.multigpu.pipeline import trace_best
from repro.perf import chain_report
from repro.seq import DNA_DEFAULT
from repro.sw import BestCell, stages, sw_score_naive

from helpers import count_calls, mutated_copy, random_codes


class TestAlignAndTrace:
    def test_end_to_end_homologs(self, rng):
        a = random_codes(rng, 250)
        b = mutated_copy(rng, a, 0.04)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        res = align_and_trace(a, b, DNA_DEFAULT, ENV1_HETEROGENEOUS,
                              config=ChainConfig(block_rows=32))
        assert res.score == want
        assert res.alignment.score == want
        res.alignment.validate(a, b, DNA_DEFAULT)
        assert res.gcups > 0

    def test_partitioned_traceback_path(self, rng):
        a = random_codes(rng, 200)
        b = mutated_copy(rng, a, 0.06)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        res = align_and_trace(a, b, DNA_DEFAULT, ENV2_HOMOGENEOUS,
                              config=ChainConfig(block_rows=32),
                              special_interval=32)
        assert res.alignment.score == want
        mono = align_and_trace(a, b, DNA_DEFAULT, ENV2_HOMOGENEOUS,
                               config=ChainConfig(block_rows=32),
                               special_interval=0)
        assert mono.alignment.score == want

    def test_one_host_stage1_pass(self, rng, monkeypatch):
        """The chain is stage 1; the host traceback runs stage 1 once more
        (for its special rows) and no separate cross-check pass."""
        calls = count_calls(monkeypatch, stages, "stage1_score")
        a = random_codes(rng, 200)
        b = mutated_copy(rng, a, 0.05)
        res = align_and_trace(a, b, DNA_DEFAULT, ENV2_HOMOGENEOUS,
                              config=ChainConfig(block_rows=32),
                              special_interval=32)
        assert res.alignment.score == res.score > 0
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["banded", "xdrop", "auto"])
    def test_refuses_heuristic_mode(self, rng, monkeypatch, mode):
        """A heuristic tier's score need not match the exact traceback,
        so a non-exact mode is refused before the chain runs."""
        def never(*args, **kwargs):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(MultiGpuChain, "run", never)
        a = random_codes(rng, 60)
        with pytest.raises(ConfigError, match="exact"):
            align_and_trace(a, a, DNA_DEFAULT, ENV2_HOMOGENEOUS,
                            config=ChainConfig(mode=mode))

    def test_engine_disagreement_raises(self, rng):
        """The alignment's score and end cell are checked against the
        engine's best cell."""
        a = random_codes(rng, 80)
        b = mutated_copy(rng, a, 0.05)
        res = align_and_trace(a, b, DNA_DEFAULT, ENV2_HOMOGENEOUS)
        best = res.chain.best
        assert (res.alignment.end_i - 1, res.alignment.end_j - 1) == \
            (best.row, best.col)
        for wrong in (BestCell(best.score + 1, best.row, best.col),
                      BestCell(best.score, best.row - 1, best.col)):
            with pytest.raises(AlignmentError, match="disagree"):
                trace_best(a, b, DNA_DEFAULT, wrong)

    def test_empty_alignment(self, rng):
        import numpy as np
        a = np.zeros(20, dtype=np.uint8)       # AAAA...
        b = np.full(20, 3, dtype=np.uint8)     # TTTT...
        res = align_and_trace(a, b, DNA_DEFAULT, ENV2_HOMOGENEOUS)
        assert res.score == 0
        assert res.alignment.ops == ""

    def test_random_pairs(self, rng):
        for _ in range(5):
            a = random_codes(rng, int(rng.integers(30, 150)))
            b = random_codes(rng, int(rng.integers(30, 150)))
            want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
            res = align_and_trace(a, b, DNA_DEFAULT, ENV2_HOMOGENEOUS,
                                  config=ChainConfig(block_rows=16))
            assert res.score == want


class TestChainReport:
    def test_report_sections(self):
        res = time_multi_gpu(1_000_000, 1_000_000, ENV1_HETEROGENEOUS,
                             config=ChainConfig(block_rows=4096))
        text = chain_report(res, title="unit test")
        assert "== unit test ==" in text
        assert "GCUPS" in text
        assert "GTX 580" in text and "Tesla K20" in text
        assert "channel" in text
        assert "block_rows=4096" in text

    def test_report_single_device_no_channels(self):
        res = time_multi_gpu(100_000, 100_000, ENV1_HETEROGENEOUS[:1])
        text = chain_report(res)
        assert "channel" not in text

    def test_report_includes_score_in_compute_mode(self, rng):
        from repro.multigpu import align_multi_gpu
        a = random_codes(rng, 60)
        res = align_multi_gpu(a, a, DNA_DEFAULT, ENV2_HOMOGENEOUS)
        text = chain_report(res)
        assert f"best score: {res.score}" in text

    def test_pruning_line_counts_swept_cells(self, rng):
        """An exact pruned sweep reports the cells it swept out of m x n;
        an auto run the band answered swept nothing and prints no
        pruning line (it used to print ``0/0 blocks pruned``)."""
        from repro.multigpu import align_multi_gpu, align_multi_process
        from repro.perf import process_report

        a = random_codes(rng, 400)
        b = mutated_copy(rng, a, 0.02)
        for mode in ("exact", "auto"):
            sim = align_multi_gpu(a, b, DNA_DEFAULT, ENV2_HOMOGENEOUS,
                                  config=ChainConfig(block_rows=64, mode=mode))
            real = align_multi_process(a, b, DNA_DEFAULT, workers=2,
                                       block_rows=64, mode=mode)
            for res, text in ((sim, chain_report(sim)),
                              (real, process_report(real))):
                lines = [line for line in text.splitlines()
                         if line.startswith("pruning:")]
                if res.tier == "exact":
                    assert 0 < res.cells_swept < res.cells
                    share = f"({res.cells_swept / res.cells:.1%})"
                    assert len(lines) == 1 and share in lines[0]
                    assert lines[0].endswith("block rows pruned whole")
                else:
                    assert lines == [] and res.blocks_checked == 0
        assert real.tier == sim.tier == "banded"

    def test_json_dict_roundtrips_through_json(self, rng):
        import json

        from repro.multigpu import align_multi_gpu
        from repro.perf import chain_result_dict

        a = random_codes(rng, 60)
        res = align_multi_gpu(a, a, DNA_DEFAULT, ENV2_HOMOGENEOUS)
        d = chain_result_dict(res)
        back = json.loads(json.dumps(d))
        assert back["score"] == res.score
        assert back["gcups"] == pytest.approx(res.gcups)
        assert len(back["devices"]) == 2
        assert len(back["channels"]) == 1
        # Pruning is on: the devices computed the swept cells of m x n.
        assert back["devices"][0]["cells"] + back["devices"][1]["cells"] \
            == back["pruning"]["cells_swept"] == res.cells_swept

    def test_json_dict_phantom_has_null_score(self):
        from repro.perf import chain_result_dict

        res = time_multi_gpu(10_000, 10_000, ENV2_HOMOGENEOUS)
        d = chain_result_dict(res)
        assert d["score"] is None and d["end"] is None
