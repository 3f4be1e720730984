"""Unit tests: repro.sw.rowstore and the crossing-point align_local."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.seq import DNA_DEFAULT
from repro.sw import (
    BudgetedRowStore,
    align_local,
    stage1_score,
    stage2_with_crossings,
    sw_score_naive,
)
from repro.sw import stages

from helpers import mutated_copy, random_codes


class TestBudgetedRowStore:
    def test_memory_only_when_budget_large(self, rng, tmp_path):
        with BudgetedRowStore(8, max_memory_bytes=10**9,
                              spill_dir=str(tmp_path)) as store:
            a = random_codes(rng, 64)
            stage1_score(a, a, DNA_DEFAULT, row_store=store)
            assert store.stats.rows_spilled == 0
            assert store.stats.rows_in_memory == 8

    def test_spills_beyond_budget(self, rng, tmp_path):
        with BudgetedRowStore(8, max_memory_bytes=1024,
                              spill_dir=str(tmp_path)) as store:
            a = random_codes(rng, 128)
            stage1_score(a, a, DNA_DEFAULT, row_store=store)
            assert store.stats.rows_spilled > 0
            assert store.stats.bytes_in_memory <= 1024
            assert len(os.listdir(tmp_path)) == store.stats.rows_spilled

    def test_load_identical_from_both_tiers(self, rng, tmp_path):
        """Values must be identical whether a row stayed in RAM or spilled."""
        a = random_codes(rng, 96)
        with BudgetedRowStore(8, max_memory_bytes=10**9) as ram:
            s1 = stage1_score(a, a, DNA_DEFAULT, row_store=ram)
            with BudgetedRowStore(8, max_memory_bytes=0,
                                  spill_dir=str(tmp_path)) as disk:
                stage1_score(a, a, DNA_DEFAULT, row_store=disk)
                for r in ram.row_indices():
                    h1, f1 = ram.load(r)
                    h2, f2 = disk.load(r)
                    assert np.array_equal(h1, h2)
                    assert np.array_equal(f1, f2)
                assert disk.stats.spill_reads == len(ram.row_indices())
        del s1

    def test_crossings_work_through_spill(self, rng, tmp_path):
        a = random_codes(rng, 150)
        b = mutated_copy(rng, a, 0.05)
        with BudgetedRowStore(32, max_memory_bytes=0,
                              spill_dir=str(tmp_path)) as store:
            s1 = stage1_score(a, b, DNA_DEFAULT, row_store=store)
            _, _, cps = stage2_with_crossings(a, b, DNA_DEFAULT, s1)
            assert cps  # crossings found via the disk tier
            assert store.stats.spill_reads == len(cps)

    def test_close_removes_spill_files(self, rng, tmp_path):
        store = BudgetedRowStore(8, max_memory_bytes=0, spill_dir=str(tmp_path))
        a = random_codes(rng, 64)
        stage1_score(a, a, DNA_DEFAULT, row_store=store)
        assert os.listdir(tmp_path)
        store.close()
        assert not os.listdir(tmp_path)
        with pytest.raises(ConfigError):
            store.store(0, np.zeros(1, np.int32), np.zeros(1, np.int32))

    def test_missing_row_keyerror(self):
        with BudgetedRowStore(4) as store:
            with pytest.raises(KeyError):
                store.load(99)

    def test_validation(self):
        with pytest.raises(ConfigError):
            BudgetedRowStore(0)
        with pytest.raises(ConfigError):
            BudgetedRowStore(4, max_memory_bytes=-1)

    def test_spill_dir_made_on_first_spill(self, rng, tmp_path, monkeypatch):
        """An owned spill directory exists only once a row spills, and
        close removes it."""
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        a = random_codes(rng, 64)
        with BudgetedRowStore(8) as ram:
            stage1_score(a, a, DNA_DEFAULT, row_store=ram)
            assert ram.stats.rows_in_memory == 8
            assert os.listdir(tmp_path) == []
        with BudgetedRowStore(8, max_memory_bytes=0) as disk:
            stage1_score(a, a, DNA_DEFAULT, row_store=disk)
            assert len(os.listdir(tmp_path)) == 1
        assert os.listdir(tmp_path) == []

class TestPartitionedAlignment:
    def test_equals_oracle_on_homologs(self, rng):
        for snp in (0.02, 0.1, 0.25):
            a = random_codes(rng, 250)
            b = mutated_copy(rng, a, snp)
            want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
            aln = align_local(a, b, DNA_DEFAULT,
                              special_interval=32, base_cells=64)
            assert aln.score == want
            aln.validate(a, b, DNA_DEFAULT)

    def test_equals_monolithic_pipeline(self, rng):
        a = random_codes(rng, 200)
        b = mutated_copy(rng, a, 0.05)
        mono = align_local(a, b, DNA_DEFAULT, special_interval=0)
        part = align_local(a, b, DNA_DEFAULT, special_interval=32)
        assert part.score == mono.score
        assert (part.start_i, part.end_i) == (mono.start_i, mono.end_i)

    def test_random_unrelated_sequences(self, rng):
        for _ in range(10):
            a = random_codes(rng, int(rng.integers(20, 120)))
            b = random_codes(rng, int(rng.integers(20, 120)))
            want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
            aln = align_local(a, b, DNA_DEFAULT,
                              special_interval=16, base_cells=32)
            assert aln.score == want
            aln.validate(a, b, DNA_DEFAULT)

    def test_empty_result(self):
        from repro.seq import encode
        aln = align_local(encode("AAAA"), encode("TTTT"), DNA_DEFAULT,
                          special_interval=2)
        assert aln.score == 0 and aln.ops == ""

    def test_requires_interval(self, rng):
        """A negative interval is refused; 0 is the monolithic path."""
        a = random_codes(rng, 10)
        with pytest.raises(ConfigError):
            align_local(a, a, DNA_DEFAULT, special_interval=-1)
        assert align_local(a, a, DNA_DEFAULT, special_interval=0).score == \
            align_local(a, a, DNA_DEFAULT, special_interval=2).score

    def test_with_indels(self, rng):
        a = random_codes(rng, 300)
        b = mutated_copy(rng, a, 0.05)
        b = np.concatenate([b[:100], b[110:]])  # 10-base deletion
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        aln = align_local(a, b, DNA_DEFAULT, special_interval=64)
        assert aln.score == want
        aln.validate(a, b, DNA_DEFAULT)

    def test_leaves_no_spill_files(self, rng, tmp_path, monkeypatch):
        """align_local closes its row store on success and on error: with
        every row spilled under TMPDIR, nothing is left behind."""
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        made = []

        def spilling_store(interval):
            made.append(BudgetedRowStore(interval, max_memory_bytes=0))
            return made[-1]

        monkeypatch.setattr(stages, "BudgetedRowStore", spilling_store)
        a = random_codes(rng, 120)
        b = mutated_copy(rng, a, 0.05)
        want, *_ = sw_score_naive(a, b, DNA_DEFAULT)
        assert align_local(a, b, DNA_DEFAULT, special_interval=8).score == want
        assert made[-1].stats.rows_spilled > 0
        assert os.listdir(tmp_path) == []

        def boom(*args, **kwargs):
            raise RuntimeError("stage 2 failed")

        monkeypatch.setattr(stages, "stage2_with_crossings", boom)
        with pytest.raises(RuntimeError):
            align_local(a, b, DNA_DEFAULT, special_interval=8)
        assert made[-1].stats.rows_spilled > 0
        assert os.listdir(tmp_path) == []
