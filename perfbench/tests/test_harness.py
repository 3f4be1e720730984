"""Tests of the benchmark harness's own logic (not of the program).

Run with ``python3 -m pytest perfbench/tests -q`` from the checkout root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import common, compare  # noqa: E402
from perfbench.serve_bench import Job, Mix, build_mix, check  # noqa: E402


@pytest.mark.parametrize("n, pct", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10_000, 99.9),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, pct):
    assert common.supported_percentile(n) == pct


def test_describe_prints_sample_count_and_supported_percentile():
    text = common.describe([0.1] * 50 + [0.2] * 50)
    assert "n=100" in text and "p90 0.2000" in text
    assert "highest supported percentile: none" in common.describe([1.0] * 5)


def test_percentile_interpolates_like_inclusive_quantiles():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    assert common.percentile(values, 25) == pytest.approx(q1)
    assert common.percentile(values, 50) == pytest.approx(q2)
    assert common.percentile(values, 75) == pytest.approx(q3)


def test_refused_job_misses_the_latency_limit():
    tally = common.Tally()
    for _ in range(3):
        tally.ok()
    tally.fail("429: queue full")
    assert tally.attempted == 4 and tally.failed == 1
    assert tally.failed_frac == pytest.approx(0.25)
    # Three answered fast, the refused one has no latency: 3 of 4 met.
    assert tally.within_limit([0.1, 0.2, 0.3], 1.0) == pytest.approx(0.75)
    assert tally.correct  # a refusal is a failure, not a wrong answer


def test_wrong_answer_and_leak_make_the_run_incorrect():
    wrong, leak = common.Tally(), common.Tally()
    wrong.fail("printed (1, 2, 3), reference (1, 2, 4)", wrong=True)
    leak.fail("leaked shm:mgswring_1", leak=True)
    assert not wrong.correct and not leak.correct


def _mix(records):
    jobs = []
    for due, pair, record, error in records:
        job = Job(due, pair, "short", latency=None if error else 0.05,
                  record=record, error=error)
        jobs.append(job)
    return Mix(pairs=[None, None], texts=[], jobs=jobs,
               refs=[(10, 4, 5), (7, 1, 1)])


def _record(score, row, col, cached=False, wall=0.01):
    return {"cached": cached, "result": {"score": score, "row": row,
                                         "col": col, "wall_time_s": wall}}


def test_serve_check_counts_refusals_mismatches_and_divergent_hits():
    mix = _mix([
        (0.0, 0, _record(10, 4, 5), None),              # cold, correct
        (1.0, 1, _record(7, 1, 2), None),               # wrong end cell
        (2.0, 0, _record(10, 4, 5, True, 0.02), None),  # hit != cold run
        (3.0, 0, None, "429: queue full"),              # refused
        (4.0, 0, _record(10, 4, 5, True), None),        # faithful hit
    ])
    tally = common.Tally()
    check(mix, tally)
    assert tally.attempted == 5
    assert tally.failed == 3
    assert tally.wrong == 2
    assert any("429" in f for f in tally.failures)


def test_layer_table_residual_makes_rows_sum_to_wall():
    rows = common.layer_table(2.0, [("a", 0.5), ("b", 1.25)])
    assert rows[-1] == ("multigpu.unaccounted_s", pytest.approx(0.25))
    assert sum(v for _, v in rows) == pytest.approx(2.0)
    over = common.layer_table(1.0, [("a", 1.5)])
    assert over[-1][1] == pytest.approx(-0.5)  # parts may exceed the wall
    assert "= wall_s" in common.format_layer_table(2.0, rows)


def test_trace_overhead_is_traced_wall_minus_untraced_median():
    assert common.trace_overhead(2.5, [2.0, 2.2, 9.0]) == pytest.approx(0.3)


def test_serve_schedule_is_seeded_and_sends_a_fixed_repeat_share():
    a, b = build_mix(7, 6.0), build_mix(7, 6.0)
    assert [(j.due, j.pair, j.lane) for j in a.jobs] == \
        [(j.due, j.pair, j.lane) for j in b.jobs]
    short = [j for j in a.jobs if j.lane == "short"]
    firsts = {j.pair for j in short}
    assert len(short) - len(firsts) > 0  # some repeats hit earlier pairs
    assert build_mix(8, 6.0).jobs[0].due != a.jobs[0].due


def test_compare_refuses_records_from_different_hosts(tmp_path):
    def record(path, cores):
        path.write_text(json.dumps({
            "workload": "square-exact", "trace": 0,
            "host": {"cores": cores, "python": "3.11"},
            "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
        return str(path)

    old = record(tmp_path / "a.json", 2)
    assert compare.main(["--old", old, "--new", record(tmp_path / "b.json", 8)]) == 2
    assert compare.main(["--old", old, "--new", record(tmp_path / "c.json", 2)]) == 0


def test_compare_flags_an_end_to_end_regression_beyond_its_bound():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.1}], "per_layer": []}

    def rec(v):
        return {"workload": "w", "trace": 0, "host": {},
                "metrics": {"wall_s": {"value": v, "unit": "s"}}}

    _, regressed = compare.compare([rec(1.0)], [rec(1.05)], spec)
    assert not regressed
    _, regressed = compare.compare([rec(1.0)], [rec(1.2)], spec)
    assert regressed


def test_orphaned_helper_is_adopted_and_reaped(tmp_path):
    """A grandchild that outlives its parent (as multiprocessing's
    resource tracker does) must not be left behind as a process."""
    import subprocess

    script = f"""
import os, subprocess, sys
sys.path[:0] = [{str(ROOT)!r}]
from perfbench import common
common.adopt_orphans()
before = common.snapshot()
proc = subprocess.Popen(["sh", "-c", "sleep 0.5 & echo $!"],
                        stdout=subprocess.PIPE, start_new_session=True)
orphan = int(proc.stdout.readline())
common.reap(proc, 10.0)
assert orphan in common.child_pids(), "orphan was not adopted"
leaked = common.leaks_since(before, pgid=proc.pid)
assert leaked == [], leaked
assert not os.path.exists(f"/proc/{{orphan}}"), "orphan was not reaped"
assert not common.child_pids() and not common.zombie_children()
print("ok")
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=60, cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
