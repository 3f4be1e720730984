"""Tests: the alignment service (repro.serve, INTERNALS.md §14).

Covers the pure scheduling/admission/caching layers unit-style, then the
live daemon concurrency contracts the PR promises: parallel submits hit
the admission cap instead of queueing without bound, a resubmitted job
is served from the digest cache bit-identical to the cold run, the fair
scheduler starves neither direction, and a drained shutdown leaks no
shared-memory segments.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import seq
from repro.comm import list_segments
from repro.errors import ConfigError, ServeError
from repro.serve import (
    AdmissionError,
    FairScheduler,
    JobQueue,
    JobSpec,
    ResultCache,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    job_cost,
)
from repro.serve.jobs import JobRecord
from repro.serve.protocol import error_response, recv_message, send_message
from repro.sw.naive import sw_score_naive

SCORING = seq.DNA_DEFAULT


def spec(a="ACGTACGT", b="ACGTTCGT", *, tenant="default", **kw) -> JobSpec:
    return JobSpec(a_codes=seq.encode(a), b_codes=seq.encode(b),
                   scoring=SCORING, tenant=tenant, **kw)


def record(lane="short", tenant="default", cells=10, job_id="j") -> JobRecord:
    s = spec("A" * max(1, cells // 2), "A" * 2, tenant=tenant,
             lane_override=lane)
    return JobRecord(id=job_id, spec=s, lane=lane)


# ---------------------------------------------------------------------------
# JobSpec: lanes and cache keys
# ---------------------------------------------------------------------------
class TestJobSpec:
    def test_lane_classification_by_effective_cells(self):
        small = spec("A" * 100, "C" * 100)
        assert small.lane() == "short"
        big = spec("A" * 3000, "C" * 3000)
        assert big.effective_cells == 9_000_000
        assert big.lane() == "long"

    def test_banded_megabase_rides_the_short_lane(self):
        # The whole point of effective_cells: a banded job over big
        # sequences is still cheap, so it must keep its priority.
        banded = spec("A" * 20_000, "C" * 20_000, mode="banded", band_width=32)
        assert banded.cells == 400_000_000
        assert banded.effective_cells == 20_000 * 65
        assert banded.lane() == "short"

    def test_lane_override_wins(self):
        assert spec(lane_override="long").lane() == "long"
        with pytest.raises(ConfigError, match="unknown lane"):
            spec(lane_override="express")

    def test_cache_key_tracks_content_not_identity(self):
        assert spec("ACGT", "ACGT").cache_key() == \
            spec("ACGT", "ACGT").cache_key()
        assert spec("ACGT", "ACGT").cache_key() != \
            spec("ACGT", "ACGA").cache_key()

    def test_cache_key_covers_answer_changing_config_only(self):
        base = spec()
        # Tier, scoring and dtype change the (intermediate) answer...
        assert base.cache_key() != spec(mode="banded").cache_key()
        assert base.cache_key() != spec(dp_dtype="int32").cache_key()
        other_scoring = JobSpec(
            a_codes=base.a_codes, b_codes=base.b_codes,
            scoring=seq.Scoring(match=2, mismatch=-3, gap_open=5,
                                gap_extend=2))
        assert base.cache_key() != other_scoring.cache_key()
        # ...execution strategy does not (bit-identical engines).
        assert base.cache_key() == spec(kernel="batched").cache_key()
        assert base.cache_key() == spec(block_rows=64).cache_key()
        assert base.cache_key() == spec(pruning=True).cache_key()
        assert base.cache_key() == spec(tenant="other").cache_key()

    def test_cache_key_keys_any_substitution_matrix(self):
        """A protein scheme has no match/mismatch pair: its key is the
        matrix digest plus the gap costs, like a DNA scheme's."""
        from repro.seq.protein import BLOSUM62_SCORING, encode_protein

        # Codes 0-4 only, so the DNA schemes below can score them too.
        a = encode_protein("ARNDCRANDCCARDNR")
        protein = JobSpec(a_codes=a, b_codes=a, scoring=BLOSUM62_SCORING)
        key = protein.cache_key()
        assert key == JobSpec(a_codes=a, b_codes=a,
                              scoring=BLOSUM62_SCORING).cache_key()
        dna = JobSpec(a_codes=a, b_codes=a, scoring=seq.DNA_DEFAULT)
        assert key != dna.cache_key()
        wider_gaps = JobSpec(a_codes=a, b_codes=a, scoring=replace(
            BLOSUM62_SCORING, gap_open=11))
        assert key != wider_gaps.cache_key()
        # Two DNA schemes that differ only in mismatch: different matrices.
        harsher = JobSpec(a_codes=a, b_codes=a, scoring=seq.Scoring(
            match=1, mismatch=-4, gap_open=3, gap_extend=2))
        assert dna.cache_key() != harsher.cache_key()

    def test_band_width_only_keys_banded_modes(self):
        assert spec(band_width=8).cache_key() == spec(band_width=9).cache_key()
        assert spec(mode="banded", band_width=8).cache_key() != \
            spec(mode="banded", band_width=9).cache_key()

    def test_empty_sequences_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            JobSpec(a_codes=np.array([], dtype=np.int8),
                    b_codes=seq.encode("ACGT"), scoring=SCORING)


# ---------------------------------------------------------------------------
# FairScheduler: lanes + DRR
# ---------------------------------------------------------------------------
class TestFairScheduler:
    def test_weighted_interleave_neither_lane_starves(self):
        sched = FairScheduler()  # short:long = 4:1
        for i in range(20):
            sched.push(record("short", job_id=f"s{i}"))
        for i in range(20):
            sched.push(record("long", job_id=f"l{i}"))
        lanes = [sched.pop().lane for _ in range(20)]
        # Every 5-pick window serves exactly one long job (4:1 smooth WRR).
        for i in range(0, 20, 5):
            window = lanes[i:i + 5]
            assert window.count("long") == 1, lanes
        assert lanes.count("short") == 16

    def test_short_flood_does_not_starve_long(self):
        sched = FairScheduler()
        sched.push(record("long", job_id="L"))
        for i in range(50):
            sched.push(record("short", job_id=f"s{i}"))
        picks = [sched.pop().id for _ in range(6)]
        assert "L" in picks  # served within one weight cycle

    def test_long_backlog_does_not_starve_short(self):
        sched = FairScheduler()
        for i in range(50):
            sched.push(record("long", job_id=f"l{i}"))
        sched.push(record("short", job_id="S"))
        picks = [sched.pop().id for _ in range(2)]
        assert "S" in picks  # priority lane jumps most of the backlog

    def test_single_lane_short_circuits(self):
        sched = FairScheduler()
        for i in range(3):
            sched.push(record("long", job_id=f"l{i}"))
        assert [sched.pop().id for _ in range(3)] == ["l0", "l1", "l2"]
        assert sched.pop() is None

    def test_drr_cost_fairness_across_tenants(self):
        # Tenant a queues expensive jobs, tenant b cheap ones: b gets
        # more jobs through, but a is never locked out.
        sched = FairScheduler()
        for i in range(6):
            big = spec("A" * 4000, "C" * 2000, tenant="a",
                       lane_override="long")  # 8 cost units
            sched.push(JobRecord(id=f"a{i}", spec=big, lane="long"))
        for i in range(24):
            sched.push(record("long", tenant="b", job_id=f"b{i}"))
        first_24 = [sched.pop().id for _ in range(24)]
        a_served = sum(1 for x in first_24 if x.startswith("a"))
        b_served = 24 - a_served
        assert a_served >= 2       # the expensive tenant keeps flowing
        assert b_served > a_served  # same cost share => more cheap jobs

    def test_idle_tenant_banks_no_credit(self):
        sched = FairScheduler()
        sched.push(record("short", tenant="idle", job_id="x"))
        assert sched.pop().id == "x"
        # Rounds pass with another tenant only.
        for i in range(10):
            sched.push(record("short", tenant="busy", job_id=f"b{i}"))
        for _ in range(10):
            sched.pop()
        # The returning tenant starts from parity, not a banked burst.
        expensive = spec("A" * 4000, "C" * 2000, tenant="idle",
                         lane_override="short")
        sched.push(JobRecord(id="big", spec=expensive, lane="short"))
        sched.push(record("short", tenant="busy", job_id="b-new"))
        assert sched.pop().id == "b-new"  # cheap job first: no banked credit

    def test_job_cost_clamped(self):
        tiny = record("short")
        assert job_cost(tiny) == 1.0
        huge = spec("A" * 100_000, "C" * 100_000, lane_override="long")
        assert job_cost(JobRecord(id="h", spec=huge, lane="long")) == 64.0

    def test_weight_validation(self):
        with pytest.raises(ConfigError, match="lane_weights"):
            FairScheduler(lane_weights={"short": 1.0})
        with pytest.raises(ConfigError, match="positive"):
            FairScheduler(lane_weights={"short": 0.0, "long": 1.0})


# ---------------------------------------------------------------------------
# JobQueue: admission control
# ---------------------------------------------------------------------------
class TestJobQueueAdmission:
    def test_queue_depth_cap_rejects_with_429(self):
        q = JobQueue(max_depth=3, tenant_cap=100)
        for i in range(3):
            q.submit(spec(tenant=f"t{i}"))
        with pytest.raises(AdmissionError, match="queue full") as exc:
            q.submit(spec(tenant="t9"))
        assert exc.value.code == 429

    def test_tenant_cap_counts_queued_plus_running(self):
        q = JobQueue(max_depth=100, tenant_cap=2)
        q.submit(spec(tenant="a"))
        q.submit(spec(tenant="a"))
        with pytest.raises(AdmissionError, match="in-flight cap"):
            q.submit(spec(tenant="a"))
        q.submit(spec(tenant="b"))  # other tenants unaffected
        # Dispatching does not free the slot (still in flight)...
        running = q.next_job(timeout=0)
        assert running.spec.tenant == "a"
        with pytest.raises(AdmissionError):
            q.submit(spec(tenant="a"))
        # ...finishing does.
        q.finish(running, state="done", result={})
        q.submit(spec(tenant="a"))

    def test_parallel_submits_admit_exactly_max_depth(self):
        # The concurrency contract: under a thundering herd the queue
        # admits exactly max_depth jobs and 429s the rest — atomically,
        # no lost updates, no over-admission.
        q = JobQueue(max_depth=8, tenant_cap=1000)
        admitted, rejected = [], []
        barrier = threading.Barrier(32)

        def hammer(i):
            barrier.wait()
            try:
                admitted.append(q.submit(spec(tenant=f"t{i}")).id)
            except AdmissionError as exc:
                rejected.append(exc.code)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(admitted) == 8
        assert len(set(admitted)) == 8
        assert rejected == [429] * 24
        assert q.stats()["queued"] == 8

    def test_closed_queue_rejects_with_503(self):
        q = JobQueue()
        q.close()
        with pytest.raises(AdmissionError) as exc:
            q.submit(spec())
        assert exc.value.code == 503

    def test_close_cancels_queued_but_not_running(self):
        q = JobQueue()
        q.submit(spec(tenant="a"))
        q.submit(spec(tenant="b"))
        running = q.next_job(timeout=0)
        cancelled = q.close(cancel_queued=True)
        assert [r.state for r in cancelled] == ["cancelled"]
        assert running.state == "running"
        assert q.next_job(timeout=0) is None  # closed + drained => None

    def test_wait_for_blocks_until_terminal(self):
        q = JobQueue()
        rec = q.submit(spec())

        def finisher():
            job = q.next_job(timeout=1)
            q.finish(job, state="done", result={"score": 5})

        t = threading.Thread(target=finisher)
        t.start()
        done = q.wait_for(rec.id, timeout=5)
        t.join()
        assert done.state == "done" and done.result == {"score": 5}
        assert q.wait_for("job-999999", timeout=0) is None


# ---------------------------------------------------------------------------
# ResultCache
# ---------------------------------------------------------------------------
class TestResultCache:
    def test_lru_eviction_and_stats(self):
        c = ResultCache(max_entries=2)
        c.put("a", {"s": 1})
        c.put("b", {"s": 2})
        assert c.get("a") == {"s": 1}   # refreshes a
        c.put("c", {"s": 3})            # evicts b (LRU)
        assert "b" not in c and "a" in c and "c" in c
        stats = c.stats()
        assert stats["hits"] == 1
        assert stats["entries"] == 2

    def test_returned_dict_is_a_copy(self):
        c = ResultCache()
        c.put("k", {"s": 1})
        c.get("k")["s"] = 99
        assert c.get("k")["s"] == 1

    def test_zero_entries_disables(self):
        c = ResultCache(max_entries=0)
        c.put("k", {"s": 1})
        assert c.get("k") is None
        with pytest.raises(ConfigError):
            ResultCache(max_entries=-1)


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip_and_eof(self, tmp_path):
        import io

        buf = io.BytesIO()
        send_message(buf, {"op": "ping", "x": 1})
        buf.seek(0)
        assert recv_message(buf) == {"op": "ping", "x": 1}
        assert recv_message(buf) is None  # EOF

    def test_junk_line_raises_serve_error(self):
        import io

        assert recv_message(io.BytesIO(b"\n")) == {}
        with pytest.raises(ServeError, match="malformed"):
            recv_message(io.BytesIO(b"not json\n"))
        with pytest.raises(ServeError, match="JSON object"):
            recv_message(io.BytesIO(b"[1,2]\n"))

    def test_error_response_shape(self):
        doc = error_response("nope", code=429)
        assert doc == {"ok": False, "code": 429, "error": "nope"}


# ---------------------------------------------------------------------------
# The live daemon
# ---------------------------------------------------------------------------
A_TEXT = "ACGTACGGTACCGTTACGTACGATCGATCCGTA" * 12
B_TEXT = "ACGTACGGTACCGATACGTACGTTCGATCCGAA" * 12


@pytest.fixture(scope="class")
def daemon():
    d = ServeDaemon(ServeConfig(pools=1, workers=2, queue_depth=16,
                                tenant_cap=8), status_port=0)
    d.start()
    yield d
    d.stop()


class TestServeDaemon:
    def test_submit_matches_engine_and_repeat_hits_cache(self, daemon):
        with ServeClient(port=daemon.port) as client:
            cold = client.check(client.submit(
                seq_a=A_TEXT, seq_b=B_TEXT, tenant="cold"))["job"]
            cold = client.check(client.wait(
                cold["id"], timeout_s=60))["job"]
            assert cold["state"] == "done" and not cold["cached"]
            score, row, col = sw_score_naive(
                seq.encode(A_TEXT), seq.encode(B_TEXT), SCORING)
            assert cold["result"]["score"] == score
            assert (cold["result"]["row"], cold["result"]["col"]) == \
                (row, col)

            warm = client.check(client.submit(
                seq_a=A_TEXT, seq_b=B_TEXT, tenant="warm"))["job"]
            # A cache hit is already terminal and bit-identical.
            assert warm["cached"] and warm["state"] == "done"
            assert warm["result"]["score"] == cold["result"]["score"]
            assert warm["result"]["row"] == cold["result"]["row"]
            assert warm["result"]["col"] == cold["result"]["col"]
            assert warm["cache_key"] == cold["cache_key"]

    def test_no_cache_submission_recomputes(self, daemon):
        with ServeClient(port=daemon.port) as client:
            job = client.check(client.submit(
                seq_a=A_TEXT, seq_b=B_TEXT, use_cache=False))["job"]
            job = client.check(client.wait(job["id"], timeout_s=60))["job"]
            assert job["state"] == "done" and not job["cached"]

    def test_parallel_submits_hit_admission_cap(self):
        d = ServeDaemon(ServeConfig(pools=1, workers=2, queue_depth=3,
                                    tenant_cap=64), status_port=None)
        # Deliberately do NOT start the executors: submissions pile up
        # in the queue so the cap is observable deterministically.
        if d.status is not None:  # pragma: no cover - defensive
            d.status.stop()
        d._tcp_thread = threading.Thread(
            target=d._tcp.serve_forever, kwargs={"poll_interval": 0.1},
            daemon=True)
        d._tcp_thread.start()
        try:
            results = []
            barrier = threading.Barrier(8)

            def hammer(i):
                barrier.wait()
                with ServeClient(port=d.port) as client:
                    resp = client.submit(seq_a="ACGT" * 200,
                                         seq_b="ACGA" * 200,
                                         tenant=f"t{i}", use_cache=False)
                    results.append(resp)

            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            admitted = [r for r in results if r.get("ok")]
            rejected = [r for r in results if not r.get("ok")]
            assert len(admitted) == 3
            assert len(rejected) == 5
            assert all(r["code"] == 429 for r in rejected)
        finally:
            d.stop()
        # After the drain, queued jobs were cancelled, not run.
        states = [r.state for r in d.queue.jobs()]
        assert states.count("cancelled") == 3

    def test_draining_daemon_returns_503(self):
        d = ServeDaemon(ServeConfig(pools=1, workers=2), status_port=None)
        d.queue.close(cancel_queued=True)
        resp = d.handle_request({"op": "submit", "seq_a": "ACGT",
                                 "seq_b": "ACGT", "use_cache": False})
        assert resp["ok"] is False and resp["code"] == 503
        d.stop()

    def test_scheduler_keeps_short_jobs_flowing_under_long_backlog(self):
        # Fairness through the whole daemon: queue a burst of long jobs
        # then one short job *before* the executors start; once they do,
        # the priority lane must dispatch the short job first even
        # though it arrived last.
        d = ServeDaemon(ServeConfig(pools=1, workers=2, queue_depth=32,
                                    tenant_cap=32), status_port=None)
        long_a, long_b = "ACGT" * 600, "ACGA" * 600  # ~5.8M cells => long
        try:
            longs = [d.submit(spec(long_a, long_b, tenant=f"t{i}",
                                   use_cache=False)) for i in range(6)]
            assert all(r.lane == "long" for r in longs)
            short = d.submit(spec("ACGT" * 30, "ACGA" * 30, tenant="quick",
                                  use_cache=False))
            assert short.lane == "short"
            d.start()  # executors begin draining the backlog now
            done = d.queue.wait_for(short.id, timeout=120)
            assert done.state == "done"
            # The single serial executor picked the short job before any
            # long job (the 4:1 lane credits guarantee the first pick).
            long_starts = [r.started_mono for r in longs
                           if r.started_mono is not None]
            assert not long_starts or done.started_mono < min(long_starts)
        finally:
            d.stop()

    def test_shutdown_drains_without_leaking_shm(self):
        before = set(list_segments())
        d = ServeDaemon(ServeConfig(pools=2, workers=2), status_port=0)
        d.start()
        with ServeClient(port=d.port) as client:
            job = client.check(client.submit(
                seq_a=A_TEXT, seq_b=B_TEXT, use_cache=False))["job"]
            client.check(client.wait(job["id"], timeout_s=60))
        assert set(list_segments()) - before  # pools really hold shm while alive
        d.stop()
        assert set(list_segments()) - before == set()
        d.stop()  # idempotent

    def test_jobs_and_stats_ops(self, daemon):
        with ServeClient(port=daemon.port) as client:
            listing = client.check(client.jobs(limit=5))
            assert isinstance(listing["jobs"], list)
            stats = client.stats()
            assert stats["queue"]["max_depth"] == 16
            assert stats["pools"][0]["alive"]
            ping = client.ping()
            assert ping["server"] == "mgsw-serve"

    def test_unknown_op_and_bad_submit_are_400(self, daemon):
        with ServeClient(port=daemon.port) as client:
            resp = client.request({"op": "frobnicate"})
            assert resp["ok"] is False and resp["code"] == 400
            resp = client.submit(seq_a="ACGT")  # missing seq_b
            assert resp["ok"] is False and "seq_b" in resp["error"]
            resp = client.request({"op": "status", "id": "job-999999"})
            assert resp["code"] == 404

            # Bad tier/strategy fields are refused at submit: no job
            # record, no admission count — not a later executor failure.
            def submitted():
                fam = daemon.registry.snapshot()["counters"].get(
                    "serve_jobs_submitted")
                return sum(s["value"] for s in fam["series"]) if fam else 0

            jobs_before, count_before = len(daemon.queue.jobs()), submitted()
            for bad in ({"kernel": "bogus"}, {"band_width": -1},
                        {"xdrop_x": 0}, {"block_rows": 0},
                        {"pruning": "false"}, {"use_cache": "false"},
                        # Decoded by the AlignConfig field types: refused,
                        # not coerced.
                        {"band_width": 64.9}, {"band_width": True},
                        {"block_rows": "128"}, {"xdrop_x": 2.5},
                        {"dp_dtype": "int8"}):
                resp = client.submit(seq_a=A_TEXT, seq_b=B_TEXT,
                                     tenant="bad", **bad)
                assert resp["ok"] is False and resp["code"] == 400, bad
                assert len(daemon.queue.jobs()) == jobs_before, bad
                assert submitted() == count_before, bad

    def test_submit_refuses_a_protein_fasta(self, daemon, tmp_path, capsys):
        """``mgsw submit`` of a protein FASTA is refused at the daemon's
        boundary: a non-zero exit whose message names the file and the
        letter, and no job record."""
        from repro.cli import main

        prot = tmp_path / "prot.fa"
        prot.write_text(">p\nLQEFPILLEQ\n")
        dna = tmp_path / "dna.fa"
        dna.write_text(">d\nACGTACGTAC\n")
        jobs_before = len(daemon.queue.jobs())
        assert main(["submit", str(prot), str(dna),
                     "--port", str(daemon.port)]) == 1
        err = capsys.readouterr().err
        assert str(prot) in err and "'L'" in err
        assert len(daemon.queue.jobs()) == jobs_before

    def test_submit_refuses_an_all_n_sequence(self, daemon, tmp_path,
                                              capsys):
        """An all-N sequence is refused at the daemon's boundary, from a
        FASTA path (``mgsw submit``, the message names the file) or
        inline, and leaves no job record."""
        from repro.cli import main

        alln = tmp_path / "alln.fa"
        alln.write_text(">gap\n" + "n" * 40 + "\n")
        dna = tmp_path / "dna.fa"
        dna.write_text(">d\nACGTACGTAC\n")
        jobs_before = len(daemon.queue.jobs())
        assert main(["submit", str(dna), str(alln),
                     "--port", str(daemon.port)]) == 1
        err = capsys.readouterr().err
        assert str(alln) in err and "all N" in err
        with ServeClient(port=daemon.port) as client:
            resp = client.submit(seq_a="NRYN" * 10, seq_b=B_TEXT)
        assert resp["ok"] is False and resp["code"] == 400
        assert "seq_a is all N" in resp["error"]
        assert len(daemon.queue.jobs()) == jobs_before

    def test_status_server_routes(self, daemon):
        with ServeClient(port=daemon.port) as client:
            job = client.check(client.submit(
                seq_a=A_TEXT, seq_b=B_TEXT, tenant="http"))["job"]
            client.check(client.wait(job["id"], timeout_s=60))
        base = daemon.status_url
        with urllib.request.urlopen(base + "/jobs", timeout=5) as resp:
            doc = json.loads(resp.read())
        assert any(j["id"] == job["id"] for j in doc["jobs"])
        assert "queue" in doc and "cache" in doc
        with urllib.request.urlopen(base + f"/jobs/{job['id']}",
                                    timeout=5) as resp:
            one = json.loads(resp.read())
        assert one["id"] == job["id"] and one["state"] == "done"
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(base + "/jobs/job-999999", timeout=5)
        assert exc.value.code == 404
        with urllib.request.urlopen(base + "/metrics", timeout=5) as resp:
            text = resp.read().decode()
        assert "serve_jobs_submitted" in text
        assert "serve_job_latency_s" in text

    def test_journal_carries_job_lifecycle(self, daemon):
        with ServeClient(port=daemon.port) as client:
            job = client.check(client.submit(
                seq_a="ACGTACGT" * 8, seq_b="ACGAACGT" * 8,
                tenant="journal", use_cache=False))["job"]
            client.check(client.wait(job["id"], timeout_s=60))
        assert daemon.journal.count("job_submit") >= 1
        assert daemon.journal.count("job_start") >= 1
        assert daemon.journal.count("job_end") >= 1
        tail = daemon.journal.recent(200)
        mine = [e for e in tail if e.get("job") == job["id"]]
        kinds = [e["event"] for e in mine]
        assert kinds.index("job_submit") < kinds.index("job_start") \
            < kinds.index("job_end")


# ---------------------------------------------------------------------------
# The request boundary: malformed requests are refused with a 4xx
# ---------------------------------------------------------------------------
OPS = ("ping", "submit", "status", "wait", "jobs", "stats", "shutdown")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)

requests = st.fixed_dictionaries(
    {"op": st.sampled_from(OPS) | json_values},
    optional={
        "id": json_values,
        "timeout_s": st.floats(-1.0, 0.01) | json_values,
        "limit": st.integers(-3, 3) | json_values,
        "scoring": json_values,
        "tenant": json_values,
        "lane": st.sampled_from(["short", "long"]) | json_values,
        "use_cache": json_values,
        "seq_a": st.text(alphabet="ACGTN", max_size=8) | json_values,
        "seq_b": st.text(alphabet="ACGTN", max_size=8) | json_values,
        # Not a string: a drawn string could name a real file.
        "path_a": json_values.filter(lambda v: not isinstance(v, str)),
    })


@pytest.fixture
def idle_daemon():
    """A daemon whose executors never start: submissions queue, never
    run, and are cancelled at stop."""
    d = ServeDaemon(ServeConfig(pools=1, workers=1, queue_depth=8,
                                tenant_cap=8), status_port=None)
    yield d
    d.stop()


class TestRequestBoundary:
    @pytest.mark.parametrize("req", [
        {"op": "wait", "id": "job-000001", "timeout_s": "abc"},
        {"op": "wait", "id": "job-000001", "timeout_s": True},
        {"op": "wait", "id": "job-000001", "timeout_s": float("inf")},
        {"op": "jobs", "limit": "x"},
        {"op": "jobs", "limit": -3},
        {"op": "jobs", "limit": 2.0},
        {"op": "submit", "seq_a": "ACGT", "seq_b": "ACGT",
         "scoring": "junk"},
        {"op": "submit", "seq_a": "ACGT", "seq_b": "ACGT",
         "tenant": {"a": 1}},
        {"op": "submit", "path_a": [">a", "ACGT"], "seq_b": "ACGT"},
    ])
    def test_malformed_fields_are_400(self, idle_daemon, req):
        resp = idle_daemon.handle_request(req)
        assert resp["ok"] is False and resp["code"] == 400, resp
        assert idle_daemon.queue.jobs() == []

    def test_handle_request_never_raises(self, idle_daemon):
        @settings(max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(requests)
        def check(req):
            resp = idle_daemon.handle_request(req)
            assert resp["ok"] is True or 400 <= resp["code"] < 500, resp

        check()

    def test_tcp_junk_overcap_and_half_closed_clients(self, monkeypatch):
        import socket

        from repro.serve import protocol

        d = ServeDaemon(ServeConfig(pools=1, workers=1), status_port=None)
        d.start()
        try:
            segments = set(list_segments())

            def exchange(payload: bytes, *, half_close: bool) -> bytes:
                with socket.create_connection(("127.0.0.1", d.port),
                                              timeout=10) as sock:
                    sock.sendall(payload)
                    if half_close:
                        sock.shutdown(socket.SHUT_WR)
                    try:
                        return sock.makefile("rb").readline()
                    except ConnectionResetError:
                        return b""

            assert json.loads(exchange(b"not json\n", half_close=False))[
                "code"] == 400
            # A half-closed client mid-line: the partial line is refused.
            assert json.loads(exchange(b'{"op": "pi', half_close=True))[
                "code"] == 400
            # A client that half-closes before sending anything.
            assert exchange(b"", half_close=True) == b""
            # Over the line cap: refused (or reset, when the unread rest
            # of the line is still queued as the server closes).
            monkeypatch.setattr(protocol, "MAX_LINE_BYTES", 1024)
            reply = exchange(b"x" * 4096 + b"\n", half_close=False)
            assert reply == b"" or json.loads(reply)["code"] == 400
            monkeypatch.undo()

            with ServeClient(port=d.port) as client:
                assert client.ping()["server"] == "mgsw-serve"
            assert set(list_segments()) == segments
        finally:
            d.stop()
