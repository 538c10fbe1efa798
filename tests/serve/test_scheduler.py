"""Scheduler behaviour: dedup, lifecycle, cancel, drain, events.

These tests run the scheduler in thread mode (``workers=1``) so the
full submit -> run -> finish path executes in-process and the store
counters can prove the dedup satellite: two identical submissions do
the expensive stage work exactly once, and both callers receive
byte-identical renderings.  ``TestProcessMode`` covers ``workers=2``,
where jobs run on the supervised pool's worker processes.
"""

import time

import pytest

from repro.serve.jobs import render_result
from repro.serve.scheduler import Scheduler, SchedulerClosed
from repro.store import ArtifactStore


def wait_for(predicate, timeout_s=30.0, interval_s=0.01):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    pytest.fail("condition not reached in time")


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "cache")


class TestDedup:
    def test_identical_submissions_coalesce_to_one_computation(self, store):
        """Satellite: concurrent identical jobs -> one synthesize run."""
        scheduler = Scheduler(store, workers=1)
        try:
            # Submit twice before the executor starts: both are provably
            # concurrent, so the second must coalesce onto the first.
            first, deduped_a = scheduler.submit("build", {"flow": "osss"})
            second, deduped_b = scheduler.submit("build", {"flow": "osss"})
            assert not deduped_a and deduped_b
            assert first.id == second.id
            assert first.dedup_count == 1
            assert scheduler.counters["deduped"] == 1

            scheduler.start()
            job = scheduler.wait_result(first.id, wait_s=120.0)
            assert job.state == "done"
            # One job ran, so every stage was computed exactly once.
            assert store.counters["miss"]["synthesize"] == 1
            # Both clients read the same payload -> identical bytes.
            text_a = render_result(job.spec.kind, job.payload)
            text_b = render_result(job.spec.kind, job.payload)
            assert text_a == text_b
        finally:
            scheduler.stop()

    def test_resubmit_after_completion_is_a_new_warm_job(self, store):
        scheduler = Scheduler(store, workers=1)
        scheduler.start()
        try:
            first, _ = scheduler.submit("build", {"flow": "osss"})
            done = scheduler.wait_result(first.id, wait_s=120.0)
            assert done.state == "done"
            misses = store.counters["miss"]["synthesize"]

            second, deduped = scheduler.submit("build", {"flow": "osss"})
            assert not deduped and second.id != first.id
            redone = scheduler.wait_result(second.id, wait_s=120.0)
            assert redone.state == "done"
            # Warm from the store: no new stage computation...
            assert store.counters["miss"]["synthesize"] == misses
            # ...and byte-identical output to the first run.
            assert render_result("build", redone.payload) == \
                render_result("build", done.payload)
        finally:
            scheduler.stop()

    def test_force_bypasses_dedup(self, store):
        scheduler = Scheduler(store, workers=1)
        try:
            first, _ = scheduler.submit("build", {"flow": "osss"})
            forced, deduped = scheduler.submit("build", {"flow": "osss"},
                                               force=True)
            assert not deduped and forced.id != first.id
        finally:
            scheduler.stop()


class TestLifecycle:
    def test_job_runs_to_done_with_events(self, store):
        scheduler = Scheduler(store, workers=1)
        scheduler.start()
        try:
            job, _ = scheduler.submit("build", {"flow": "osss"})
            done = scheduler.wait_result(job.id, wait_s=120.0)
            assert done.state == "done"
            kinds = [event["kind"] for event in done.events]
            assert kinds[0] == "queued"
            assert "running" in kinds
            assert kinds[-1] == "done"
            # Tracer spans streamed into the event log as progress.
            assert any(event["kind"] == "span" for event in done.events)
            doc = scheduler.events_since(job.id, since=0, wait_s=0.0)
            assert doc["state"] == "done"
            assert doc["events"] == done.events
            assert doc["dropped"] == 0
        finally:
            scheduler.stop()

    def test_failed_job_reports_the_exception(self, store, monkeypatch):
        def explode(spec, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr("repro.serve.scheduler.run_job", explode)
        scheduler = Scheduler(store, workers=1)
        scheduler.start()
        try:
            job, _ = scheduler.submit("build", {"flow": "osss"})
            done = scheduler.wait_result(job.id, wait_s=30.0)
            assert done.state == "failed"
            assert "ValueError: synthetic failure" in done.error
            assert scheduler.counters["failed"] == 1
        finally:
            scheduler.stop()

    def test_unknown_job_raises_key_error(self, store):
        scheduler = Scheduler(store, workers=0)
        with pytest.raises(KeyError):
            scheduler.get("j999999")
        with pytest.raises(KeyError):
            scheduler.cancel("j999999")

    def test_stats_shape(self, store):
        scheduler = Scheduler(store, workers=1)
        try:
            scheduler.submit("build", {"flow": "osss"})
            doc = scheduler.stats()
            assert doc["workers"] == 1
            assert doc["counters"]["submitted"] == 1
            assert doc["jobs"] == {"queued": 1}
            assert doc["store"] == store.counter_totals()
        finally:
            scheduler.stop()


class TestCancel:
    def test_cancel_queued_job(self, store):
        scheduler = Scheduler(store, workers=1)  # never started: stays queued
        try:
            job, _ = scheduler.submit("build", {"flow": "osss"})
            assert scheduler.cancel(job.id)
            assert job.state == "cancelled"
            assert scheduler.counters["cancelled"] == 1
            assert not scheduler.cancel(job.id)  # already terminal
            # The fingerprint slot is free again.
            again, deduped = scheduler.submit("build", {"flow": "osss"})
            assert not deduped and again.id != job.id
        finally:
            scheduler.stop()

    def test_cancel_running_job_at_stage_boundary(self, store, monkeypatch):
        entered = []

        def crawl(spec, store=None, tracer=None, guard=None,
                  use_journal=False):
            entered.append(spec.kind)
            for _ in range(600):  # ~30s unless the guard aborts us
                guard("synthesize")
                time.sleep(0.05)
            return {"flows": []}

        monkeypatch.setattr("repro.serve.scheduler.run_job", crawl)
        scheduler = Scheduler(store, workers=1)
        scheduler.start()
        try:
            job, _ = scheduler.submit("build", {"flow": "osss"})
            wait_for(lambda: entered)
            assert scheduler.cancel(job.id)
            done = scheduler.wait_result(job.id, wait_s=10.0)
            assert done.state == "cancelled"
            assert "cancelled" in done.error
        finally:
            scheduler.stop()

    def test_job_timeout_cancels_at_stage_boundary(self, store, monkeypatch):
        def crawl(spec, store=None, tracer=None, guard=None,
                  use_journal=False):
            for _ in range(600):
                guard("synthesize")
                time.sleep(0.05)
            return {"flows": []}

        monkeypatch.setattr("repro.serve.scheduler.run_job", crawl)
        scheduler = Scheduler(store, workers=1, job_timeout=0.2)
        scheduler.start()
        try:
            job, _ = scheduler.submit("build", {"flow": "osss"})
            done = scheduler.wait_result(job.id, wait_s=30.0)
            assert done.state == "cancelled"
            assert "deadline" in done.error
        finally:
            scheduler.stop()


class TestDrain:
    def test_draining_refuses_new_submissions(self, store):
        scheduler = Scheduler(store, workers=1)
        try:
            scheduler.begin_drain()
            with pytest.raises(SchedulerClosed):
                scheduler.submit("build", {"flow": "osss"})
        finally:
            scheduler.stop()

    def test_drain_waits_for_inflight_then_cancels_leftovers(
            self, store, monkeypatch):
        def crawl(spec, store=None, tracer=None, guard=None,
                  use_journal=False):
            for _ in range(600):
                guard("synthesize")
                time.sleep(0.05)
            return {"flows": []}

        monkeypatch.setattr("repro.serve.scheduler.run_job", crawl)
        scheduler = Scheduler(store, workers=1)
        scheduler.start()
        try:
            job, _ = scheduler.submit("build", {"flow": "osss"})
            wait_for(lambda: job.state == "running")
            cancelled = scheduler.drain(grace_s=0.2)
            assert cancelled == 1
            done = scheduler.wait_result(job.id, wait_s=10.0)
            assert done.state == "cancelled"
        finally:
            scheduler.stop()

    def test_drain_with_no_inflight_is_clean(self, store):
        scheduler = Scheduler(store, workers=1)
        scheduler.start()
        try:
            assert scheduler.drain(grace_s=0.1) == 0
        finally:
            scheduler.stop()


class TestProcessMode:
    """``workers >= 2``: jobs run on the supervised pool's stream."""

    def test_served_bytes_equal_direct_run_job(self, store):
        from repro.serve.jobs import make_spec, run_job

        scheduler = Scheduler(store, workers=2)
        scheduler.start()
        try:
            assert scheduler.mode == "process"
            submitted = [scheduler.submit(kind, params)[0]
                         for kind, params in (("build", {"flow": "osss"}),
                                              ("analyze", {}))]
            served = [scheduler.wait_result(job.id, wait_s=180.0)
                      for job in submitted]
        finally:
            scheduler.stop()
        for job in served:
            assert job.state == "done", job.error
            direct = run_job(make_spec(job.spec.kind, job.spec.params),
                             store=store)
            assert (render_result(job.spec.kind, job.payload)
                    == render_result(job.spec.kind, direct))

    def test_degraded_pool_requeues_onto_threads(self, store, monkeypatch):
        import functools

        from repro.exec import CHAOS_ENV, SupervisedPool

        monkeypatch.setenv(CHAOS_ENV, "1.0")  # every worker dies at once
        monkeypatch.setattr(
            "repro.serve.scheduler.SupervisedPool",
            functools.partial(SupervisedPool, max_respawns=0,
                              backoff_s=0.001),
        )
        scheduler = Scheduler(store, workers=2)
        scheduler.start()
        try:
            assert scheduler.mode == "process"
            job, _ = scheduler.submit("build", {"flow": "osss"})
            done = scheduler.wait_result(job.id, wait_s=180.0)
            assert done.state == "done", done.error
            assert scheduler.mode == "thread-degraded"
            assert any(event["kind"] == "requeued" for event in done.events)
            assert scheduler.stats()["pool"]["fallback"] == 1
        finally:
            scheduler.stop()
