"""JobManager: queueing, coalescing, cancellation, drain, caching."""

import json
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.core.store import clear_design_store, design_store_stats
from repro.errors import AdmissionError, ServiceError
from repro.exec.cache import ResultCache
from repro.payloads import dump_payload
from repro.service import JobManager, JobRequest, JobState, run_job


def _request(seed=0, **overrides):
    doc = {"kind": "lifetime", "design": "C1", "grid": 6, "seed": seed}
    doc.update(overrides)
    return JobRequest.from_dict(doc)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestQueueing:
    def test_job_runs_to_done(self, manager, gated):
        job, created = manager.submit(_request(), "t")
        assert created
        gated.release.set()
        assert _wait_for(lambda: job.state == JobState.DONE)
        assert job.result == {"kind": "lifetime", "seed": 0}

    def test_queue_full_raises_admission_error(self, manager, gated):
        manager.submit(_request(seed=0), "t")
        assert gated.started.wait(5.0)
        # Worker busy; fill the two queue slots, then overflow.
        manager.submit(_request(seed=1), "t")
        manager.submit(_request(seed=2), "t")
        with pytest.raises(AdmissionError) as excinfo:
            manager.submit(_request(seed=3), "t")
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after_s > 0

    def test_unknown_job_id_is_404(self, manager):
        with pytest.raises(ServiceError) as excinfo:
            manager.get("nope")
        assert excinfo.value.status == 404


class TestCoalescing:
    def test_identical_submissions_share_one_run(self, manager, gated):
        first, created_first = manager.submit(_request(), "alice")
        assert gated.started.wait(5.0)
        second, created_second = manager.submit(_request(), "bob")
        assert created_first and not created_second
        assert second is first
        gated.release.set()
        assert _wait_for(lambda: first.state == JobState.DONE)
        assert gated.calls == 1

    def test_different_requests_do_not_coalesce(self, manager, gated):
        first, _ = manager.submit(_request(seed=0), "t")
        second, created = manager.submit(_request(seed=1), "t")
        assert created
        assert second is not first


class TestCancellation:
    def test_cancel_queued_job(self, manager, gated):
        manager.submit(_request(seed=0), "t")
        assert gated.started.wait(5.0)
        queued, _ = manager.submit(_request(seed=1), "t")
        cancelled = manager.cancel(queued.id)
        assert cancelled.state == JobState.CANCELLED
        gated.release.set()

    def test_cancel_running_job(self, manager, gated):
        job, _ = manager.submit(_request(), "t")
        assert gated.started.wait(5.0)
        manager.cancel(job.id)
        assert _wait_for(lambda: job.state == JobState.CANCELLED)
        assert job.error["code"] == "cancelled"

    def test_job_timeout_reports_failure(self, gated):
        manager = JobManager(
            workers=1, max_queue=2, compute=gated, job_timeout_s=0.05
        )
        manager.start()
        try:
            job, _ = manager.submit(_request(), "t")
            assert _wait_for(lambda: job.state == JobState.FAILED)
            assert job.error["code"] == "timeout"
        finally:
            gated.release.set()
            manager.shutdown(drain_timeout=5.0)


class TestLifecycleRaces:
    def test_concurrent_start_spawns_exactly_one_pool(self, gated):
        # Regression: start() used to check self._threads outside the
        # lock, so two racing callers could each spawn a full worker pool.
        manager = JobManager(workers=2, max_queue=4, compute=gated)
        callers = 8
        barrier = threading.Barrier(callers)

        def racing_start():
            barrier.wait(5.0)
            manager.start()

        threads = [
            threading.Thread(target=racing_start) for _ in range(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5.0)
        try:
            assert len(manager._threads) == manager.workers
            assert all(worker.is_alive() for worker in manager._threads)
        finally:
            gated.release.set()
            assert manager.shutdown(drain_timeout=5.0)

    def test_start_after_shutdown_spawns_fresh_pool(self, gated):
        manager = JobManager(workers=1, max_queue=2, compute=gated)
        manager.start()
        gated.release.set()
        assert manager.shutdown(drain_timeout=5.0)
        assert manager._threads == []
        manager.start()
        try:
            assert len(manager._threads) == 1
        finally:
            manager.shutdown(drain_timeout=5.0)


class TestShutdown:
    def test_clean_drain(self, gated):
        manager = JobManager(workers=1, max_queue=2, compute=gated)
        manager.start()
        job, _ = manager.submit(_request(), "t")
        gated.release.set()
        assert manager.shutdown(drain_timeout=5.0)
        assert job.state == JobState.DONE
        assert not manager.accepting

    def test_submissions_rejected_after_shutdown(self, gated):
        manager = JobManager(workers=1, max_queue=2, compute=gated)
        manager.start()
        gated.release.set()
        manager.shutdown(drain_timeout=5.0)
        with pytest.raises(ServiceError) as excinfo:
            manager.submit(_request(), "t")
        assert excinfo.value.status == 503

    def test_expired_drain_cancels_running_job(self, gated):
        manager = JobManager(workers=1, max_queue=2, compute=gated)
        manager.start()
        job, _ = manager.submit(_request(), "t")
        assert gated.started.wait(5.0)
        # Never released: the drain must time out and cancel the job.
        assert not manager.shutdown(drain_timeout=0.1)
        assert job.state == JobState.CANCELLED


class TestResultCache:
    def test_done_job_populates_cache_and_serves_repeat(self, tmp_path, gated):
        cache = ResultCache(tmp_path / "cache")
        manager = JobManager(workers=1, max_queue=2, cache=cache, compute=gated)
        manager.start()
        try:
            gated.release.set()
            first, _ = manager.submit(_request(), "t")
            assert _wait_for(lambda: first.state == JobState.DONE)
            second, created = manager.submit(_request(), "t")
            assert not created
            assert second.cached
            assert second.state == JobState.DONE
            assert second.result == first.result
            assert gated.calls == 1
        finally:
            manager.shutdown(drain_timeout=5.0)

    def test_corrupt_cache_entry_recomputes(self, tmp_path, gated):
        cache = ResultCache(tmp_path / "cache")
        request = _request()
        cache.put(
            request.key,
            {"payload_json": np.array("{not json")},
            meta={"kind": request.kind},
        )
        manager = JobManager(workers=1, max_queue=2, cache=cache, compute=gated)
        manager.start()
        try:
            gated.release.set()
            with obs.enabled():
                job, created = manager.submit(request, "t")
                assert created
                assert _wait_for(lambda: job.state == JobState.DONE)
                assert obs.get_counter("exec.cache.corrupt") == 1.0
            assert gated.calls == 1
        finally:
            manager.shutdown(drain_timeout=5.0)


class TestConcurrentJobs:
    def test_two_jobs_at_once_match_serial(self, tmp_path, monkeypatch):
        """Two real jobs computed side by side return their serial bytes.

        The result cache serves a payload by its request fingerprint, so a
        job's result must not depend on what else the pool is running.
        """
        requests = [
            JobRequest.from_dict({
                "kind": "curve", "design": "C1", "grid": 6,
                "methods": ["st_fast"], "t_min": 1e3, "t_max": 1e7,
                "points": 40,
            }),
            JobRequest.from_dict({
                "kind": "lifetime", "design": "C2", "grid": 6,
                "methods": ["hybrid"],
            }),
        ]
        # Cold artifact caches on both sides, so each run computes.
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE_DIR", str(tmp_path / "serial"))
        serial = [dump_payload(run_job(request)) for request in requests]
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE_DIR", str(tmp_path / "pool"))
        clear_design_store()
        assert self._run_side_by_side(requests) == serial

    def test_two_vdds_on_one_cold_design_match_serial(self):
        """Two jobs ask for one cold design at two supply voltages: one
        builds it, the other waits for it, and each reads its serial bytes
        at its own operating point."""
        requests = [
            JobRequest.from_dict({
                "kind": "lifetime", "design": "C2", "grid": 10,
                "methods": ["st_fast", "hybrid", "temp_unaware"], "vdd": vdd,
            })
            for vdd in (1.1, 1.3)
        ]
        serial = []
        for request in requests:
            clear_design_store()
            serial.append(dump_payload(run_job(request)))
        clear_design_store()
        assert self._run_side_by_side(requests) == serial
        stats = design_store_stats()
        assert (stats["misses"], stats["hits"], stats["entries"]) == (1, 1, 1)

    @staticmethod
    def _run_side_by_side(requests: list[JobRequest]) -> list[str]:
        """The requests' payloads from a two-worker pool, started together."""
        barrier = threading.Barrier(2, timeout=60.0)

        def compute(request, **kwargs):
            barrier.wait()
            return run_job(request, **kwargs)

        manager = JobManager(workers=2, max_queue=4, compute=compute)
        manager.start()
        try:
            jobs = [manager.submit(request, "t")[0] for request in requests]
            assert _wait_for(
                lambda: all(job.state == JobState.DONE for job in jobs),
                timeout=120.0,
            ), [(job.state, job.error) for job in jobs]
        finally:
            manager.shutdown(drain_timeout=10.0)
        return [dump_payload(job.result) for job in jobs]


class TestProgress:
    def test_progress_counts_checkpoint_shards(self, tmp_path, gated):
        request = _request(methods=["mc"], mc_chips=200)
        manager = JobManager(
            workers=1,
            max_queue=2,
            checkpoint_dir=tmp_path / "ckpt",
            compute=gated,
        )
        job = manager._new_job(request, request.key, "t", time.time())
        assert job.checkpoint_path is not None
        job.checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
        # Emulate the MC engine's checkpoint layout mid-run: two distinct
        # shard indices, one with two fields.
        np.savez(
            job.checkpoint_path,
            __checkpoint__=np.array(json.dumps({"kind": "mc"})),
            s0__total=np.zeros(2),
            s0__n=np.asarray(1),
            s2__total=np.zeros(2),
        )
        progress = manager.progress(job)
        assert progress == {"shards_done": 2, "shards_total": 4}

    def test_progress_none_without_checkpoint(self, manager):
        job, _ = manager.submit(_request(), "t")
        assert manager.progress(job) is None
