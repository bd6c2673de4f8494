"""End-to-end service tests: submit/run/result, worker-count
invariance, artifact integrity, retries, and failure surfacing."""

import json

import pytest

from repro.service import ArtifactStore, DesignService, run_until_idle
from repro.utils.serialization import json_digest



class TestInlineExecution:
    def test_submit_run_result(self, service):
        job_id = service.submit("svc-sum", {"n_shards": 4, "seed": 1})
        service.run(n_workers=0)
        result = service.result(job_id)
        assert len(result["values"]) == 4
        assert result["total"] == pytest.approx(sum(result["values"]))
        assert service.status(job_id)["status"] == "done"

    def test_deterministic_across_roots(self, tmp_path):
        def run(root):
            svc = DesignService(root)
            job_id = svc.submit("svc-sum", {"n_shards": 5, "seed": 9})
            svc.run(n_workers=0)
            data = svc.result_bytes(job_id)
            svc.close()
            return data

        assert run(tmp_path / "a") == run(tmp_path / "b")

    def test_wait_returns_result(self, service):
        job_id = service.submit("svc-sum", {"n_shards": 2})
        service.run(n_workers=0)
        assert service.wait(job_id, timeout=5)["values"]

    def test_result_before_run_raises(self, service):
        job_id = service.submit("svc-sum", {"n_shards": 2})
        with pytest.raises(RuntimeError, match="not ready"):
            service.result(job_id)


class TestPoolExecution:
    def test_pool_matches_inline_bytes(self, tmp_path):
        params = {"n_shards": 6, "seed": 4}

        inline = DesignService(tmp_path / "inline")
        job_inline = inline.submit("svc-sum", params)
        inline.run(n_workers=0)

        pooled = DesignService(tmp_path / "pooled")
        job_pooled = pooled.submit("svc-sum", params)
        pooled.run(n_workers=2, timeout=120)

        assert job_inline == job_pooled  # content-addressed identity
        assert inline.result_bytes(job_inline) == pooled.result_bytes(job_pooled)
        inline.close()
        pooled.close()

    def test_pool_timeout_raises(self, service):
        service.submit("svc-sum", {"n_shards": 2, "sleep": 30})
        with pytest.raises(TimeoutError):
            service.run(n_workers=1, timeout=0.5)

    def test_multiple_jobs_one_drain(self, service):
        ids = [
            service.submit("svc-sum", {"n_shards": 2, "seed": s})
            for s in range(3)
        ]
        assert len(set(ids)) == 3
        service.run(n_workers=2, timeout=120)
        for job_id in ids:
            assert service.status(job_id)["status"] == "done"


class TestFailureHandling:
    def test_failing_job_is_failed_and_raises(self, service):
        job_id = service.submit("svc-boom", {"n_shards": 2})
        service.run(n_workers=0, max_attempts=1, backoff_seconds=0.01)
        status = service.status(job_id)
        assert status["status"] == "failed"
        assert "boom" in status["error"]
        with pytest.raises(RuntimeError, match="failed"):
            service.result(job_id)

    def test_transient_failure_retried_to_success(self, service, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        job_id = service.submit(
            "svc-flaky", {"n_shards": 3, "marker_dir": str(marker_dir)}
        )
        service.run(n_workers=0, max_attempts=3, backoff_seconds=0.01)
        assert service.result(job_id)["values"] == [0, 10, 20]
        # Each shard burned exactly two attempts: one fail, one success.
        history = service.queue.history(job_id)
        retries = [r for r in history if r["reason"] == "retry"]
        assert len(retries) == 3

    def test_failed_job_does_not_block_others(self, service):
        bad = service.submit("svc-boom", {"n_shards": 1})
        good = service.submit("svc-sum", {"n_shards": 2})
        service.run(n_workers=0, max_attempts=1, backoff_seconds=0.01)
        assert service.status(bad)["status"] == "failed"
        assert service.status(good)["status"] == "done"


class TestOrphanedFinalization:
    def test_client_finalizes_completed_but_unaggregated_job(self, service):
        """A worker dying between its last complete_shard and
        finalize_job leaves the job 'running' with all shards done;
        the client's result() call must finish the aggregation."""
        from repro.service import get_job_type

        job_id = service.submit("svc-sum", {"n_shards": 2, "seed": 2})
        job_type = get_job_type("svc-sum")
        q = service.queue
        while True:
            claim = q.claim_shard("doomed-worker", lease_seconds=60)
            if claim is None:
                break
            result = job_type.run_shard(claim.params, claim.payload)
            q.complete_shard(claim.job_id, claim.idx, result, "doomed-worker")
        assert service.status(job_id)["status"] == "running"

        result = service.result(job_id)  # client-side finalization
        assert service.status(job_id)["status"] == "done"
        assert len(result["values"]) == 2


class TestArtifactStore:
    def test_content_addressing(self, tmp_path):
        store = ArtifactStore(tmp_path)
        obj = {"a": [1, 2, 3], "b": "x"}
        ref = store.put(obj)
        assert ref == json_digest(obj)
        assert store.put(obj) == ref  # idempotent
        assert store.get(ref) == obj

    def test_corruption_detected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        ref = store.put({"v": 1})
        path = tmp_path / f"{ref}.json"
        blob = json.loads(path.read_text())
        blob["v"] = 2
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="content verification"):
            store.get(ref)

    def test_missing_ref(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(FileNotFoundError):
            store.get("0" * 32)

    def test_malformed_ref_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(ValueError, match="malformed"):
            store.get("../escape")


class TestEchoPayloads:
    def test_params_survive_the_full_trip(self, service):
        params = {
            "nested": {"list": [1, 2.5, "three", None, True]},
            "unicode": "φοτονικ",
            "empty": {},
        }
        job_id = service.submit("svc-echo", params)
        service.run(n_workers=0)
        assert service.result(job_id)["params"] == params


class TestRunUntilIdle:
    def test_idle_queue_returns_immediately(self, service):
        run_until_idle(service.queue_path, service.artifact_root, n_workers=0)
