"""Shard results live in the queue row: stored with their digest by the
completing transaction, re-verified on read, moved in once from the
artifact files of an older root, and never stored when JSON cannot
encode them."""

import sqlite3

import pytest

from repro.service import DesignService, JobQueue, JobSpec, get_job_type
from repro.utils.serialization import json_digest

#: The ``shards`` columns of a root written before results moved in.
OLD_SHARD_COLUMNS = ["job_id", "idx", "payload", "status", "attempts",
                     "lease_until", "not_before", "worker", "result_ref",
                     "error", "updated"]


def _complete(queue, worker, n):
    """Claim and complete ``n`` shards in this process; returns results."""
    results = []
    for _ in range(n):
        claim = queue.claim_shard(worker, lease_seconds=60)
        result = get_job_type(claim.kind).run_shard(claim.params,
                                                    claim.payload)
        assert queue.complete_shard(claim.job_id, claim.idx, result, worker)
        results.append(result)
    return results


def _old_root(root, params, n_done):
    """A root as an older release left it: ``n_done`` shards done, each
    result in its own artifact file, no ``result`` column."""
    svc = DesignService(root)
    job_id = svc.submit("svc-sum", params)
    for result in _complete(svc.queue, "old-worker", n_done):
        svc.store.put(result)
    svc.close()
    conn = sqlite3.connect(root / "queue.sqlite")
    conn.execute("ALTER TABLE shards DROP COLUMN result")
    columns = [r[1] for r in conn.execute("PRAGMA table_info(shards)")]
    conn.close()
    assert columns == OLD_SHARD_COLUMNS
    return job_id


def _set_result(queue_path, job_id, idx, text):
    conn = sqlite3.connect(queue_path)
    with conn:
        conn.execute("UPDATE shards SET result=? WHERE job_id=? AND idx=?",
                     (text, job_id, idx))
    conn.close()


def _result_text(queue_path, job_id, idx):
    conn = sqlite3.connect(queue_path)
    row = conn.execute("SELECT result, result_ref FROM shards "
                       "WHERE job_id=? AND idx=?", (job_id, idx)).fetchone()
    conn.close()
    return row


def test_completion_stores_canonical_json_and_its_digest(tmp_path):
    queue = JobQueue(tmp_path / "queue.sqlite")
    job_id = queue.submit(JobSpec(kind="svc-sum", params={"n_shards": 1}))
    queue.claim_shard("w")
    result = {"b": 1, "a": [1.5, None]}
    assert queue.complete_shard(job_id, 0, result, "w")
    queue.close()
    assert _result_text(tmp_path / "queue.sqlite", job_id, 0) == (
        '{"a":[1.5,null],"b":1}', json_digest(result))


def test_upgraded_root_drains_to_the_fresh_artifact(tmp_path):
    params = {"n_shards": 5, "seed": 7}
    fresh = DesignService(tmp_path / "fresh")
    fresh_id = fresh.submit("svc-sum", params)
    fresh.run(n_workers=0)
    expected = fresh.result_bytes(fresh_id)
    fresh.close()

    job_id = _old_root(tmp_path / "old", params, n_done=2)
    assert job_id == fresh_id
    svc = DesignService(tmp_path / "old")
    # Opening moved both done results into the queue; their files are
    # never read again.
    for path in svc.artifact_root.glob("*.json"):
        path.unlink()
    svc.run(n_workers=0)
    assert svc.result_bytes(job_id) == expected
    assert [p.name for p in svc.artifact_root.glob("*.json")] == [
        f"{svc.status(job_id)['result_ref']}.json"]
    claims = [r["idx"] for r in svc.queue.history(job_id)
              if r["reason"] == "claim"]
    assert claims == [0, 1, 2, 3, 4]  # the done shards did not re-run
    svc.close()


def test_upgraded_root_reports_a_lost_shard_artifact(tmp_path):
    job_id = _old_root(tmp_path / "old", {"n_shards": 2, "seed": 1}, 2)
    lost = (tmp_path / "old" / "artifacts").glob("*.json")
    next(lost).unlink()
    svc = DesignService(tmp_path / "old")
    with pytest.raises(ValueError, match="holds no result"):
        svc.result(job_id)
    assert svc.status(job_id)["status"] == "running"
    svc.close()


def test_edited_shard_result_fails_verification(service):
    job_id = service.submit("svc-sum", {"n_shards": 2, "seed": 2})
    _complete(service.queue, "w", 2)
    text, _ = _result_text(service.queue_path, job_id, 1)
    _set_result(service.queue_path, job_id, 1, text.replace('"i":1', '"i":7'))
    with pytest.raises(ValueError, match="content verification"):
        service.result(job_id)
    assert service.status(job_id)["status"] == "running"


def test_nan_result_is_retried_then_failed_and_the_worker_survives(service):
    bad = service.submit("svc-nan", {"n_shards": 1})
    good = service.submit("svc-sum", {"n_shards": 2})
    service.run(n_workers=1, timeout=120, max_attempts=2,
                backoff_seconds=0.01)
    status = service.status(bad)
    assert status["status"] == "failed"
    assert "JSON" in status["error"]
    reasons = [r["reason"] for r in service.queue.history(bad)
               if r["entity"] == "shard"]
    assert reasons == ["submit", "claim", "retry", "claim", "exhausted"]
    assert _result_text(service.queue_path, bad, 0) == (None, None)
    assert service.status(good)["status"] == "done"
