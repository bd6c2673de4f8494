"""Unit tests for the persistent queue: lifecycle, leases, retries,
fencing, and the legality of every audited transition."""

import re

import pytest

from repro.service import queue as queue_module
from repro.service import (
    IllegalTransition,
    JOB_TRANSITIONS,
    JobQueue,
    JobSpec,
    SHARD_TRANSITIONS,
)



@pytest.fixture()
def queue(tmp_path):
    q = JobQueue(tmp_path / "queue.sqlite")
    yield q
    q.close()


def _submit(queue, n_shards=3, seed=0, now=100.0, kind="svc-sum"):
    spec = JobSpec(kind=kind, params={"n_shards": n_shards, "seed": seed})
    return queue.submit(spec, now=now)


def assert_history_legal(history):
    """Replay the audit trail; every edge must be a legal transition
    from the tracked state (i.e. no state was ever skipped)."""
    state = {}
    for row in history:
        key = (row["entity"], row["job_id"], row["idx"])
        old = state.get(key)
        assert old == row["from_state"], (
            f"{key}: audit says {row['from_state']} -> {row['to_state']} "
            f"but tracked state is {old}"
        )
        table = JOB_TRANSITIONS if row["entity"] == "job" else SHARD_TRANSITIONS
        assert row["to_state"] in table[old], (
            f"{key}: illegal edge {old} -> {row['to_state']}"
        )
        state[key] = row["to_state"]


class TestSubmit:
    def test_idempotent_same_id(self, queue):
        a = _submit(queue, now=100.0)
        b = _submit(queue, now=200.0)
        assert a == b
        assert len(queue.list_jobs()) == 1
        assert queue.job_status(a)["n_shards"] == 3

    def test_different_params_different_id(self, queue):
        assert _submit(queue, seed=0) != _submit(queue, seed=1)

    def test_unknown_kind_rejected(self, queue):
        with pytest.raises(KeyError, match="unknown job kind"):
            queue.submit(JobSpec(kind="no-such-kind", params={}))

    def test_non_json_params_rejected(self, queue):
        with pytest.raises((TypeError, ValueError)):
            queue.submit(JobSpec(kind="svc-sum", params={"bad": {1, 2}}))

    def test_status_of_missing_job(self, queue):
        with pytest.raises(KeyError):
            queue.job_status("does-not-exist")


class TestClaimComplete:
    def test_full_lifecycle(self, queue):
        job_id = _submit(queue, n_shards=2, now=100.0)
        assert queue.job_status(job_id)["status"] == "pending"

        c0 = queue.claim_shard("w1", lease_seconds=60, now=101.0)
        assert (c0.job_id, c0.idx, c0.attempts) == (job_id, 0, 1)
        assert queue.job_status(job_id)["status"] == "running"

        c1 = queue.claim_shard("w1", lease_seconds=60, now=102.0)
        assert c1.idx == 1
        assert queue.claim_shard("w1", now=103.0) is None

        assert queue.complete_shard(job_id, 0, "ref-0", "w1", now=104.0)
        assert not queue.finalizable_jobs()
        assert queue.complete_shard(job_id, 1, "ref-1", "w1", now=105.0)
        assert queue.finalizable_jobs() == [job_id]
        assert queue.shard_results(job_id) == ["ref-0", "ref-1"]

        assert queue.finalize_job(job_id, "ref-final", now=106.0)
        status = queue.job_status(job_id)
        assert status["status"] == "done"
        assert status["result_ref"] == "ref-final"
        assert queue.unfinished() == 0
        assert_history_legal(queue.history())

    def test_claims_in_index_order(self, queue):
        job_id = _submit(queue, n_shards=4)
        order = [queue.claim_shard("w", now=101.0 + i).idx for i in range(4)]
        assert order == [0, 1, 2, 3]

    def test_finalize_requires_all_done(self, queue):
        job_id = _submit(queue, n_shards=2)
        queue.claim_shard("w", now=101.0)
        queue.complete_shard(job_id, 0, "r0", "w", now=102.0)
        assert not queue.finalize_job(job_id, "final", now=103.0)

    def test_double_finalize_single_winner(self, queue):
        job_id = _submit(queue, n_shards=1)
        queue.claim_shard("w", now=101.0)
        queue.complete_shard(job_id, 0, "r0", "w", now=102.0)
        assert queue.finalize_job(job_id, "final", now=103.0)
        assert not queue.finalize_job(job_id, "final-again", now=104.0)


class TestLeases:
    def test_expired_lease_requeued_and_reclaimed(self, queue):
        job_id = _submit(queue, n_shards=1)
        queue.claim_shard("w1", lease_seconds=10, now=100.0)
        # Live lease: nothing else claimable.
        assert queue.claim_shard("w2", now=105.0) is None
        # Lapsed: the same shard goes to w2 with attempts bumped.
        c = queue.claim_shard("w2", lease_seconds=10, now=111.0)
        assert (c.idx, c.attempts) == (0, 2)
        assert_history_legal(queue.history())

    def test_stale_worker_completion_fenced(self, queue):
        job_id = _submit(queue, n_shards=1)
        queue.claim_shard("w1", lease_seconds=10, now=100.0)
        queue.claim_shard("w2", lease_seconds=10, now=111.0)
        # w1's lease expired and the shard moved on: its result is dropped.
        assert not queue.complete_shard(job_id, 0, "stale", "w1", now=112.0)
        assert queue.complete_shard(job_id, 0, "fresh", "w2", now=113.0)
        assert queue.shard_results(job_id) == ["fresh"]

    def test_stale_worker_failure_fenced(self, queue):
        job_id = _submit(queue, n_shards=1)
        queue.claim_shard("w1", lease_seconds=10, now=100.0)
        queue.claim_shard("w2", lease_seconds=10, now=111.0)
        assert not queue.fail_shard(job_id, 0, "late err", "w1", now=112.0)

    def test_requeue_expired_counts(self, queue):
        _submit(queue, n_shards=2)
        queue.claim_shard("w1", lease_seconds=5, now=100.0)
        queue.claim_shard("w2", lease_seconds=500, now=100.0)
        assert queue.requeue_expired(now=106.0) == 1


class TestRetries:
    def test_backoff_schedule(self, queue):
        job_id = _submit(queue, n_shards=1, kind="svc-boom")
        queue.claim_shard("w", now=100.0)
        queue.fail_shard(job_id, 0, "e1", "w", backoff_seconds=2.0, now=101.0)
        # attempts=1 -> delay 2.0: not claimable before 103.
        assert queue.claim_shard("w", now=102.0) is None
        c = queue.claim_shard("w", now=103.5)
        assert c.attempts == 2
        queue.fail_shard(job_id, 0, "e2", "w", backoff_seconds=2.0, now=104.0)
        # attempts=2 -> delay 4.0.
        assert queue.claim_shard("w", now=107.0) is None
        assert queue.claim_shard("w", now=108.5).attempts == 3

    def test_exhausted_attempts_fail_job(self, queue):
        job_id = _submit(queue, n_shards=1, kind="svc-boom")
        for i in range(3):
            queue.claim_shard("w", now=100.0 + 10 * i)
            queue.fail_shard(
                job_id, 0, f"err {i}", "w",
                max_attempts=3, backoff_seconds=0.1, now=101.0 + 10 * i,
            )
        status = queue.job_status(job_id)
        assert status["status"] == "failed"
        assert "err 2" in status["error"]
        assert queue.claim_shard("w", now=200.0) is None
        assert queue.unfinished() == 0
        assert_history_legal(queue.history())


class TestTransitionGuards:
    def test_illegal_job_edge_raises(self, queue):
        job_id = _submit(queue)
        with pytest.raises(IllegalTransition):
            queue._transition_job(job_id, "done", now=101.0)  # pending -> done

    def test_illegal_shard_edge_raises(self, queue):
        job_id = _submit(queue)
        with pytest.raises(IllegalTransition):
            queue._transition_shard(job_id, 0, "done", now=101.0)

    def test_missing_entities_raise(self, queue):
        with pytest.raises(IllegalTransition):
            queue._transition_job("ghost", "running", now=100.0)
        with pytest.raises(IllegalTransition):
            queue._transition_shard("ghost", 0, "running", now=100.0)

    def test_terminal_states_are_terminal(self):
        assert JOB_TRANSITIONS["done"] == set()
        assert JOB_TRANSITIONS["failed"] == set()
        assert SHARD_TRANSITIONS["done"] == set()
        assert SHARD_TRANSITIONS["failed"] == set()


class TestPersistence:
    def test_reopen_preserves_state(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        q1 = JobQueue(path)
        job_id = q1.submit(
            JobSpec(kind="svc-sum", params={"n_shards": 2}), now=100.0
        )
        q1.claim_shard("w", lease_seconds=60, now=101.0)
        q1.complete_shard(job_id, 0, "r0", "w", now=102.0)
        q1.close()

        q2 = JobQueue(path)  # crash/restart stand-in
        status = q2.job_status(job_id)
        assert status["status"] == "running"
        assert status["shards"] == {"done": 1, "pending": 1}
        c = q2.claim_shard("w2", now=103.0)
        assert c.idx == 1
        assert_history_legal(q2.history())
        q2.close()


class TestClaimIndex:
    """Claims and the last-shard check cost the same at any shard count:
    they are served from indexes, never a sort or a scan of shards."""

    @staticmethod
    def _plan(queue, sql, args):
        return [row[3] for row in queue._conn.execute(
            "EXPLAIN QUERY PLAN " + sql, args)]

    @pytest.mark.parametrize("sql, args", [
        (queue_module._CLAIM_SQL, (0.0,)),
        (queue_module._SHARD_NOT_DONE_SQL, ("job",)),
    ])
    def test_plans_neither_sort_nor_scan_shards(self, queue, sql, args):
        _submit(queue, n_shards=50)
        plan = self._plan(queue, sql, args)
        assert plan
        for step in plan:
            assert "TEMP B-TREE" not in step, plan
            assert not re.match(r"SCAN (s|shards)\b", step), plan

    def test_existing_root_gains_the_indexes(self, tmp_path):
        path = tmp_path / "queue.sqlite"
        q = JobQueue(path)
        q._conn.execute("DROP INDEX idx_shards_job_status")
        q._conn.execute("DROP INDEX idx_jobs_active")
        q.close()
        q = JobQueue(path)
        names = {r[0] for r in q._conn.execute(
            "SELECT name FROM sqlite_master WHERE type='index'")}
        q.close()
        assert {"idx_shards_job_status", "idx_jobs_active"} <= names

    def test_claim_order_is_created_then_job_id_then_index(self, queue):
        late = _submit(queue, n_shards=2, seed=0, now=200.0)
        tied = sorted([_submit(queue, n_shards=2, seed=1, now=100.0),
                       _submit(queue, n_shards=2, seed=2, now=100.0)])
        claims = [queue.claim_shard("w", now=300.0 + i) for i in range(6)]
        assert [(c.job_id, c.idx) for c in claims] == [
            (tied[0], 0), (tied[0], 1), (tied[1], 0), (tied[1], 1),
            (late, 0), (late, 1),
        ]

    def test_claim_skips_backed_off_shard(self, queue):
        job_id = _submit(queue, n_shards=2, now=100.0)
        c0 = queue.claim_shard("w", now=101.0)
        queue.fail_shard(job_id, c0.idx, "err", "w", max_attempts=3,
                         backoff_seconds=10.0, now=102.0)
        assert queue.claim_shard("w", now=103.0).idx == 1
        assert queue.claim_shard("w", now=104.0) is None
        assert queue.claim_shard("w", now=113.0).idx == 0

    def test_all_shards_done(self, queue):
        job_id = _submit(queue, n_shards=2, now=100.0)
        assert not queue.all_shards_done(job_id)
        for t in (101.0, 102.0):
            c = queue.claim_shard("w", now=t)
            assert not queue.all_shards_done(job_id)
            queue.complete_shard(job_id, c.idx, f"r{c.idx}", "w", now=t)
        assert queue.all_shards_done(job_id)
        assert queue.shard_results(job_id) == ["r0", "r1"]
