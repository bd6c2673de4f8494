"""Hypothesis properties of the job model and the queue state machine.

Two families:

* randomized JSON payloads survive the submit -> claim -> artifact
  round trip bit-for-bit, and content addressing is insensitive to
  dict key order;
* random interleavings of queue operations never skip a state — every
  audit-trail edge is legal under the declared transition tables, and
  public APIs never leak :class:`IllegalTransition`.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    ArtifactStore,
    JOB_TRANSITIONS,
    JobQueue,
    JobSpec,
    SHARD_TRANSITIONS,
)
from repro.utils.serialization import canonical_json_dumps, json_digest

# JSON-native scalars; floats bounded + integral-safe so Python/JSON
# round-trips are exact (canonical encoding forbids NaN/Inf anyway).
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**31), 2**31),
    st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)

json_params = st.dictionaries(st.text(min_size=1, max_size=10), json_values,
                              max_size=5)


class TestPayloadRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(params=json_params)
    def test_canonical_encoding_round_trips(self, params):
        spec = JobSpec(kind="svc-echo", params=params).validate()
        assert json.loads(spec.canonical())["params"] == params

    @settings(max_examples=40, deadline=None)
    @given(params=json_params)
    def test_job_id_ignores_key_order(self, params):
        reversed_params = dict(reversed(list(params.items())))
        assert (
            JobSpec(kind="svc-echo", params=params).job_id
            == JobSpec(kind="svc-echo", params=reversed_params).job_id
        )

    @settings(max_examples=25, deadline=None)
    @given(params=json_params)
    def test_submit_claim_round_trip(self, tmp_path_factory, params):
        root = tmp_path_factory.mktemp("props")
        queue = JobQueue(root / "q.sqlite")
        try:
            job_id = queue.submit(
                JobSpec(kind="svc-echo", params=params), now=100.0
            )
            assert job_id == json_digest(
                {"kind": "svc-echo", "params": params}
            )
            claim = queue.claim_shard("w", now=101.0)
            assert claim.params == params
            # Resubmission while running is a no-op.
            assert queue.submit(
                JobSpec(kind="svc-echo", params=params), now=102.0
            ) == job_id
            assert len(queue.list_jobs()) == 1
        finally:
            queue.close()

    @settings(max_examples=40, deadline=None)
    @given(obj=json_values)
    def test_artifact_store_round_trip(self, tmp_path_factory, obj):
        store = ArtifactStore(tmp_path_factory.mktemp("art"))
        ref = store.put(obj)
        assert store.get(ref) == obj
        assert store.raw_bytes(ref) == canonical_json_dumps(obj).encode()


def _apply_op(queue, op, now):
    """One randomized queue operation; returns claims it produced."""
    name, arg = op
    if name == "claim":
        return queue.claim_shard(f"w{arg}", lease_seconds=arg * 3.0 + 0.5,
                                 now=now)
    if name == "requeue":
        queue.requeue_expired(now=now)
    elif name == "finalize":
        for job_id in queue.finalizable_jobs():
            queue.finalize_job(job_id, "final-ref", now=now)
    return None


ops = st.lists(
    st.one_of(
        st.tuples(st.just("claim"), st.integers(0, 2)),
        st.tuples(st.just("complete"), st.integers(0, 3)),
        st.tuples(st.just("fail"), st.integers(0, 3)),
        st.tuples(st.just("requeue"), st.just(0)),
        st.tuples(st.just("finalize"), st.just(0)),
        st.tuples(st.just("tick"), st.integers(1, 20)),
    ),
    min_size=5,
    max_size=40,
)


class TestStateMachineNeverSkips:
    @settings(max_examples=30, deadline=None)
    @given(op_list=ops, n_shards=st.integers(1, 4))
    def test_random_interleavings_keep_history_legal(
        self, tmp_path_factory, op_list, n_shards
    ):
        root = tmp_path_factory.mktemp("fsm")
        queue = JobQueue(root / "q.sqlite")
        now = 100.0
        outstanding = []  # live claims: (job_id, idx, worker)
        try:
            job_id = queue.submit(
                JobSpec(kind="svc-sum", params={"n_shards": n_shards}),
                now=now,
            )
            for name, arg in op_list:
                now += 0.25
                if name == "tick":
                    now += float(arg)
                elif name == "claim":
                    claim = _apply_op(queue, (name, arg), now)
                    if claim is not None:
                        outstanding.append(
                            (claim.job_id, claim.idx, f"w{arg}")
                        )
                elif name in ("complete", "fail") and outstanding:
                    jid, idx, worker = outstanding.pop(arg % len(outstanding))
                    if name == "complete":
                        queue.complete_shard(jid, idx, f"ref-{idx}", worker,
                                             now=now)
                    else:
                        queue.fail_shard(jid, idx, "induced", worker,
                                         max_attempts=2,
                                         backoff_seconds=0.5, now=now)
                else:
                    _apply_op(queue, (name, arg), now)

            # Invariant 1: every audited edge is legal from the tracked
            # state — no transition was ever skipped.
            state = {}
            for row in queue.history():
                key = (row["entity"], row["job_id"], row["idx"])
                assert state.get(key) == row["from_state"]
                table = (JOB_TRANSITIONS if row["entity"] == "job"
                         else SHARD_TRANSITIONS)
                assert row["to_state"] in table[state.get(key)]
                state[key] = row["to_state"]

            # Invariant 2: the final DB states agree with the replay.
            status = queue.job_status(job_id)
            assert state[("job", job_id, None)] == status["status"]
            for idx_status, count in status["shards"].items():
                assert count >= 0

            # Invariant 3: a done job has every shard done and a
            # result only via finalize; a failed job accepts no claims.
            if status["status"] in ("done", "failed"):
                assert queue.claim_shard("probe", now=now + 1000.0) is None

            # Invariant 4: each done shard holds the result it was
            # completed with, whoever completed it.
            if status["status"] == "done":
                assert queue.shard_results(job_id) == [
                    f"ref-{i}" for i in range(n_shards)]
        finally:
            queue.close()
