"""Cost contracts of campaign expansion and the service-sharded route.

Counted, not timed, so they cannot flake on a loaded host: one
``expand()`` hashes the campaign id once, an inline run expands once,
and a sharded drain performs the same number of expansions whatever
the campaign's size (the worker memoises each spec).  The memo keeps
the per-shard ``cell_id`` guard, never stores a failure, and stays
within its fixed size in a long-lived worker.
"""

import pytest

import repro.campaign
import repro.campaign.executor
import repro.campaign.spec
from repro.campaign import (
    CampaignSpec,
    campaign_job_params,
    expand,
    run_campaign,
)
from repro.service import JobQueue, JobSpec, handlers, worker_loop


@pytest.fixture()
def expansions(monkeypatch):
    """Record the cell count of every ``expand()`` call, whichever
    module it is reached through."""
    sizes = []
    real = repro.campaign.spec.expand

    def counting(spec):
        cells = real(spec)
        sizes.append(len(cells))
        return cells

    for module in (repro.campaign.spec, repro.campaign,
                   repro.campaign.executor):
        monkeypatch.setattr(module, "expand", counting)
    return sizes


@pytest.fixture()
def empty_memo():
    handlers._CAMPAIGN_MEMO.clear()
    yield handlers._CAMPAIGN_MEMO
    handlers._CAMPAIGN_MEMO.clear()


def _sized_spec(make_spec, n_alpha, name):
    return make_spec(name=name, axes={"beta": ["x", "y"],
                                      "alpha": list(range(n_alpha))})


class TestExpandCost:
    def test_campaign_id_hashed_once_per_expand(self, make_spec, monkeypatch):
        spec = _sized_spec(make_spec, 20, "hash-once")
        calls = []
        real = CampaignSpec.campaign_id

        def counting(self):
            calls.append(1)
            return real.fget(self)

        monkeypatch.setattr(CampaignSpec, "campaign_id", property(counting))
        cells = expand(spec)
        assert len(cells) == 40
        assert len(calls) == 1

    def test_inline_run_expands_once(self, grid_spec, expansions):
        run_campaign(grid_spec)
        assert expansions == [6]

    def test_validate_does_not_expand(self, grid_spec, expansions):
        grid_spec.validate()
        assert expansions == []


class TestShardedCost:
    def test_expansions_do_not_grow_with_campaign_size(
            self, make_spec, expansions, empty_memo, tmp_path):
        counts = {}
        for n_alpha in (15, 150):
            spec = _sized_spec(make_spec, n_alpha, f"drain-{n_alpha}")
            del expansions[:]
            run = run_campaign(spec, n_workers=0,
                               root=tmp_path / f"svc-{n_alpha}")
            n_cells = 2 * n_alpha
            assert len(run.results) == n_cells
            assert sum(expansions) <= 3 * n_cells
            counts[n_cells] = len(expansions)
        assert counts[30] == counts[300]


class TestHandlerMemo:
    def test_tampered_cell_id_still_fails_after_memo_hit(self, grid_spec,
                                                         empty_memo):
        params = campaign_job_params(grid_spec)
        shards = handlers._campaign_expand(params)
        assert len(empty_memo) == 1
        tampered = dict(shards[2], cell_id="0" * 32)
        with pytest.raises(ValueError, match="cell id mismatch"):
            handlers._campaign_run_shard(params, tampered)
        # The guard rejected the payload, not the memo entry.
        out = handlers._campaign_run_shard(params, shards[2])
        assert out["cell_id"] == shards[2]["cell_id"]

    @pytest.mark.parametrize("params, match", [
        ({"spec": {"name": "bad", "kind": "test-grid", "axes": {}}},
         "at least one axis"),
        ({"spec": {"name": "bad"}}, "missing 'kind'"),
        ({"spec": {"name": "bad", "kind": "test-grid",
                   "axes": {"a": [1]}}, "extra": 1}, "exactly"),
    ])
    def test_malformed_payload_raises_every_call(self, params, match,
                                                 empty_memo):
        for _ in range(3):
            with pytest.raises(ValueError, match=match):
                handlers._campaign_expand(params)
        assert len(empty_memo) == 0

    def test_long_lived_worker_memo_stays_bounded(self, make_spec,
                                                  empty_memo, tmp_path):
        n_specs = handlers._CAMPAIGN_MEMO_SIZE + 4
        queue_path = tmp_path / "queue.sqlite"
        queue = JobQueue(queue_path)
        job_ids = [
            queue.submit(JobSpec(kind="campaign", params=campaign_job_params(
                make_spec(name=f"bounded-{i}",
                          axes={"alpha": [i], "beta": ["x"]}))))
            for i in range(n_specs)
        ]
        empty_memo.clear()
        executed = worker_loop(queue_path, tmp_path / "artifacts",
                               until_idle=False, max_shards=n_specs,
                               poll_seconds=0.01)
        assert executed == n_specs
        assert len(empty_memo) == handlers._CAMPAIGN_MEMO_SIZE
        assert all(queue.job_status(j)["status"] == "done" for j in job_ids)
        queue.close()
