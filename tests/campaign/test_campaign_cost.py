"""Cost contracts of campaign expansion and the service-sharded route.

Counted, not timed, so they cannot flake on a loaded host: one
``expand()`` hashes the campaign id once, an inline run expands once,
and a sharded drain performs the same number of expansions whatever
the campaign's size (the worker memoises each spec), and a sharded
drain fsyncs and leaves one artifact file, the final result, whatever
its size (shard results live in the queue).  The memo keeps
the per-shard ``cell_id`` guard, never stores a failure, and stays
within its fixed size in a long-lived worker.  Fork-started pool
workers import no module of their own: the pool warms the parent.
"""

import json
import multiprocessing as mp
import os
import subprocess
import sys
from pathlib import Path

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

    def test_writes_do_not_grow_with_campaign_size(self, monkeypatch,
                                                   tmp_path):
        fsyncs = []
        real = os.fsync

        def counting(fd):
            fsyncs.append(fd)
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        writes = {}
        for n_seeds in (10, 100):
            spec = CampaignSpec(
                name=f"writes-{n_seeds}", kind="power",
                axes={"design": ["mzi", "fft", "adept"],
                      "seed": list(range(n_seeds))},
                base={"k": 8, "pdk": "amf", "window_kum2": [240.0, 300.0]},
                artifacts=[])
            root = tmp_path / f"svc-{n_seeds}"
            del fsyncs[:]
            run = run_campaign(spec, n_workers=0, root=root)
            assert len(run.results) == 3 * n_seeds
            files = list((root / "artifacts").glob("*.json"))
            writes[len(run.results)] = (len(fsyncs), len(files))
        assert writes == {30: (1, 1), 300: (1, 1)}


#: Runs a 2-worker ``power`` campaign in a fresh interpreter (so no
#: earlier test has warmed it) with ``worker_loop`` wrapped to record,
#: per worker pid, the modules the worker imported itself.
_WARM_PROBE = """
import json, os, sys
from pathlib import Path

import repro.service.workers as workers
from repro.campaign import CampaignSpec, run_campaign

out = Path(sys.argv[1])
real = workers.worker_loop


def recording(*args, **kwargs):
    before = set(sys.modules)
    try:
        return real(*args, **kwargs)
    finally:
        grown = sorted(set(sys.modules) - before)
        (out / f"worker-{os.getpid()}.json").write_text(json.dumps(grown))


workers.worker_loop = recording
spec = CampaignSpec(
    name="warm-workers", kind="power",
    axes={"design": ["mzi", "fft"], "seed": [0, 1, 2, 3]},
    base={"k": 8, "pdk": "amf", "window_kum2": [240.0, 300.0]},
    artifacts=[])
run = run_campaign(spec, root=out / "svc", n_workers=2, timeout=120.0)
assert len(run.results) == 8
"""


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="warm workers are a fork start-method property")
def test_forked_workers_import_no_modules(tmp_path):
    src = Path(__file__).resolve().parents[2] / "src"
    subprocess.run([sys.executable, "-c", _WARM_PROBE, str(tmp_path)],
                   env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                   timeout=150)
    grown = {p.name: json.loads(p.read_text())
             for p in tmp_path.glob("worker-*.json")}
    assert len(grown) == 2
    assert grown == {name: [] for name in grown}


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
