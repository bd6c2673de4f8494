"""Sharded multiprocess worker pool over the persistent queue.

A *worker* is a loop: claim a leased shard, execute its job kind's
``run_shard``, mark the shard done with its result in one queue
transaction, and — if that was the job's last shard — aggregate the
shard results from the queue and write the final result to the
content-addressed artifact store.  Workers are stateless: every byte
of durable state lives in the queue and the artifact store, so a
worker killed with ``kill -9`` mid-shard loses nothing; its lease
expires and any other worker (or a freshly restarted pool) re-executes
the shard to the identical result.

Determinism contract: shard decomposition is a pure function of the
job params, shard execution is a pure function of ``(params, shard)``,
and aggregation consumes shard results in shard-index order — so the
final artifact bytes do not depend on the number of workers, the
claiming order, or how many crash/resume cycles happened along the
way.  ``tests/service/test_resume.py`` locks this.

:class:`WorkerPool` spawns N OS processes (``multiprocessing``); pass
``n_workers=0`` to :func:`run_until_idle` for a fully in-process
single-worker drain (the reference path for determinism checks and
the baseline for ``benchmarks/test_perf_service.py``).
"""

from __future__ import annotations

import importlib
import multiprocessing as mp
import os
import time
import traceback
from pathlib import Path
from typing import List, Optional, Union

from ..utils.serialization import canonical_json_dumps
from .artifacts import ArtifactStore
from .jobs import get_job_type
from .queue import JobQueue

__all__ = ["WorkerPool", "run_until_idle", "worker_loop"]

#: Default lease on a claimed shard; a worker that dies is recovered
#: after at most this long.
DEFAULT_LEASE_SECONDS = 30.0

#: The package layers that the builtin job kinds' shards import.  Under
#: ``fork`` the pool imports them once in the parent, so every worker
#: starts warm instead of importing them again for each pool (``import
#: repro`` itself is lazy).  scipy stays deferred to the calls that use it.
WARM_MODULES = (
    "repro.analysis",
    "repro.campaign.builtin",
    "repro.experiments.common",
    "repro.experiments.extensions",
    "repro.experiments.fig4",
    "repro.experiments.fig5",
    "repro.hardware",
    "repro.layout",
    "repro.photonics.power",
    "repro.service.handlers",
)


def _execute_claim(queue: JobQueue, store: ArtifactStore, claim, worker_id: str,
                   max_attempts: int, backoff_seconds: float) -> None:
    """Run one claimed shard end to end (result, completion, finalize)."""
    try:
        job_type = get_job_type(claim.kind)
        result = job_type.run_shard(claim.params, claim.payload)
        # Encoding here sends a non-JSON result (NaN) down the retry path.
        encoded = canonical_json_dumps(result)
    except Exception:
        queue.fail_shard(
            claim.job_id,
            claim.idx,
            traceback.format_exc(limit=8),
            worker_id,
            max_attempts=max_attempts,
            backoff_seconds=backoff_seconds,
        )
        return
    queue.complete_shard(claim.job_id, claim.idx, result, worker_id,
                         encoded=encoded)
    _try_finalize(queue, store, claim.job_id)


def _try_finalize(queue: JobQueue, store: ArtifactStore, job_id: str) -> bool:
    """Aggregate + finalize ``job_id`` if all its shards are done.

    Safe to call from any process at any time: aggregation is a pure
    function of the (deterministic) shard results, and the queue-side
    ``finalize_job`` transition admits exactly one winner.
    """
    if not queue.all_shards_done(job_id):
        return False
    status = queue.job_status(job_id)
    if status["status"] != "running":
        return False
    job_type = get_job_type(status["kind"])
    final = job_type.aggregate(status["params"], queue.shard_results(job_id))
    final_ref = store.put(final)
    return queue.finalize_job(job_id, final_ref)


def worker_loop(
    queue_path: Union[str, Path],
    artifact_root: Union[str, Path],
    worker_id: Optional[str] = None,
    lease_seconds: float = DEFAULT_LEASE_SECONDS,
    poll_seconds: float = 0.05,
    max_attempts: int = 3,
    backoff_seconds: float = 0.5,
    until_idle: bool = True,
    max_shards: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> int:
    """Claim-and-execute loop; returns the number of shards executed.

    ``until_idle=True`` exits once the queue holds no unfinished jobs;
    otherwise the loop serves forever (the ``repro serve`` daemon
    mode).  ``max_shards`` bounds the number of executed shards — the
    crash-injection tests use it to stop a worker at a known point.
    ``cache_dir`` points the process-global unitary build cache at a
    shared multiprocess-safe directory (see :mod:`repro.ptc.cache`),
    so pool workers reuse each other's eval-mode mesh builds.
    """
    worker_id = worker_id or f"worker-{os.getpid()}"
    prev_cache_dir = None
    if cache_dir is not None:
        from ..ptc.cache import set_unitary_cache_dir

        prev_cache_dir = set_unitary_cache_dir(cache_dir)
    queue = JobQueue(queue_path)
    store = ArtifactStore(artifact_root)
    executed = 0
    try:
        while True:
            claim = queue.claim_shard(worker_id, lease_seconds=lease_seconds)
            if claim is not None:
                _execute_claim(
                    queue, store, claim, worker_id, max_attempts,
                    backoff_seconds,
                )
                executed += 1
                if max_shards is not None and executed >= max_shards:
                    return executed
                continue
            # No claimable shard: pick up orphaned finalizations (a
            # worker that died between its last complete_shard and
            # finalize_job leaves the job running with all shards done).
            for job_id in queue.finalizable_jobs():
                _try_finalize(queue, store, job_id)
            if until_idle and queue.unfinished() == 0:
                return executed
            time.sleep(poll_seconds)
    finally:
        queue.close()
        if cache_dir is not None:
            # Restore for inline (n_workers=0) callers; moot in a
            # dedicated worker process.
            from ..ptc.cache import set_unitary_cache_dir

            set_unitary_cache_dir(prev_cache_dir)


class WorkerPool:
    """N worker processes draining one queue directory.

    The pool only *hosts* the workers; all coordination is through the
    queue, so killing any subset of processes (or the whole pool) and
    starting a new one resumes exactly where the dead workers' leases
    left off.
    """

    def __init__(
        self,
        queue_path: Union[str, Path],
        artifact_root: Union[str, Path],
        n_workers: int = 2,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_seconds: float = 0.05,
        max_attempts: int = 3,
        backoff_seconds: float = 0.5,
        until_idle: bool = True,
        max_shards: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ):
        if n_workers < 1:
            raise ValueError("WorkerPool needs at least one worker")
        self.queue_path = str(queue_path)
        self.artifact_root = str(artifact_root)
        self.n_workers = n_workers
        self.kwargs = dict(
            lease_seconds=lease_seconds,
            poll_seconds=poll_seconds,
            max_attempts=max_attempts,
            backoff_seconds=backoff_seconds,
            until_idle=until_idle,
            max_shards=max_shards,
            cache_dir=None if cache_dir is None else str(cache_dir),
        )
        self.processes: List[mp.Process] = []

    def start(self) -> "WorkerPool":
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        if method == "fork":
            for name in WARM_MODULES:
                importlib.import_module(name)
        ctx = mp.get_context(method)
        for i in range(self.n_workers):
            p = ctx.Process(
                target=worker_loop,
                args=(self.queue_path, self.artifact_root),
                kwargs=dict(self.kwargs, worker_id=None),
                daemon=True,
                name=f"repro-worker-{i}",
            )
            p.start()
            self.processes.append(p)
        return self

    def pids(self) -> List[int]:
        return [p.pid for p in self.processes if p.pid is not None]

    def join(self, timeout: Optional[float] = None) -> None:
        deadline = None if timeout is None else time.time() + timeout
        for p in self.processes:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.time())
            )
            p.join(remaining)

    def alive(self) -> int:
        return sum(p.is_alive() for p in self.processes)

    def terminate(self) -> None:
        for p in self.processes:
            if p.is_alive():
                p.terminate()
        for p in self.processes:
            p.join(5.0)


def run_until_idle(
    queue_path: Union[str, Path],
    artifact_root: Union[str, Path],
    n_workers: int = 0,
    timeout: Optional[float] = None,
    **worker_kwargs,
) -> None:
    """Drain the queue: in-process when ``n_workers == 0``, else with a
    pool of worker processes joined under ``timeout``.

    ``until_idle=False`` (forwarded to the workers) turns this into
    the serve-forever daemon mode: workers keep polling for new jobs
    and the call only returns if the pool is externally terminated.
    """
    worker_kwargs.setdefault("until_idle", True)
    if n_workers <= 0:
        worker_loop(queue_path, artifact_root, **worker_kwargs)
        return
    pool = WorkerPool(
        queue_path, artifact_root, n_workers=n_workers, **worker_kwargs,
    ).start()
    pool.join(timeout)
    if pool.alive():
        pool.terminate()
        raise TimeoutError(
            f"worker pool did not drain the queue within {timeout}s"
        )
