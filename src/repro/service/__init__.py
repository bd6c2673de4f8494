"""Concurrent design service: persistent jobs, sharded workers.

Turns the one-shot ``python -m repro search/evaluate/robustness``
scripts into a service: requests become content-addressed *jobs* in a
crash-safe SQLite queue, deterministically decomposed into independent
*shards* that a pool of worker processes executes across cores.  Each
shard's result is kept in its queue row, and the aggregate lands in a
content-addressed artifact store.  Killing
any worker (or the whole machine) loses nothing — leases expire,
shards re-run, and the aggregated artifact comes out byte-identical.

Layers (bottom up):

* :mod:`repro.service.jobs` — job model, kind registry, shard
  decomposition contract;
* :mod:`repro.service.artifacts` — content-addressed final results;
* :mod:`repro.service.queue` — persistent queue with validated state
  transitions, leases, retry-with-backoff, and the shard results;
* :mod:`repro.service.workers` — the multiprocess worker pool;
* :mod:`repro.service.handlers` — builtin kinds (``robustness-grid``,
  ``evaluate``, ``search``, ``export``, ``recalibrate``, ``campaign``);
* :mod:`repro.service.service` — the :class:`DesignService` facade the
  CLI (``repro serve / submit / status``) and experiment drivers use.
"""

from .artifacts import ArtifactStore
from .jobs import (
    JobSpec,
    JobType,
    available_job_kinds,
    get_job_type,
    register_job_type,
)
from .queue import (
    JOB_TRANSITIONS,
    SHARD_TRANSITIONS,
    ClaimedShard,
    IllegalTransition,
    JobQueue,
)
from .service import DesignService
from .workers import WorkerPool, run_until_idle, worker_loop

__all__ = [
    "ArtifactStore",
    "ClaimedShard",
    "DesignService",
    "IllegalTransition",
    "JOB_TRANSITIONS",
    "JobQueue",
    "JobSpec",
    "JobType",
    "SHARD_TRANSITIONS",
    "WorkerPool",
    "available_job_kinds",
    "get_job_type",
    "register_job_type",
    "run_until_idle",
    "worker_loop",
]
