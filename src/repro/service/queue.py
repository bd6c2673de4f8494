"""Crash-safe persistent job queue (SQLite, multiprocess).

The queue is the durable heart of the design service: jobs and their
shards live in one SQLite database in WAL mode, safe for concurrent
access by many worker processes on one machine.  Everything that
matters for crash-safety is expressed as *atomic state transitions*
inside ``BEGIN IMMEDIATE`` transactions:

* **states** — jobs move ``pending -> running -> done | failed``;
  shards move ``pending -> running -> done | failed`` with the single
  extra edge ``running -> pending`` (lease expiry or retry-with-
  backoff).  Every transition is validated against
  :data:`JOB_TRANSITIONS` / :data:`SHARD_TRANSITIONS` — an illegal
  edge raises :class:`IllegalTransition` instead of corrupting state —
  and appended to a ``transitions`` audit table that tests replay to
  prove no state was ever skipped.
* **leases** — a claimed shard carries ``lease_until``; a worker that
  dies (``kill -9``) simply stops heartbeating and its shard is
  requeued the moment any other participant observes the expired
  lease.  Claims and lease recovery happen in one transaction, so two
  workers can never both own a shard with a live lease.
* **retry with backoff** — a failing shard is requeued with
  ``not_before = now + backoff * 2**(attempts-1)`` until
  ``max_attempts``, then the shard and its job fail permanently.
* **stale-worker fencing** — completions/failures name the worker
  that claimed the shard; a worker whose lease expired (and whose
  shard was handed to someone else) gets a no-op ``False`` back
  rather than double-applying a transition.

The queue stores only control state and artifact *references*; result
payloads live in the content-addressed
:class:`repro.service.artifacts.ArtifactStore`.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

import json

from ..utils.serialization import canonical_json_dumps
from .jobs import JobSpec

__all__ = [
    "ClaimedShard",
    "IllegalTransition",
    "JobQueue",
    "JOB_TRANSITIONS",
    "SHARD_TRANSITIONS",
]

#: Legal job state machine; submission creates jobs directly in
#: ``pending`` (recorded as a ``None -> pending`` audit row).
JOB_TRANSITIONS: Dict[Optional[str], set] = {
    None: {"pending"},
    "pending": {"running", "failed"},
    "running": {"done", "failed"},
    "done": set(),
    "failed": set(),
}

#: Legal shard state machine.  ``running -> pending`` covers both
#: lease expiry (a dead worker's shard going back up for grabs) and
#: retry-with-backoff after a failed attempt.
SHARD_TRANSITIONS: Dict[Optional[str], set] = {
    None: {"pending"},
    "pending": {"running"},
    "running": {"done", "pending", "failed"},
    "done": set(),
    "failed": set(),
}


class IllegalTransition(RuntimeError):
    """A state change violating the job/shard state machine."""


@dataclass
class ClaimedShard:
    """A leased unit of work handed to a worker."""

    job_id: str
    kind: str
    params: dict
    idx: int
    payload: dict
    attempts: int
    lease_until: float


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id         TEXT PRIMARY KEY,
    kind       TEXT NOT NULL,
    params     TEXT NOT NULL,
    status     TEXT NOT NULL,
    n_shards   INTEGER NOT NULL,
    result_ref TEXT,
    error      TEXT,
    created    REAL NOT NULL,
    updated    REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS shards (
    job_id     TEXT NOT NULL,
    idx        INTEGER NOT NULL,
    payload    TEXT NOT NULL,
    status     TEXT NOT NULL,
    attempts   INTEGER NOT NULL DEFAULT 0,
    lease_until REAL NOT NULL DEFAULT 0,
    not_before REAL NOT NULL DEFAULT 0,
    worker     TEXT,
    result_ref TEXT,
    error      TEXT,
    updated    REAL NOT NULL,
    PRIMARY KEY (job_id, idx)
);
CREATE TABLE IF NOT EXISTS transitions (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    entity     TEXT NOT NULL,          -- 'job' or 'shard'
    job_id     TEXT NOT NULL,
    idx        INTEGER,                -- NULL for jobs
    from_state TEXT,                   -- NULL on creation
    to_state   TEXT NOT NULL,
    reason     TEXT,
    at         REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_shards_claim
    ON shards (status, not_before);
CREATE INDEX IF NOT EXISTS idx_shards_job_status
    ON shards (job_id, status, idx);
CREATE INDEX IF NOT EXISTS idx_jobs_active
    ON jobs (created, id) WHERE status IN ('pending', 'running');
"""

#: The next claimable shard: active jobs in claim order from
#: ``idx_jobs_active``, then each job's pending shards in index order
#: from ``idx_shards_job_status`` — no sort, whatever the shard count.
#: CROSS JOIN pins that loop order, ``+s.not_before`` keeps the planner
#: off ``idx_shards_claim``, and ``j.rowid`` makes each outer row
#: distinct so the index walk satisfies the ORDER BY.
_CLAIM_SQL = (
    "SELECT s.job_id, s.idx, s.payload, s.attempts, "
    "       j.kind, j.params, j.status AS job_status "
    "FROM jobs j CROSS JOIN shards s ON s.job_id = j.id "
    "WHERE j.status IN ('pending', 'running') "
    "      AND s.status='pending' AND +s.not_before <= ? "
    "ORDER BY j.created, j.id, j.rowid, s.idx LIMIT 1"
)

#: A shard is not done yet.  Spelled as an IN list so that, with a
#: ``job_id=?`` term, it is a few probes of ``idx_shards_job_status``
#: rather than a walk over the job's shards.
_SHARD_NOT_DONE = "status IN ({})".format(", ".join(
    repr(s) for s in SHARD_TRANSITIONS if s not in (None, "done")))

#: Any shard of job ``?`` not done yet (the last-shard check).
_SHARD_NOT_DONE_SQL = (
    f"SELECT 1 FROM shards WHERE job_id=? AND {_SHARD_NOT_DONE} LIMIT 1"
)


class JobQueue:
    """One SQLite-backed queue; construct one instance per process."""

    def __init__(self, path: Union[str, Path], busy_timeout: float = 30.0):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), timeout=busy_timeout)
        self._conn.row_factory = sqlite3.Row
        self._conn.isolation_level = None  # explicit transactions only
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(f"PRAGMA busy_timeout={int(busy_timeout * 1000)}")
        # executescript manages its own transaction (implicit commit).
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    # -- transactions ---------------------------------------------------

    def _txn(self):
        return _Transaction(self._conn)

    # -- validated transitions ------------------------------------------

    def _transition_job(
        self, job_id: str, new: str, now: float, reason: str = ""
    ) -> None:
        row = self._conn.execute(
            "SELECT status FROM jobs WHERE id=?", (job_id,)
        ).fetchone()
        old = row["status"] if row else None
        if new not in JOB_TRANSITIONS.get(old, set()):
            raise IllegalTransition(f"job {job_id}: {old} -> {new}")
        if old is None:
            raise IllegalTransition(f"job {job_id} does not exist")
        self._conn.execute(
            "UPDATE jobs SET status=?, updated=? WHERE id=?",
            (new, now, job_id),
        )
        self._record(("job", job_id, None, old, new, reason, now))

    def _transition_shard(
        self, job_id: str, idx: int, new: str, now: float, reason: str = ""
    ) -> None:
        row = self._conn.execute(
            "SELECT status FROM shards WHERE job_id=? AND idx=?",
            (job_id, idx),
        ).fetchone()
        old = row["status"] if row else None
        if old is None:
            raise IllegalTransition(f"shard {job_id}[{idx}] does not exist")
        if new not in SHARD_TRANSITIONS.get(old, set()):
            raise IllegalTransition(f"shard {job_id}[{idx}]: {old} -> {new}")
        self._conn.execute(
            "UPDATE shards SET status=?, updated=? WHERE job_id=? AND idx=?",
            (new, now, job_id, idx),
        )
        self._record(("shard", job_id, idx, old, new, reason, now))

    def _record(self, row) -> None:
        entity, job_id, idx, old, new, reason, at = row
        self._conn.execute(
            "INSERT INTO transitions (entity, job_id, idx, from_state, "
            "to_state, reason, at) VALUES (?,?,?,?,?,?,?)",
            (entity, job_id, idx, old, new, reason, at),
        )

    # -- submission -----------------------------------------------------

    def submit(self, spec: JobSpec, now: Optional[float] = None) -> str:
        """Enqueue ``spec``; idempotent on its content-addressed id."""
        now = time.time() if now is None else now
        spec.validate()
        shards = spec.expand()
        job_id = spec.job_id
        with self._txn():
            exists = self._conn.execute(
                "SELECT 1 FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
            if exists:
                return job_id
            self._conn.execute(
                "INSERT INTO jobs (id, kind, params, status, n_shards, "
                "created, updated) VALUES (?,?,?,?,?,?,?)",
                (
                    job_id,
                    spec.kind,
                    canonical_json_dumps(spec.params),
                    "pending",
                    len(shards),
                    now,
                    now,
                ),
            )
            self._record(("job", job_id, None, None, "pending", "submit", now))
            for idx, payload in enumerate(shards):
                self._conn.execute(
                    "INSERT INTO shards (job_id, idx, payload, status, "
                    "updated) VALUES (?,?,?,?,?)",
                    (job_id, idx, canonical_json_dumps(payload), "pending", now),
                )
                self._record(
                    ("shard", job_id, idx, None, "pending", "submit", now)
                )
        return job_id

    # -- claiming -------------------------------------------------------

    def requeue_expired(self, now: Optional[float] = None) -> int:
        """Return expired-lease running shards to ``pending``."""
        now = time.time() if now is None else now
        with self._txn():
            return self._requeue_expired_locked(now)

    def _requeue_expired_locked(self, now: float) -> int:
        rows = self._conn.execute(
            "SELECT job_id, idx FROM shards WHERE status='running' "
            "AND lease_until < ?",
            (now,),
        ).fetchall()
        for r in rows:
            self._transition_shard(
                r["job_id"], r["idx"], "pending", now, "lease-expired"
            )
            self._conn.execute(
                "UPDATE shards SET worker=NULL, lease_until=0 "
                "WHERE job_id=? AND idx=?",
                (r["job_id"], r["idx"]),
            )
        return len(rows)

    def claim_shard(
        self,
        worker: str,
        lease_seconds: float = 60.0,
        now: Optional[float] = None,
    ) -> Optional[ClaimedShard]:
        """Atomically lease the next available shard, or None.

        Lease recovery and the claim happen in one transaction, so a
        shard whose worker died is claimable the instant its lease
        lapses, and no two workers ever hold a live lease on the same
        shard.
        """
        now = time.time() if now is None else now
        with self._txn():
            self._requeue_expired_locked(now)
            row = self._conn.execute(_CLAIM_SQL, (now,)).fetchone()
            if row is None:
                return None
            job_id, idx = row["job_id"], row["idx"]
            if row["job_status"] == "pending":
                self._transition_job(job_id, "running", now, "first-claim")
            self._transition_shard(job_id, idx, "running", now, "claim")
            lease_until = now + lease_seconds
            self._conn.execute(
                "UPDATE shards SET attempts=attempts+1, lease_until=?, "
                "worker=? WHERE job_id=? AND idx=?",
                (lease_until, worker, job_id, idx),
            )
            return ClaimedShard(
                job_id=job_id,
                kind=row["kind"],
                params=json.loads(row["params"]),
                idx=idx,
                payload=json.loads(row["payload"]),
                attempts=row["attempts"] + 1,
                lease_until=lease_until,
            )

    # -- completion / failure -------------------------------------------

    def _owns(self, job_id: str, idx: int, worker: str) -> bool:
        row = self._conn.execute(
            "SELECT status, worker FROM shards WHERE job_id=? AND idx=?",
            (job_id, idx),
        ).fetchone()
        return (
            row is not None
            and row["status"] == "running"
            and row["worker"] == worker
        )

    def complete_shard(
        self,
        job_id: str,
        idx: int,
        result_ref: str,
        worker: str,
        now: Optional[float] = None,
    ) -> bool:
        """Mark a leased shard done.  Returns False for stale workers
        (lease expired and the shard was since requeued or finished
        elsewhere) — the deterministic result they computed is simply
        dropped."""
        now = time.time() if now is None else now
        with self._txn():
            if not self._owns(job_id, idx, worker):
                return False
            self._transition_shard(job_id, idx, "done", now, "complete")
            self._conn.execute(
                "UPDATE shards SET result_ref=?, error=NULL "
                "WHERE job_id=? AND idx=?",
                (result_ref, job_id, idx),
            )
            return True

    def fail_shard(
        self,
        job_id: str,
        idx: int,
        error: str,
        worker: str,
        max_attempts: int = 3,
        backoff_seconds: float = 0.5,
        now: Optional[float] = None,
    ) -> bool:
        """Record a failed attempt: requeue with exponential backoff
        while attempts remain, else fail the shard and its job."""
        now = time.time() if now is None else now
        with self._txn():
            if not self._owns(job_id, idx, worker):
                return False
            attempts = self._conn.execute(
                "SELECT attempts FROM shards WHERE job_id=? AND idx=?",
                (job_id, idx),
            ).fetchone()["attempts"]
            if attempts >= max_attempts:
                self._transition_shard(job_id, idx, "failed", now, "exhausted")
                self._conn.execute(
                    "UPDATE shards SET error=? WHERE job_id=? AND idx=?",
                    (error, job_id, idx),
                )
                self._transition_job(job_id, "failed", now, "shard-failed")
                self._conn.execute(
                    "UPDATE jobs SET error=? WHERE id=?",
                    (f"shard {idx}: {error}", job_id),
                )
            else:
                delay = backoff_seconds * (2.0 ** (attempts - 1))
                self._transition_shard(job_id, idx, "pending", now, "retry")
                self._conn.execute(
                    "UPDATE shards SET not_before=?, worker=NULL, "
                    "lease_until=0, error=? WHERE job_id=? AND idx=?",
                    (now + delay, error, job_id, idx),
                )
            return True

    # -- finalization ---------------------------------------------------

    def finalizable_jobs(self) -> List[str]:
        """Running jobs whose shards are all done (awaiting aggregate)."""
        rows = self._conn.execute(
            "SELECT j.id FROM jobs j WHERE j.status='running' AND NOT EXISTS "
            f"(SELECT 1 FROM shards WHERE job_id=j.id AND {_SHARD_NOT_DONE})"
            " ORDER BY j.created"
        ).fetchall()
        return [r["id"] for r in rows]

    def all_shards_done(self, job_id: str) -> bool:
        """True once no shard of ``job_id`` is pending, running or
        failed — a constant-cost check, whatever the shard count."""
        row = self._conn.execute(_SHARD_NOT_DONE_SQL, (job_id,)).fetchone()
        return row is None

    def finalize_job(
        self, job_id: str, result_ref: str, now: Optional[float] = None
    ) -> bool:
        """Transition a fully-sharded-done job to ``done``.  Returns
        False if someone else finalized it first."""
        now = time.time() if now is None else now
        with self._txn():
            row = self._conn.execute(
                "SELECT status FROM jobs WHERE id=?", (job_id,)
            ).fetchone()
            if row is None or row["status"] != "running":
                return False
            if not self.all_shards_done(job_id):
                return False
            self._transition_job(job_id, "done", now, "aggregate")
            self._conn.execute(
                "UPDATE jobs SET result_ref=? WHERE id=?", (result_ref, job_id)
            )
            return True

    # -- introspection --------------------------------------------------

    def job_status(self, job_id: str) -> dict:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE id=?", (job_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no such job {job_id!r}")
        counts: Dict[str, int] = {}
        for r in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM shards WHERE job_id=? "
            "GROUP BY status",
            (job_id,),
        ):
            counts[r["status"]] = r["n"]
        return {
            "id": row["id"],
            "kind": row["kind"],
            "params": json.loads(row["params"]),
            "status": row["status"],
            "n_shards": row["n_shards"],
            "shards": counts,
            "result_ref": row["result_ref"],
            "error": row["error"],
        }

    def list_jobs(self) -> List[dict]:
        rows = self._conn.execute(
            "SELECT id FROM jobs ORDER BY created"
        ).fetchall()
        return [self.job_status(r["id"]) for r in rows]

    def shard_result_refs(self, job_id: str) -> List[Optional[str]]:
        """Result refs in shard-index order (None where not done)."""
        rows = self._conn.execute(
            "SELECT result_ref FROM shards WHERE job_id=? ORDER BY idx",
            (job_id,),
        ).fetchall()
        return [r["result_ref"] for r in rows]

    def unfinished(self) -> int:
        """Number of jobs still pending or running."""
        return self._conn.execute(
            "SELECT COUNT(*) AS n FROM jobs WHERE status IN "
            "('pending','running')"
        ).fetchone()["n"]

    def history(self, job_id: Optional[str] = None) -> List[dict]:
        """The append-only transition audit trail, oldest first."""
        if job_id is None:
            rows = self._conn.execute(
                "SELECT * FROM transitions ORDER BY seq"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM transitions WHERE job_id=? ORDER BY seq",
                (job_id,),
            ).fetchall()
        return [dict(r) for r in rows]


class _Transaction:
    """``BEGIN IMMEDIATE`` context manager (commit/rollback on exit)."""

    def __init__(self, conn: sqlite3.Connection):
        self.conn = conn

    def __enter__(self):
        self.conn.execute("BEGIN IMMEDIATE")
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.conn.execute("COMMIT")
        else:
            self.conn.execute("ROLLBACK")
        return False
