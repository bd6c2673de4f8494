"""Content-addressed artifact store for final job results.

Every job's final aggregate is a JSON document stored at
``<root>/<digest>.json`` where ``digest`` is the blake2b content
address of its canonical encoding
(:func:`repro.utils.serialization.json_digest`).  Shard results are
not stored here: they live in their queue rows
(:meth:`repro.service.queue.JobQueue.shard_results`), so a drain
writes one file per job, not one per shard.  Properties that the
queue and the crash/resume machinery lean on:

* **idempotent writes** — a job finalized twice (by racing workers,
  or again after a crash) produces the same bytes and therefore the
  same path; concurrent duplicate writers race benignly (last atomic
  rename wins, contents identical);
* **no torn reads** — writes go through
  :func:`repro.utils.serialization.atomic_write_text`, so a reader
  sees a complete document or nothing;
* **self-verifying** — :meth:`ArtifactStore.get` re-hashes what it
  read and rejects a document whose digest does not match its name.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

from ..utils.serialization import (
    atomic_write_text,
    canonical_json_dumps,
    json_digest,
)

__all__ = ["ArtifactStore"]


class ArtifactStore:
    """Directory of content-addressed canonical-JSON documents."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, ref: str) -> Path:
        if not ref or any(c in ref for c in "/\\."):
            raise ValueError(f"malformed artifact ref {ref!r}")
        return self.root / f"{ref}.json"

    def put(self, obj) -> str:
        """Store ``obj``; returns its content address (idempotent)."""
        ref = json_digest(obj)
        path = self._path(ref)
        if not path.exists():
            atomic_write_text(path, canonical_json_dumps(obj))
        return ref

    def get(self, ref: str):
        """Load and verify the artifact at ``ref``."""
        text = self._path(ref).read_text()
        obj = json.loads(text)
        actual = json_digest(obj)
        if actual != ref:
            raise ValueError(
                f"artifact {ref} failed content verification (got {actual})"
            )
        return obj

    def has(self, ref: str) -> bool:
        return self._path(ref).exists()

    def raw_bytes(self, ref: str) -> bytes:
        """Exact stored bytes (byte-identity assertions in tests)."""
        return self._path(ref).read_bytes()

    def refs(self) -> List[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))
