"""Serialization primitives: checkpoints, canonical JSON, atomic writes.

Model checkpointing maps parameter/buffer names to numpy arrays
(complex arrays included — photonic phases are real but intermediate
buffers may not be).  The format is a single ``.npz`` file plus a JSON
manifest of shapes/dtypes for validation on load.

Round-trips preserve the array dtype end to end: the manifest records
each array's dtype, the stored ``.npz`` entries are validated against
it on load, and :meth:`repro.nn.Module.load_state_dict` adopts the
stored dtype rather than casting into the destination parameter — so
an artifact built under the complex64 execution backend reloads as
complex64 and re-scores identically.

The design service (:mod:`repro.service`) builds on three more
primitives here:

* :func:`canonical_json_dumps` — a bijective, sorted-key, non-NaN JSON
  encoding, so equal payloads always produce equal bytes;
* :func:`json_digest` — a blake2b content address over that canonical
  encoding (job ids, artifact references and shard results), and
  :func:`text_digest`, the same address of an already-encoded text;
* :func:`atomic_write_text` / :func:`atomic_write_bytes` — same-
  directory temp file + ``os.replace``, so concurrent readers of a
  persistent queue or cache directory never observe a torn write.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

if TYPE_CHECKING:
    from ..nn.module import Module


# ----------------------------------------------------------------------
# Canonical JSON + content addressing + atomic writes
# ----------------------------------------------------------------------

def canonical_json_dumps(obj) -> str:
    """Deterministic JSON encoding: sorted keys, compact separators,
    no NaN/Infinity.

    Equal payloads (regardless of dict insertion order) always encode
    to the same bytes, which makes the encoding safe to hash for job
    ids and artifact references.  ``allow_nan=False`` rejects values
    that would not round-trip through standards-compliant parsers.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def json_digest(obj) -> str:
    """Hex blake2b-128 content address of ``obj``'s canonical JSON."""
    return text_digest(canonical_json_dumps(obj))


def text_digest(text: str) -> str:
    """Hex blake2b-128 content address of a canonical JSON ``text``."""
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see all of it or none.

    The bytes land in a uniquely named temp file in the *same*
    directory (``os.replace`` is only atomic within a filesystem),
    are fsync'd, and the temp file is renamed over the target.  A
    concurrent reader therefore observes either the previous complete
    file or the new complete file — never a prefix.  A crash mid-write
    leaves only a ``.tmp-*`` orphan, never a corrupt target.
    """
    path = Path(path)
    tmp = path.with_name(
        f".tmp-{path.name}-{os.getpid()}-{os.urandom(4).hex()}"
    )
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # replace failed; don't litter
            try:
                tmp.unlink()
            except OSError:
                pass


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Atomic UTF-8 text write (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def save_checkpoint(model: Module, path: Union[str, Path]) -> None:
    """Serialize a model's state dict to ``path`` (.npz)."""
    path = Path(path)
    state = model.state_dict()
    manifest = {
        name: {"shape": list(arr.shape), "dtype": str(arr.dtype)}
        for name, arr in state.items()
    }
    np.savez(path, __manifest__=json.dumps(manifest), **state)


def load_checkpoint(model: Module, path: Union[str, Path], strict: bool = True) -> None:
    """Load a checkpoint into ``model``.

    With ``strict=True`` every model parameter must be present in the
    checkpoint with a matching shape, and every stored array must match
    the dtype its manifest entry records (guards against corrupted or
    hand-edited artifacts silently changing precision).
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        manifest = json.loads(str(data["__manifest__"]))
        state = {name: data[name] for name in data.files if name != "__manifest__"}
    if strict:
        own = dict(model.named_parameters())
        missing = [n for n in own if n not in state]
        if missing:
            raise KeyError(f"checkpoint missing parameters: {missing}")
        for name, p in own.items():
            want = tuple(manifest[name]["shape"])
            if tuple(p.shape) != want:
                raise ValueError(
                    f"shape mismatch for {name}: model {tuple(p.shape)} vs "
                    f"checkpoint {want}"
                )
        for name, arr in state.items():
            recorded = manifest.get(name, {}).get("dtype")
            if recorded is not None and str(arr.dtype) != recorded:
                raise ValueError(
                    f"dtype mismatch for {name}: stored {arr.dtype} vs "
                    f"manifest {recorded}"
                )
    model.load_state_dict(state)
