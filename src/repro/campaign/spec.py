"""Campaign declaration and deterministic matrix expansion.

A :class:`CampaignSpec` is pure data: every field survives a lossless
JSON round-trip (enforced by :meth:`CampaignSpec.validate`), so the
spec itself can be content-addressed with the same blake2b scheme the
design service uses for jobs.  :func:`expand` turns the spec into an
ordered list of :class:`CampaignCell`\\ s; both the ordering and every
cell id are pure functions of the spec — independent of process,
worker count, and ``PYTHONHASHSEED`` — which is what makes campaign
artifacts reproducible byte-for-byte anywhere.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Union

from ..utils.serialization import atomic_write_text, canonical_json_dumps, json_digest

__all__ = ["ARTIFACT_KINDS", "CampaignCell", "CampaignSpec", "expand"]

#: Artifact formats :func:`repro.campaign.write_artifacts` can emit.
ARTIFACT_KINDS = ("csv", "markdown", "plot")

_SCALAR_TYPES = (str, int, float, bool)


@dataclass
class CampaignSpec:
    """One declarative experiment matrix.

    ``kind`` names a registered cell runner (see
    :mod:`repro.campaign.runners`); ``axes`` maps axis names to the
    scalar values they sweep (value order is preserved — it defines
    cell order); ``base`` holds parameters shared by every cell;
    ``exclude`` lists coordinate patterns to drop (a cell is excluded
    when *all* items of any pattern equal its coordinates).
    """

    name: str
    kind: str
    axes: Dict[str, List] = field(default_factory=dict)
    base: dict = field(default_factory=dict)
    exclude: List[dict] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=lambda: list(ARTIFACT_KINDS))
    version: int = 1

    # -- identity ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "axes": {k: list(v) for k, v in self.axes.items()},
            "base": dict(self.base),
            "exclude": [dict(e) for e in self.exclude],
            "artifacts": list(self.artifacts),
            "version": int(self.version),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignSpec":
        unknown = set(payload) - {
            "name", "kind", "axes", "base", "exclude", "artifacts", "version",
        }
        if unknown:
            raise ValueError(f"unknown campaign spec fields {sorted(unknown)}")
        for req in ("name", "kind"):
            if req not in payload:
                raise ValueError(f"campaign spec is missing {req!r}")
        return cls(
            name=payload["name"],
            kind=payload["kind"],
            axes={k: list(v) for k, v in payload.get("axes", {}).items()},
            base=dict(payload.get("base", {})),
            exclude=[dict(e) for e in payload.get("exclude", [])],
            artifacts=list(payload.get("artifacts", ARTIFACT_KINDS)),
            version=int(payload.get("version", 1)),
        )

    def to_json(self) -> str:
        """Canonical JSON — the hashed identity of the campaign."""
        return canonical_json_dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("campaign spec JSON must be an object")
        return cls.from_dict(payload)

    @property
    def campaign_id(self) -> str:
        """Content address: equal specs always share one id."""
        return json_digest(self.to_dict())

    # -- persistence ---------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the spec as pretty JSON (atomically)."""
        atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text())

    # -- validation ----------------------------------------------------

    def validate(self) -> "CampaignSpec":
        """Check the declaration is well-formed and reproducible.

        Axis values must be JSON scalars (cell coordinates have to be
        hashable content and valid exclude targets), unique per axis,
        and disjoint from ``base`` keys; the whole payload must survive
        a JSON round-trip so the campaign id is well-defined.
        """
        if not self.name:
            raise ValueError("campaign needs a non-empty name")
        if not self.axes:
            raise ValueError("campaign needs at least one axis")
        for axis, values in self.axes.items():
            if not values:
                raise ValueError(f"axis {axis!r} has no values")
            for v in values:
                if not isinstance(v, _SCALAR_TYPES):
                    raise ValueError(
                        f"axis {axis!r} value {v!r} is not a JSON scalar; "
                        "put structured values in `base` and sweep a "
                        "selector key (see docs/CAMPAIGNS.md)"
                    )
            if len(set(values)) != len(values):
                raise ValueError(f"axis {axis!r} repeats a value")
        overlap = set(self.axes) & set(self.base)
        if overlap:
            raise ValueError(
                f"keys {sorted(overlap)} appear in both axes and base"
            )
        for pattern in self.exclude:
            if not pattern:
                raise ValueError("empty exclude pattern would drop every cell")
            bad = set(pattern) - set(self.axes)
            if bad:
                raise ValueError(
                    f"exclude pattern keys {sorted(bad)} are not axes"
                )
        unknown = set(self.artifacts) - set(ARTIFACT_KINDS)
        if unknown:
            raise ValueError(
                f"unknown artifacts {sorted(unknown)}; "
                f"available: {list(ARTIFACT_KINDS)}"
            )
        decoded = json.loads(self.to_json())
        if decoded != self.to_dict():
            raise ValueError(
                "campaign spec does not survive a JSON round-trip; use "
                "only JSON-native types (dict/list/str/int/float/bool/None)"
            )
        from .runners import get_runner

        get_runner(self.kind)  # raises on unknown kind
        if next(_surviving_coords(self), None) is None:
            raise ValueError("exclude patterns drop every cell")
        return self


@dataclass(frozen=True)
class CampaignCell:
    """One point of the expanded matrix.

    ``coords`` are this cell's axis values; ``params`` is the full
    runner payload (``base`` merged with ``coords``); ``cell_id`` is
    the blake2b content address of ``(campaign, cell params)``.
    """

    index: int
    cell_id: str
    coords: dict
    params: dict


def _surviving_coords(spec: CampaignSpec) -> Iterator[dict]:
    """Cell coordinates in expansion order, excluded cells dropped."""
    names = sorted(spec.axes)
    for values in itertools.product(*(spec.axes[n] for n in names)):
        coords = dict(zip(names, values))
        if not any(
            all(coords.get(k) == v for k, v in pattern.items())
            for pattern in spec.exclude
        ):
            yield coords


def expand(spec: CampaignSpec) -> List[CampaignCell]:
    """Deterministically enumerate the campaign matrix.

    Axes iterate in sorted-name order with the last-sorted axis
    fastest; values within an axis keep their declared order.  Cells
    matching an exclude pattern are dropped, and the surviving cells
    are numbered densely — so cell index, id, and order depend only on
    the spec content.  The campaign id is hashed once per call, so
    expansion is linear in the number of cells.
    """
    campaign_id = spec.campaign_id
    cells: List[CampaignCell] = []
    for coords in _surviving_coords(spec):
        params = dict(spec.base)
        params.update(coords)
        cell_id = json_digest({"campaign": campaign_id, "cell": params})
        cells.append(
            CampaignCell(
                index=len(cells), cell_id=cell_id, coords=coords, params=params
            )
        )
    return cells
