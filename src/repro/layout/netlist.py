"""Device-level netlist extraction from a searched topology.

A :class:`~repro.core.topology.PTCTopology` is an abstract design:
block count, coupler masks, CR permutations.  Fabricating it requires
the concrete device list and connectivity.  This module flattens a
topology into a column-ordered netlist:

* every block contributes a **PS column** (K phase shifters), a **DC
  column** (one coupler per placed slot), and a **CR section** (one
  crossing per adjacent swap of the block's routing schedule, packed
  greedily into parallel columns);
* devices carry stable ids (``U.b2.dc1``) so netlists diff cleanly
  across search runs;
* :meth:`Netlist.to_graph` exports a ``networkx`` DAG (ports +
  devices) for connectivity analysis, and :meth:`Netlist.to_json`
  serializes the whole design for hand-off.

The netlist's device counts are, by construction, exactly the counts
used in footprint accounting — asserted in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.topology import BlockSpec, PTCTopology
from ..photonics.crossings import routing_schedule
from ..photonics.nonideality import NonidealitySpec

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Device", "Netlist", "build_netlist"]


@dataclass(frozen=True)
class Device:
    """One physical optical component instance.

    ``wires`` are the waveguide *positions* the device touches in its
    column; ``column`` is the global column index (0 at the input
    facet).  ``kind`` is ``"ps"``, ``"dc"``, or ``"cr"``.
    """

    device_id: str
    kind: str
    mesh: str  # "U" or "V"
    block: int
    column: int
    wires: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("ps", "dc", "cr"):
            raise ValueError(f"unknown device kind {self.kind!r}")
        if self.kind == "ps" and len(self.wires) != 1:
            raise ValueError("a phase shifter touches exactly one wire")
        if self.kind in ("dc", "cr") and len(self.wires) != 2:
            raise ValueError(f"a {self.kind} touches exactly two wires")


@dataclass
class Netlist:
    """Column-ordered device list of one full PTC (U and V meshes)."""

    k: int
    name: str = "ptc"
    devices: List[Device] = field(default_factory=list)

    # -- accounting ---------------------------------------------------------
    def device_counts(self) -> Tuple[int, int, int]:
        """(n_ps, n_dc, n_cr) — must equal the topology's counts."""
        kinds = [d.kind for d in self.devices]
        return kinds.count("ps"), kinds.count("dc"), kinds.count("cr")

    @property
    def n_columns(self) -> int:
        return max((d.column for d in self.devices), default=-1) + 1

    def columns(self) -> List[List[Device]]:
        cols: List[List[Device]] = [[] for _ in range(self.n_columns)]
        for d in self.devices:
            cols[d.column].append(d)
        return cols

    def column_kinds(self) -> List[str]:
        """Dominant device kind per column (columns are homogeneous)."""
        out = []
        for col in self.columns():
            kinds = {d.kind for d in col}
            if len(kinds) > 1:
                raise AssertionError(f"mixed column: {kinds}")
            out.append(next(iter(kinds)) if kinds else "empty")
        return out

    # -- connectivity -------------------------------------------------------
    def to_graph(self) -> "nx.DiGraph":
        """Directed connectivity graph: ``in:i`` -> devices -> ``out:i``.

        Edges carry the waveguide position (``wire``).  Pass-through
        segments (a wire skipping a column) connect the previous
        emitter directly to the next consumer.  networkx is imported
        here, not at module level: nothing else in the package needs it.
        """
        import networkx as nx

        g = nx.DiGraph()
        last: Dict[int, str] = {}
        for w in range(self.k):
            node = f"in:{w}"
            g.add_node(node, kind="port", wire=w)
            last[w] = node
        for device in sorted(self.devices, key=lambda d: d.column):
            g.add_node(device.device_id, kind=device.kind, column=device.column)
            for w in device.wires:
                g.add_edge(last[w], device.device_id, wire=w)
                last[w] = device.device_id
        for w in range(self.k):
            node = f"out:{w}"
            g.add_node(node, kind="port", wire=w)
            g.add_edge(last[w], node, wire=w)
        return g

    def optical_depth(self) -> int:
        """Maximum number of devices on any input->output path.

        Longest path through the DAG of :meth:`to_graph`, computed
        column by column: a device sits one hop behind the deepest
        device last seen on any of its wires.
        """
        depth = [0] * self.k  # devices on the deepest path ending at each wire
        for device in sorted(self.devices, key=lambda d: d.column):
            d = 1 + max(depth[w] for w in device.wires)
            for w in device.wires:
                depth[w] = d
        return max(depth, default=0)

    def path_loss_db(self, spec: NonidealitySpec) -> np.ndarray:
        """Positional path loss (dB) accumulated at each output wire.

        Follows waveguide *positions* through the column sequence: a
        signal at position w pays the loss of every device touching w.
        This is the worst-case estimate used for link budgeting.
        """
        loss = np.zeros(self.k)
        per_kind = {"ps": spec.loss_ps_db, "dc": spec.loss_dc_db,
                    "cr": spec.loss_cr_db}
        for device in self.devices:
            for w in device.wires:
                loss[w] += per_kind[device.kind]
        return loss

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "name": self.name,
                "devices": [asdict(d) for d in self.devices],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "Netlist":
        d = json.loads(text)
        devices = [
            Device(
                device_id=x["device_id"],
                kind=x["kind"],
                mesh=x["mesh"],
                block=int(x["block"]),
                column=int(x["column"]),
                wires=tuple(int(w) for w in x["wires"]),
            )
            for x in d["devices"]
        ]
        return cls(k=int(d["k"]), name=d.get("name", "ptc"), devices=devices)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Netlist":
        return cls.from_json(Path(path).read_text())


def _pack_swaps(swaps: Sequence[Tuple[int, int]]) -> List[List[Tuple[int, int]]]:
    """Pack adjacent swaps into parallel columns.

    Swaps must execute in schedule order along each wire; a swap can
    join a column only if no earlier-scheduled swap in a *later*
    column touches its wires.  Greedy ASAP scheduling: place each
    swap in the earliest column after the last column using its wires.
    """
    ready: Dict[int, int] = {}
    columns: List[List[Tuple[int, int]]] = []
    for i, j in swaps:
        col = max(ready.get(i, 0), ready.get(j, 0))
        while len(columns) <= col:
            columns.append([])
        columns[col].append((i, j))
        ready[i] = ready[j] = col + 1
    return columns


def build_netlist(topology: PTCTopology, name: Optional[str] = None) -> Netlist:
    """Flatten a topology into a :class:`Netlist`.

    Light traverses U's blocks first, then V's (the Sigma stage is an
    electro-optic attenuator array external to the meshes and is not
    part of the passive netlist).
    """
    netlist = Netlist(k=topology.k, name=name or topology.name)
    column = 0
    for mesh, blocks in (("U", topology.blocks_u), ("V", topology.blocks_v)):
        for b, block in enumerate(blocks):
            column = _emit_block(netlist, mesh, b, block, column)
    return netlist


def _emit_block(
    netlist: Netlist, mesh: str, b: int, block: BlockSpec, column: int
) -> int:
    k = netlist.k
    # PS column: always K shifters (paper: full column keeps the PTC
    # reprogrammable).
    for w in range(k):
        netlist.devices.append(
            Device(f"{mesh}.b{b}.ps{w}", "ps", mesh, b, column, (w,))
        )
    column += 1
    # DC column: one coupler per placed slot.
    placed = [
        i for i, on in enumerate(np.asarray(block.coupler_mask, dtype=bool)) if on
    ]
    if placed:
        for idx, i in enumerate(placed):
            p = block.offset + 2 * i
            if p + 1 >= k:
                continue
            netlist.devices.append(
                Device(f"{mesh}.b{b}.dc{idx}", "dc", mesh, b, column, (p, p + 1))
            )
        column += 1
    # CR section: adjacent swaps packed into parallel columns.
    if block.perm is not None:
        swaps = routing_schedule(list(block.perm))
        for swap_col in _pack_swaps(swaps):
            for idx, (i, j) in enumerate(swap_col):
                netlist.devices.append(
                    Device(f"{mesh}.b{b}.cr{column}_{idx}", "cr", mesh, b,
                           column, (i, j))
                )
            column += 1
    return column
