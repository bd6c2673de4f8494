"""Foundry process design kits (PDKs).

A PDK specifies the layout footprint of each basic optical component.
The paper evaluates on two real foundry PDKs whose numbers it prints:

* **AMF** (Advanced Micro Foundry) [paper Table 1]:
  PS 6800 um^2, DC 1500 um^2, CR 64 um^2 — crossings are nearly free,
  so searched designs may use them liberally.
* **AIM Photonics** [paper Table 2]:
  PS 2500 um^2, DC 4000 um^2, CR 4900 um^2 — crossings are *larger
  than couplers*, so searched designs must avoid them.

All areas are in um^2.  Table footprints in the paper are reported in
units of 1000 um^2; :meth:`FoundryPDK.footprint_k` applies that scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class FoundryPDK:
    """Device footprint specification of a silicon-photonics foundry."""

    name: str
    ps_area: float  # phase shifter, um^2
    dc_area: float  # directional coupler, um^2
    cr_area: float  # waveguide crossing, um^2

    def footprint(self, n_ps: int, n_dc: int, n_cr: int) -> float:
        """Total circuit area in um^2 for the given device counts."""
        if min(n_ps, n_dc, n_cr) < 0:
            raise ValueError("device counts must be non-negative")
        return n_ps * self.ps_area + n_dc * self.dc_area + n_cr * self.cr_area

    def footprint_k(self, n_ps: int, n_dc: int, n_cr: int) -> float:
        """Total area in the paper's reporting unit (1000 um^2)."""
        return self.footprint(n_ps, n_dc, n_cr) / 1000.0


#: AMF foundry PDK (paper Table 1 caption).
AMF = FoundryPDK(name="AMF", ps_area=6800.0, dc_area=1500.0, cr_area=64.0)

#: AIM Photonics PDK (paper Table 2 caption).
AIM = FoundryPDK(name="AIM", ps_area=2500.0, dc_area=4000.0, cr_area=4900.0)

_REGISTRY: Dict[str, FoundryPDK] = {"amf": AMF, "aim": AIM}

#: Table 1 footprint windows per PTC size (1000 um^2), AMF PDK.
TABLE1_WINDOWS: Dict[int, List[Tuple[float, float]]] = {
    8: [(240, 300), (336, 420), (432, 540), (528, 660), (624, 780)],
    16: [(480, 600), (672, 840), (864, 1080), (1056, 1320), (1248, 1560)],
    32: [(960, 1200), (1344, 1680), (1728, 2160), (2112, 2640), (2496, 3120)],
}

#: Table 2 footprint windows (16x16, AIM PDK), ADEPT-a0 .. ADEPT-a5.
TABLE2_WINDOWS: List[Tuple[float, float]] = [
    (384, 480), (480, 600), (672, 840), (864, 1080), (1056, 1320), (1248, 1560),
]


def get_pdk(name: str) -> FoundryPDK:
    """Look up a PDK by case-insensitive name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown PDK {name!r}; available: {sorted(_REGISTRY)}")
    return _REGISTRY[key]


def register_pdk(pdk: FoundryPDK) -> None:
    """Register a custom foundry PDK (e.g., for what-if studies)."""
    _REGISTRY[pdk.name.lower()] = pdk


def available_pdks():
    return sorted(_REGISTRY)
