"""Photonic device models, foundry PDKs, crossings, and footprint math."""

import importlib

#: Submodule that defines each public name.  Names load on first access
#: (PEP 562): ``devices`` pulls in autograd and ``nonideality``/``power``
#: pull in core, none of which the PDK registry or footprint math need.
_SOURCE = {
    **dict.fromkeys((
        "count_inversions",
        "crossings_of_matrix",
        "is_permutation_matrix",
        "matrix_to_perm",
        "perm_to_matrix",
        "random_permutation",
        "routing_schedule",
    ), "crossings"),
    **dict.fromkeys((
        "T_5050",
        "apply_ps",
        "crossing_matrix",
        "dc_layer_matrix",
        "dc_layer_matrix_np",
        "dc_matrix",
        "is_unitary",
        "mzi_layer_matrix",
        "mzi_matrix",
        "ps_column",
        "ps_matrix",
        "scatter_matrix",
    ), "devices"),
    **dict.fromkeys((
        "DriftSpec",
        "FabricationSample",
        "NonidealitySpec",
        "NonidealTopologyFactory",
        "crossings_per_wire",
        "crosstalk_gamma_at",
        "db_to_amplitude",
        "fidelity",
        "noisy_block_matrix",
        "noisy_unitary",
        "sample_fabrication",
        "thermal_crosstalk_matrix",
        "unitary_fidelity_under_noise",
    ), "nonideality"),
    **dict.fromkeys((
        "FootprintBreakdown",
        "block_footprint",
        "block_footprint_bounds",
        "butterfly_footprint",
        "mzi_onn_footprint",
        "ptc_footprint",
        "supermesh_block_bounds",
    ), "footprint"),
    **dict.fromkeys(("PowerConfig", "PowerReport", "estimate_power"), "power"),
    **dict.fromkeys(("AIM", "AMF", "FoundryPDK", "available_pdks", "get_pdk",
                     "register_pdk"), "pdk"),
}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value
