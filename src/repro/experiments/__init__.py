"""Paper-reproduction experiments: one module per table/figure.

The artifact map in the top-level README.md lists which module
regenerates which table/figure and which benchmark exercises it; each
module's docstring states its exact-reproduction and shape targets.
"""

import importlib

#: Submodule that defines each public name.  Names load on first access
#: (PEP 562), so ``from repro.experiments.common import ...`` loads that
#: module alone, not every table, figure and ablation module.
_SOURCE = {
    **dict.fromkeys((
        "run_alm_variant_ablation",
        "run_crossing_cost_sweep",
        "run_normalization_ablation",
        "run_perm_init_ablation",
    ), "ablations"),
    **dict.fromkeys((
        "ExperimentScale",
        "MeshResult",
        "TABLE1_WINDOWS",
        "TABLE2_WINDOWS",
        "baseline_results",
        "full_scale",
        "get_data",
        "run_search",
        "train_eval_mesh",
    ), "common"),
    **dict.fromkeys((
        "ExpressivityComparison",
        "NonidealityStudy",
        "PowerComparison",
        "QuantizationStudy",
        "SearchMethodAblation",
        "expressivity_cell",
        "nonideality_cell",
        "power_cell",
        "quantization_cell",
        "run_expressivity_comparison",
        "run_nonideality_study",
        "run_power_comparison",
        "run_quantization_study",
        "run_search_method_ablation",
        "search_method_cell",
    ), "extensions"),
    **dict.fromkeys((
        "NOISE_STDS",
        "RobustnessCurves",
        "check_fig4_shape",
        "run_fig4_part",
    ), "fig4"),
    **dict.fromkeys((
        "BETA_VALUES",
        "RHO0_VALUES",
        "check_fig5a_shape",
        "check_fig5b_shape",
        "run_fig5a",
        "run_fig5b",
    ), "fig5"),
    **dict.fromkeys((
        "format_row",
        "mesh_results_csv",
        "mesh_results_markdown",
        "print_table",
        "robustness_csv",
        "rows_to_csv",
        "rows_to_markdown",
    ), "report"),
    **dict.fromkeys(("Table1Result", "check_table1_shape", "run_table1"),
                    "table1"),
    **dict.fromkeys(("Table2Result", "check_table2_shape", "run_table2"),
                    "table2"),
    **dict.fromkeys((
        "PAPER_TABLE3",
        "Table3Result",
        "check_table3_shape",
        "run_table3",
        "search_transfer_topologies",
    ), "table3"),
}

__all__ = [
    "ExpressivityComparison",
    "NonidealityStudy",
    "PowerComparison",
    "QuantizationStudy",
    "SearchMethodAblation",
    "run_expressivity_comparison",
    "run_nonideality_study",
    "run_power_comparison",
    "run_quantization_study",
    "run_search_method_ablation",
    "expressivity_cell",
    "nonideality_cell",
    "power_cell",
    "quantization_cell",
    "search_method_cell",
    "format_row",
    "mesh_results_csv",
    "mesh_results_markdown",
    "print_table",
    "robustness_csv",
    "rows_to_csv",
    "rows_to_markdown",
    "BETA_VALUES",
    "ExperimentScale",
    "MeshResult",
    "NOISE_STDS",
    "PAPER_TABLE3",
    "RHO0_VALUES",
    "RobustnessCurves",
    "TABLE1_WINDOWS",
    "TABLE2_WINDOWS",
    "Table1Result",
    "Table2Result",
    "Table3Result",
    "baseline_results",
    "check_fig4_shape",
    "check_fig5a_shape",
    "check_fig5b_shape",
    "check_table1_shape",
    "check_table2_shape",
    "check_table3_shape",
    "full_scale",
    "get_data",
    "run_alm_variant_ablation",
    "run_crossing_cost_sweep",
    "run_fig4_part",
    "run_fig5a",
    "run_fig5b",
    "run_normalization_ablation",
    "run_perm_init_ablation",
    "run_search",
    "run_table1",
    "run_table2",
    "run_table3",
    "search_transfer_topologies",
    "train_eval_mesh",
]


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value
