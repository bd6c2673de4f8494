"""Builtin job kinds for the design service.

Each handler is registered with :mod:`repro.service.jobs` and follows
the determinism contract spelled out there: shard decomposition
depends only on the job params, shard execution is a pure function of
``(params, shard)`` with all randomness derived from in-params seeds
via :func:`repro.utils.rng.stable_seed`, and aggregation consumes
shard results in index order.  Heavy experiment-layer imports happen
inside the functions so that ``import repro.service`` stays cheap.

Kinds
-----
``robustness-grid``
    The flagship sharded workload: a Monte-Carlo phase-noise grid of
    one mesh design, split into fixed-size trial chunks through
    :func:`repro.core.evaluate_noise_grid_shard` — byte-identical
    aggregates at any worker count.
``evaluate``
    Train + score one design (single shard).
``search``
    One ADEPT topology search (single shard; the topology comes back
    inline as JSON).
``export``
    Netlist/footprint accounting of a topology (single shard).
``recalibrate``
    Online recalibration of a chip snapshot (single shard): rebuild
    the frozen digital twin from JSON params and solve for new phases
    — the job the streaming server submits when its quality window
    trips (:mod:`repro.hardware.recalibration`).
``campaign``
    A declarative experiment matrix (:mod:`repro.campaign`), one shard
    per cell; the paper's Fig. 4/5 sweeps run through it.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import List, Optional

import numpy as np

from ..utils.rng import spawn_rng, stable_seed
from ..utils.serialization import canonical_json_dumps
from .jobs import JobType, register_job_type

__all__ = [
    "resolve_mesh",
    "topology_param",
]


# ----------------------------------------------------------------------
# shared param plumbing
# ----------------------------------------------------------------------

def topology_param(topology) -> dict:
    """A :class:`repro.core.PTCTopology` as a JSON-native params value."""
    return json.loads(topology.to_json())


def resolve_mesh(mesh):
    """Params mesh spec -> library mesh spec.

    Strings (``"mzi"``/``"butterfly"``) pass through; a dict is parsed
    back into a :class:`repro.core.PTCTopology`.
    """
    if isinstance(mesh, str):
        return mesh
    from ..core.topology import PTCTopology

    return PTCTopology.from_json(canonical_json_dumps(mesh))


def _with_defaults(params: dict, defaults: dict) -> dict:
    unknown = set(params) - set(defaults)
    if unknown:
        raise ValueError(f"unknown params {sorted(unknown)}; "
                         f"expected a subset of {sorted(defaults)}")
    merged = dict(defaults)
    merged.update(params)
    return merged


def _floats(xs) -> List[float]:
    return [float(x) for x in xs]


# ----------------------------------------------------------------------
# robustness-grid: sharded Monte-Carlo noise grid
# ----------------------------------------------------------------------

_ROBUSTNESS_DEFAULTS = {
    "mesh": "mzi",               # "mzi" | "butterfly" | topology dict
    "k": 8,
    "dataset": "mnist",
    "n_test": 192,
    "data_seed": 7,
    "model_seed": 0,
    "train_epochs": 0,           # optional pre-grid training budget
    "n_train": 96,
    "noise_stds": [0.02, 0.04, 0.06, 0.08, 0.10],
    "n_runs": 5,
    "seed": 0,
    "shard_trials": 8,           # trials per shard (fixed decomposition)
    "batch_size": 64,
    "backend": "fast",
    "exec_backend": None,
}


def _robustness_model(p: dict):
    """Deterministically (re)build the model a grid job measures.

    Every shard rebuilds the identical model from ``model_seed`` — a
    cheap rng-driven phase init (plus an optional tiny training run),
    so shards stay pure functions of the job params.
    """
    from .. import nn
    from ..data import train_test_split
    from ..onn import PTCLinear, train as train_model
    from ..onn.trainer import TrainConfig

    train_set, test_set = train_test_split(
        p["dataset"], p["n_train"], p["n_test"], seed=p["data_seed"]
    )
    in_features = int(np.prod(train_set.images.shape[1:]))
    n_classes = int(train_set.labels.max()) + 1
    rng = spawn_rng(stable_seed("service-robustness-model", p["model_seed"]))
    model = nn.Sequential(
        nn.Flatten(),
        PTCLinear(in_features, n_classes, k=int(p["k"]),
                  mesh=resolve_mesh(p["mesh"]), rng=rng),
    )
    if p["train_epochs"]:
        train_model(
            model, train_set,
            config=TrainConfig(epochs=int(p["train_epochs"]),
                               batch_size=int(p["batch_size"])),
            rng=rng,
        )
    return model, test_set


def _robustness_expand(params: dict) -> List[dict]:
    p = _with_defaults(params, _ROBUSTNESS_DEFAULTS)
    n_trials = len(p["noise_stds"]) * int(p["n_runs"])
    step = max(1, int(p["shard_trials"]))
    return [
        {"lo": lo, "hi": min(lo + step, n_trials)}
        for lo in range(0, n_trials, step)
    ]


def _robustness_run_shard(params: dict, shard: dict) -> dict:
    from ..core import evaluate_noise_grid_shard

    p = _with_defaults(params, _ROBUSTNESS_DEFAULTS)
    model, test_set = _robustness_model(p)
    accs = evaluate_noise_grid_shard(
        model, test_set, _floats(p["noise_stds"]), int(p["n_runs"]),
        lo=int(shard["lo"]), hi=int(shard["hi"]), seed=int(p["seed"]),
        backend=p["backend"], batch_size=int(p["batch_size"]),
        exec_backend=p["exec_backend"],
    )
    return {"lo": shard["lo"], "hi": shard["hi"], "accs": _floats(accs)}


def _robustness_aggregate(params: dict, shard_results: List[dict]) -> dict:
    p = _with_defaults(params, _ROBUSTNESS_DEFAULTS)
    flat: List[float] = []
    for r in shard_results:
        flat.extend(r["accs"])
    n_runs = int(p["n_runs"])
    stds = _floats(p["noise_stds"])
    grid = np.asarray(flat).reshape(len(stds), n_runs)
    return {
        "noise_stds": stds,
        "n_runs": n_runs,
        "grid": [list(map(float, row)) for row in grid],
        "mean_acc": _floats(grid.mean(axis=1)),
        "std_acc": _floats(grid.std(axis=1)),
    }


register_job_type(JobType(
    kind="robustness-grid",
    expand=_robustness_expand,
    run_shard=_robustness_run_shard,
    aggregate=_robustness_aggregate,
    description="Monte-Carlo phase-noise grid, sharded over trials",
))


# ----------------------------------------------------------------------
# evaluate: train + score one design (single shard)
# ----------------------------------------------------------------------

_EVALUATE_DEFAULTS = {
    "mesh": "mzi",
    "k": 8,
    "dataset": "mnist",
    "model": "cnn2",
    "epochs": 2,
    "noise_std": 0.0,
    "seed": 0,
}


def _evaluate_run_shard(params: dict, shard: dict) -> dict:
    from ..experiments.common import ExperimentScale, train_eval_mesh

    p = _with_defaults(params, _EVALUATE_DEFAULTS)
    scale = ExperimentScale()
    scale.retrain_epochs = int(p["epochs"])
    scale.seed = int(p["seed"])
    acc, _ = train_eval_mesh(
        resolve_mesh(p["mesh"]), int(p["k"]), scale, dataset=p["dataset"],
        model_name=p["model"], noise_std=float(p["noise_std"]),
        seed=int(p["seed"]),
    )
    return {"accuracy": float(acc)}


register_job_type(JobType(
    kind="evaluate",
    expand=lambda params: [{}],
    run_shard=_evaluate_run_shard,
    aggregate=lambda params, results: results[0],
    description="train + evaluate one mesh design",
))


# ----------------------------------------------------------------------
# search: one ADEPT topology search (single shard)
# ----------------------------------------------------------------------

_SEARCH_DEFAULTS = {
    "k": 8,
    "pdk": "amf",
    "f_min": 240.0,              # paper units (1000 um^2)
    "f_max": 300.0,
    "epochs": 4,
    "n_train": 96,
    "seed": 0,
    "name": "adept-service",
}


def _search_run_shard(params: dict, shard: dict) -> dict:
    from ..core import ADEPTConfig, search_ptc
    from ..photonics import get_pdk

    p = _with_defaults(params, _SEARCH_DEFAULTS)
    pdk = get_pdk(p["pdk"])
    cfg = ADEPTConfig(
        k=int(p["k"]),
        pdk=pdk,
        f_min=float(p["f_min"]) * 1000.0,
        f_max=float(p["f_max"]) * 1000.0,
        epochs=int(p["epochs"]),
        warmup_epochs=max(1, int(p["epochs"]) // 6),
        spl_epoch=max(2, (2 * int(p["epochs"])) // 3),
        n_train=int(p["n_train"]),
        n_test=max(64, int(p["n_train"]) // 2),
        seed=int(p["seed"]),
    )
    result = search_ptc(cfg)
    topo = result.topology
    topo.name = p["name"]
    return {
        "topology": topology_param(topo),
        "footprint_kum2": float(topo.footprint(pdk).in_paper_units()),
        "n_blocks": topo.n_blocks,
    }


register_job_type(JobType(
    kind="search",
    expand=lambda params: [{}],
    run_shard=_search_run_shard,
    aggregate=lambda params, results: results[0],
    description="one ADEPT topology search",
))


# ----------------------------------------------------------------------
# export: netlist / footprint accounting (single shard)
# ----------------------------------------------------------------------

_EXPORT_DEFAULTS = {
    "topology": None,            # required: topology dict
    "pdk": "amf",
}


def _export_run_shard(params: dict, shard: dict) -> dict:
    from ..layout import build_netlist
    from ..photonics import get_pdk
    from ..photonics.power import estimate_power

    p = _with_defaults(params, _EXPORT_DEFAULTS)
    if not isinstance(p["topology"], dict):
        raise ValueError("export requires params['topology'] (a dict)")
    topo = resolve_mesh(p["topology"])
    pdk = get_pdk(p["pdk"])
    netlist = build_netlist(topo)
    n_ps, n_dc, n_cr = netlist.device_counts()
    power = estimate_power(topo, pdk)
    return {
        "name": topo.name,
        "k": topo.k,
        "devices": {"ps": n_ps, "dc": n_dc, "cr": n_cr},
        "n_columns": netlist.n_columns,
        "optical_depth": netlist.optical_depth(),
        "footprint_kum2": float(topo.footprint(pdk).in_paper_units()),
        "power_mw": float(power.total_power_mw),
    }


register_job_type(JobType(
    kind="export",
    expand=lambda params: [{}],
    run_shard=_export_run_shard,
    aggregate=lambda params, results: results[0],
    description="netlist + footprint/power accounting of a topology",
))


# ----------------------------------------------------------------------
# recalibrate: drive-program solve for one chip snapshot (single shard)
# ----------------------------------------------------------------------

_RECALIBRATE_DEFAULTS = {
    "k": None,                   # required: mesh size
    "blocks": None,              # required: [BlockSpec dicts]
    "phases": None,              # required: current (B, K) drive program
    "target_re": None,           # required: target real part, (K, K)
    "target_im": None,           # required: target imaginary part
    "method": "adjoint",         # "adjoint" | "spsa"
    "steps": 150,
    "lr": 0.05,
    "seed": 0,
    "t_s": 0.0,                  # snapshot virtual time (provenance)
    "phase_offsets": None,       # frozen drift offsets, (B, K)
    "crosstalk_gamma": 0.0,      # frozen effective coupling
    "crosstalk_radius": 1,
    "dc_t": None,                # realized coupler transmissions
    "loss_diag": None,           # realized per-wire loss
}


def _recalibrate_run_shard(params: dict, shard: dict) -> dict:
    from ..hardware.recalibration import recalibrate_snapshot

    p = _with_defaults(params, _RECALIBRATE_DEFAULTS)
    for key in ("k", "blocks", "phases", "target_re", "target_im"):
        if p[key] is None:
            raise ValueError(f"recalibrate requires params[{key!r}]")
    return recalibrate_snapshot(p)


register_job_type(JobType(
    kind="recalibrate",
    expand=lambda params: [{}],
    run_shard=_recalibrate_run_shard,
    aggregate=lambda params, results: results[0],
    description="solve new drive phases for one frozen chip snapshot",
))


# ----------------------------------------------------------------------
# campaign: one declarative experiment matrix, one shard per cell
# ----------------------------------------------------------------------


#: Per-process memo of validated campaign specs and their cell lists,
#: keyed on the spec's canonical JSON and evicted least recently used
#: first.  A worker serving a campaign then validates and expands its
#: spec once, not once per shard.  Failures are never stored.
_CAMPAIGN_MEMO: "OrderedDict[str, tuple]" = OrderedDict()
_CAMPAIGN_MEMO_SIZE = 8


def _campaign(params: dict) -> tuple:
    """``(validated CampaignSpec, its expanded cells)`` for ``params``."""
    from ..campaign import CampaignSpec, expand

    if set(params) != {"spec"}:
        raise ValueError("campaign params must be exactly {'spec': ...} "
                         "(see repro.campaign.campaign_job_params)")
    key = canonical_json_dumps(params["spec"])
    entry = _CAMPAIGN_MEMO.get(key)
    if entry is None:
        spec = CampaignSpec.from_dict(params["spec"]).validate()
        entry = (spec, expand(spec))
        _CAMPAIGN_MEMO[key] = entry
        if len(_CAMPAIGN_MEMO) > _CAMPAIGN_MEMO_SIZE:
            _CAMPAIGN_MEMO.popitem(last=False)
    else:
        _CAMPAIGN_MEMO.move_to_end(key)
    return entry


def _campaign_expand(params: dict) -> List[dict]:
    _, cells = _campaign(params)
    return [
        {"cell_index": cell.index, "cell_id": cell.cell_id}
        for cell in cells
    ]


def _campaign_run_shard(params: dict, shard: dict) -> dict:
    from ..campaign import get_runner

    spec, cells = _campaign(params)
    cell = cells[int(shard["cell_index"])]
    if cell.cell_id != shard["cell_id"]:
        raise ValueError(
            f"cell id mismatch at index {cell.index}: the spec no longer "
            "expands to the submitted matrix"
        )
    return {
        "cell_id": cell.cell_id,
        "coords": cell.coords,
        "result": get_runner(spec.kind).run(cell.params),
    }


def _campaign_aggregate(params: dict, shard_results: List[dict]) -> dict:
    spec, _ = _campaign(params)
    return {
        "campaign_id": spec.campaign_id,
        "name": spec.name,
        "kind": spec.kind,
        "cells": shard_results,
    }


register_job_type(JobType(
    kind="campaign",
    expand=_campaign_expand,
    run_shard=_campaign_run_shard,
    aggregate=_campaign_aggregate,
    description="declarative campaign matrix, one shard per cell",
))
