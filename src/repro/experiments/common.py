"""Shared infrastructure for the paper-reproduction experiments.

Every table and figure of the paper has a module in this package that
regenerates it.  All experiments run at two scales:

* **fast** (default) — miniature training budgets sized for CPU-only
  continuous integration; footprint arithmetic is exact at any scale,
  accuracy numbers are lower than the paper's but orderings hold.
* **full** (``REPRO_FULL=1``) — larger budgets approaching the paper's
  settings (still CPU-feasible overnight).

The paper's footprint windows (Tables 1-2, in 1000 um^2, with
F_min = 0.8 * F_max on AMF) are encoded verbatim.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import ADEPTConfig, ADEPTSearch, PTCTopology, variation_aware_train
from ..data import Dataset, train_test_split
from ..onn import TrainConfig, build_model, evaluate
from ..photonics import (
    AIM,
    AMF,
    FootprintBreakdown,
    FoundryPDK,
    butterfly_footprint,
    mzi_onn_footprint,
)
from ..photonics.pdk import TABLE1_WINDOWS, TABLE2_WINDOWS
from ..utils.rng import spawn_rng

#: Paper-reported reference numbers, used in printed comparisons.
PAPER_TABLE1_ACCURACY = {
    8: {"mzi": 98.63, "fft": 98.43,
        "adept": [98.26, 98.49, 98.56, 98.48, 98.69]},
    16: {"mzi": 98.65, "fft": 98.25,
         "adept": [98.16, 98.40, 98.24, 98.56, 98.57]},
    32: {"mzi": 98.68, "fft": 97.97,
         "adept": [98.10, 98.18, 98.36, 98.49, 98.39]},
}


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("0", "", "false")


@dataclass
class ExperimentScale:
    """Training-budget knobs shared by all experiments."""

    n_train: int = 384
    n_test: int = 192
    search_epochs: int = 8
    search_warmup: int = 2
    search_spl_epoch: int = 5
    retrain_epochs: int = 6
    batch_size: int = 48
    search_lr: float = 5e-3  # compressed budgets need a hotter LR
    proxy_channels: int = 6
    model_width: float = 0.25
    noise_runs: int = 5
    seed: int = 0

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        if full_scale():
            return cls(
                n_train=2048,
                n_test=512,
                search_epochs=30,
                search_warmup=5,
                search_spl_epoch=18,
                retrain_epochs=20,
                batch_size=64,
                search_lr=2e-3,
                proxy_channels=16,
                model_width=0.5,
                noise_runs=20,
            )
        return cls()


@dataclass
class MeshResult:
    """One row cell: a mesh design evaluated on the proxy task."""

    name: str
    footprint: FootprintBreakdown
    accuracy: float
    window: Optional[Tuple[float, float]] = None  # 1000 um^2
    topology: Optional[PTCTopology] = None


_DATA_CACHE: Dict[tuple, Tuple[Dataset, Dataset]] = {}


def get_data(name: str, scale: ExperimentScale) -> Tuple[Dataset, Dataset]:
    """Dataset pair cached across experiments in one process."""
    key = (name, scale.n_train, scale.n_test, scale.seed)
    if key not in _DATA_CACHE:
        _DATA_CACHE[key] = train_test_split(
            name, scale.n_train, scale.n_test, seed=scale.seed
        )
    return _DATA_CACHE[key]


def train_eval_mesh(
    mesh,
    k: int,
    scale: ExperimentScale,
    dataset: str = "mnist",
    model_name: str = "cnn2",
    noise_std: float = 0.0,
    seed: Optional[int] = None,
):
    """Train a model with the given mesh on a dataset; return
    (accuracy_percent, model)."""
    train_set, test_set = get_data(dataset, scale)
    rng = spawn_rng(seed if seed is not None else scale.seed)
    model = build_model(
        model_name,
        mesh,
        k=k,
        in_channels=train_set.images.shape[1],
        image_size=train_set.images.shape[2],
        width_mult=scale.model_width,
        rng=rng,
    )
    cfg = TrainConfig(
        epochs=scale.retrain_epochs, batch_size=scale.batch_size, lr=2e-3
    )
    if noise_std > 0:
        variation_aware_train(model, train_set, test_set, noise_std=noise_std,
                              config=cfg, rng=rng)
    else:
        from ..onn import train as _train

        _train(model, train_set, test_set, config=cfg, rng=rng)
    return 100.0 * evaluate(model, test_set), model


def run_search(
    k: int,
    pdk: FoundryPDK,
    window_kum2: Tuple[float, float],
    scale: ExperimentScale,
    name: str = "adept",
    seed: Optional[int] = None,
):
    """One ADEPT search for a footprint window given in 1000 um^2."""
    f_min, f_max = window_kum2[0] * 1000.0, window_kum2[1] * 1000.0
    cfg = ADEPTConfig(
        k=k,
        pdk=pdk,
        f_min=f_min,
        f_max=f_max,
        epochs=scale.search_epochs,
        warmup_epochs=scale.search_warmup,
        spl_epoch=scale.search_spl_epoch,
        lr=scale.search_lr,
        batch_size=scale.batch_size,
        n_train=scale.n_train,
        n_test=scale.n_test,
        proxy_channels=scale.proxy_channels,
        seed=seed if seed is not None else scale.seed,
    )
    tr, te = get_data("mnist", scale)
    result = ADEPTSearch(cfg, tr, te).run()
    result.topology.name = name
    return result


def baseline_results(
    k: int, pdk: FoundryPDK, scale: ExperimentScale, with_accuracy: bool = True
) -> List[MeshResult]:
    """MZI-ONN and FFT-ONN rows (footprints analytic, exact)."""
    rows = []
    for name, fb, mesh in (
        ("MZI-ONN", mzi_onn_footprint(pdk, k), "mzi"),
        ("FFT-ONN", butterfly_footprint(pdk, k), "butterfly"),
    ):
        acc = (
            train_eval_mesh(mesh, k, scale)[0] if with_accuracy else float("nan")
        )
        rows.append(MeshResult(name=name, footprint=fb, accuracy=acc))
    return rows


def format_row(r: MeshResult) -> str:
    """Back-compat alias — the writer moved to :mod:`.report`."""
    from .report import format_row as _format_row

    return _format_row(r)


def print_table(title: str, rows: Sequence[MeshResult]) -> None:
    """Back-compat alias — the writer moved to :mod:`.report`."""
    from .report import print_table as _print_table

    _print_table(title, rows)
