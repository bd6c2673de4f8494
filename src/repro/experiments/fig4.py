"""Figure 4: noise robustness of 16x16 PTCs.

All designs receive variation-aware training (Gaussian phase noise,
sigma = 0.02) and are then evaluated under inference-time phase noise
sigma in {0.02 ... 0.10}, averaging over repeated noisy runs
(paper: 20 runs, +-3 sigma band).

(a) 2-layer CNN on MNIST;  (b) LeNet-5 on FashionMNIST.

Shape target: the deep MZI mesh degrades fastest as noise grows; the
searched ADEPT designs track or beat the log-depth FFT mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import PTCTopology, noise_robustness_curve, variation_aware_train
from ..onn import TrainConfig, build_model
from .common import ExperimentScale, get_data
from ..utils.rng import spawn_rng, stable_hash

NOISE_STDS = (0.02, 0.04, 0.06, 0.08, 0.10)

_PART_TASKS = {
    "a": ("cnn2", "mnist"),
    "b": ("lenet5", "fmnist"),
}


@dataclass
class RobustnessCurves:
    """mesh name -> list of (noise_std, mean_acc_percent, std_acc)."""

    part: str
    curves: Dict[str, List[Tuple[float, float, float]]] = field(default_factory=dict)


def mesh_noise_curve(
    part: str,
    mesh_name: str,
    mesh,
    k: int,
    scale: ExperimentScale,
    noise_stds: Sequence[float],
    backend: str = "fast",
) -> List[Tuple[float, float, float]]:
    """Variation-aware-train one mesh and sweep its noise robustness.

    The per-mesh unit of Fig. 4 — shared verbatim by the in-process
    loop in :func:`run_fig4_part` and the ``fig4-noise`` campaign
    cells, so both paths produce identical curves at a fixed seed.  Returns ``(noise_std, mean_acc_%, std_acc_%)``
    triples.
    """
    model_name, dataset = _PART_TASKS[part]
    train_set, test_set = get_data(dataset, scale)
    rng = spawn_rng(scale.seed + stable_hash(part, mesh_name) % 1000)
    model = build_model(
        model_name,
        mesh,
        k=k,
        in_channels=train_set.images.shape[1],
        image_size=train_set.images.shape[2],
        width_mult=scale.model_width,
        rng=rng,
    )
    variation_aware_train(
        model,
        train_set,
        test_set,
        noise_std=0.02,
        config=TrainConfig(
            epochs=scale.retrain_epochs, batch_size=scale.batch_size, lr=2e-3
        ),
        rng=rng,
    )
    points = noise_robustness_curve(
        model, test_set, noise_stds=noise_stds, n_runs=scale.noise_runs,
        seed=scale.seed, backend=backend,
    )
    return [(p.noise_std, 100 * p.mean_acc, 100 * p.std_acc) for p in points]


def run_fig4_part(
    part: str,
    topologies: Dict[str, PTCTopology],
    k: int = 16,
    scale: Optional[ExperimentScale] = None,
    noise_stds: Sequence[float] = NOISE_STDS,
    backend: str = "fast",
    n_workers: int = 0,
) -> RobustnessCurves:
    """One subfigure: part 'a' = cnn2/mnist, part 'b' = lenet5/fmnist.

    The noise sweep runs through the trial-batched Monte-Carlo engine
    (``backend="fast"``; see :func:`repro.core.evaluate_noise_grid`);
    ``backend="reference"`` replays the sequential per-run loop.  All
    seeds derive from :func:`repro.utils.rng.stable_hash`, so repeated
    invocations produce identical curves regardless of
    ``PYTHONHASHSEED``.

    Since the campaign redesign this entry point is a thin shim over
    the ``fig4-noise`` campaign (see :mod:`repro.campaign.studies` and
    ``examples/campaigns/``): one cell per mesh, shared noise grid in
    the cell params so each mesh trains exactly once.  ``n_workers >
    0`` shards the cells through the design service's persistent queue
    and a local multiprocess pool — same curves, one process per mesh
    instead of a sequential loop.
    """
    scale = scale or ExperimentScale.from_env()
    model_name, dataset = _PART_TASKS[part]
    from ..campaign import run_campaign
    from ..campaign.studies import fig4_spec

    spec = fig4_spec(part, topologies=topologies, k=k, scale=scale,
                     noise_stds=noise_stds, backend=backend)
    out = RobustnessCurves(part=part)
    print(f"\n=== Fig. 4({part}) - {model_name} on {dataset}, noise sweep ===")
    if n_workers > 0:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-fig4-") as root:
            run = run_campaign(spec, n_workers=n_workers, root=root)
    else:
        run = run_campaign(spec)
    for cell, r in zip(run.cells, run.results):
        mesh_name = cell.coords["mesh"]
        curve = [tuple(c) for c in r["curve"]]
        out.curves[mesh_name] = curve
        series = "  ".join(f"{s:.2f}:{m:5.1f}+-{3 * sd:4.1f}" for s, m, sd in curve)
        print(f"  {mesh_name:<9} {series}")
    return out


def degradation(curve: List[Tuple[float, float, float]]) -> float:
    """Accuracy drop (percentage points) from the lowest to the highest
    noise level — the Fig. 4 robustness metric."""
    return curve[0][1] - curve[-1][1]


def check_fig4_shape(result: RobustnessCurves) -> List[str]:
    problems: List[str] = []
    if "MZI" not in result.curves:
        return ["missing MZI curve"]
    mzi_drop = degradation(result.curves["MZI"])
    for name, curve in result.curves.items():
        if name in ("MZI", "FFT"):
            continue
        # Searched designs must not degrade meaningfully faster than the
        # deep MZI mesh (paper: they track or beat FFT).
        if degradation(curve) > mzi_drop + 10.0:
            problems.append(
                f"{name} degrades {degradation(curve):.1f}pp vs MZI {mzi_drop:.1f}pp"
            )
    return problems
