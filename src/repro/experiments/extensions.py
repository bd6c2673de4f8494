"""Extension studies beyond the paper's tables and figures.

Each function here backs one bench in ``benchmarks/``:

* :func:`run_search_method_ablation` — differentiable ADEPT vs the
  black-box baselines (random, evolutionary) in the same space and
  footprint window.  Substantiates the paper's claim that the design
  space is too large for naive search.
* :func:`run_expressivity_comparison` — direct matrix-representability
  measurement (unitary-fitting error) of the three PTC families,
  replacing the accuracy proxy with the quantity it proxies.
* :func:`run_quantization_study` — post-training vs
  quantization-aware (STE) low-bit phase control, ROQ-style.
* :func:`run_nonideality_study` — depth vs robustness at the device
  level: insertion loss, coupler imbalance, and thermal crosstalk
  degrade deep meshes faster than shallow ones (the mechanism behind
  Fig. 4's MZI collapse).

Since the campaign redesign (see :mod:`repro.campaign` and
``docs/CAMPAIGNS.md``) each ``run_*`` entry point is a deprecated shim:
it builds the equivalent :class:`repro.campaign.CampaignSpec` (via
:mod:`repro.campaign.studies`) and routes every matrix cell through the
campaign engine.  The per-cell science lives in the ``*_cell``
functions below — pure functions of JSON-native params, shared by the
shims, the campaign configs in ``examples/campaigns/``, and the
service-sharded route.  The pre-redesign loops are kept verbatim as
``engine="reference"`` oracles; ``tests/campaign/test_campaign_parity.py`` pins
both paths byte-identical at fixed seeds.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.expressivity import build_factory, fit_unitary
from ..analysis.pareto import ParetoPoint, pareto_front
from ..core.baseline_search import (
    EvolutionarySearch,
    RandomSearch,
    is_feasible,
    make_expressivity_evaluator,
    random_feasible_topology,
)
from ..core.quantization import make_phase_quantizer, quantize_phase
from ..core.topology import PTCTopology
from ..photonics.nonideality import (
    NonidealitySpec,
    unitary_fidelity_under_noise,
)
from ..photonics.pdk import AMF, FoundryPDK, get_pdk
from ..utils.serialization import canonical_json_dumps
from .common import ExperimentScale, run_search

__all__ = [
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
]


def _resolve_pdk(pdk: Union[str, FoundryPDK]) -> FoundryPDK:
    return get_pdk(pdk) if isinstance(pdk, str) else pdk


def _check_engine(engine: str) -> None:
    if engine not in ("campaign", "reference"):
        raise ValueError(
            f"engine must be 'campaign' or 'reference', got {engine!r}"
        )


def _warn_shim(legacy: str, builder: str) -> None:
    warnings.warn(
        f"{legacy} is a deprecated shim over the campaign engine; build "
        f"the spec with repro.campaign.studies.{builder} and run it via "
        "repro.campaign.run_campaign (see docs/CAMPAIGNS.md)",
        DeprecationWarning,
        stacklevel=3,
    )


# ----------------------------------------------------------------------
# search-method ablation
# ----------------------------------------------------------------------

@dataclass
class SearchMethodAblation:
    """Best design per search method, scored by expressivity."""

    window: Tuple[float, float]  # um^2
    methods: List[str] = field(default_factory=list)
    scores: List[float] = field(default_factory=list)
    footprints: List[float] = field(default_factory=list)  # um^2
    feasible: List[bool] = field(default_factory=list)
    topologies: List[PTCTopology] = field(default_factory=list)

    def score_of(self, method: str) -> float:
        return self.scores[self.methods.index(method)]


def search_method_cell(
    method: str,
    k: int = 8,
    pdk: Union[str, FoundryPDK] = AMF,
    window_kum2: Tuple[float, float] = (240.0, 300.0),
    budget: int = 12,
    scale: Union[None, dict, ExperimentScale] = None,
    seed: int = 0,
) -> dict:
    """One search method of the ablation — the campaign cell unit.

    Reproduces the corresponding candidate of the legacy loop exactly:
    every method seeds its own generators from ``seed``, so a single
    method rerun matches the joint run value-for-value.
    """
    pdk = _resolve_pdk(pdk)
    if isinstance(scale, dict):
        scale = ExperimentScale(**scale)
    scale = scale or ExperimentScale()
    f_min, f_max = window_kum2[0] * 1000.0, window_kum2[1] * 1000.0
    score_fn = make_expressivity_evaluator(steps=200, n_targets=2, seed=seed)

    if method == "adept":
        topo = run_search(k, pdk, window_kum2, scale, name="adept",
                          seed=seed).topology
    elif method == "random":
        topo = RandomSearch(
            k, pdk, f_min, f_max,
            evaluate=make_expressivity_evaluator(steps=80, seed=seed),
            seed=seed).run(n_samples=budget).topology
    elif method == "evolutionary":
        population = max(2, budget // 4)
        topo = EvolutionarySearch(
            k, pdk, f_min, f_max,
            evaluate=make_expressivity_evaluator(steps=80, seed=seed),
            population=population, seed=seed,
        ).run(generations=max(1, (budget - population) // population),
              children_per_gen=population).topology
    else:
        raise ValueError(
            f"unknown method {method!r}; "
            "expected adept | random | evolutionary"
        )
    return {
        "score": float(score_fn(topo)),
        "footprint_um2": float(topo.footprint(pdk).total),
        "feasible": bool(is_feasible(topo, pdk, f_min, f_max)),
        "topology": json.loads(topo.to_json()),
    }


def run_search_method_ablation(
    k: int = 8,
    pdk: FoundryPDK = AMF,
    window_kum2: Tuple[float, float] = (240.0, 300.0),
    budget: int = 12,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0,
    engine: str = "campaign",
) -> SearchMethodAblation:
    """ADEPT vs random vs evolutionary at a matched evaluation budget.

    All methods search the same (coupler mask, CR permutation, block
    count) space inside the same footprint window; the final designs
    are scored with the same expressivity evaluator (1 - fit error to
    random unitaries).

    Deprecated shim: ``engine="campaign"`` (default) runs the
    ``search-ablation`` campaign; ``engine="reference"`` replays the
    pre-redesign loop (the parity oracle).
    """
    _check_engine(engine)
    if engine == "reference":
        return _run_search_method_ablation_reference(
            k, pdk, window_kum2, budget, scale, seed
        )
    _warn_shim("run_search_method_ablation", "search_ablation_spec")
    from ..campaign import run_campaign
    from ..campaign.studies import search_ablation_spec

    spec = search_ablation_spec(k=k, pdk=pdk, window_kum2=window_kum2,
                                budget=budget, scale=scale, seed=seed)
    run = run_campaign(spec)
    out = SearchMethodAblation(
        window=(window_kum2[0] * 1000.0, window_kum2[1] * 1000.0)
    )
    for cell, r in zip(run.cells, run.results):
        out.methods.append(cell.coords["method"])
        out.scores.append(r["score"])
        out.footprints.append(r["footprint_um2"])
        out.feasible.append(r["feasible"])
        out.topologies.append(
            PTCTopology.from_json(canonical_json_dumps(r["topology"]))
        )
    return out


def _run_search_method_ablation_reference(
    k: int,
    pdk: FoundryPDK,
    window_kum2: Tuple[float, float],
    budget: int,
    scale: Optional[ExperimentScale],
    seed: int,
) -> SearchMethodAblation:
    """The pre-redesign loop, kept verbatim as the parity oracle."""
    scale = scale or ExperimentScale()
    f_min, f_max = window_kum2[0] * 1000.0, window_kum2[1] * 1000.0
    score_fn = make_expressivity_evaluator(steps=200, n_targets=2, seed=seed)
    out = SearchMethodAblation(window=(f_min, f_max))

    adept = run_search(k, pdk, window_kum2, scale, name="adept", seed=seed)
    candidates = [("adept", adept.topology)]

    rnd = RandomSearch(k, pdk, f_min, f_max,
                       evaluate=make_expressivity_evaluator(steps=80, seed=seed),
                       seed=seed).run(n_samples=budget)
    candidates.append(("random", rnd.topology))

    population = max(2, budget // 4)
    evo = EvolutionarySearch(
        k, pdk, f_min, f_max,
        evaluate=make_expressivity_evaluator(steps=80, seed=seed),
        population=population, seed=seed,
    ).run(generations=max(1, (budget - population) // population),
          children_per_gen=population)
    candidates.append(("evolutionary", evo.topology))

    for name, topo in candidates:
        out.methods.append(name)
        out.scores.append(float(score_fn(topo)))
        out.footprints.append(topo.footprint(pdk).total)
        out.feasible.append(is_feasible(topo, pdk, f_min, f_max))
        out.topologies.append(topo)
    return out


# ----------------------------------------------------------------------
# expressivity comparison
# ----------------------------------------------------------------------

@dataclass
class ExpressivityComparison:
    """Unitary-fit error and footprint per PTC family at one size."""

    k: int
    names: List[str] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)
    fidelities: List[float] = field(default_factory=list)
    footprints_kum2: List[float] = field(default_factory=list)

    def error_of(self, name: str) -> float:
        return self.errors[self.names.index(name)]

    def front(self) -> List[ParetoPoint]:
        points = [
            ParetoPoint(footprint=f, score=1.0 - e, label=n)
            for n, e, f in zip(self.names, self.errors, self.footprints_kum2)
        ]
        return pareto_front(points)


def expressivity_cell(
    design: str,
    k: int = 8,
    pdk: Union[str, FoundryPDK] = AMF,
    steps: int = 400,
    n_targets: int = 2,
    seed: int = 0,
) -> dict:
    """One design family of the comparison — the campaign cell unit.

    The adept-a1/adept-a5 cells redraw *both* searched topologies from
    the shared ``default_rng(seed)`` stream (shallow first, deep
    second), exactly as the legacy joint loop did, so each cell's
    topology matches the legacy run bit-for-bit.  Fits use fresh
    per-target generators and are independent across designs.
    """
    from scipy.stats import unitary_group

    from ..photonics.footprint import butterfly_footprint, mzi_onn_footprint
    from .common import TABLE1_WINDOWS

    pdk = _resolve_pdk(pdk)
    if design == "mzi":
        kind, topo = "mzi", None
        fp = mzi_onn_footprint(pdk, k).total / 1e3
    elif design == "fft":
        kind, topo = "fft", None
        fp = butterfly_footprint(pdk, k).total / 1e3
    elif design in ("adept-a1", "adept-a5"):
        rng = np.random.default_rng(seed)
        windows = TABLE1_WINDOWS[k]
        shallow = random_feasible_topology(
            k, pdk, windows[0][0] * 1e3, windows[0][1] * 1e3, rng=rng,
            name="adept-a1")
        deep = random_feasible_topology(
            k, pdk, windows[-1][0] * 1e3, windows[-1][1] * 1e3, rng=rng,
            name="adept-a5")
        kind = "topology"
        topo = shallow if design == "adept-a1" else deep
        fp = topo.footprint(pdk).total / 1e3
    else:
        raise ValueError(
            f"unknown design {design!r}; "
            "expected mzi | fft | adept-a1 | adept-a5"
        )

    errs, fids = [], []
    for t in range(n_targets):
        factory = build_factory(kind, k, topology=topo,
                                rng=np.random.default_rng(seed + t))
        target = unitary_group.rvs(k, random_state=seed + 100 + t)
        res = fit_unitary(factory, target, steps=steps, lr=0.05,
                          rng=np.random.default_rng(seed + 200 + t))
        errs.append(res.error)
        fids.append(res.fidelity)
    return {
        "error": float(np.mean(errs)),
        "fidelity": float(np.mean(fids)),
        "footprint_kum2": float(fp),
    }


def run_expressivity_comparison(
    k: int = 8,
    pdk: FoundryPDK = AMF,
    steps: int = 400,
    n_targets: int = 2,
    seed: int = 0,
    engine: str = "campaign",
) -> ExpressivityComparison:
    """Fit error to Haar-random unitaries for MZI / FFT / searched-space
    topologies at two depths (windows a1 and a5 of Table 1).

    The expected ordering mirrors the paper's accuracy columns:
    MZI (universal) < deep ADEPT-space < shallow ADEPT-space ~ FFT,
    with footprints in the opposite order — the Pareto trade-off.

    Deprecated shim: ``engine="campaign"`` (default) runs the
    ``expressivity`` campaign; ``engine="reference"`` replays the
    pre-redesign loop (the parity oracle).
    """
    _check_engine(engine)
    if engine == "reference":
        return _run_expressivity_comparison_reference(
            k, pdk, steps, n_targets, seed
        )
    _warn_shim("run_expressivity_comparison", "expressivity_spec")
    from ..campaign import run_campaign
    from ..campaign.studies import expressivity_spec

    spec = expressivity_spec(k=k, pdk=pdk, steps=steps, n_targets=n_targets,
                             seed=seed)
    run = run_campaign(spec)
    out = ExpressivityComparison(k=k)
    for cell, r in zip(run.cells, run.results):
        out.names.append(cell.coords["design"])
        out.errors.append(r["error"])
        out.fidelities.append(r["fidelity"])
        out.footprints_kum2.append(r["footprint_kum2"])
    return out


def _run_expressivity_comparison_reference(
    k: int,
    pdk: FoundryPDK,
    steps: int,
    n_targets: int,
    seed: int,
) -> ExpressivityComparison:
    """The pre-redesign loop, kept verbatim as the parity oracle."""
    from scipy.stats import unitary_group

    from ..photonics.footprint import butterfly_footprint, mzi_onn_footprint
    from .common import TABLE1_WINDOWS

    rng = np.random.default_rng(seed)
    windows = TABLE1_WINDOWS[k]
    shallow = random_feasible_topology(
        k, pdk, windows[0][0] * 1e3, windows[0][1] * 1e3, rng=rng, name="adept-a1")
    deep = random_feasible_topology(
        k, pdk, windows[-1][0] * 1e3, windows[-1][1] * 1e3, rng=rng, name="adept-a5")

    entries = [
        ("mzi", "mzi", None, mzi_onn_footprint(pdk, k).total / 1e3),
        ("fft", "fft", None, butterfly_footprint(pdk, k).total / 1e3),
        ("adept-a1", "topology", shallow, shallow.footprint(pdk).total / 1e3),
        ("adept-a5", "topology", deep, deep.footprint(pdk).total / 1e3),
    ]
    out = ExpressivityComparison(k=k)
    for name, kind, topo, fp in entries:
        errs, fids = [], []
        for t in range(n_targets):
            factory = build_factory(kind, k, topology=topo,
                                    rng=np.random.default_rng(seed + t))
            target = unitary_group.rvs(k, random_state=seed + 100 + t)
            res = fit_unitary(factory, target, steps=steps, lr=0.05,
                              rng=np.random.default_rng(seed + 200 + t))
            errs.append(res.error)
            fids.append(res.fidelity)
        out.names.append(name)
        out.errors.append(float(np.mean(errs)))
        out.fidelities.append(float(np.mean(fids)))
        out.footprints_kum2.append(float(fp))
    return out


# ----------------------------------------------------------------------
# quantization study
# ----------------------------------------------------------------------

@dataclass
class QuantizationStudy:
    """Fit error vs phase bit width, post-training vs STE-trained."""

    k: int
    bit_widths: List[int] = field(default_factory=list)
    full_precision_error: float = 0.0
    ptq_errors: List[float] = field(default_factory=list)  # post-training quant
    qat_errors: List[float] = field(default_factory=list)  # STE-trained


def quantization_cell(
    bits: int,
    k: int = 8,
    steps: int = 400,
    seed: int = 0,
) -> dict:
    """One bit width of the study — the campaign cell unit.

    The cell redoes the full-precision fit (seeded identically to the
    legacy run, so it lands on the same solution), then measures PTQ
    and QAT at this bit width alone.  The legacy loop's per-bit work
    was already independent — PTQ restores the trained phases after
    each width, QAT rebuilds a fresh factory per width — so a single
    width rerun matches the joint run value-for-value.
    """
    from scipy.stats import unitary_group

    from ..autograd import Tensor
    from ..core.quantization import ste_quantize_phase
    from ..nn.module import Parameter
    from ..optim import Adam

    target = unitary_group.rvs(k, random_state=seed)
    target_norm = float(np.linalg.norm(target))

    def realized(factory, psi: np.ndarray) -> np.ndarray:
        u = factory.build().data[0]
        return np.exp(-1j * psi)[:, None] * u

    factory = build_factory("mzi", k, rng=np.random.default_rng(seed))
    full = fit_unitary(factory, target, steps=steps, lr=0.05,
                       rng=np.random.default_rng(seed + 1))

    # PTQ at this width (phases restored afterwards, as in the loop).
    saved = [p.data.copy() for p in factory.parameters()]
    for p in factory.parameters():
        p.data = quantize_phase(p.data, bits)
    psi_q = quantize_phase(full.output_phase, bits)
    u = realized(factory, psi_q)
    ptq_error = float(np.linalg.norm(u - target)) / target_norm
    for p, data in zip(factory.parameters(), saved):
        p.data = data

    # QAT at this width — identical to one iteration of the legacy
    # per-bit loop (fresh factory seeded from `seed`, phases copied
    # from the full-precision solution).
    trained = [p.data.copy() for p in factory.parameters()]
    t_target = Tensor(target.reshape(1, k, k))
    f = build_factory("mzi", k, rng=np.random.default_rng(seed))
    for p, data in zip(f.parameters(), trained):
        p.data = data.copy()
    f.phase_transform = make_phase_quantizer(bits)
    psi = Parameter(full.output_phase.copy())
    params = list(f.parameters()) + [psi]
    opt = Adam(params, lr=0.01)
    best = float("inf")
    best_state = [p.data.copy() for p in params]
    for _ in range(max(100, steps // 2)):
        opt.zero_grad()
        screen = (Tensor(np.array(-1j)) * ste_quantize_phase(psi, bits)).exp()
        u = screen.reshape((1, k, 1)) * f.build()
        loss = ((u - t_target) * (u - t_target).conj()).real().sum()
        err = float(loss.data)
        if err < best:
            best = err
            best_state = [p.data.copy() for p in params]
        loss.backward()
        opt.step()
    for p, data in zip(params, best_state):
        p.data = data
    u = realized(f, quantize_phase(psi.data, bits))
    qat_error = float(np.linalg.norm(u - target)) / target_norm

    return {
        "bits": int(bits),
        "full_precision_error": float(full.error),
        "ptq_error": ptq_error,
        "qat_error": qat_error,
    }


def run_quantization_study(
    k: int = 8,
    bit_widths: Sequence[int] = (6, 4, 3, 2),
    steps: int = 400,
    seed: int = 0,
    engine: str = "campaign",
) -> QuantizationStudy:
    """Low-bit phase control on the universal MZI mesh.

    *PTQ*: train at full precision, then snap phases to the b-bit
    grid.  *QAT*: train with the STE quantizer in the loop.  QAT must
    dominate PTQ at low bit widths (the ROQ result); both converge to
    the full-precision error as b grows.

    Deprecated shim: ``engine="campaign"`` (default) runs the
    ``quantization`` campaign (one cell per bit width);
    ``engine="reference"`` replays the pre-redesign loop (the parity
    oracle).
    """
    _check_engine(engine)
    if engine == "reference":
        return _run_quantization_study_reference(k, bit_widths, steps, seed)
    _warn_shim("run_quantization_study", "quantization_spec")
    from ..campaign import run_campaign
    from ..campaign.studies import quantization_spec

    spec = quantization_spec(k=k, bit_widths=bit_widths, steps=steps,
                             seed=seed)
    run = run_campaign(spec)
    out = QuantizationStudy(k=k, bit_widths=list(bit_widths))
    for cell, r in zip(run.cells, run.results):
        out.full_precision_error = r["full_precision_error"]
        out.ptq_errors.append(r["ptq_error"])
        out.qat_errors.append(r["qat_error"])
    return out


def _run_quantization_study_reference(
    k: int,
    bit_widths: Sequence[int],
    steps: int,
    seed: int,
) -> QuantizationStudy:
    """The pre-redesign loop, kept verbatim as the parity oracle."""
    from scipy.stats import unitary_group

    target = unitary_group.rvs(k, random_state=seed)
    target_norm = float(np.linalg.norm(target))
    out = QuantizationStudy(k=k, bit_widths=list(bit_widths))

    def realized(factory, psi: np.ndarray) -> np.ndarray:
        u = factory.build().data[0]
        return np.exp(-1j * psi)[:, None] * u

    factory = build_factory("mzi", k, rng=np.random.default_rng(seed))
    full = fit_unitary(factory, target, steps=steps, lr=0.05,
                       rng=np.random.default_rng(seed + 1))
    out.full_precision_error = full.error

    # PTQ: snap every trained phase (mesh + output screen) to the
    # b-bit grid, re-measure the error.
    for bits in bit_widths:
        saved = [p.data.copy() for p in factory.parameters()]
        for p in factory.parameters():
            p.data = quantize_phase(p.data, bits)
        psi_q = quantize_phase(full.output_phase, bits)
        u = realized(factory, psi_q)
        out.ptq_errors.append(float(np.linalg.norm(u - target)) / target_norm)
        for p, data in zip(factory.parameters(), saved):
            p.data = data

    # QAT: finetune the full-precision solution with STE quantizers on
    # *every* phase — mesh and output screen — so the training
    # objective equals the deployed forward exactly (the ROQ recipe).
    from ..autograd import Tensor
    from ..core.quantization import ste_quantize_phase
    from ..nn.module import Parameter
    from ..optim import Adam

    trained = [p.data.copy() for p in factory.parameters()]
    t_target = Tensor(target.reshape(1, k, k))
    for bits in bit_widths:
        f = build_factory("mzi", k, rng=np.random.default_rng(seed))
        for p, data in zip(f.parameters(), trained):
            p.data = data.copy()
        f.phase_transform = make_phase_quantizer(bits)
        psi = Parameter(full.output_phase.copy())
        params = list(f.parameters()) + [psi]
        opt = Adam(params, lr=0.01)
        # STE descent on a piecewise-constant forward is not monotone:
        # keep the best quantized configuration seen.  The first
        # iterate *is* the PTQ solution, so QAT can only improve on it.
        best = float("inf")
        best_state = [p.data.copy() for p in params]
        for _ in range(max(100, steps // 2)):
            opt.zero_grad()
            screen = (Tensor(np.array(-1j)) * ste_quantize_phase(psi, bits)).exp()
            u = screen.reshape((1, k, 1)) * f.build()
            loss = ((u - t_target) * (u - t_target).conj()).real().sum()
            err = float(loss.data)
            if err < best:
                best = err
                best_state = [p.data.copy() for p in params]
            loss.backward()
            opt.step()
        for p, data in zip(params, best_state):
            p.data = data
        u = realized(f, quantize_phase(psi.data, bits))
        out.qat_errors.append(float(np.linalg.norm(u - target)) / target_norm)
    return out


# ----------------------------------------------------------------------
# power / latency comparison
# ----------------------------------------------------------------------

@dataclass
class PowerComparison:
    """Link-budget estimates per design family at one PTC size."""

    k: int
    names: List[str] = field(default_factory=list)
    total_power_mw: List[float] = field(default_factory=list)
    latency_ps: List[float] = field(default_factory=list)
    energy_per_mac_fj: List[float] = field(default_factory=list)
    worst_loss_db: List[float] = field(default_factory=list)

    def of(self, name: str) -> Tuple[float, float, float]:
        i = self.names.index(name)
        return (self.total_power_mw[i], self.latency_ps[i],
                self.energy_per_mac_fj[i])


def power_cell(
    design: str,
    k: int = 8,
    pdk: Union[str, FoundryPDK] = AMF,
    window_kum2: Tuple[float, float] = (240.0, 300.0),
    seed: int = 0,
) -> dict:
    """One design family of the comparison — the campaign cell unit."""
    from ..photonics.power import estimate_power
    from ..ptc.reference_topologies import butterfly_topology, mzi_topology

    pdk = _resolve_pdk(pdk)
    if design == "mzi":
        topo = mzi_topology(k)
    elif design == "fft":
        topo = butterfly_topology(k)
    elif design == "adept":
        topo = random_feasible_topology(
            k, pdk, window_kum2[0] * 1e3, window_kum2[1] * 1e3,
            rng=np.random.default_rng(seed), name="adept")
    else:
        raise ValueError(
            f"unknown design {design!r}; expected mzi | fft | adept"
        )
    report = estimate_power(topo, pdk)
    return {
        "total_power_mw": float(report.total_power_mw),
        "latency_ps": float(report.latency_ps),
        "energy_per_mac_fj": float(report.energy_per_mac_fj),
        "worst_loss_db": float(report.worst_path_loss_db),
    }


def run_power_comparison(
    k: int = 8,
    pdk: FoundryPDK = AMF,
    window_kum2: Tuple[float, float] = (240.0, 300.0),
    seed: int = 0,
    engine: str = "campaign",
) -> PowerComparison:
    """Electrical power, optical latency, and fJ/MAC for the MZI and
    butterfly baselines vs a footprint-constrained searched-space
    design.

    Depth is the dominant term everywhere: the MZI mesh carries ~4K
    blocks of heaters and the longest optical path, so it loses on all
    three axes — the physical argument behind ADEPT's compact designs.

    Deprecated shim: ``engine="campaign"`` (default) runs the ``power``
    campaign; ``engine="reference"`` replays the pre-redesign loop
    (the parity oracle).
    """
    _check_engine(engine)
    if engine == "reference":
        return _run_power_comparison_reference(k, pdk, window_kum2, seed)
    _warn_shim("run_power_comparison", "power_spec")
    from ..campaign import run_campaign
    from ..campaign.studies import power_spec

    spec = power_spec(k=k, pdk=pdk, window_kum2=window_kum2, seed=seed)
    run = run_campaign(spec)
    out = PowerComparison(k=k)
    for cell, r in zip(run.cells, run.results):
        out.names.append(cell.coords["design"])
        out.total_power_mw.append(r["total_power_mw"])
        out.latency_ps.append(r["latency_ps"])
        out.energy_per_mac_fj.append(r["energy_per_mac_fj"])
        out.worst_loss_db.append(r["worst_loss_db"])
    return out


def _run_power_comparison_reference(
    k: int,
    pdk: FoundryPDK,
    window_kum2: Tuple[float, float],
    seed: int,
) -> PowerComparison:
    """The pre-redesign loop, kept verbatim as the parity oracle."""
    from ..photonics.power import estimate_power
    from ..ptc.reference_topologies import butterfly_topology, mzi_topology

    designs = [
        ("mzi", mzi_topology(k)),
        ("fft", butterfly_topology(k)),
        ("adept", random_feasible_topology(
            k, pdk, window_kum2[0] * 1e3, window_kum2[1] * 1e3,
            rng=np.random.default_rng(seed), name="adept")),
    ]
    out = PowerComparison(k=k)
    for name, topo in designs:
        report = estimate_power(topo, pdk)
        out.names.append(name)
        out.total_power_mw.append(report.total_power_mw)
        out.latency_ps.append(report.latency_ps)
        out.energy_per_mac_fj.append(report.energy_per_mac_fj)
        out.worst_loss_db.append(report.worst_path_loss_db)
    return out


# ----------------------------------------------------------------------
# nonideality study
# ----------------------------------------------------------------------

@dataclass
class NonidealityStudy:
    """Unitary fidelity under passive nonidealities, shallow vs deep."""

    k: int
    specs: List[str] = field(default_factory=list)
    shallow_fidelity: List[float] = field(default_factory=list)
    deep_fidelity: List[float] = field(default_factory=list)
    shallow_blocks: int = 0
    deep_blocks: int = 0


def _nonideality_specs() -> Dict[str, NonidealitySpec]:
    """The five named device-nonideality settings of the study."""
    return {
        "phase-noise": NonidealitySpec(phase_noise_std=0.05),
        "insertion-loss": NonidealitySpec(loss_ps_db=0.1, loss_dc_db=0.1,
                                          loss_cr_db=0.1),
        "dc-imbalance": NonidealitySpec(dc_t_std=0.03),
        "crosstalk": NonidealitySpec(crosstalk_gamma=0.15),
        "combined": NonidealitySpec(phase_noise_std=0.05, loss_ps_db=0.1,
                                    loss_dc_db=0.1, loss_cr_db=0.1,
                                    dc_t_std=0.03, crosstalk_gamma=0.15),
    }


def nonideality_cell(
    nonideality: str,
    k: int = 8,
    shallow_blocks: int = 3,
    deep_blocks: int = 16,
    n_trials: int = 8,
    seed: int = 0,
) -> dict:
    """One nonideality of the study — the campaign cell unit.

    Both meshes are redrawn from the shared ``default_rng(seed)``
    stream (shallow first, deep second) exactly as the legacy loop
    built them; each fidelity estimate reseeds from ``seed + 1``, so
    per-spec cells match the joint run value-for-value.
    """
    from ..core.topology import random_topology

    rng = np.random.default_rng(seed)
    shallow = random_topology(k, shallow_blocks, shallow_blocks, rng,
                              coupler_density=1.0, permute_prob=0.5)
    deep = random_topology(k, deep_blocks, deep_blocks, rng,
                           coupler_density=1.0, permute_prob=0.5)
    specs = _nonideality_specs()
    if nonideality not in specs:
        raise ValueError(
            f"unknown nonideality {nonideality!r}; "
            f"expected one of {sorted(specs)}"
        )
    spec = specs[nonideality]
    s_mean, _ = unitary_fidelity_under_noise(
        shallow, spec, n_trials=n_trials, rng=np.random.default_rng(seed + 1))
    d_mean, _ = unitary_fidelity_under_noise(
        deep, spec, n_trials=n_trials, rng=np.random.default_rng(seed + 1))
    return {
        "shallow_fidelity": float(s_mean),
        "deep_fidelity": float(d_mean),
    }


def run_nonideality_study(
    k: int = 8,
    shallow_blocks: int = 3,
    deep_blocks: int = 16,
    n_trials: int = 8,
    seed: int = 0,
    engine: str = "campaign",
) -> NonidealityStudy:
    """Fidelity of shallow vs deep meshes under each nonideality.

    Deep meshes accumulate more loss, more coupler-imbalance error,
    and more crosstalk exposure per inference — the device-level
    mechanism behind the MZI-ONN accuracy collapse in Fig. 4.

    Deprecated shim: ``engine="campaign"`` (default) runs the
    ``nonideality`` campaign; ``engine="reference"`` replays the
    pre-redesign loop (the parity oracle).
    """
    _check_engine(engine)
    if engine == "reference":
        return _run_nonideality_study_reference(
            k, shallow_blocks, deep_blocks, n_trials, seed
        )
    _warn_shim("run_nonideality_study", "nonideality_spec")
    from ..campaign import run_campaign
    from ..campaign.studies import nonideality_spec

    spec = nonideality_spec(k=k, shallow_blocks=shallow_blocks,
                            deep_blocks=deep_blocks, n_trials=n_trials,
                            seed=seed)
    run = run_campaign(spec)
    out = NonidealityStudy(k=k, shallow_blocks=shallow_blocks,
                           deep_blocks=deep_blocks)
    for cell, r in zip(run.cells, run.results):
        out.specs.append(cell.coords["nonideality"])
        out.shallow_fidelity.append(r["shallow_fidelity"])
        out.deep_fidelity.append(r["deep_fidelity"])
    return out


def _run_nonideality_study_reference(
    k: int,
    shallow_blocks: int,
    deep_blocks: int,
    n_trials: int,
    seed: int,
) -> NonidealityStudy:
    """The pre-redesign loop, kept verbatim as the parity oracle."""
    from ..core.topology import random_topology

    rng = np.random.default_rng(seed)
    shallow = random_topology(k, shallow_blocks, shallow_blocks, rng,
                              coupler_density=1.0, permute_prob=0.5)
    deep = random_topology(k, deep_blocks, deep_blocks, rng,
                           coupler_density=1.0, permute_prob=0.5)
    specs = _nonideality_specs()
    out = NonidealityStudy(k=k, shallow_blocks=shallow_blocks,
                           deep_blocks=deep_blocks)
    for name, spec in specs.items():
        s_mean, _ = unitary_fidelity_under_noise(
            shallow, spec, n_trials=n_trials, rng=np.random.default_rng(seed + 1))
        d_mean, _ = unitary_fidelity_under_noise(
            deep, spec, n_trials=n_trials, rng=np.random.default_rng(seed + 1))
        out.specs.append(name)
        out.shallow_fidelity.append(s_mean)
        out.deep_fidelity.append(d_mean)
    return out
