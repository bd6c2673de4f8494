"""Figure 5 ablations: permutation-ALM rho scan and footprint-penalty
beta scan.

(a) Scan the initial ALM coefficient rho0 from 1e-8 to 5e-6 and track
    the mean multiplier lambda and the permutation error Delta_P over
    optimization steps.  Claim: the method is insensitive to rho0 — the
    error converges toward zero for every setting under the adaptive
    schedule rho <- rho * gamma^t.

(b) Scan the footprint-penalty weight beta from 0.001 to 10 and track
    the expected footprint E[F].  Claim: only a sufficiently large beta
    (~10) keeps E[F] inside the constraint window; tiny beta leaves the
    constraint violated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor
from ..core import (
    FootprintPenaltyConfig,
    PermutationLearner,
    SuperMeshSpace,
    footprint_penalty,
)
from ..nn import CrossEntropyLoss
from ..optim import Adam
from ..photonics import AMF
from ..utils.rng import spawn_rng

RHO0_VALUES = (1e-8, 5e-8, 1e-7, 5e-7, 1e-6, 5e-6)
BETA_VALUES = (0.001, 0.01, 0.1, 1.0, 10.0)


@dataclass
class ALMTrace:
    rho0: float
    perm_error: List[float] = field(default_factory=list)
    mean_lambda: List[float] = field(default_factory=list)


def alm_scan_point(
    rho0: float,
    k: int = 8,
    n_blocks: int = 6,
    steps: int = 600,
    seed: int = 0,
) -> ALMTrace:
    """One rho0 setting of the Fig. 5(a) scan — the shard unit shared
    by the in-process loop and the ``alm-scan`` campaign cells."""
    rng = spawn_rng(seed)
    learner = PermutationLearner(k, n_blocks, rho0=rho0, total_steps=steps)
    x = Tensor(rng.normal(size=(16, k)))
    target = Tensor(rng.normal(size=(16, k)))
    opt = Adam([learner.raw], lr=0.02)
    trace = ALMTrace(rho0=rho0)
    for _ in range(steps):
        p = learner.relaxed()
        pred = x @ p[0].T
        task = ((pred - target) ** 2).mean()
        loss = task + learner.alm_loss(p)
        learner.raw.grad = None
        loss.backward()
        opt.step()
        learner.update_multipliers()
        learner.step_rho()
        trace.perm_error.append(learner.permutation_error())
        trace.mean_lambda.append(learner.mean_lambda())
    return trace


def run_fig5a(
    k: int = 8,
    n_blocks: int = 6,
    steps: int = 600,
    rho0_values: Sequence[float] = RHO0_VALUES,
    seed: int = 0,
    n_workers: int = 0,
) -> Dict[float, ALMTrace]:
    """ALM rho0 scan on a task-coupled permutation-learning problem.

    A small regression objective stands in for the task loss, so the
    permutations must trade task fit against legality — the same
    tension as in the full search.

    Since the campaign redesign this entry point is a thin shim over
    the ``alm-scan`` campaign (one cell per rho0; see
    :mod:`repro.campaign.studies`).  ``n_workers > 0`` shards the cells
    through the design service's persistent queue on a local
    multiprocess pool (identical traces).
    """
    from ..campaign.studies import fig5a_spec

    spec = fig5a_spec(k=k, n_blocks=n_blocks, steps=steps,
                      rho0_values=rho0_values, seed=seed)
    out: Dict[float, ALMTrace] = {}
    print("\n=== Fig. 5(a) - permutation ALM rho0 scan ===")
    run = _run_scan_campaign(spec, "fig5a", n_workers)
    for cell, r in zip(run.cells, run.results):
        rho0 = cell.coords["rho0"]
        out[rho0] = ALMTrace(
            rho0=rho0,
            perm_error=list(r["perm_error"]),
            mean_lambda=list(r["mean_lambda"]),
        )
    for rho0, trace in out.items():
        print(
            f"  rho0={rho0:7.0e}  Delta_P: {trace.perm_error[0]:.3f} -> "
            f"{trace.perm_error[-1]:.4f}   lambda_final={trace.mean_lambda[-1]:.2e}"
        )
    return out


def _run_scan_campaign(spec, label: str, n_workers: int):
    """Run a Fig. 5 scan campaign inline or service-sharded."""
    from ..campaign import run_campaign

    if n_workers > 0:
        import tempfile

        with tempfile.TemporaryDirectory(prefix=f"repro-{label}-") as root:
            return run_campaign(spec, n_workers=n_workers, root=root)
    return run_campaign(spec)


def check_fig5a_shape(traces: Dict[float, ALMTrace]) -> List[str]:
    problems = []
    for rho0, tr in traces.items():
        if tr.perm_error[-1] > tr.perm_error[0] * 0.5:
            problems.append(
                f"rho0={rho0:.0e}: error only {tr.perm_error[0]:.3f} -> "
                f"{tr.perm_error[-1]:.3f}"
            )
        if tr.mean_lambda[-1] <= 0:
            problems.append(f"rho0={rho0:.0e}: multipliers never grew")
    return problems


@dataclass
class PenaltyTrace:
    beta: float
    expected_footprint: List[float] = field(default_factory=list)
    penalty_over_beta: List[float] = field(default_factory=list)
    window: Tuple[float, float] = (0.0, 0.0)

    @property
    def final_in_window(self) -> bool:
        lo, hi = self.window
        return lo <= self.expected_footprint[-1] <= hi


def penalty_scan_point(
    beta: float,
    k: int = 8,
    window_kum2: Tuple[float, float] = (240.0, 300.0),
    steps: int = 150,
    seed: int = 0,
) -> PenaltyTrace:
    """One beta setting of the Fig. 5(b) scan — the shard unit shared
    by the in-process loop and the ``penalty-scan`` campaign cells."""
    from ..core import SuperMeshLinear

    f_min, f_max = window_kum2[0] * 1000, window_kum2[1] * 1000
    rng = spawn_rng(seed)
    space = SuperMeshSpace(k=k, pdk=AMF, f_min=f_min, f_max=f_max, rng=rng)
    lin = SuperMeshLinear(space, 2 * k, 2 * k, rng=rng)
    # Regression to a random dense target: every extra active block
    # adds free phases, so the task loss genuinely prefers a large
    # expected footprint — the force the penalty must counteract.
    x = Tensor(rng.normal(size=(64, 2 * k)))
    w_star = rng.normal(size=(2 * k, 2 * k)) * 0.3
    y = Tensor(x.data @ w_star.T)
    # Execute-biased start (training converges there): E[F] begins
    # above the window, as in Fig. 5(b)'s red curves.
    space.theta.data[:] = np.array([[-2.0, 2.0]] * space.theta.shape[0])
    opt = Adam([space.theta], lr=5e-2)
    w_opt = Adam(lin.parameters(), lr=1e-2)
    cfg = FootprintPenaltyConfig(beta=beta)
    trace = PenaltyTrace(beta=beta, window=(f_min, f_max))
    for _ in range(steps):
        space.sample(tau=1.0, rng=rng)
        diff = lin(x) - y
        task = (diff * diff).mean()
        pen, e_exact = footprint_penalty(space, cfg)
        loss = task + pen
        space.theta.grad = None
        for p in lin.parameters():
            p.grad = None
        loss.backward()
        opt.step()
        w_opt.step()
        trace.expected_footprint.append(e_exact)
        trace.penalty_over_beta.append(
            float(pen.item()) / beta if beta else 0.0
        )
    return trace


def run_fig5b(
    k: int = 8,
    window_kum2: Tuple[float, float] = (240.0, 300.0),
    steps: int = 150,
    beta_values: Sequence[float] = BETA_VALUES,
    seed: int = 0,
    n_workers: int = 0,
) -> Dict[float, PenaltyTrace]:
    """Footprint-penalty beta scan (ADEPT-a1 window by default).

    Architecture logits are trained on task loss + penalty; with small
    beta the task term dominates and the expected footprint drifts out
    of the window.

    Since the campaign redesign this entry point is a thin shim over
    the ``penalty-scan`` campaign (one cell per beta; see
    :mod:`repro.campaign.studies`).  ``n_workers > 0`` shards the cells
    through the design service's persistent queue on a local
    multiprocess pool (identical traces).
    """
    from ..campaign.studies import fig5b_spec

    spec = fig5b_spec(k=k, window_kum2=window_kum2, steps=steps,
                      beta_values=beta_values, seed=seed)
    out: Dict[float, PenaltyTrace] = {}
    print("\n=== Fig. 5(b) - footprint penalty beta scan ===")
    run = _run_scan_campaign(spec, "fig5b", n_workers)
    for cell, r in zip(run.cells, run.results):
        beta = cell.coords["beta"]
        out[beta] = PenaltyTrace(
            beta=beta,
            expected_footprint=list(r["expected_footprint"]),
            penalty_over_beta=list(r["penalty_over_beta"]),
            window=tuple(r["window"]),
        )
    for beta, trace in out.items():
        status = "in window" if trace.final_in_window else "VIOLATED"
        print(
            f"  beta={beta:6.3f}  E[F]: {trace.expected_footprint[0] / 1000:6.1f}k "
            f"-> {trace.expected_footprint[-1] / 1000:6.1f}k  ({status})"
        )
    return out


def check_fig5b_shape(traces: Dict[float, PenaltyTrace]) -> List[str]:
    problems = []
    big = max(traces)
    small = min(traces)
    if not traces[big].final_in_window:
        problems.append(f"beta={big}: expected footprint not bounded")
    # Distance to the window must shrink as beta grows.
    def violation(tr: PenaltyTrace) -> float:
        lo, hi = tr.window
        e = tr.expected_footprint[-1]
        return max(0.0, e - hi, lo - e)

    if violation(traces[small]) < violation(traces[big]):
        problems.append("small beta unexpectedly tighter than large beta")
    return problems
