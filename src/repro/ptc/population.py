"""Single-graph batched evaluation of a *population* of PTC topologies.

The ADEPT flow repeatedly needs to score many candidate topologies —
SubMeshes sampled from a trained SuperMesh, ablation variants, or
designs transferred across PDKs.  Scoring them one at a time rebuilds
one graph per candidate per step; this module instead pads all
candidates to a common block depth and evaluates the whole population
as ONE fused cascade (:func:`repro.autograd.phase_column_cascade`), so
a gradient fit over P candidates costs one forward/backward per step
total, not per candidate.

Padding uses the cascade's execution gates: candidate ``p`` with
``B_p`` blocks gets ``B_max - B_p`` identity blocks whose execution
probability is pinned to 0, which the cascade resolves to an exact
skip — the padded transfer equals the unpadded one bit-for-bit.

Entry points
------------
* :class:`TopologyPopulation` — the stacked constants/masks plus a
  ``transfer`` method mapping a phase bank to all candidate unitaries.
* :func:`fit_unitary_population` — batched counterpart of
  :func:`repro.analysis.expressivity.fit_unitary`: jointly fits every
  candidate's phases to a target unitary and reports per-candidate
  errors.  Used by :func:`repro.core.search.rank_candidate_topologies`;
  the evaluation-side companion is
  :func:`repro.onn.trainer.evaluate_population`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..autograd import Tensor, phase_column_cascade, phase_factor
from ..nn.module import Parameter
from ..optim import Adam
from ..utils.rng import get_rng
from .unitary import block_constant_matrix

__all__ = [
    "PopulationFitResult",
    "TopologyPopulation",
    "fit_unitary_population",
]


@dataclass
class PopulationFitResult:
    """Per-candidate outcome of a batched unitary fit.

    ``errors[p]`` is the relative Frobenius error of candidate ``p``
    against the target; ``fidelities[p]`` the normalized overlap (see
    :class:`repro.analysis.expressivity.FitResult`).  ``ranking`` sorts
    candidates best-first.
    """

    errors: np.ndarray  # (P,)
    fidelities: np.ndarray  # (P,)
    history: List[np.ndarray] = field(default_factory=list)

    @property
    def ranking(self) -> np.ndarray:
        """Candidate indices sorted by ascending fit error."""
        return np.argsort(self.errors)

    @property
    def best(self) -> int:
        return int(self.ranking[0])


class TopologyPopulation:
    """Depth-padded stack of P same-K topologies for batched builds.

    Parameters
    ----------
    topologies: sequence of :class:`repro.core.topology.PTCTopology`
        (or any object with ``k`` and ``blocks_u``/``blocks_v``).
    side: which unitary's blocks to stack (``"u"`` or ``"v"``).
    exec_backend: execution backend for the fused cascade (None =
        process-wide default).  Forward-only scoring sweeps can pass
        ``"numpy-c64"`` to halve the memory traffic of large
        populations.
    """

    def __init__(self, topologies: Sequence, side: str = "u", exec_backend=None):
        if not topologies:
            raise ValueError("population must contain at least one topology")
        if side not in ("u", "v"):
            raise ValueError("side must be 'u' or 'v'")
        self.exec_backend = exec_backend
        ks = {t.k for t in topologies}
        if len(ks) != 1:
            raise ValueError(f"all topologies must share K, got {sorted(ks)}")
        self.k = ks.pop()
        self.side = side
        self.topologies = list(topologies)
        self.n_candidates = len(self.topologies)
        block_lists = [
            (t.blocks_u if side == "u" else t.blocks_v) for t in self.topologies
        ]
        self.block_counts = np.array([len(bl) for bl in block_lists])
        self.n_blocks = int(self.block_counts.max()) if len(block_lists) else 0
        k = self.k
        consts = np.broadcast_to(
            np.eye(k, dtype=complex),
            (self.n_candidates, self.n_blocks, k, k),
        ).copy()
        mask = np.zeros((self.n_candidates, self.n_blocks))
        for p, blocks in enumerate(block_lists):
            for b, spec in enumerate(blocks):
                consts[p, b] = block_constant_matrix(
                    k, spec.perm, spec.coupler_mask, spec.offset
                )
                mask[p, b] = 1.0
        self.consts = consts  # (P, B, K, K)
        self.exec_mask = mask  # (P, B), 1 = real block, 0 = padding

    def make_phases(self, rng=None) -> Parameter:
        """Fresh phase bank covering the whole population, (P, B, K)."""
        rng = get_rng(rng)
        return Parameter(
            rng.uniform(
                0.0, 2.0 * math.pi, size=(self.n_candidates, self.n_blocks, self.k)
            )
        )

    def transfer(self, phases: Tensor, exec_backend=None) -> Tensor:
        """All candidate unitaries from one phase bank, (P, K, K).

        A single fused cascade over the padded stack; padded blocks are
        exact skips, so ``transfer(...)[p]`` equals the unpadded build
        of candidate ``p``.  ``exec_backend`` overrides the population's
        configured execution backend for this call (forward-only lanes
        apply only when no gradient is being recorded).
        """
        return phase_column_cascade(
            Tensor(self.consts),
            phase_factor(phases),
            Tensor(self.exec_mask),
            backend=exec_backend if exec_backend is not None else self.exec_backend,
        )


def fit_unitary_population(
    topologies: Sequence,
    target: np.ndarray,
    side: str = "u",
    steps: int = 300,
    lr: float = 0.05,
    record_every: int = 25,
    output_phases: bool = True,
    rng=None,
    exec_backend=None,
) -> PopulationFitResult:
    """Jointly gradient-fit every candidate's phases to ``target``.

    The per-candidate losses are independent (the total loss is their
    sum), so one Adam run over the stacked parameters is exactly P
    independent fits — at the graph cost of one.

    ``target`` is a single (K, K) matrix shared by all candidates or a
    (P, K, K) stack of per-candidate targets.  ``exec_backend`` is
    forwarded to the population cascade (the fit itself records
    gradients, so forward-only lanes demote to their full-precision
    fallback during optimization).
    """
    pop = TopologyPopulation(topologies, side=side, exec_backend=exec_backend)
    rng = get_rng(rng)
    k, n_cand = pop.k, pop.n_candidates
    target = np.asarray(target, dtype=complex)
    if target.shape == (k, k):
        target = np.broadcast_to(target, (n_cand, k, k)).copy()
    if target.shape != (n_cand, k, k):
        raise ValueError(f"target must be ({k}, {k}) or ({n_cand}, {k}, {k})")
    t_target = Tensor(target)
    phases = pop.make_phases(rng=rng)
    params = [phases]
    psi: Optional[Parameter] = None
    if output_phases:
        psi = Parameter(rng.uniform(0.0, 2.0 * math.pi, size=(n_cand, k)))
        params.append(psi)
    opt = Adam(params, lr=lr)

    def realize() -> Tensor:
        u = pop.transfer(phases)
        if psi is None:
            return u
        screen = phase_factor(psi)
        return screen.reshape((n_cand, k, 1)) * u

    target_norms = np.linalg.norm(target, axis=(-2, -1))
    history: List[np.ndarray] = []
    for step in range(steps):
        opt.zero_grad()
        diff = realize() - t_target
        loss = (diff * diff.conj()).real().sum()
        loss.backward()
        opt.step()
        if step % record_every == 0:
            per = np.linalg.norm(diff.data, axis=(-2, -1)) / np.maximum(
                target_norms, 1e-30
            )
            history.append(per)
    u_final = realize().data
    diff = np.linalg.norm(u_final - target, axis=(-2, -1))
    errors = diff / np.maximum(target_norms, 1e-30)
    overlap = np.abs(
        np.trace(u_final @ np.conj(np.swapaxes(target, -1, -2)), axis1=-2, axis2=-1)
    )
    denom = np.linalg.norm(u_final, axis=(-2, -1)) * target_norms
    fidelities = overlap / np.maximum(denom, 1e-30)
    history.append(errors)
    return PopulationFitResult(
        errors=errors, fidelities=fidelities, history=history
    )
