"""Online recalibration: snapshot -> pure job -> new phase program.

The streaming server cannot hand a live :class:`SimulatedChip` to the
PR 7 job queue — jobs cross process boundaries and must be pure
functions of JSON params.  The data flow is therefore:

1. ``chip.recalibration_params(target)`` freezes everything a digital
   twin needs (blocks, realized couplers/loss, current drives, the
   drift effect *right now*) into a JSON-native dict.
2. :func:`recalibrate_snapshot` — pure — rebuilds the frozen twin and
   runs :func:`repro.onn.calibration.calibrate_adjoint` (or
   ``calibrate_spsa``) against the target.  Same params in, same
   phases out, bitwise.
3. The caller applies the returned ``phases`` with ``chip.program``.

:class:`InlineRecalibrator` runs step 2 in-process;
:class:`ServiceRecalibrator` routes it through a
:class:`repro.service.DesignService` queue (the ``recalibrate`` job
kind), which is how a deployment shares calibration work with its
worker fleet.  Both produce identical phases for identical snapshots.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..autograd import Tensor
from ..core.topology import BlockSpec
from ..onn.calibration import calibrate_adjoint, calibrate_spsa
from ..photonics.nonideality import (
    FabricationSample,
    NonidealitySpec,
    fabrication_const_stack,
    thermal_crosstalk_matrix,
)
from ..ptc.unitary import FixedTopologyFactory
from ..utils.rng import spawn_rng, stable_seed

__all__ = [
    "InlineRecalibrator",
    "ServiceRecalibrator",
    "build_frozen_twin",
    "recalibrate_snapshot",
]


def build_frozen_twin(params: dict) -> FixedTopologyFactory:
    """Differentiable twin of a chip snapshot, drift frozen in place.

    The twin reproduces the chip's physics pipeline at the snapshot
    instant — crosstalk mixing at the frozen gamma, the frozen phase
    offsets — with runtime noise off, so calibration against it is
    deterministic.
    """
    k = int(params["k"])
    blocks = [BlockSpec.from_dict(b) for b in params["blocks"]]
    factory = FixedTopologyFactory(
        k, 1, [(b.perm, b.coupler_mask, b.offset) for b in blocks],
        rng=spawn_rng(stable_seed("recalibrate-init", int(params["seed"]))),
    )
    factory.phases.data = np.asarray(params["phases"], dtype=float)[None]
    if params.get("dc_t") is not None:
        sample = FabricationSample(
            k=k,
            dc_t=[np.asarray(t, dtype=float) for t in params["dc_t"]],
            loss_diag=[np.asarray(d, dtype=float)
                       for d in params["loss_diag"]],
        )
        factory._const = list(
            fabrication_const_stack(blocks, k, NonidealitySpec(), sample))

    gamma = float(params.get("crosstalk_gamma", 0.0))
    radius = int(params.get("crosstalk_radius", 1))
    offsets = np.asarray(params.get("phase_offsets") or
                         np.zeros((len(blocks), k)), dtype=float)
    # Frozen once here, not per build: constant leaves are safe to
    # share between graphs.
    xtalk_t = (Tensor(thermal_crosstalk_matrix(k, gamma, radius).T)
               if gamma > 0.0 else None)
    offsets_t = Tensor(offsets) if np.any(offsets) else None
    if xtalk_t is not None or offsets_t is not None:
        def frozen_physics(phases: Tensor) -> Tensor:
            out = phases
            if xtalk_t is not None:
                out = out @ xtalk_t
            if offsets_t is not None:
                out = out + offsets_t
            return out

        factory.phase_transform = frozen_physics
    return factory


def recalibrate_snapshot(params: dict) -> dict:
    """Pure recalibration of one chip snapshot (the ``recalibrate``
    job body).  Returns the new drive program plus the calibration
    trace, all JSON-native."""
    factory = build_frozen_twin(params)
    target = (np.asarray(params["target_re"], dtype=float)
              + 1j * np.asarray(params["target_im"], dtype=float))
    method = params.get("method", "adjoint")
    steps = int(params.get("steps", 150))
    if method == "adjoint":
        result = calibrate_adjoint(
            factory, target, steps=steps,
            lr=float(params.get("lr", 0.05)))
    elif method == "spsa":
        result = calibrate_spsa(
            factory, target, steps=steps,
            rng=spawn_rng(stable_seed("recalibrate-spsa",
                                      int(params.get("seed", 0)))))
    else:
        raise ValueError(f"unknown calibration method {method!r}; "
                         f"expected 'adjoint' or 'spsa'")
    return {
        "method": result.method,
        "initial_error": float(result.initial_error),
        "final_error": float(result.final_error),
        "n_measurements": int(result.n_measurements),
        "history": [float(h) for h in result.history],
        "phases": [[float(x) for x in row]
                   for row in factory.phases.data[0]],
    }


class InlineRecalibrator:
    """Recalibrate in-process: snapshot -> pure solve -> reprogram."""

    def __init__(self, method: str = "adjoint", steps: int = 150,
                 lr: float = 0.05, seed: int = 0):
        self.method = method
        self.steps = int(steps)
        self.lr = float(lr)
        self.seed = int(seed)

    def __call__(self, chip, target: np.ndarray) -> dict:
        params = chip.recalibration_params(
            target, method=self.method, steps=self.steps, lr=self.lr,
            seed=self.seed)
        result = recalibrate_snapshot(params)
        chip.program(np.asarray(result["phases"], dtype=float))
        return result


class ServiceRecalibrator:
    """Recalibrate through a :class:`~repro.service.DesignService`
    queue: submits a ``recalibrate`` job, drains it, and programs the
    resulting phases back onto the chip.

    ``n_workers=0`` (the default) drains in-process — deterministic
    and dependency-free; a deployment would instead point ``service``
    at a root that live workers are already serving.
    """

    def __init__(self, service, method: str = "adjoint", steps: int = 150,
                 lr: float = 0.05, seed: int = 0, n_workers: int = 0,
                 run_queue: bool = True):
        self.service = service
        self.method = method
        self.steps = int(steps)
        self.lr = float(lr)
        self.seed = int(seed)
        self.n_workers = int(n_workers)
        self.run_queue = bool(run_queue)
        self.job_ids: List[str] = []

    def __call__(self, chip, target: np.ndarray) -> dict:
        params = chip.recalibration_params(
            target, method=self.method, steps=self.steps, lr=self.lr,
            seed=self.seed)
        job_id = self.service.submit("recalibrate", params)
        self.job_ids.append(job_id)
        if self.run_queue:
            self.service.run(n_workers=self.n_workers)
        result = self.service.wait(job_id)
        chip.program(np.asarray(result["phases"], dtype=float))
        out = dict(result)
        out["job_id"] = job_id
        return out
