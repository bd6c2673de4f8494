"""Recalibration bits and cost: the digital-twin solve is pinned to
exact output bits, and each adjoint step costs three graph nodes."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.topology import random_topology
from repro.hardware import SimulatedChip
from repro.hardware.recalibration import build_frozen_twin, recalibrate_snapshot
from repro.onn.calibration import calibrate_adjoint
from repro.photonics import DriftSpec
from repro.photonics.nonideality import NonidealitySpec
from repro.utils.serialization import json_digest


def snapshot(nonideality, drift, seed):
    """Params of a drifted K=8 chip after five batches of traffic."""
    topo = random_topology(8, 6, 0, rng=np.random.default_rng(3))
    chip = SimulatedChip(topo, nonideality=nonideality, drift=drift,
                         seed=seed, max_batch=8, batch_overhead_s=1.0,
                         sample_time_s=0.05)
    target = SimulatedChip(topo, seed=seed).transfer_matrix()
    rng = np.random.default_rng(seed)
    for _ in range(5):
        chip.execute(rng.normal(size=(8, 8)))
    return chip.recalibration_params(target, steps=40, lr=0.05, seed=seed)


def offsets_snapshot():
    return snapshot(None, DriftSpec(phase_walk_std=0.05), 4)


# Canonical-JSON digests (utils.serialization.json_digest) recorded on
# x86-64 with OpenBLAS before the adjoint loop was trimmed; a change to
# the calibration arithmetic, or a different BLAS build, moves them.
GOLDEN = {
    "offsets": ("5881303662e42b15ed9f6bcbe25dc23e",
                "7fae20ccc82dd5d58fbff4b89716a083"),
    "crosstalk+fabrication": ("470d1cecca2e0d5527618eb957f90c54",
                              "89f559a412a7d9e0c520a3361de75aec"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_recalibrate_snapshot_bits_are_pinned(case):
    if case == "offsets":
        params = offsets_snapshot()
    else:
        params = snapshot(
            NonidealitySpec(dc_t_std=0.02, loss_ps_db=0.1,
                            crosstalk_gamma=0.05),
            DriftSpec(phase_walk_std=0.05, crosstalk_gamma_drift=0.02), 5)
    params_digest, result_digest = GOLDEN[case]
    assert json_digest(params) == params_digest
    assert json_digest(recalibrate_snapshot(params)) == result_digest


def test_adjoint_step_is_three_graph_nodes(monkeypatch):
    """Offset add, phase factor, cascade: the loss is seeded, not built."""
    params = offsets_snapshot()
    assert params["crosstalk_gamma"] == 0.0 and np.any(params["phase_offsets"])
    factory = build_frozen_twin(params)
    target = (np.asarray(params["target_re"])
              + 1j * np.asarray(params["target_im"]))
    counts = []
    backward = Tensor.backward

    def counting_backward(self, grad=None):
        seen, stack, n_ops = {id(self)}, [self], 0
        while stack:
            t = stack.pop()
            n_ops += t._backward is not None
            for p in t._parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append(p)
        counts.append(n_ops)
        return backward(self, grad)

    monkeypatch.setattr(Tensor, "backward", counting_backward)
    calibrate_adjoint(factory, target, steps=5)
    assert counts == [3] * 5
