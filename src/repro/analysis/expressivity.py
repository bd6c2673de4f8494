"""Matrix-representability measurement for PTC topologies.

The paper's central quality axis is *expressiveness*: how well a mesh
topology can realize arbitrary linear operators.  Classification
accuracy is its proxy in the evaluation; this module measures the
quantity directly, by gradient-fitting a mesh's programmable phases to
random target matrices and reporting the residual error:

* a **universal** mesh (full MZI rectangle) fits any unitary to
  numerical precision;
* a **restricted** mesh (butterfly, or a small searched topology)
  plateaus at an error floor determined by its parameter count and
  connectivity — exactly the expressiveness/footprint trade-off that
  ADEPT navigates.

Entry points: :func:`fit_unitary` (one target),
:func:`unitary_expressivity` (average over random unitary targets),
and :func:`matrix_expressivity` (full W = U Sigma V blocked fit to
random Gaussian matrices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..autograd import Tensor
from ..core.topology import PTCTopology
from ..nn.module import Parameter
from ..optim import Adam
from ..ptc.unitary import (
    ButterflyFactory,
    FixedTopologyFactory,
    MZIMeshFactory,
    UnitaryFactory,
)
from ..utils.rng import get_rng

__all__ = [
    "FitResult",
    "build_factory",
    "fit_unitary",
    "matrix_expressivity",
    "unitary_expressivity",
]


@dataclass
class FitResult:
    """Outcome of fitting mesh phases to one target matrix.

    ``error`` is the relative Frobenius error
    ``||A_hat - A|| / ||A||``; ``fidelity`` is the normalized overlap
    ``|tr(A_hat A^H)| / ||A_hat|| ||A||`` (1 means perfect up to global
    phase and scale).
    """

    error: float
    fidelity: float
    history: List[float] = field(default_factory=list)
    #: Trained output phase-shifter column (radians), when the fit ran
    #: with ``output_phases=True``; the realized matrix is
    #: ``diag(exp(-j psi)) @ factory.build()``.
    output_phase: Optional[np.ndarray] = None

    @property
    def converged(self) -> bool:
        return self.error < 1e-3


def build_factory(
    kind: str,
    k: int,
    topology: Optional[PTCTopology] = None,
    n_units: int = 1,
    rng=None,
) -> UnitaryFactory:
    """Factory constructor by family name.

    ``kind`` is one of ``"mzi"``, ``"butterfly"`` (alias ``"fft"``),
    or ``"topology"`` (requires ``topology``; uses its U blocks).
    """
    rng = get_rng(rng)
    if kind == "mzi":
        return MZIMeshFactory(k, n_units, rng=rng)
    if kind in ("butterfly", "fft"):
        return ButterflyFactory(k, n_units, rng=rng)
    if kind == "topology":
        if topology is None:
            raise ValueError("kind='topology' requires a topology")
        blocks = [(b.perm, b.coupler_mask, b.offset) for b in topology.blocks_u]
        return FixedTopologyFactory(k, n_units, blocks, rng=rng)
    raise ValueError(f"unknown factory kind {kind!r}")


def _frob_sq(t: Tensor) -> Tensor:
    return (t * t.conj()).real().sum()


def fit_unitary(
    factory: UnitaryFactory,
    target: np.ndarray,
    steps: int = 300,
    lr: float = 0.05,
    record_every: int = 10,
    output_phases: bool = True,
    output_phase_init: Optional[np.ndarray] = None,
    rng=None,
) -> FitResult:
    """Gradient-fit ``factory``'s phases to a K x K target matrix.

    Minimizes ``||D(psi) U(phi) - target||_F^2`` with Adam over the
    factory's parameters, where ``D(psi)`` is an extra trainable
    output phase-shifter column (enabled by default).  Physical meshes
    always carry such a screen, and without it even the full MZI
    rectangle is universal only up to output phases.  The factory must
    have ``n_units == 1``.
    """
    if factory.n_units != 1:
        raise ValueError("fit_unitary requires a factory with n_units == 1")
    rng = get_rng(rng)
    target = np.asarray(target, dtype=complex)
    k = factory.k
    if target.shape != (k, k):
        raise ValueError(f"target must be {k} x {k}, got {target.shape}")
    t_target = Tensor(target.reshape(1, k, k))
    params = list(factory.parameters())
    psi: Optional[Parameter] = None
    if output_phases:
        init = (rng.uniform(0.0, 2.0 * math.pi, size=(k,))
                if output_phase_init is None
                else np.asarray(output_phase_init, dtype=float).copy())
        psi = Parameter(init)
        params.append(psi)
    opt = Adam(params, lr=lr)

    def realize() -> Tensor:
        u = factory.build()
        if psi is None:
            return u
        screen = (Tensor(np.array(-1j)) * psi).exp()
        return screen.reshape((1, k, 1)) * u

    history: List[float] = []
    target_norm = float(np.linalg.norm(target))
    for step in range(steps):
        opt.zero_grad()
        u = realize()
        loss = _frob_sq(u - t_target)
        loss.backward()
        opt.step()
        if step % record_every == 0:
            history.append(math.sqrt(max(float(loss.data), 0.0)) / max(target_norm, 1e-30))
    u_final = realize().data[0]
    err = float(np.linalg.norm(u_final - target)) / max(target_norm, 1e-30)
    denom = float(np.linalg.norm(u_final)) * target_norm
    fid = float(abs(np.trace(u_final @ target.conj().T))) / max(denom, 1e-30)
    history.append(err)
    return FitResult(error=err, fidelity=fid, history=history,
                     output_phase=None if psi is None else psi.data.copy())


def unitary_expressivity(
    make_factory: Callable[[], UnitaryFactory],
    n_targets: int = 3,
    steps: int = 300,
    lr: float = 0.05,
    rng=None,
) -> FitResult:
    """Mean fit quality over random unitary targets (Haar measure).

    A fresh factory is built per target so each fit starts from an
    independent initialization.
    """
    from scipy.stats import unitary_group

    rng = get_rng(rng)
    errors, fids = [], []
    for _ in range(n_targets):
        factory = make_factory()
        seed = int(rng.integers(0, 2**31 - 1))
        target = unitary_group.rvs(factory.k, random_state=seed)
        # The fit rng must derive from the caller's rng too: falling
        # back to the library-wide generator here made the score depend
        # on unrelated earlier draws in the process.
        res = fit_unitary(factory, target, steps=steps, lr=lr,
                          rng=np.random.default_rng(seed))
        errors.append(res.error)
        fids.append(res.fidelity)
    return FitResult(error=float(np.mean(errors)), fidelity=float(np.mean(fids)),
                     history=errors)


def matrix_expressivity(
    kind: str,
    k: int,
    topology: Optional[PTCTopology] = None,
    n_targets: int = 2,
    steps: int = 300,
    lr: float = 0.05,
    rng=None,
) -> FitResult:
    """Fit the full blocked layer ``W = U Sigma V`` to random Gaussian
    K x K targets (general matrices, not unitaries).

    Builds independent U and V factories of the given family plus a
    trainable diagonal Sigma, mirroring one (p, q) block of an ONN
    layer (paper Eq. (1)).
    """
    rng = get_rng(rng)
    errors, fids = [], []
    for _ in range(n_targets):
        fu = build_factory(kind, k, topology=topology, rng=rng)
        fv = build_factory(kind, k, topology=topology, rng=rng)
        sigma = Parameter(rng.normal(0.0, 0.5, size=(k,)))
        target = rng.normal(size=(k, k)) / math.sqrt(k)
        t_target = Tensor(target.astype(complex).reshape(1, k, k))
        params = list(fu.parameters()) + list(fv.parameters()) + [sigma]
        opt = Adam(params, lr=lr)
        target_norm = float(np.linalg.norm(target))
        for _step in range(steps):
            opt.zero_grad()
            u = fu.build()
            v = fv.build()
            w = u @ (sigma.reshape((1, k, 1)) * v)
            loss = _frob_sq(w - t_target)
            loss.backward()
            opt.step()
        u = fu.build().data[0]
        v = fv.build().data[0]
        w = u @ np.diag(sigma.data) @ v
        err = float(np.linalg.norm(w - target)) / max(target_norm, 1e-30)
        denom = float(np.linalg.norm(w)) * target_norm
        fids.append(float(abs(np.trace(w @ target.conj().T))) / max(denom, 1e-30))
        errors.append(err)
    return FitResult(error=float(np.mean(errors)), fidelity=float(np.mean(fids)),
                     history=errors)
