"""On-chip calibration: programming a fabricated mesh to a target.

After fabrication, a PTC's passive errors (coupler imbalance, loss —
see :mod:`repro.photonics.nonideality`) are frozen; only the phase
shifters remain programmable.  Deploying a weight matrix therefore
means *calibrating*: finding phase settings that realize the target as
closely as the nonideal hardware allows.  Two regimes:

* :func:`calibrate_adjoint` — gradient descent on a *digital twin*
  (the chip model is differentiable in software).  Fast, but only as
  good as the model.  Each step seeds the backward pass with the
  squared-error gradient ``2 (u - t)`` on the built transfer, so the
  graph holds only the twin's own nodes.
* :func:`calibrate_spsa` — simultaneous-perturbation stochastic
  approximation: forward evaluations only, two per step, regardless
  of parameter count.  This is the standard hardware-in-the-loop
  protocol when the physical chip itself is the evaluator and no
  gradients exist.

Both minimize the relative Frobenius error to the target and report
the measurement count, the quantity that costs wall-clock time on a
real chip.

Measurement accounting
----------------------
``n_measurements`` counts **every** chip forward (``factory.build()``)
exactly once — the initial and final error reads, every per-
``record_every`` history point, and each optimization evaluation
(adjoint: one training forward per step; SPSA: two perturbed reads
plus one post-update read per step).  ``history`` starts at the
initial error and always ends at the final error, even when ``steps``
is not a multiple of ``record_every``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..autograd import no_grad
from ..optim import Adam
from ..ptc.unitary import UnitaryFactory
from ..utils.rng import get_rng

__all__ = [
    "CalibrationResult",
    "adjoint_measurement_count",
    "calibrate_adjoint",
    "calibrate_spsa",
    "spsa_measurement_count",
]


@dataclass
class CalibrationResult:
    """Outcome of a calibration run.

    ``n_measurements`` counts forward evaluations of the chip (the
    scarce resource in hardware-in-the-loop operation); ``history``
    records the relative error every few steps.
    """

    method: str
    initial_error: float
    final_error: float
    n_measurements: int
    history: List[float] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Fraction of the initial error removed, in [0, 1]."""
        if self.initial_error <= 0:
            return 0.0
        return 1.0 - self.final_error / self.initial_error


def _relative_error(factory: UnitaryFactory, target: np.ndarray) -> float:
    with no_grad():
        u = factory.build().data[0]
    return float(np.linalg.norm(u - target) / np.linalg.norm(target))


def _check(factory: UnitaryFactory, target: np.ndarray) -> np.ndarray:
    if factory.n_units != 1:
        raise ValueError("calibration requires a factory with n_units == 1")
    target = np.asarray(target, dtype=complex)
    if target.shape != (factory.k, factory.k):
        raise ValueError(
            f"target must be {factory.k} x {factory.k}, got {target.shape}")
    return target


def _perturbed_error(factory: UnitaryFactory, target: np.ndarray,
                     params, deltas, sign: float) -> float:
    """Chip error with every phase vector perturbed by ``sign * delta``.

    The pre-call parameter bits are saved and restored from copies:
    ``(p + d) - d`` does **not** round-trip in floating point, so the
    perturb-then-subtract idiom silently accumulates rounding error in
    every phase on every call (the PR 8 SPSA state-drift bug).
    Restoration here is bitwise — pinned by a regression test.
    """
    saved = [p.data.copy() for p in params]
    try:
        for p, d in zip(params, deltas):
            p.data = p.data + sign * d
        return _relative_error(factory, target)
    finally:
        for p, s in zip(params, saved):
            p.data = s


def adjoint_measurement_count(steps: int, record_every: int = 10) -> int:
    """Chip forwards an adjoint run performs: the initial read, one
    training forward per step, one read per recorded history point,
    and the final read (skipped when a record point already measured
    the final state)."""
    if steps <= 0:
        return 1
    recorded = steps // record_every
    final = 0 if steps % record_every == 0 else 1
    return 1 + steps + recorded + final


def spsa_measurement_count(steps: int) -> int:
    """Chip forwards an SPSA run performs: the initial read plus, per
    step, two perturbed reads and one post-update read."""
    return 1 + 3 * max(0, steps)


def calibrate_adjoint(
    factory: UnitaryFactory,
    target: np.ndarray,
    steps: int = 200,
    lr: float = 0.02,
    record_every: int = 10,
) -> CalibrationResult:
    """Digital-twin calibration: Adam on the differentiable chip model.

    ``n_measurements`` counts every forward of the twin (see the
    module docstring): :func:`adjoint_measurement_count` is the closed
    form.
    """
    target = _check(factory, target)
    t = target.reshape(1, factory.k, factory.k)
    n_meas = 0

    def measure() -> float:
        nonlocal n_meas
        n_meas += 1
        return _relative_error(factory, target)

    initial = measure()
    opt = Adam(factory.parameters(), lr=lr)
    history: List[float] = [initial]
    for step in range(steps):
        opt.zero_grad()
        u = factory.build()
        n_meas += 1
        # Seed the adjoint of ||u - t||_F^2 directly: its gradient is
        # 2 (u - t) under the complex convention, and the loss value
        # itself is never read.
        d = u.data - t
        u.backward(d + d)
        opt.step()
        if (step + 1) % record_every == 0:
            history.append(measure())
    if steps > 0 and steps % record_every != 0:
        history.append(measure())
    final = history[-1]
    return CalibrationResult(method="adjoint", initial_error=initial,
                             final_error=final, n_measurements=n_meas,
                             history=history)


def calibrate_spsa(
    factory: UnitaryFactory,
    target: np.ndarray,
    steps: int = 800,
    a0: float = 3.0,
    c0: float = 0.2,
    stability: float = 20.0,
    record_every: int = 20,
    rng=None,
) -> CalibrationResult:
    """Hardware-in-the-loop calibration with SPSA (Spall 1992).

    Each step perturbs *all* phases simultaneously by a Rademacher
    vector and estimates the gradient from two chip measurements —
    the measurement cost is independent of the parameter count, which
    is what makes SPSA practical on real photonic hardware.

    The best-seen parameter vector is kept (SPSA iterates are noisy).
    ``n_measurements`` counts every chip forward
    (:func:`spsa_measurement_count` is the closed form); perturbation
    evaluations restore the pre-perturbation parameter bits exactly
    (see :func:`_perturbed_error`).
    """
    target = _check(factory, target)
    rng = get_rng(rng)
    params = list(factory.parameters())
    n_meas = 0

    def measure() -> float:
        nonlocal n_meas
        n_meas += 1
        return _relative_error(factory, target)

    initial = measure()
    best_err = initial
    best_state = [p.data.copy() for p in params]
    history: List[float] = [initial]

    for k in range(steps):
        a_k = a0 / (k + 1 + stability) ** 0.602
        c_k = c0 / (k + 1) ** 0.101
        deltas = [c_k * rng.choice([-1.0, 1.0], size=p.data.shape)
                  for p in params]
        loss_plus = _perturbed_error(factory, target, params, deltas, +1.0)
        loss_minus = _perturbed_error(factory, target, params, deltas, -1.0)
        n_meas += 2
        g_scale = (loss_plus - loss_minus) / (2.0 * c_k)
        for p, d in zip(params, deltas):
            # delta entries are +-c_k, so d / c_k is the Rademacher sign.
            p.data = p.data - a_k * g_scale * (d / c_k)
        err = measure()
        if err < best_err:
            best_err = err
            best_state = [p.data.copy() for p in params]
        if (k + 1) % record_every == 0:
            history.append(best_err)

    if steps > 0 and steps % record_every != 0:
        history.append(best_err)
    for p, data in zip(params, best_state):
        p.data = data
    return CalibrationResult(method="spsa", initial_error=initial,
                             final_error=best_err, n_measurements=n_meas,
                             history=history)
