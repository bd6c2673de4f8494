"""Photonic device models and differentiable layer constructors.

Implements the transfer matrices of the paper's basic optical
components (section 2.1):

* **Phase shifter (PS)** — ``y = exp(-j*phi) * x`` (active, trainable).
* **Directional coupler (DC)** — 2x2 transfer ``[[t, j*s], [j*s, t]]``
  with ``s = sqrt(1 - t^2)``; passive, fixed after fabrication.  The
  paper restricts designs to 50:50 couplers, ``t = sqrt(2)/2``.
* **Waveguide crossing (CR)** — a permutation of waveguides.
* **Mach-Zehnder interferometer (MZI)** — two 50:50 DCs and two PSs;
  realizes an arbitrary 2-D unitary (up to phase), the building block
  of the MZI-ONN baseline.

Both plain-numpy constructors (for analysis/verification) and
autograd-aware constructors (for training) are provided.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, concat, custom_grad, ensure_tensor, phase_factor
from ..autograd import tensor as T

#: Transmission coefficient of a 50:50 (3 dB) directional coupler.
T_5050 = math.sqrt(2.0) / 2.0


# ----------------------------------------------------------------------
# Plain numpy transfer matrices (analysis / ground truth for tests)
# ----------------------------------------------------------------------

def ps_matrix(phases: np.ndarray) -> np.ndarray:
    """Diagonal transfer matrix of a phase-shifter column: diag(e^{-j phi})."""
    return np.diag(np.exp(-1j * np.asarray(phases)))


def dc_matrix(t: float = T_5050) -> np.ndarray:
    """2x2 directional-coupler transfer matrix for transmission ``t``."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {t}")
    s = math.sqrt(max(0.0, 1.0 - t * t))
    return np.array([[t, 1j * s], [1j * s, t]])

def dc_layer_matrix_np(ts: Sequence[float], k: int, offset: int) -> np.ndarray:
    """K x K transfer of a DC column; coupler ``i`` sits on waveguides
    ``(offset + 2i, offset + 2i + 1)``; uncovered waveguides pass through."""
    m = np.eye(k, dtype=complex)
    for i, t in enumerate(ts):
        p = offset + 2 * i
        q = p + 1
        if q >= k:
            break
        m[p : q + 1, p : q + 1] = dc_matrix(float(t))
    return m


def crossing_matrix(perm: Sequence[int]) -> np.ndarray:
    """Permutation matrix P with P[i, perm[i]] = 1 (row i reads input perm[i])."""
    k = len(perm)
    m = np.zeros((k, k))
    m[np.arange(k), np.asarray(perm)] = 1.0
    return m


def mzi_matrix(theta: float, phi: float) -> np.ndarray:
    """2x2 MZI transfer: DC * PS(theta on arm 0) * DC * PS(phi on arm 0).

    Cascading two 50:50 couplers around an internal differential phase
    ``theta`` plus an external phase ``phi`` spans all of SU(2) up to a
    global phase, which suffices for universal mesh construction.
    """
    dc = dc_matrix(T_5050)
    internal = np.diag([np.exp(-1j * theta), 1.0])
    external = np.diag([np.exp(-1j * phi), 1.0])
    return dc @ internal @ dc @ external


def is_unitary(m: np.ndarray, atol: float = 1e-8) -> bool:
    """Check M^H M = I."""
    m = np.asarray(m)
    return np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=atol)


# ----------------------------------------------------------------------
# Scatter primitive (builds matrices from trainable entries)
# ----------------------------------------------------------------------

def scatter_matrix(
    values: Tensor,
    rows: np.ndarray,
    cols: np.ndarray,
    shape: Tuple[int, int],
) -> Tensor:
    """Build a dense matrix with ``out[rows[i], cols[i]] = values[i]``.

    Indices must be unique.  The backward rule gathers the upstream
    gradient back at the scattered locations.
    """
    values = ensure_tensor(values)
    out = np.zeros(shape, dtype=values.data.dtype)
    out[rows, cols] = values.data

    def backward(g: np.ndarray):
        return (g[rows, cols],)

    return custom_grad(out, (values,), backward)


# ----------------------------------------------------------------------
# Differentiable layer constructors (autograd Tensors)
# ----------------------------------------------------------------------

def ps_column(phases: Tensor) -> Tensor:
    """Column vector ``exp(-j * phi)`` of a PS layer.

    ``phases`` may have any shape ``(..., K)``; the result multiplies a
    field of shape ``(..., K, n)`` as ``ps[..., :, None] * field``.
    """
    return phase_factor(phases)


def apply_ps(field: Tensor, phases: Tensor) -> Tensor:
    """Apply a PS column: field (..., K, N) scaled per waveguide."""
    col = ps_column(phases)
    return T.mul(T.reshape(col, col.shape + (1,)), field)


def dc_layer_matrix(ts: Tensor, k: int, offset: int) -> Tensor:
    """Differentiable K x K DC-column transfer from transmissions ``ts``.

    ``ts`` has one entry per coupler position starting at waveguide
    ``offset``; entries equal to 1 mean "no coupler" (pass-through).
    """
    ts = ensure_tensor(ts)
    n = min(int(ts.shape[0]), (k - offset) // 2)
    pos = offset + 2 * np.arange(n)
    ts_used = ts[:n] if n < ts.shape[0] else ts

    # cross amplitude j * sqrt(1 - t^2); clamp keeps sqrt differentiable at t=1
    one_minus = T.clip(1.0 - ts_used * ts_used, 0.0, 1.0)
    s = T.sqrt(one_minus + 1e-12)
    js = T.mul(Tensor(np.array(1j)), s)
    tc = T.astype(ts_used, np.complex128)

    rows = np.concatenate([pos, pos + 1, pos, pos + 1])
    cols = np.concatenate([pos, pos + 1, pos + 1, pos])
    vals = concat([tc, tc, js, js], axis=0)
    mat = scatter_matrix(vals, rows, cols, (k, k))

    # Pass-through identity for waveguides not covered by a coupler.
    covered = np.zeros(k, dtype=bool)
    covered[pos] = True
    covered[pos + 1] = True
    eye_rest = np.diag((~covered).astype(complex))
    return mat + Tensor(eye_rest)


def mzi_layer_matrix(thetas: Tensor, phis: Tensor, k: int, offset: int) -> Tensor:
    """Differentiable K x K transfer of a column of MZIs.

    MZI ``i`` sits on waveguides ``(offset + 2i, offset + 2i + 1)``.
    Built by composing two DC columns with the internal/external phase
    columns, so it shares verified primitives with the search space.
    """
    thetas = ensure_tensor(thetas)
    phis = ensure_tensor(phis)
    n = min(int(thetas.shape[0]), (k - offset) // 2)
    pos = offset + 2 * np.arange(n)

    dc = Tensor(dc_layer_matrix_np([T_5050] * n, k, offset))

    def phase_diag(ph: Tensor) -> Tensor:
        # Phases act on the upper arm of each MZI; other waveguides get 0.
        full = np.zeros(k)
        col = phase_factor(ph[:n] if n < ph.shape[0] else ph)
        rows = pos
        diag = scatter_matrix(col, rows, rows, (k, k))
        rest = np.diag(np.asarray([0.0 if c else 1.0 for c in _covered_upper(k, pos)], dtype=complex))
        return diag + Tensor(rest)

    internal = phase_diag(thetas)
    external = phase_diag(phis)
    return dc @ internal @ dc @ external


def _covered_upper(k: int, pos: np.ndarray):
    covered = np.zeros(k, dtype=bool)
    covered[pos] = True
    return covered
