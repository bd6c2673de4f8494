"""Fused autograd kernels for photonic mesh simulation.

The hot loop of every PTC forward pass is a *column cascade*: a mesh of
``B`` blocks applies, block by block, a diagonal phase-shifter column
followed by a constant-ish coupler/crossing matrix,

    U = C_{B-1} D(ps_{B-1}) ... C_1 D(ps_1) C_0 D(ps_0),

optionally soft-gated per block by Gumbel execution probabilities
(the SuperMesh of paper Eq. 5-7).  Composing this out of elementary
:mod:`repro.autograd.tensor` ops costs O(B) graph nodes *per mesh* and
dominates runtime with Python dispatch overhead rather than FLOPs.

This module provides fused primitives that each run as a single graph
node with a hand-derived backward pass:

* :func:`phase_factor` — the phase-shifter response ``exp(-j phi)``
  of real phases, the ``ps`` input of every cascade.
* :func:`phase_column_cascade` — the PS-column cascade above, with
  gradients for the phase factors, the block matrices (needed by the
  SuperMesh, where blocks depend on trainable permutations and
  couplers), and the execution probabilities.
* :func:`matmul_chain` — a left-fold of batched matrix products
  ``M_{B-1} @ ... @ M_0`` used by the MZI rectangle, whose column
  matrices are themselves phase-dependent.

Both follow the complex gradient convention of
:mod:`repro.autograd.tensor` (``z.grad = dL/dx + i dL/dy``); their
backward rules are the exact composition of the ``mul``/``matmul``
rules the unfused graph would apply, so fast-path gradients match the
reference path to floating-point rounding.  Parity is locked in by
``tests/autograd/test_fused.py`` and ``tests/ptc/test_fast_path_parity.py``.

**Debug mode** — with ``REPRO_CHECK_FINITE=1`` in the environment,
every fused-kernel output is scanned and a :class:`FloatingPointError`
names the kernel the first time a NaN/Inf appears, instead of the
non-finite values laundering through accuracy scores as silently wrong
numbers (a single bad phase otherwise surfaces only as a model that
mysteriously never learns).  The check costs one ``isfinite`` scan per
kernel call and is off by default.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from .backend import BackendLike, resolve_backend
from .tensor import Tensor, _make, ensure_tensor, is_grad_enabled

__all__ = [
    "finite_checks_enabled",
    "l2_normalize",
    "matmul_chain",
    "matmul_chain_forward",
    "phase_column_cascade",
    "phase_column_cascade_forward",
    "phase_factor",
]


_NEG_J = np.array(-1j)


def finite_checks_enabled() -> bool:
    """True when ``REPRO_CHECK_FINITE`` requests NaN/Inf output checks.

    Read per call so tests (and long-lived services) can flip the mode
    without reimporting; any value other than empty/``"0"`` enables.
    """
    return os.environ.get("REPRO_CHECK_FINITE", "0") not in ("", "0")


def _check_finite(out: np.ndarray, kernel: str) -> np.ndarray:
    """Raise ``FloatingPointError`` on non-finite ``out`` in debug mode."""
    if finite_checks_enabled() and not np.all(np.isfinite(out)):
        n_bad = int(np.size(out) - np.count_nonzero(np.isfinite(out)))
        raise FloatingPointError(
            f"{kernel} produced {n_bad} non-finite value(s) "
            f"(shape {out.shape}); set REPRO_CHECK_FINITE=0 to disable "
            "this check"
        )
    return out


def _recording(*tensors: Optional[Tensor]) -> bool:
    """True when a graph node would actually be created for ``tensors``
    — the condition under which a forward-only backend must demote to
    its grad-capable fallback."""
    return is_grad_enabled() and any(
        t is not None and (t.requires_grad or t._parents) for t in tensors
    )


def l2_normalize(x: Tensor, axis: int, eps: float = 1e-12) -> Tensor:
    """Fused L2 row/column normalization ``x / sqrt(sum |x|^2 + eps)``.

    One graph node replacing the six-op elementary composition
    ``x / (sum_(x * conj(x), axis, keepdims).real() + eps).sqrt()
    .astype(complex)`` used by the SuperMesh stabilization (paper
    3.3.2).  The backward rule is the exact composition of the
    elementary rules (with the real-projection at the sqrt boundary):

        ``g_x = g / d - x * Re(sum(g * conj(x))) / d^3``,
        ``d = sqrt(sum |x|^2 + eps)``.
    """
    x = ensure_tensor(x)
    xd = x.data
    n2 = (xd * np.conj(xd)).real.sum(axis=axis, keepdims=True) + eps
    d = np.sqrt(n2)
    out = xd / d

    def backward(g: np.ndarray):
        dot = (g * np.conj(xd)).sum(axis=axis, keepdims=True).real
        return (g / d - xd * (dot / (n2 * d)),)

    return _make(out, (x,), backward)


def phase_factor(phases) -> Tensor:
    """Fused phase-shifter response ``exp(-j * phases)`` (phases real).

    One graph node whose forward and backward perform, op for op, the
    arithmetic of the two-node composition ``exp(mul(-1j, phases))``,
    so values and gradients are bit-identical to it.
    """
    phases = ensure_tensor(phases)
    ps = np.exp(_NEG_J * phases.data)

    def backward(g: np.ndarray):
        return ((g * np.conj(ps)) * np.conj(_NEG_J),)

    return _make(ps, (phases,), backward)


def phase_column_cascade_forward(
    consts: np.ndarray,
    ps: np.ndarray,
    exec_prob: Optional[np.ndarray] = None,
    backend: Optional[BackendLike] = None,
) -> np.ndarray:
    """Forward-only twin of :func:`phase_column_cascade`.

    Computes ``C_{B-1} @ diag(ps_{B-1}) @ ... @ C_0 @ diag(ps_0)`` for a
    batch of ``N`` meshes without building a graph node or retaining
    per-block intermediates — the inner kernel of the trial-batched
    Monte-Carlo robustness engine (:mod:`repro.core.variation`), where
    ``N`` is (trials x units) and no gradients are ever needed.

    ``consts`` has shape ``(B, K, K)`` (shared) or ``(N, B, K, K)``
    (per-mesh); ``ps`` has shape ``(N, B, K)``; ``exec_prob``, when
    given, has shape ``(B,)`` or ``(N, B)`` and soft-gates each block
    exactly like the graph kernel.  ``backend`` selects the execution
    backend (:mod:`repro.autograd.backend`); ``None`` uses the process
    default.  On the ``"numpy"`` backend the arithmetic is identical,
    op for op, to the autograd kernel's forward loop, so results agree
    bit-for-bit with the trainable path; the ``"numpy-c64"`` fast lane
    trades that for complex64 stacked-GEMM folding.
    """
    out = resolve_backend(backend).phase_column_cascade_forward(
        consts, ps, exec_prob
    )
    return _check_finite(out, "phase_column_cascade_forward")


def matmul_chain_forward(
    mats: np.ndarray, backend: Optional[BackendLike] = None
) -> np.ndarray:
    """Forward-only twin of :func:`matmul_chain`.

    ``mats`` has shape ``(N, B, K, K)``; returns
    ``mats[:, B-1] @ ... @ mats[:, 0]`` of shape ``(N, K, K)`` without
    graph bookkeeping or stored prefixes.  ``backend`` selects the
    execution backend (``None`` = process default).
    """
    return _check_finite(
        resolve_backend(backend).matmul_chain_forward(mats), "matmul_chain_forward"
    )


def phase_column_cascade(
    consts: Tensor,
    ps: Tensor,
    exec_prob: Optional[Tensor] = None,
    backend: Optional[BackendLike] = None,
) -> Tensor:
    """Fused forward of a phase-shifter/constant-column mesh cascade.

    Computes, in one graph node,

        ``u_0 = I``,
        ``block_b = C_b @ diag(ps_b) @ u_b``,
        ``u_{b+1} = m_b * block_b + (1 - m_b) * u_b``,

    returning ``u_B`` of shape ``(N, K, K)``.

    Parameters
    ----------
    consts:
        Block matrices ``C_b``; shape ``(B, K, K)`` (shared by all N
        meshes) or ``(N, B, K, K)`` (per-mesh).  May carry gradients —
        in the SuperMesh they depend on the relaxed permutations and
        STE-binarized couplers.
    ps:
        Complex phase factors ``exp(-j phi)``, shape ``(N, B, K)``.
    exec_prob:
        Optional per-block execution weights ``m_b``; shape ``(B,)``
        (shared) or ``(N, B)``.  ``None`` means every block executes
        (``m_b = 1``), which skips the gating arithmetic entirely.
    backend:
        Execution backend (:mod:`repro.autograd.backend`); ``None``
        uses the process default.  A forward-only backend (e.g. the
        complex64 fast lane) is honored only when no gradients would be
        recorded; under grad recording the kernel demotes to the
        backend's grad-capable fallback so training code can run
        unchanged with a low-precision default installed.
    """
    consts = ensure_tensor(consts)
    ps = ensure_tensor(ps)
    if exec_prob is not None:
        exec_prob = ensure_tensor(exec_prob)
    eb = resolve_backend(backend)
    if eb.forward_only and not _recording(consts, ps, exec_prob):
        ed_ = None if exec_prob is None else exec_prob.data
        return Tensor(_check_finite(
            eb.phase_column_cascade_forward(consts.data, ps.data, ed_),
            "phase_column_cascade",
        ))
    pd = ps.data
    if pd.ndim != 3:
        raise ValueError(f"ps must have shape (N, B, K), got {pd.shape}")
    n, n_blocks, k = pd.shape
    cd = consts.data
    shared_c = cd.ndim == 3
    if shared_c:
        if cd.shape != (n_blocks, k, k):
            raise ValueError(f"consts shape {cd.shape} != ({n_blocks}, {k}, {k})")
    elif cd.shape != (n, n_blocks, k, k):
        raise ValueError(f"consts shape {cd.shape} != ({n}, {n_blocks}, {k}, {k})")
    ed = None
    if exec_prob is not None:
        exec_prob = ensure_tensor(exec_prob)
        ed = exec_prob.data
        if ed.shape not in ((n_blocks,), (n, n_blocks)):
            raise ValueError(f"exec_prob shape {ed.shape} invalid for B={n_blocks}")

    if n_blocks == 0:
        return Tensor(np.broadcast_to(np.eye(k, dtype=complex), (n, k, k)).copy())
    # The identity is only read as the skip path of a gated first block.
    eye = None if ed is None else np.eye(k, dtype=complex)

    # Forward, keeping per-block intermediates for the backward pass.
    # The gated block outputs are only retained when the gates can
    # actually receive gradients — a constant exec mask (population
    # padding) would otherwise pin B extra (N, K, K) arrays per build.
    need_e = exec_prob is not None and (
        exec_prob.requires_grad or bool(exec_prob._parents)
    )
    prevs = []  # u_b entering block b; None encodes the identity
    blocks = []  # C_b @ diag(ps_b) @ u_b (needed for exec_prob grads)
    u: Optional[np.ndarray] = None
    for b in range(n_blocks):
        c_b = cd[b] if shared_c else cd[:, b]
        ps_b = pd[:, b, :]
        prevs.append(u)
        if u is None:
            block = c_b * ps_b[:, None, :]
        else:
            block = c_b @ (ps_b[:, :, None] * u)
        if ed is None:
            u = block
        else:
            m = ed[b] if ed.ndim == 1 else ed[:, b][:, None, None]
            skip = eye if u is None else u
            u = m * block + (1.0 - m) * skip
            if need_e:
                blocks.append(block)
    out = u

    def backward(g: np.ndarray):
        need_c = consts.requires_grad or consts._parents
        g_ps = np.zeros((n, n_blocks, k), dtype=complex)
        g_c = np.zeros(cd.shape, dtype=complex) if need_c else None
        g_e = np.zeros(ed.shape, dtype=complex) if need_e else None
        gu = np.asarray(g)
        # Conjugate transpose of every block matrix, taken once.
        cd_h = np.conj(np.swapaxes(cd, -1, -2))
        for b in reversed(range(n_blocks)):
            c_b = cd[b] if shared_c else cd[:, b]
            ps_b = pd[:, b, :]
            prev = prevs[b]
            if ed is not None:
                m = ed[b] if ed.ndim == 1 else ed[:, b][:, None, None]
                if need_e:
                    skip = eye if prev is None else prev
                    diff = gu * np.conj(blocks[b] - skip)
                    if ed.ndim == 1:
                        g_e[b] += diff.sum()
                    else:
                        g_e[:, b] += diff.sum(axis=(-1, -2))
                g_block = m * gu
                g_skip = (1.0 - m) * gu
            else:
                g_block = gu
                g_skip = None
            if prev is None:
                # block = C_b * ps_b[:, None, :] (column scaling).
                if need_c:
                    gc = g_block * np.conj(ps_b[:, None, :])
                    if shared_c:
                        g_c[b] += gc.sum(axis=0)
                    else:
                        g_c[:, b] += gc
                g_ps[:, b, :] = (g_block * np.conj(c_b)).sum(axis=-2)
                g_prev = None
            else:
                g_v = (cd_h[b] if shared_c else cd_h[:, b]) @ g_block
                if need_c:
                    v = ps_b[:, :, None] * prev
                    gc = g_block @ np.conj(np.swapaxes(v, -1, -2))
                    if shared_c:
                        g_c[b] += gc.sum(axis=0)
                    else:
                        g_c[:, b] += gc
                g_ps[:, b, :] = (g_v * np.conj(prev)).sum(axis=-1)
                g_prev = g_v * np.conj(ps_b)[:, :, None]
            if g_prev is None:
                gu = g_skip if g_skip is not None else None
            elif g_skip is not None:
                gu = g_prev + g_skip
            else:
                gu = g_prev
            if gu is None and b > 0:
                # Fully-gated remainder (m = 1 on the first block without
                # a skip path cannot happen: g_skip exists whenever ed
                # does, and g_prev exists whenever b > 0).
                gu = np.zeros((n, k, k), dtype=complex)
        if exec_prob is None:
            return g_c, g_ps
        return g_c, g_ps, g_e

    parents = (consts, ps) if exec_prob is None else (consts, ps, exec_prob)
    return _make(
        _check_finite(np.ascontiguousarray(out), "phase_column_cascade"),
        parents,
        backward,
    )


def matmul_chain(mats: Tensor, backend: Optional[BackendLike] = None) -> Tensor:
    """Fused left-fold of batched matrix products.

    ``mats`` has shape ``(N, B, K, K)``; the result is
    ``mats[:, B-1] @ ... @ mats[:, 1] @ mats[:, 0]`` of shape
    ``(N, K, K)`` — block 0 acts on the input first, matching the
    light-propagation order used throughout :mod:`repro.ptc`.

    A single graph node replaces the ``B - 1`` matmul nodes the
    unfused composition would create; the backward pass replays the
    chain with the stored prefixes (``grad_{M_b} = g_b @ conj(P_{b-1})^T``,
    ``g_{b-1} = conj(M_b)^T @ g_b``).

    ``backend`` follows the same rules as :func:`phase_column_cascade`:
    forward-only backends apply only when no gradients would be
    recorded, otherwise the grad-capable fallback runs.
    """
    mats = ensure_tensor(mats)
    eb = resolve_backend(backend)
    if eb.forward_only and not _recording(mats):
        return Tensor(
            _check_finite(eb.matmul_chain_forward(mats.data), "matmul_chain")
        )
    md = mats.data
    if md.ndim != 4 or md.shape[-1] != md.shape[-2]:
        raise ValueError(f"mats must have shape (N, B, K, K), got {md.shape}")
    n, n_blocks, k, _ = md.shape
    if n_blocks == 0:
        return Tensor(np.broadcast_to(np.eye(k, dtype=complex), (n, k, k)).copy())

    prefixes = []  # running product entering block b; None = identity
    u: Optional[np.ndarray] = None
    for b in range(n_blocks):
        prefixes.append(u)
        u = md[:, b] if u is None else md[:, b] @ u

    def backward(g: np.ndarray):
        gm = np.zeros_like(md)
        gu = np.asarray(g)
        for b in reversed(range(n_blocks)):
            prev = prefixes[b]
            if prev is None:
                gm[:, b] += gu
            else:
                gm[:, b] += gu @ np.conj(np.swapaxes(prev, -1, -2))
                gu = np.conj(np.swapaxes(md[:, b], -1, -2)) @ gu
        return (gm,)

    return _make(
        _check_finite(np.ascontiguousarray(u), "matmul_chain"), (mats,), backward
    )
