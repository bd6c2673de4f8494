"""Trainable unitary factories for photonic tensor cores.

A *unitary factory* owns the trainable phases of a photonic mesh and
builds, on every forward pass, a batch of K x K transfer matrices — one
per (p, q) weight block of an ONN layer (the paper's Eq. (2): the
*topology* is shared across blocks, the *phases* are per-block).

Three concrete factories implement the three PTC families compared in
the paper:

* :class:`MZIMeshFactory` — rectangular (Clements-style) mesh of MZIs;
  universal but large (the MZI-ONN baseline [Shen et al. 2017]).
* :class:`ButterflyFactory` — log-depth butterfly mesh with trainable
  phases (the FFT-ONN baseline [Gu et al. 2020], in its general
  trainable-transform form).
* :class:`FixedTopologyFactory` — an ADEPT-searched topology: a fixed
  sequence of (CR permutation, DC column, PS column) blocks with
  trainable phases.

All factories support Gaussian phase-noise injection (``noise_std``)
used for variation-aware training and robustness evaluation (paper
Fig. 4).

Backends
--------
Every factory builds its transfer matrices through one of two paths:

* ``backend="fast"`` (default) — vectorized column application: the
  phase factors of *all* columns are computed in one tensor op and the
  whole column cascade runs as a single fused graph node
  (:func:`repro.autograd.phase_column_cascade` /
  :func:`repro.autograd.matmul_chain`).
* ``backend="reference"`` — the original one-op-per-column loop, kept
  as executable documentation and as the ground truth for the parity
  tests in ``tests/ptc/test_fast_path_parity.py``.

Both paths compute the same math; they differ only in how many graph
nodes (and Python round-trips) the build costs.  On the eval path
(grad mode off, no noise) fast builds are additionally memoized in a
:class:`repro.ptc.cache.UnitaryBuildCache` keyed on the (topology,
phase snapshot) content, so repeated evaluation of an unchanged mesh
is a dictionary lookup.

Execution backends
------------------
Orthogonal to the build-path choice above, every factory routes its
array arithmetic through an *execution backend*
(:mod:`repro.autograd.backend`): ``exec_backend`` may be set at
construction, overridden per ``build``/``build_trials`` call, or left
``None`` to follow the process-wide default.  The stock ``"numpy"``
backend computes in complex128 and is bit-compatible with the graph
kernels; the ``"numpy-c64"`` lane computes forward-only builds in
complex64 for ~2x memory-bandwidth savings.  When a forward-only
backend is selected and grad mode is off, ``build()`` routes through
the trial-batched kernels (a T=1 stack) instead of the autograd graph;
under grad mode the backend demotes to its full-precision fallback so
training numerics never change.  Cache keys include the backend
identity token, so complex64 and complex128 artifacts can never serve
each other's hits.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import (
    Tensor,
    custom_grad,
    ensure_tensor,
    is_grad_enabled,
    matmul_chain,
    no_grad,
    phase_column_cascade,
    phase_factor,
)
from ..autograd import tensor as T
from ..autograd.backend import BackendLike, ExecutionBackend, resolve_backend
from ..nn.module import Module, Parameter
from ..photonics.crossings import perm_to_matrix
from ..photonics.devices import T_5050, dc_layer_matrix_np
from ..utils.rng import get_rng
from .cache import UnitaryBuildCache, content_digest, unitary_cache_enabled

#: Build backend used when a factory is constructed without an explicit
#: ``backend`` argument.  ``"fast"`` = fused cascade, ``"reference"`` =
#: per-column op loop.
DEFAULT_BACKEND = "fast"

_BACKENDS = ("fast", "reference")


def batched_scatter(
    values: Tensor,
    rows: np.ndarray,
    cols: np.ndarray,
    k: int,
) -> Tensor:
    """Build (..., K, K) matrices with ``out[..., rows[i], cols[i]] =
    values[..., i]`` (indices unique; all other entries zero)."""
    values = ensure_tensor(values)
    batch = values.shape[:-1]
    out = np.zeros(batch + (k, k), dtype=values.data.dtype)
    out[..., rows, cols] = values.data

    def backward(g: np.ndarray):
        return (g[..., rows, cols],)

    return custom_grad(out, (values,), backward)


def block_constant_matrix(
    k: int,
    perm: Optional[Sequence[int]],
    coupler_mask: np.ndarray,
    offset: int,
) -> np.ndarray:
    """Constant ``P @ T`` matrix of one searched block.

    The single source of truth for turning a block spec (CR
    permutation, DC coupler mask, column offset) into its transfer
    matrix — shared by :class:`FixedTopologyFactory`, the population
    scorer (:mod:`repro.ptc.population`), and the nonideality model
    (which left-multiplies its loss diagonal onto this).
    """
    ts = [T_5050 if placed else 1.0 for placed in np.asarray(coupler_mask, dtype=bool)]
    t_mat = dc_layer_matrix_np(ts, k, int(offset))
    p_mat = np.eye(k) if perm is None else perm_to_matrix(perm)
    return p_mat @ t_mat


class UnitaryFactory(Module):
    """Base class: builds ``n_units`` trainable K x K transfer matrices.

    Attributes
    ----------
    k: mesh size (number of waveguides).
    n_units: number of independent phase configurations (one per
        weight block of the owning ONN layer).
    noise_std: std-dev of Gaussian phase noise added at build time
        (0 disables).  Used by variation-aware training / Fig. 4.
    backend: ``"fast"`` (fused cascade, default) or ``"reference"``
        (per-column loop); see the module docstring.
    exec_backend: execution backend (name or
        :class:`~repro.autograd.backend.ExecutionBackend`) used for the
        array arithmetic, or None to follow the process-wide default.
    build_cache: eval-mode memoization of built transfer matrices
        (:class:`repro.ptc.cache.UnitaryBuildCache`).
    """

    def __init__(
        self,
        k: int,
        n_units: int,
        rng=None,
        backend: Optional[str] = None,
        exec_backend: Optional[BackendLike] = None,
    ):
        super().__init__()
        self.k = k
        self.n_units = n_units
        self.noise_std = 0.0
        #: Optional Tensor -> Tensor hook applied to phases before
        #: noise injection — e.g. an STE quantizer modelling a low-bit
        #: phase-control DAC (:mod:`repro.core.quantization`).
        self.phase_transform = None
        backend = DEFAULT_BACKEND if backend is None else backend
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.backend = backend
        self.exec_backend = exec_backend
        self.build_cache = UnitaryBuildCache()
        self._topology_digest = b""
        self._rng = get_rng(rng)
        #: Deterministic additive phase offsets, one array per entry of
        #: :meth:`phase_parameters` (or None).  When installed they
        #: replace random noise injection entirely: every build adds
        #: exactly these offsets — how the Monte-Carlo engine's
        #: sequential reference backend replays a frozen noise
        #: realization through the normal per-batch build path.
        self.trial_phase_offsets: Optional[Tuple[np.ndarray, ...]] = None

    def _noisy(self, phases: Tensor) -> Tensor:
        fixed = None
        if self.trial_phase_offsets is not None:
            for p, off in zip(self.phase_parameters(), self.trial_phase_offsets):
                if p is phases:
                    fixed = off
                    break
        if self.phase_transform is not None:
            phases = self.phase_transform(phases)
        if fixed is not None:
            return phases + Tensor(np.asarray(fixed))
        if self.noise_std > 0.0:
            noise = self._rng.normal(0.0, self.noise_std, size=phases.shape)
            return phases + Tensor(noise)
        return phases

    # -- build dispatch -------------------------------------------------
    def _resolve_exec(
        self, exec_backend: Optional[BackendLike] = None
    ) -> ExecutionBackend:
        """Resolve the per-call > per-factory > process-default chain."""
        return resolve_backend(
            exec_backend if exec_backend is not None else self.exec_backend
        )

    def build(self, exec_backend: Optional[BackendLike] = None) -> Tensor:
        """Return transfer matrices of shape (n_units, K, K), complex.

        Dispatches to the configured backend; on the eval path (grad
        mode off, no noise, no phase transform) fast builds are served
        from / recorded into :attr:`build_cache`.  With a forward-only
        execution backend (e.g. ``"numpy-c64"``) and grad mode off, the
        build routes through the trial-batched kernels instead of the
        autograd graph; under grad mode forward-only backends demote to
        their full-precision fallback.
        """
        eb = self._resolve_exec(exec_backend)
        if eb.forward_only and not is_grad_enabled():
            return self._build_forward_only(eb)
        if self.backend == "reference":
            return self._build_reference()
        if self._cacheable():
            key = self._cache_key(eb)
            hit = self.build_cache.get(key)
            if hit is not None:
                return Tensor(hit)
            out = self._build_fast(eb)
            self.build_cache.put(key, out.data)
            return out
        return self._build_fast(eb)

    def _build_forward_only(self, eb: ExecutionBackend) -> Tensor:
        """Eval-only build through the trial-batched kernels (T=1)."""
        if self._cacheable():
            key = self._cache_key(eb)
            hit = self.build_cache.get(key)
            if hit is not None:
                return Tensor(hit)
            out = self._forward_only_data(eb)
            self.build_cache.put(key, out)
            return Tensor(out)
        return Tensor(self._forward_only_data(eb))

    def _forward_only_data(self, eb: ExecutionBackend) -> np.ndarray:
        return self.build_trials(
            self._single_trial_offsets(), backend="fast", exec_backend=eb
        )[0]

    def _single_trial_offsets(self) -> Tuple[np.ndarray, ...]:
        """Additive phase offsets reproducing one :meth:`_noisy` build
        as a T=1 trial stack: installed replay offsets take precedence,
        then fresh noise draws (same RNG stream and parameter order as
        the graph path), else zeros."""
        params = self.phase_parameters()
        if self.trial_phase_offsets is not None:
            return tuple(
                np.asarray(o, dtype=float)[None] for o in self.trial_phase_offsets
            )
        if self.noise_std > 0.0:
            return tuple(
                self._rng.normal(0.0, self.noise_std, size=(1,) + p.data.shape)
                for p in params
            )
        return tuple(np.zeros((1,) + p.data.shape) for p in params)

    def _cacheable(self) -> bool:
        return (
            unitary_cache_enabled()
            and not is_grad_enabled()
            and self.noise_std == 0.0
            and self.phase_transform is None
            and self.trial_phase_offsets is None
        )

    def _cache_key(self, eb: Optional[ExecutionBackend] = None) -> bytes:
        eb = self._resolve_exec(None) if eb is None else eb
        return (
            self._topology_digest
            + eb.cache_token()
            + content_digest(*(p.data for p in self.parameters()))
        )

    def _build_fast(self, eb: Optional[ExecutionBackend] = None) -> Tensor:
        raise NotImplementedError

    def _build_reference(self) -> Tensor:
        raise NotImplementedError

    # -- trial-batched Monte-Carlo builds -------------------------------
    #
    # The robustness engine (:mod:`repro.core.variation`) evaluates a
    # model under T = (noise levels x runs) independent phase-noise
    # realizations.  Instead of re-seeding ``_rng`` and rebuilding the
    # mesh T times, it pre-draws additive phase offsets for all trials
    # and asks the factory for the whole (T, n_units, K, K) stack in
    # one forward-only fused kernel.  No graph nodes are created —
    # trial builds are eval-only by construction.

    def phase_parameters(self) -> List[Parameter]:
        """The phase parameters noise is injected into, in a fixed
        order shared by :meth:`draw_trial_noise` and
        :meth:`build_trials`."""
        raise NotImplementedError

    def draw_trial_noise(
        self, stds: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, ...]:
        """Draw additive phase offsets for ``T`` trials in one call.

        ``stds`` has shape (T,): the Gaussian phase-noise std-dev of
        each trial (entries may differ — that is how a noise-level
        sweep becomes a single batched build).  Returns one array of
        shape ``(T,) + param.shape`` per entry of
        :meth:`phase_parameters`.
        """
        stds = np.asarray(stds, dtype=float)
        if stds.ndim != 1:
            raise ValueError(f"stds must be 1-D (one per trial), got {stds.shape}")
        out = []
        for p in self.phase_parameters():
            scale = stds.reshape((len(stds),) + (1,) * p.data.ndim)
            out.append(scale * rng.standard_normal((len(stds),) + p.data.shape))
        return tuple(out)

    def build_trials(
        self,
        offsets: Sequence[np.ndarray],
        backend: Optional[str] = None,
        const_stacks: Optional[np.ndarray] = None,
        exec_backend: Optional[BackendLike] = None,
    ) -> np.ndarray:
        """Build noisy transfer matrices for all trials at once.

        ``offsets`` is the tuple returned by :meth:`draw_trial_noise`
        (additive, per-trial phase offsets).  Returns a plain numpy
        array of shape ``(T, n_units, K, K)``.

        ``backend`` overrides the factory's configured backend:
        ``"fast"`` runs every trial through one fused cascade,
        ``"reference"`` loops trials through the per-column math —
        kept as the parity/benchmark baseline of the Monte-Carlo
        engine.  ``const_stacks`` (searched topologies only) supplies
        per-trial constant block matrices of shape ``(T, B, K, K)``,
        which is how fabrication-sample scenario grids ride through
        the same kernel.  ``exec_backend`` selects the array engine /
        dtype (trial builds are forward-only by construction, so
        forward-only lanes such as ``"numpy-c64"`` apply directly).
        """
        backend = self.backend if backend is None else backend
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        eb = self._resolve_exec(exec_backend)
        if const_stacks is not None:
            raise ValueError(
                f"{type(self).__name__} does not support per-trial const_stacks"
            )
        if backend == "reference":
            return self._build_trials_reference(offsets, eb)
        return self._build_trials_fast(offsets, eb)

    def _transformed_phase_data(self, param: Parameter) -> np.ndarray:
        """``param``'s phase values after the optional phase transform
        (e.g. a DAC quantizer) — the programmed drive that noise and
        crosstalk act on."""
        if self.phase_transform is None:
            return param.data
        with no_grad():
            return self.phase_transform(ensure_tensor(param)).data

    def _trial_phases(self, param: Parameter, offset: np.ndarray) -> np.ndarray:
        """Base phases (+ optional transform) plus per-trial offsets,
        shape ``(T,) + param.shape``."""
        offset = np.asarray(offset, dtype=float)
        if offset.shape[1:] != param.data.shape:
            raise ValueError(
                f"offset shape {offset.shape} does not broadcast over "
                f"phases of shape {param.data.shape}"
            )
        return self._transformed_phase_data(param)[None] + offset

    def _build_trials_fast(
        self, offsets: Sequence[np.ndarray], eb: ExecutionBackend
    ) -> np.ndarray:
        raise NotImplementedError

    def _build_trials_reference(
        self, offsets: Sequence[np.ndarray], eb: ExecutionBackend
    ) -> np.ndarray:
        raise NotImplementedError

    def forward(self) -> Tensor:
        return self.build()

    # Subclasses report their own device usage for footprint accounting.
    def device_counts(self) -> Tuple[int, int, int]:
        """(n_ps, n_dc, n_cr) of ONE mesh instance (topology-level)."""
        raise NotImplementedError


class MZIMeshFactory(UnitaryFactory):
    """Rectangular MZI mesh (Clements arrangement), universal at size K.

    Layer ``l`` (l = 0..K-1) holds MZIs on waveguide pairs starting at
    offset ``l % 2``; a full mesh has K(K-1)/2 MZIs.  Each MZI
    contributes an internal phase ``theta`` and an external phase
    ``phi``; its 2x2 transfer (50:50 couplers) is

        M(theta, phi) = 1/2 * [[ (a-1) e^{-j phi},  j (a+1)        ],
                               [ j (a+1) e^{-j phi}, (1-a)         ]],
        a = exp(-j theta)

    which is the closed form of DC @ PS(theta) @ DC @ PS(phi).

    The fast backend computes the four 2x2 entries of *every* MZI in
    the mesh with whole-array ops, scatters them into a stack of
    column matrices in one custom op, and folds the stack with
    :func:`repro.autograd.matmul_chain`.
    """

    def __init__(
        self,
        k: int,
        n_units: int,
        rng=None,
        backend: Optional[str] = None,
        exec_backend: Optional[BackendLike] = None,
    ):
        super().__init__(k, n_units, rng=rng, backend=backend, exec_backend=exec_backend)
        self.n_layers = k
        layout = []
        for layer in range(self.n_layers):
            offset = layer % 2
            m = (k - offset) // 2
            layout.append((offset, m))
        self._layout = layout
        rng_ = get_rng(rng)
        max_m = max(m for _, m in layout) if layout else 0
        self.theta = Parameter(rng_.uniform(0, 2 * math.pi, size=(n_units, self.n_layers, max_m)))
        self.phi = Parameter(rng_.uniform(0, 2 * math.pi, size=(n_units, self.n_layers, max_m)))
        # Flattened (layer, slot, waveguide) indices of every MZI in the
        # mesh plus the pass-through diagonal of each column — the
        # scatter pattern of the fast backend.
        lay, slot, pos = [], [], []
        diag = np.zeros((self.n_layers, k, k), dtype=complex)
        for layer, (offset, m) in enumerate(layout):
            p = offset + 2 * np.arange(m)
            lay.append(np.full(m, layer, dtype=int))
            slot.append(np.arange(m))
            pos.append(p)
            covered = np.zeros(k, dtype=bool)
            covered[p] = True
            covered[p + 1] = True
            diag[layer] = np.diag((~covered).astype(complex))
        self._mzi_lay = np.concatenate(lay) if lay else np.zeros(0, dtype=int)
        self._mzi_slot = np.concatenate(slot) if slot else np.zeros(0, dtype=int)
        self._mzi_pos = np.concatenate(pos) if pos else np.zeros(0, dtype=int)
        self._column_diag = diag
        self._topology_digest = content_digest(
            np.array([k, self.n_layers]), self._mzi_lay, self._mzi_pos
        )

    def _assemble_columns(self, m00, m01, m10, m11) -> Tensor:
        """Scatter per-MZI 2x2 entries into (n_units, L, K, K) columns."""
        lay, slot, pos = self._mzi_lay, self._mzi_slot, self._mzi_pos
        parts = (m00, m01, m10, m11)
        rows = (pos, pos, pos + 1, pos + 1)
        cols = (pos, pos + 1, pos, pos + 1)
        out = np.broadcast_to(
            self._column_diag, (self.n_units,) + self._column_diag.shape
        ).copy()
        for part, r, c in zip(parts, rows, cols):
            out[:, lay, r, c] = part.data[:, lay, slot]

        def backward(g: np.ndarray):
            grads = []
            for _part, r, c in zip(parts, rows, cols):
                gp = np.zeros((self.n_units,) + self.theta.shape[1:], dtype=complex)
                gp[:, lay, slot] = g[:, lay, r, c]
                grads.append(gp)
            return tuple(grads)

        return custom_grad(out, parts, backward)

    def _build_fast(self, eb: Optional[ExecutionBackend] = None) -> Tensor:
        theta = self._noisy(self.theta)
        phi = self._noisy(self.phi)
        a = phase_factor(theta)  # (n_units, L, max_m)
        e = phase_factor(phi)
        half = Tensor(np.array(0.5))
        jj = Tensor(np.array(1j))
        m00 = (a - 1.0) * e * half
        m01 = jj * (a + 1.0) * half
        m10 = jj * (a + 1.0) * e * half
        m11 = (1.0 - a) * half
        columns = self._assemble_columns(m00, m01, m10, m11)
        return matmul_chain(columns, backend=self._resolve_exec(eb))

    def _build_reference(self) -> Tensor:
        theta = self._noisy(self.theta)
        phi = self._noisy(self.phi)
        u: Optional[Tensor] = None
        for layer, (offset, m) in enumerate(self._layout):
            if m == 0:
                continue
            th = theta[:, layer, :m]
            ph = phi[:, layer, :m]
            a = phase_factor(th)
            e = phase_factor(ph)
            half = Tensor(np.array(0.5))
            jj = Tensor(np.array(1j))
            m00 = (a - 1.0) * e * half
            m01 = jj * (a + 1.0) * half
            m10 = jj * (a + 1.0) * e * half
            m11 = (1.0 - a) * half
            pos = offset + 2 * np.arange(m)
            rows = np.concatenate([pos, pos, pos + 1, pos + 1])
            cols = np.concatenate([pos, pos + 1, pos, pos + 1])
            vals = T.concat([m00, m01, m10, m11], axis=-1)
            mat = batched_scatter(vals, rows, cols, self.k)
            covered = np.zeros(self.k, dtype=bool)
            covered[pos] = True
            covered[pos + 1] = True
            mat = mat + Tensor(np.diag((~covered).astype(complex)))
            u = mat if u is None else mat @ u
        assert u is not None
        return u

    # -- trial-batched builds ------------------------------------------
    def phase_parameters(self) -> List[Parameter]:
        return [self.theta, self.phi]

    @staticmethod
    def _mzi_entries(a: np.ndarray, e: np.ndarray):
        """The four 2x2 entries of every MZI given ``a = exp(-j theta)``
        and ``e = exp(-j phi)`` (same closed form as the graph path)."""
        m00 = (a - 1.0) * e * 0.5
        m01 = 1j * (a + 1.0) * 0.5
        m10 = 1j * (a + 1.0) * e * 0.5
        m11 = (1.0 - a) * 0.5
        return m00, m01, m10, m11

    def _build_trials_fast(
        self, offsets: Sequence[np.ndarray], eb: ExecutionBackend
    ) -> np.ndarray:
        # Each MZI column is block-diagonal in 2x2 units, so applying it
        # to the running product is a paired *row rotation* — O(K^2)
        # per column instead of the O(K^3) matmul fold, and no (T, L,
        # K, K) column scatter to materialize.  This is what makes the
        # trial-batched build cheaper per realization than replaying
        # the graph build T times, not just a loop-fusion win.
        cdt = eb.complex_dtype
        off_theta, off_phi = offsets
        theta = self._trial_phases(self.theta, off_theta)  # (T, n_units, L, M)
        phi = self._trial_phases(self.phi, off_phi)
        t = theta.shape[0]
        n = t * self.n_units
        # exp in double precision, then cast: matches the rounding a
        # graph-built matrix shows after a dtype cast.
        a = np.exp(-1j * theta).reshape((n,) + self.theta.shape[1:]).astype(cdt, copy=False)
        e = np.exp(-1j * phi).reshape((n,) + self.phi.shape[1:]).astype(cdt, copy=False)
        m00, m01, m10, m11 = self._mzi_entries(a, e)
        u = np.broadcast_to(np.eye(self.k, dtype=cdt), (n, self.k, self.k)).copy()
        for layer, (offset, m) in enumerate(self._layout):
            if m == 0:
                continue
            pos = offset + 2 * np.arange(m)
            top = u[:, pos, :]  # (n, m, K) — fancy indexing copies
            bot = u[:, pos + 1, :]
            c00 = m00[:, layer, :m, None]
            c01 = m01[:, layer, :m, None]
            c10 = m10[:, layer, :m, None]
            c11 = m11[:, layer, :m, None]
            u[:, pos, :] = c00 * top + c01 * bot
            u[:, pos + 1, :] = c10 * top + c11 * bot
        return u.reshape(t, self.n_units, self.k, self.k)

    def _build_trials_reference(
        self, offsets: Sequence[np.ndarray], eb: ExecutionBackend
    ) -> np.ndarray:
        cdt = eb.complex_dtype
        off_theta, off_phi = offsets
        theta = self._trial_phases(self.theta, off_theta)
        phi = self._trial_phases(self.phi, off_phi)
        t = theta.shape[0]
        out = np.empty((t, self.n_units, self.k, self.k), dtype=cdt)
        for trial in range(t):
            u: Optional[np.ndarray] = None
            for layer, (offset, m) in enumerate(self._layout):
                if m == 0:
                    continue
                a = np.exp(-1j * theta[trial, :, layer, :m]).astype(cdt, copy=False)
                e = np.exp(-1j * phi[trial, :, layer, :m]).astype(cdt, copy=False)
                m00, m01, m10, m11 = self._mzi_entries(a, e)
                pos = offset + 2 * np.arange(m)
                covered = np.zeros(self.k, dtype=bool)
                covered[pos] = True
                covered[pos + 1] = True
                mat = np.broadcast_to(
                    np.diag((~covered).astype(cdt)),
                    (self.n_units, self.k, self.k),
                ).copy()
                mat[:, pos, pos] = m00
                mat[:, pos, pos + 1] = m01
                mat[:, pos + 1, pos] = m10
                mat[:, pos + 1, pos + 1] = m11
                u = mat if u is None else mat @ u
            assert u is not None
            out[trial] = u
        return out

    def device_counts(self) -> Tuple[int, int, int]:
        # Paper accounting (Table 1): each MZI column is two blocks, and
        # every block is billed a full K-wide PS column, so one mesh has
        # #PS = K * 2K; each of the K(K-1)/2 MZIs has two couplers.
        n_mzi = sum(m for _, m in self._layout)
        return 2 * self.k * self.k, 2 * n_mzi, 0


class ButterflyFactory(UnitaryFactory):
    """Log-depth butterfly mesh with trainable phases (FFT-ONN family).

    Stage ``s`` (s = 0..log2(K)-1) applies a full PS column followed by
    50:50 couplers on waveguide pairs at stride 2^s.  The stride
    pairing is realized on chip with waveguide crossings, whose count
    is accounted analytically in
    :func:`repro.photonics.footprint.butterfly_footprint`.

    The stage coupling matrices are constant, so the fast backend is a
    single :func:`repro.autograd.phase_column_cascade` over the stacked
    stages.
    """

    def __init__(
        self,
        k: int,
        n_units: int,
        rng=None,
        backend: Optional[str] = None,
        exec_backend: Optional[BackendLike] = None,
    ):
        super().__init__(k, n_units, rng=rng, backend=backend, exec_backend=exec_backend)
        stages = int(math.log2(k))
        if 2 ** stages != k:
            raise ValueError(f"butterfly mesh requires power-of-two K, got {k}")
        self.stages = stages
        rng_ = get_rng(rng)
        self.phases = Parameter(rng_.uniform(0, 2 * math.pi, size=(n_units, stages, k)))
        # Constant coupler matrices per stage, stacked for the cascade.
        from .butterfly import butterfly_stage_matrix

        self._stage_dc: List[np.ndarray] = [
            butterfly_stage_matrix(k, s) for s in range(stages)
        ]
        self._stage_stack = np.stack(self._stage_dc) if stages else np.zeros((0, k, k), complex)
        self._topology_digest = content_digest(self._stage_stack)

    def _build_fast(self, eb: Optional[ExecutionBackend] = None) -> Tensor:
        ps = phase_factor(self._noisy(self.phases))  # (n_units, stages, K)
        return phase_column_cascade(
            Tensor(self._stage_stack), ps, backend=self._resolve_exec(eb)
        )

    def _build_reference(self) -> Tensor:
        phases = self._noisy(self.phases)
        u: Optional[Tensor] = None
        for s in range(self.stages):
            ps = phase_factor(phases[:, s, :])  # (n_units, K)
            dc = Tensor(self._stage_dc[s])
            if u is None:
                # dc @ diag(ps): scale columns of dc per unit.
                u = dc * ps.reshape((self.n_units, 1, self.k))
            else:
                u = dc @ (ps.reshape((self.n_units, self.k, 1)) * u)
        assert u is not None
        return u

    # -- trial-batched builds ------------------------------------------
    def phase_parameters(self) -> List[Parameter]:
        return [self.phases]

    def _build_trials_fast(
        self, offsets: Sequence[np.ndarray], eb: ExecutionBackend
    ) -> np.ndarray:
        (off,) = offsets
        phases = self._trial_phases(self.phases, off)  # (T, n_units, S, K)
        t = phases.shape[0]
        ps = np.exp(-1j * phases).reshape(t * self.n_units, self.stages, self.k)
        u = eb.phase_column_cascade_forward(self._stage_stack, ps)
        return u.reshape(t, self.n_units, self.k, self.k)

    def _build_trials_reference(
        self, offsets: Sequence[np.ndarray], eb: ExecutionBackend
    ) -> np.ndarray:
        cdt = eb.complex_dtype
        (off,) = offsets
        phases = self._trial_phases(self.phases, off)
        t = phases.shape[0]
        out = np.empty((t, self.n_units, self.k, self.k), dtype=cdt)
        for trial in range(t):
            u: Optional[np.ndarray] = None
            for s in range(self.stages):
                ps = np.exp(-1j * phases[trial, :, s, :]).astype(cdt, copy=False)
                dc = self._stage_dc[s].astype(cdt, copy=False)
                if u is None:
                    u = dc * ps[:, None, :]
                else:
                    u = dc @ (ps[:, :, None] * u)
            assert u is not None
            out[trial] = u
        return out

    def device_counts(self) -> Tuple[int, int, int]:
        from ..photonics.footprint import _butterfly_crossings

        n_ps = self.stages * self.k
        n_dc = self.stages * (self.k // 2)
        n_cr = _butterfly_crossings(self.k)
        return n_ps, n_dc, n_cr


class FixedTopologyFactory(UnitaryFactory):
    """A searched (or hand-specified) ADEPT block topology.

    Each block b applies, in light-propagation order,
    ``P_b @ T_b @ R(Phi_b)``: a PS column (trainable phases), a DC
    column (fixed coupler placement), and a crossing network (fixed
    permutation).  ``blocks`` is a sequence of
    ``(perm, coupler_mask, offset)`` with

    * ``perm``: index vector (output i reads input perm[i]) or None
      for identity routing;
    * ``coupler_mask``: boolean array, one entry per coupler *slot*
      (slot i couples waveguides offset+2i, offset+2i+1); True means a
      50:50 DC is placed, False means pass-through;
    * ``offset``: 0 or 1, the interleaving of the DC column.

    The per-block constant ``P_b @ T_b`` matrices live in
    :attr:`_const`; assigning a new list (as the nonideality model in
    :mod:`repro.photonics.nonideality` does to substitute fabricated
    device responses) re-stacks the fast-path constants and invalidates
    the build cache.
    """

    def __init__(
        self,
        k: int,
        n_units: int,
        blocks: Sequence[Tuple[Optional[Sequence[int]], np.ndarray, int]],
        rng=None,
        backend: Optional[str] = None,
        exec_backend: Optional[BackendLike] = None,
    ):
        super().__init__(k, n_units, rng=rng, backend=backend, exec_backend=exec_backend)
        self.blocks_spec = [
            (None if perm is None else np.asarray(perm, dtype=int),
             np.asarray(mask, dtype=bool),
             int(offset))
            for perm, mask, offset in blocks
        ]
        self.n_blocks = len(self.blocks_spec)
        rng_ = get_rng(rng)
        self.phases = Parameter(
            rng_.uniform(0, 2 * math.pi, size=(n_units, self.n_blocks, k))
        )
        # Constant (P_b @ T_b) matrix of each block (see _const property).
        self._const = [
            block_constant_matrix(k, perm, mask, offset)
            for perm, mask, offset in self.blocks_spec
        ]

    @property
    def _const(self) -> List[np.ndarray]:
        """Per-block constant (P @ T) matrices, in application order."""
        return self._const_list

    @_const.setter
    def _const(self, value: Sequence[np.ndarray]) -> None:
        self._const_list = [np.asarray(c, dtype=complex) for c in value]
        self._const_stack = (
            np.stack(self._const_list)
            if self._const_list
            else np.zeros((0, self.k, self.k), dtype=complex)
        )
        self._topology_digest = content_digest(self._const_stack)
        self.build_cache.clear()

    def _build_fast(self, eb: Optional[ExecutionBackend] = None) -> Tensor:
        if self.n_blocks == 0:
            eye = np.broadcast_to(np.eye(self.k, dtype=complex), (self.n_units, self.k, self.k))
            return Tensor(eye.copy())
        ps = phase_factor(self._noisy(self.phases))  # (n_units, B, K)
        return phase_column_cascade(
            Tensor(self._const_stack), ps, backend=self._resolve_exec(eb)
        )

    def _build_reference(self) -> Tensor:
        phases = self._noisy(self.phases)
        u: Optional[Tensor] = None
        for b in range(self.n_blocks):
            ps = phase_factor(phases[:, b, :])  # (n_units, K)
            cb = Tensor(self._const[b])
            if u is None:
                u = cb * ps.reshape((self.n_units, 1, self.k))
            else:
                u = cb @ (ps.reshape((self.n_units, self.k, 1)) * u)
        if u is None:
            eye = np.broadcast_to(np.eye(self.k, dtype=complex), (self.n_units, self.k, self.k))
            return Tensor(eye.copy())
        return u

    # -- trial-batched builds ------------------------------------------
    def phase_parameters(self) -> List[Parameter]:
        return [self.phases]

    def build_trials(
        self,
        offsets: Sequence[np.ndarray],
        backend: Optional[str] = None,
        const_stacks: Optional[np.ndarray] = None,
        exec_backend: Optional[BackendLike] = None,
    ) -> np.ndarray:
        backend = self.backend if backend is None else backend
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        eb = self._resolve_exec(exec_backend)
        if const_stacks is not None:
            const_stacks = np.asarray(const_stacks, dtype=complex)
            if const_stacks.shape[1:] != (self.n_blocks, self.k, self.k):
                raise ValueError(
                    f"const_stacks shape {const_stacks.shape} != "
                    f"(T, {self.n_blocks}, {self.k}, {self.k})"
                )
        if backend == "reference":
            return self._build_trials_reference(offsets, eb, const_stacks)
        return self._build_trials_fast(offsets, eb, const_stacks)

    def _build_trials_fast(
        self,
        offsets: Sequence[np.ndarray],
        eb: ExecutionBackend,
        const_stacks: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        (off,) = offsets
        phases = self._trial_phases(self.phases, off)  # (T, n_units, B, K)
        t = phases.shape[0]
        if self.n_blocks == 0:
            eye = np.eye(self.k, dtype=eb.complex_dtype)
            return np.broadcast_to(eye, (t, self.n_units, self.k, self.k)).copy()
        ps = np.exp(-1j * phases).reshape(t * self.n_units, self.n_blocks, self.k)
        if const_stacks is None:
            consts = self._const_stack  # (B, K, K), shared by all trials
        else:
            # One constant stack per trial, repeated across the trial's
            # n_units meshes to match the flattened batch axis.
            consts = np.repeat(const_stacks, self.n_units, axis=0)
        u = eb.phase_column_cascade_forward(consts, ps)
        return u.reshape(t, self.n_units, self.k, self.k)

    def _build_trials_reference(
        self,
        offsets: Sequence[np.ndarray],
        eb: ExecutionBackend,
        const_stacks: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        cdt = eb.complex_dtype
        (off,) = offsets
        phases = self._trial_phases(self.phases, off)
        t = phases.shape[0]
        out = np.empty((t, self.n_units, self.k, self.k), dtype=cdt)
        for trial in range(t):
            consts = (
                self._const_list if const_stacks is None else const_stacks[trial]
            )
            u: Optional[np.ndarray] = None
            for b in range(self.n_blocks):
                ps = np.exp(-1j * phases[trial, :, b, :]).astype(cdt, copy=False)
                cb = np.asarray(consts[b]).astype(cdt, copy=False)
                if u is None:
                    u = cb * ps[:, None, :]
                else:
                    u = cb @ (ps[:, :, None] * u)
            if u is None:
                u = np.broadcast_to(
                    np.eye(self.k, dtype=cdt), (self.n_units, self.k, self.k)
                ).copy()
            out[trial] = u
        return out

    def device_counts(self) -> Tuple[int, int, int]:
        from ..photonics.crossings import count_inversions

        n_ps = self.n_blocks * self.k
        n_dc = sum(int(mask.sum()) for _, mask, _ in self.blocks_spec)
        n_cr = sum(
            0 if perm is None else count_inversions(list(perm))
            for perm, _, _ in self.blocks_spec
        )
        return n_ps, n_dc, n_cr
