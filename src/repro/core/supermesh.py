"""Probabilistic photonic SuperMesh (paper section 3.3, Fig. 1-2).

The SuperMesh relaxes the discrete PTC design space into a trainable
supernet:

* every super block is PS column -> DC column -> CR layer;
* the **depth** of each unitary is stochastic: block b executes with
  probability given by Gumbel-softmax over its sampling coefficients
  ``theta_b`` (Eq. 5-7), with the last ``B_min/2`` blocks always on;
* the **CR layers** are relaxed doubly-stochastic matrices learned with
  ALM (:class:`~repro.core.permutation.PermutationLearner`);
* the **DC layers** are binarized with a straight-through estimator
  (:class:`~repro.core.coupler.CouplerLearner`);
* **phases and Sigma** are ordinary weights.

The topology (permutations, couplers, theta) is *shared* by every PTC
layer of the proxy model; each layer owns its per-block phases and
Sigma (:class:`SuperMeshCore`), mirroring Eq. (2) where the layout
``alpha`` is shared among all blocks.

Like the mesh factories in :mod:`repro.ptc.unitary`, the SuperMesh has
two build backends.  The default ``"fast"`` path assembles all DC
columns in one scatter, stacks the per-block transfer matrices with a
batched matmul, and runs each unitary as a single fused
:func:`repro.autograd.phase_column_cascade` node (including the
Gumbel execution gating).  ``backend="reference"`` keeps the original
per-block op loop as ground truth; parity between the two (forward and
gradients) is enforced by ``tests/core/test_supermesh_fastpath.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..autograd import (
    Tensor,
    custom_grad,
    l2_normalize,
    phase_column_cascade,
    phase_factor,
)
from ..autograd import tensor as T
from ..nn import functional as F
from ..nn.module import Module, Parameter
from ..photonics.footprint import supermesh_block_bounds
from ..photonics.pdk import FoundryPDK
from ..utils.rng import get_rng
from .coupler import CouplerLearner
from .gumbel import categorical_probs, gumbel_softmax
from .permutation import PermutationLearner
from .spl import legalize_all
from .topology import BlockSpec, PTCTopology


@dataclass
class SuperMeshSample:
    """One sampled architecture state, shared by all cores in a step."""

    transfer: Tensor  # (n_blocks, K, K) complex stacked P~ @ T
    exec_prob: Tensor  # (n_blocks,) soft execution weights m_{b,2}

    @property
    def block_transfer(self) -> List[Tensor]:
        """Per-block (K, K) views of :attr:`transfer` (reference path)."""
        return [self.transfer[b] for b in range(self.transfer.shape[0])]


class SuperMeshSpace(Module):
    """Shared searchable state of the SuperMesh.

    Parameters
    ----------
    k: PTC size.
    pdk: foundry PDK (device areas).
    f_min, f_max: footprint constraint window in um^2.
    b_min, b_max: optional explicit total block bounds; when omitted
        they are derived analytically from the constraint (Eq. 16).
    """

    def __init__(
        self,
        k: int,
        pdk: FoundryPDK,
        f_min: float,
        f_max: float,
        b_min: Optional[int] = None,
        b_max: Optional[int] = None,
        rho0: Optional[float] = None,
        alm_total_steps: int = 2000,
        perm_init_jitter: float = 0.0,
        perm_init: str = "identity",
        rng=None,
    ):
        super().__init__()
        if b_min is None or b_max is None:
            auto_min, auto_max = supermesh_block_bounds(pdk, k, f_min, f_max)
            b_min = auto_min if b_min is None else b_min
            b_max = auto_max if b_max is None else b_max
        self.k = k
        self.pdk = pdk
        self.f_min = f_min
        self.f_max = f_max
        # Per-unitary super blocks; cap keeps supernets tractable.
        self.half_max = max(1, b_max // 2)
        self.half_min = max(1, min(b_min // 2, self.half_max))
        self.n_blocks = 2 * self.half_max
        self.n_searchable_per_side = self.half_max - self.half_min

        searchable = np.array(
            [self._searchable_index_static(b) is not None
             for b in range(self.n_blocks)]
        )
        # Vectorized block bookkeeping for the fast sample path: the
        # theta row feeding each global block (0 for always-on blocks,
        # which the mask filters out).
        self._searchable_mask = searchable
        self._theta_rows = np.array(
            [si if si is not None else 0
             for si in map(self._searchable_index_static, range(self.n_blocks))]
        )
        self.perms = PermutationLearner(
            k,
            self.n_blocks,
            rho0=rho0,
            total_steps=alm_total_steps,
            init_jitter=perm_init_jitter,
            init=perm_init,
            shuffle_mask=searchable,
            rng=rng,
        )
        self.couplers = CouplerLearner(k, self.n_blocks, rng=rng)
        # Flattened (block, slot, waveguide) indices of every valid DC
        # slot plus the pass-through diagonal of each column — the
        # scatter pattern of the batched DC-column assembly.
        blk, slot = np.nonzero(self.couplers.slot_mask)
        pos = self.couplers.offsets[blk] + 2 * slot
        self._dc_blk, self._dc_slot, self._dc_pos = blk, slot, pos
        covered = np.zeros((self.n_blocks, k), dtype=bool)
        covered[blk, pos] = True
        covered[blk, pos + 1] = True
        diag = np.zeros((self.n_blocks, k, k), dtype=complex)
        idx = np.arange(k)
        diag[:, idx, idx] = (~covered).astype(complex)
        self._dc_diag = diag
        n_search = 2 * self.n_searchable_per_side
        # theta[:, 0] = skip logit, theta[:, 1] = execute logit.
        self.theta = Parameter(np.zeros((max(1, n_search), 2)))
        self._has_search = n_search > 0
        self.current: Optional[SuperMeshSample] = None
        self._rng = get_rng(rng)

    # -- block bookkeeping -------------------------------------------------
    def _searchable_index_static(self, global_b: int):
        side = 0 if global_b < self.half_max else 1
        local = global_b - side * self.half_max
        if local >= self.n_searchable_per_side:
            return None
        return side * self.n_searchable_per_side + local

    def side_blocks(self, side: str) -> range:
        """Global block indices of unitary 'u' or 'v'."""
        if side == "u":
            return range(0, self.half_max)
        if side == "v":
            return range(self.half_max, self.n_blocks)
        raise ValueError("side must be 'u' or 'v'")

    def _searchable_index(self, global_b: int) -> Optional[int]:
        """Map a global block index to its theta row (None = always-on).

        Within each side, the *last* half_min blocks are always on
        (paper: lower-bounds the search space).
        """
        return self._searchable_index_static(global_b)

    # -- sampling ------------------------------------------------------------
    def _dc_columns(self) -> Tensor:
        """(n_blocks, K, K) differentiable DC-column matrices.

        Batched equivalent of :func:`_dc_matrix_from_transmissions`:
        all blocks' quantized transmissions are turned into column
        matrices with a single scatter, so STE gradients reach the
        coupler latents through one graph node instead of O(B).
        """
        tq = self.couplers.quantized()  # (n_blocks, max_slots)
        one_minus = T.clip(1.0 - tq * tq, 0.0, 1.0)
        s = T.sqrt(one_minus + 1e-12)
        js = T.mul(Tensor(np.array(1j)), s)
        tc = tq.astype(np.complex128)
        blk, slot, pos = self._dc_blk, self._dc_slot, self._dc_pos
        out = self._dc_diag.copy()
        out[blk, pos, pos] = tc.data[blk, slot]
        out[blk, pos + 1, pos + 1] = tc.data[blk, slot]
        out[blk, pos, pos + 1] = js.data[blk, slot]
        out[blk, pos + 1, pos] = js.data[blk, slot]

        def backward(g: np.ndarray):
            gt = np.zeros(tc.shape, dtype=complex)
            gj = np.zeros(js.shape, dtype=complex)
            gt[blk, slot] = g[blk, pos, pos] + g[blk, pos + 1, pos + 1]
            gj[blk, slot] = g[blk, pos, pos + 1] + g[blk, pos + 1, pos]
            return gt, gj

        return custom_grad(out, (tc, js), backward)

    def sample(
        self,
        tau: float = 1.0,
        rng: Optional[np.random.Generator] = None,
        stochastic: bool = True,
    ) -> SuperMeshSample:
        """Draw an architecture sample and cache it as ``current``.

        ``stochastic=False`` uses noise-free selection probabilities
        (used for expected-footprint evaluation and deterministic eval).

        The whole sample is assembled with batched ops: one scatter for
        all DC columns, one batched matmul against the relaxed
        permutations, and one gather/where pair for the execution
        probabilities.
        """
        rng = rng if rng is not None else self._rng
        p_tilde = self.perms.relaxed()  # (n_blocks, K, K)
        transfer = p_tilde.astype(np.complex128) @ self._dc_columns()
        if self._has_search:
            if stochastic:
                m = gumbel_softmax(self.theta, tau, rng=rng)  # (n_search, 2)
            else:
                m = categorical_probs(self.theta)
            gathered = m[self._theta_rows, np.ones(self.n_blocks, dtype=int)]
            exec_prob = T.where(
                self._searchable_mask, gathered, Tensor(np.ones(self.n_blocks))
            )
        else:
            exec_prob = Tensor(np.ones(self.n_blocks))
        sample = SuperMeshSample(transfer=transfer, exec_prob=exec_prob)
        self.current = sample
        return sample

    def exec_probabilities(self) -> np.ndarray:
        """Noise-free execution probability of every global block."""
        probs = np.ones(self.n_blocks)
        if self._has_search:
            soft = categorical_probs(self.theta).data
            mask = self._searchable_mask
            probs[mask] = soft[self._theta_rows[mask], 1]
        return probs

    # -- architecture parameter group ---------------------------------------
    def arch_parameters(self) -> List[Parameter]:
        return [self.theta]

    def weight_parameters(self) -> List[Parameter]:
        out = [self.couplers.latent]
        if not self.perms.frozen:
            out.append(self.perms.raw)
        return out

    # -- legalization ----------------------------------------------------------
    def legalize_permutations(
        self, sigma: float = 0.05, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Run SPL on every CR layer and freeze them (paper: epoch 50)."""
        relaxed = self.perms.relaxed().data
        legal, tries = legalize_all(relaxed, sigma=sigma, rng=rng or self._rng)
        self.perms.freeze_to(legal)
        return tries

    # -- topology extraction ------------------------------------------------
    def extract_topology(
        self,
        rng: Optional[np.random.Generator] = None,
        max_tries: int = 200,
        name: str = "adept",
    ) -> PTCTopology:
        """Derive a discrete PTC design from the trained SuperMesh.

        Samples SubMeshes from the learned block distribution until the
        exact footprint satisfies the constraint (paper section 4.1);
        falls back to a greedy probability-ordered selection.
        """
        rng = rng if rng is not None else self._rng
        if not self.perms.frozen:
            self.legalize_permutations(rng=rng)
        probs = self.exec_probabilities()
        coupler_masks = self.couplers.hard_masks()
        perms = self.perms.raw.data  # legal permutation matrices

        def build(selected: np.ndarray) -> PTCTopology:
            blocks_u, blocks_v = [], []
            for b in range(self.n_blocks):
                if not selected[b]:
                    continue
                perm_idx = np.argmax(perms[b], axis=1)
                perm = None if np.array_equal(perm_idx, np.arange(self.k)) else perm_idx
                spec = BlockSpec(
                    coupler_mask=coupler_masks[b].copy(),
                    offset=int(self.couplers.offsets[b]),
                    perm=perm,
                )
                (blocks_u if b < self.half_max else blocks_v).append(spec)
            return PTCTopology(
                k=self.k,
                blocks_u=blocks_u,
                blocks_v=blocks_v,
                name=name,
                pdk_name=self.pdk.name,
                footprint_constraint=(self.f_min, self.f_max),
            )

        def feasible(topo: PTCTopology) -> bool:
            if not topo.blocks_u or not topo.blocks_v:
                return False
            f = topo.footprint(self.pdk).total
            return self.f_min <= f <= self.f_max

        # 1) Stochastic SubMesh sampling from P_theta; among feasible
        # samples prefer the one spending least area on crossings (the
        # paper's designs "avoid using many crossings" under strict
        # budgets).
        best_feasible = None
        best_cr_area = np.inf
        for _ in range(max_tries):
            selected = rng.random(self.n_blocks) < probs
            for b in range(self.n_blocks):
                if self._searchable_index(b) is None:
                    selected[b] = True
            topo = build(selected)
            if feasible(topo):
                cr_area = topo.device_counts()[2] * self.pdk.cr_area
                if cr_area < best_cr_area:
                    best_feasible, best_cr_area = topo, cr_area
        if best_feasible is not None:
            return best_feasible
        # 2) Greedy fallback: most-probable blocks first until feasible.
        order = np.argsort(-probs)
        selected = np.array(
            [self._searchable_index(b) is None for b in range(self.n_blocks)]
        )
        best = build(selected)
        for b in order:
            if selected[b]:
                continue
            selected[b] = True
            cand = build(selected)
            if cand.footprint(self.pdk).total > self.f_max:
                selected[b] = False
                continue
            best = cand
            if feasible(best):
                return best
        return best


def _dc_matrix_from_transmissions(ts: Tensor, k: int, offset: int) -> Tensor:
    """Differentiable K x K DC-column matrix from quantized transmissions.

    Mirrors :func:`repro.photonics.devices.dc_layer_matrix` but takes an
    autograd tensor of (already binarized) transmissions so STE
    gradients reach the coupler latents.
    """
    from ..photonics.devices import scatter_matrix

    n = int(ts.shape[0])
    if n == 0:
        return Tensor(np.eye(k, dtype=complex))
    pos = offset + 2 * np.arange(n)
    one_minus = T.clip(1.0 - ts * ts, 0.0, 1.0)
    s = T.sqrt(one_minus + 1e-12)
    js = T.mul(Tensor(np.array(1j)), s)
    tc = ts.astype(np.complex128)
    rows = np.concatenate([pos, pos + 1, pos, pos + 1])
    cols = np.concatenate([pos, pos + 1, pos + 1, pos])
    vals = T.concat([tc, tc, js, js], axis=0)
    mat = scatter_matrix(vals, rows, cols, (k, k))
    covered = np.zeros(k, dtype=bool)
    covered[pos] = True
    covered[pos + 1] = True
    return mat + Tensor(np.diag((~covered).astype(complex)))


class SuperMeshCore(Module):
    """Per-layer weights of a SuperMesh-backed USV block matrix.

    Owns phases (n_units, n_blocks, K) and Sigma (n_units, K); the
    topology state lives in the shared :class:`SuperMeshSpace`.  The
    forward pass consumes ``space.current`` — the trainer samples the
    architecture once per step so all layers see the same SubMesh.

    ``backend="fast"`` (default) builds each unitary as one fused
    cascade node; ``backend="reference"`` keeps the per-block op loop
    (see the module docstring).
    """

    def __init__(
        self,
        space: SuperMeshSpace,
        rows: int,
        cols: int,
        rng=None,
        backend: Optional[str] = None,
        exec_backend=None,
    ):
        super().__init__()
        # Imported lazily: repro.ptc pulls in repro.core.topology at
        # package-import time, so a module-level import would cycle.
        from ..ptc.unitary import _BACKENDS, DEFAULT_BACKEND

        backend = DEFAULT_BACKEND if backend is None else backend
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")
        self.backend = backend
        #: Execution backend (array engine / dtype) for the fused
        #: cascade, or None to follow the process-wide default.
        self.exec_backend = exec_backend
        self.space = space
        self.rows = rows
        self.cols = cols
        k = space.k
        self.k = k
        self.p = math.ceil(rows / k)
        self.q = math.ceil(cols / k)
        self.n_units = self.p * self.q
        rng_ = get_rng(rng)
        self.phases = Parameter(
            rng_.uniform(0, 2 * math.pi, size=(self.n_units, space.n_blocks, k))
        )
        bound = 2.0 * math.sqrt(3.0 * k / max(1, cols))
        self.sigma = Parameter(rng_.uniform(-bound, bound, size=(self.n_units, k)))
        self.noise_std = 0.0
        self._rng = rng_
        # Constant tensors reused across fast forwards (graph leaves
        # without gradients are safe to share between graphs).
        self._tile_consts = Tensor(np.ones((2, self.n_units, 1, 1, 1)))
        self._tile_gates = Tensor(np.ones((2, self.n_units, 1)))

    def _noisy_phases(self) -> Tensor:
        phases = self.phases
        if self.noise_std > 0.0:
            phases = phases + Tensor(
                self._rng.normal(0.0, self.noise_std, size=phases.shape)
            )
        return phases

    def _unitaries_fast(self, sample: SuperMeshSample) -> Tuple[Tensor, Tensor]:
        """Fused build of BOTH unitaries as one cascade node.

        The U and V sides are independent chains of equal length
        (``half_max`` blocks each), so they fold into the cascade's
        batch dimension: one call runs half as many sequential batched
        matmuls as two per-side calls would.
        """
        n, k = self.n_units, self.k
        half = self.space.half_max
        ps_all = phase_factor(self._noisy_phases())  # (n_units, n_blocks, K)
        # Fold the side axis into the mesh batch: (2 * n_units, half, ...).
        ps = (
            ps_all.reshape((n, 2, half, k))
            .transpose((1, 0, 2, 3))
            .reshape((2 * n, half, k))
        )
        # Per-mesh constants/gates: tile each side's blocks across its
        # n_units meshes (the ones-multiply broadcast keeps gradients
        # flowing back to the shared sample tensors).
        consts = (
            sample.transfer.reshape((2, 1, half, k, k)) * self._tile_consts
        ).reshape((2 * n, half, k, k))
        gates = (
            sample.exec_prob.reshape((2, 1, half)) * self._tile_gates
        ).reshape((2 * n, half))
        uv = phase_column_cascade(consts, ps, gates, backend=self.exec_backend)
        uv = uv.reshape((2, n, k, k))
        return uv[0], uv[1]

    def _unitary(self, sample: SuperMeshSample, side: str) -> Tensor:
        """Reference per-block build (ground truth for the fast path)."""
        k = self.k
        u: Optional[Tensor] = None
        eye = Tensor(np.eye(k, dtype=complex))
        phases = self._noisy_phases()
        block_transfer = sample.block_transfer
        for b in self.space.side_blocks(side):
            ps = phase_factor(phases[:, b, :])  # (n_units, K)
            cb = block_transfer[b]  # (K, K)
            if u is None:
                block = cb * ps.reshape((self.n_units, 1, k))
            else:
                block = cb @ (ps.reshape((self.n_units, k, 1)) * u)
            m = sample.exec_prob[b]
            skip = eye if u is None else u
            u = m * block + (1.0 - m) * skip
        assert u is not None
        return u

    def forward(self) -> Tensor:
        sample = self.space.current
        if sample is None:
            sample = self.space.sample(stochastic=False)
        # Stabilization (paper 3.3.2): row-normalize U, column-normalize V
        # so the cascade of relaxed (non-orthogonal) CR layers keeps
        # healthy statistics.  No-op once U, V are true unitaries.
        if self.backend == "fast":
            u, v = self._unitaries_fast(sample)
            u = l2_normalize(u, axis=-1)
            v = l2_normalize(v, axis=-2)
        else:
            u = self._unitary(sample, "u")
            v = self._unitary(sample, "v")
            u = u / (T.sum_(u * u.conj(), axis=-1, keepdims=True).real() + 1e-12).sqrt().astype(
                np.complex128
            )
            v = v / (T.sum_(v * v.conj(), axis=-2, keepdims=True).real() + 1e-12).sqrt().astype(
                np.complex128
            )
        # Sigma follows the built dtype (complex64 under a forward-only
        # low-precision execution backend, complex128 otherwise).
        cdtype = np.result_type(u.data.dtype, np.complex64)
        sv = self.sigma.astype(cdtype).reshape((self.n_units, self.k, 1)) * v
        blocks = (u @ sv).real()
        w = blocks.reshape((self.p, self.q, self.k, self.k))
        w = w.transpose((0, 2, 1, 3)).reshape((self.p * self.k, self.q * self.k))
        if self.p * self.k != self.rows or self.q * self.k != self.cols:
            w = w[: self.rows, : self.cols]
        return w


class SuperMeshLinear(Module):
    """Fully-connected layer backed by a SuperMesh core."""

    def __init__(
        self,
        space: SuperMeshSpace,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.core = SuperMeshCore(space, out_features, in_features, rng=rng)
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.core(), self.bias)


class SuperMeshConv2d(Module):
    """Convolution backed by a SuperMesh core (im2col lowering)."""

    def __init__(
        self,
        space: SuperMeshSpace,
        in_channels: int,
        out_channels: int,
        kernel_size,
        stride=1,
        padding=0,
        bias: bool = True,
        rng=None,
    ):
        super().__init__()
        kh, kw = F._pair(kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.core = SuperMeshCore(space, out_channels, in_channels * kh * kw, rng=rng)
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        kh, kw = self.kernel_size
        w = self.core().reshape((self.out_channels, self.in_channels, kh, kw))
        return F.conv2d(x, w, self.bias, stride=self.stride, padding=self.padding)
