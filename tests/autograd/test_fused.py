"""Fused cascade kernels vs. their unfused op-by-op composition."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    forward_backward_parity,
    gradcheck,
    l2_normalize,
    matmul_chain,
    phase_column_cascade,
    phase_factor,
)
from repro.autograd import tensor as T


def _random_inputs(rng, n=3, b=4, k=4, per_mesh_consts=False):
    shape_c = (n, b, k, k) if per_mesh_consts else (b, k, k)
    consts = Tensor(
        rng.normal(size=shape_c) + 1j * rng.normal(size=shape_c),
        requires_grad=True,
    )
    phases = Tensor(rng.uniform(0, 2 * np.pi, size=(n, b, k)), requires_grad=True)
    exec_prob = Tensor(rng.uniform(0.1, 0.9, size=(b,)), requires_grad=True)
    return consts, phases, exec_prob


def _reference_cascade(consts, ps, exec_prob=None):
    """Unfused composition using only elementary tensor ops."""
    n, b, k = ps.shape
    eye = Tensor(np.eye(k, dtype=complex))
    u = None
    for i in range(b):
        cb = consts[i] if consts.ndim == 3 else consts[:, i]
        psb = ps[:, i, :]
        if u is None:
            block = cb * psb.reshape((n, 1, k))
        else:
            block = cb @ (psb.reshape((n, k, 1)) * u)
        if exec_prob is None:
            u = block
        else:
            m = exec_prob[i]
            skip = eye if u is None else u
            u = m * block + (1.0 - m) * skip
    return u


class TestPhaseColumnCascade:
    def test_forward_matches_reference(self, rng):
        consts, phases, exec_prob = _random_inputs(rng)
        ps = T.exp(Tensor(np.array(-1j)) * phases)
        fast = phase_column_cascade(consts, ps, exec_prob)
        ref = _reference_cascade(consts, ps, exec_prob)
        assert np.abs(fast.data - ref.data).max() < 1e-12

    def test_forward_no_exec(self, rng):
        consts, phases, _ = _random_inputs(rng)
        ps = T.exp(Tensor(np.array(-1j)) * phases)
        fast = phase_column_cascade(consts, ps)
        ref = _reference_cascade(consts, ps)
        assert np.abs(fast.data - ref.data).max() < 1e-12

    def test_forward_per_mesh_consts(self, rng):
        consts, phases, exec_prob = _random_inputs(rng, per_mesh_consts=True)
        ps = T.exp(Tensor(np.array(-1j)) * phases)
        fast = phase_column_cascade(consts, ps, exec_prob)
        ref = _reference_cascade(consts, ps, exec_prob)
        assert np.abs(fast.data - ref.data).max() < 1e-12

    def test_grads_match_reference(self, rng):
        consts, phases, exec_prob = _random_inputs(rng, n=2, b=3, k=3)

        def with_cascade(cascade_fn):
            def fn(c, p, e):
                ps = T.exp(Tensor(np.array(-1j)) * p)
                return cascade_fn(c, ps, e)

            return fn

        assert forward_backward_parity(
            with_cascade(phase_column_cascade),
            with_cascade(_reference_cascade),
            [consts, phases, exec_prob],
        )

    @pytest.mark.parametrize("with_exec", [True, False])
    def test_gradcheck(self, rng, with_exec):
        consts, phases, exec_prob = _random_inputs(rng, n=2, b=3, k=2)

        def fn(c, p, e):
            ps = T.exp(Tensor(np.array(-1j)) * p)
            out = phase_column_cascade(c, ps, e if with_exec else None)
            return (out * out.conj()).real().sum()

        assert gradcheck(fn, [consts, phases, exec_prob])

    def test_exec_grad_reaches_gated_consts(self, rng):
        consts, phases, exec_prob = _random_inputs(rng, n=1, b=2, k=2)
        ps = T.exp(Tensor(np.array(-1j)) * phases)
        out = phase_column_cascade(consts, ps, exec_prob)
        (out * out.conj()).real().sum().backward()
        assert exec_prob.grad is not None
        assert not np.iscomplexobj(exec_prob.grad)  # projected onto real axis

    def test_empty_cascade_is_identity(self):
        ps = Tensor(np.zeros((2, 0, 4), dtype=complex))
        out = phase_column_cascade(Tensor(np.zeros((0, 4, 4), dtype=complex)), ps)
        assert np.allclose(out.data, np.eye(4))

    def test_shape_validation(self, rng):
        consts, phases, _ = _random_inputs(rng)
        with pytest.raises(ValueError):
            phase_column_cascade(consts, Tensor(np.zeros((2, 2))))
        with pytest.raises(ValueError):
            phase_column_cascade(
                Tensor(np.zeros((1, 2, 2), dtype=complex)),
                T.exp(Tensor(np.array(-1j)) * phases),
            )


class TestPhaseFactor:
    def test_bits_match_elementary_composition(self, rng):
        """One node with the exact arithmetic of ``exp(mul(-1j, p))``:
        values and gradients are equal, not merely close."""
        w = Tensor(rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4)))

        def run(factor):
            p = Tensor(rng_p.uniform(0, 2 * np.pi, size=(2, 3, 4)),
                       requires_grad=True)
            ps = factor(p)
            (ps * w).real().sum().backward()
            return ps, p

        rng_p = np.random.default_rng(5)
        fused, p_fused = run(phase_factor)
        rng_p = np.random.default_rng(5)
        ref, p_ref = run(lambda p: T.exp(T.mul(Tensor(np.array(-1j)), p)))
        assert np.array_equal(fused.data, ref.data)
        assert np.array_equal(p_fused.grad, p_ref.grad)
        assert fused._parents == (p_fused,)

    def test_constant_phases_build_no_node(self, rng):
        out = phase_factor(rng.uniform(size=3))
        assert out._backward is None and not out._parents


class TestL2Normalize:
    @pytest.mark.parametrize("axis", [-1, -2])
    def test_matches_elementary_composition(self, rng, axis):
        x = Tensor(
            rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4)),
            requires_grad=True,
        )

        def unfused(t):
            return t / (
                T.sum_(t * t.conj(), axis=axis, keepdims=True).real() + 1e-12
            ).sqrt().astype(np.complex128)

        assert forward_backward_parity(
            lambda t: l2_normalize(t, axis=axis), unfused, [x]
        )

    def test_gradcheck(self, rng):
        x = Tensor(
            rng.normal(size=(1, 3, 3)) + 1j * rng.normal(size=(1, 3, 3)),
            requires_grad=True,
        )

        def fn(t):
            out = l2_normalize(t, axis=-1)
            target = Tensor(np.full((1, 3, 3), 0.5 + 0.1j))
            diff = out - target
            return (diff * diff.conj()).real().sum()

        assert gradcheck(fn, [x])

    def test_rows_become_unit_norm(self, rng):
        x = Tensor(rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4)))
        out = l2_normalize(x, axis=-1).data
        norms = np.sqrt((np.abs(out) ** 2).sum(axis=-1))
        assert np.allclose(norms, 1.0, atol=1e-6)


class TestMatmulChain:
    def test_forward_matches_fold(self, rng):
        # Pinned to the full-precision backend: the 1e-12 tolerance
        # asserts the double-precision fold, not the ambient default.
        mats = Tensor(rng.normal(size=(2, 4, 3, 3)) + 1j * rng.normal(size=(2, 4, 3, 3)))
        out = matmul_chain(mats, backend="numpy")
        ref = mats.data[:, 0]
        for b in range(1, 4):
            ref = mats.data[:, b] @ ref
        assert np.abs(out.data - ref).max() < 1e-12

    def test_grads_match_unfused(self, rng):
        mats = Tensor(
            rng.normal(size=(2, 3, 3, 3)) + 1j * rng.normal(size=(2, 3, 3, 3)),
            requires_grad=True,
        )

        def unfused(m):
            out = m[:, 0]
            for b in range(1, 3):
                out = m[:, b] @ out
            return out

        assert forward_backward_parity(matmul_chain, unfused, [mats])

    def test_gradcheck(self, rng):
        mats = Tensor(
            rng.normal(size=(1, 2, 2, 2)) + 1j * rng.normal(size=(1, 2, 2, 2)),
            requires_grad=True,
        )

        def fn(m):
            out = matmul_chain(m)
            return (out * out.conj()).real().sum()

        assert gradcheck(fn, [mats])

    def test_empty_chain_is_identity(self):
        out = matmul_chain(Tensor(np.zeros((2, 0, 3, 3), dtype=complex)))
        assert np.allclose(out.data, np.eye(3))


class TestForwardOnlyKernels:
    """The graph-free twins used by the Monte-Carlo robustness engine
    must agree bit-for-bit with the autograd kernels' forwards."""

    def test_phase_column_cascade_forward_matches_graph(self, rng):
        from repro.autograd import phase_column_cascade_forward

        for per_mesh in (False, True):
            consts, phases, _ = _random_inputs(rng, per_mesh_consts=per_mesh)
            ps = np.exp(-1j * phases.data)
            graph = phase_column_cascade(Tensor(consts.data), Tensor(ps))
            plain = phase_column_cascade_forward(consts.data, ps)
            assert np.array_equal(graph.data, plain)

    def test_matmul_chain_forward_matches_graph(self, rng):
        from repro.autograd import matmul_chain_forward

        mats = rng.normal(size=(3, 5, 4, 4)) + 1j * rng.normal(size=(3, 5, 4, 4))
        graph = matmul_chain(Tensor(mats))
        plain = matmul_chain_forward(mats)
        assert np.array_equal(graph.data, plain)

    def test_forward_kernels_empty_and_bad_shapes(self):
        from repro.autograd import matmul_chain_forward, phase_column_cascade_forward

        out = phase_column_cascade_forward(
            np.zeros((0, 3, 3), complex), np.zeros((2, 0, 3), complex)
        )
        assert np.allclose(out, np.eye(3))
        assert np.allclose(matmul_chain_forward(np.zeros((2, 0, 3, 3))), np.eye(3))
        with pytest.raises(ValueError):
            phase_column_cascade_forward(np.zeros((2, 3, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            matmul_chain_forward(np.zeros((2, 3, 3)))
