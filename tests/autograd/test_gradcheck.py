"""Finite-difference verification of every backward rule."""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    backend_scope,
    concat,
    gradcheck,
    log_softmax,
    matmul_chain,
    pad,
    phase_column_cascade,
    phase_factor,
    softmax,
    stack,
    where,
)


def t(arr, rg=True):
    return Tensor(np.asarray(arr, dtype=float), requires_grad=rg)


class TestRealGrads:
    def test_add_broadcast(self, rng):
        a = t(rng.normal(size=(2, 3)))
        b = t(rng.normal(size=(3,)))
        assert gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_mul(self, rng):
        a = t(rng.normal(size=(2, 3)))
        b = t(rng.normal(size=(2, 3)))
        assert gradcheck(lambda a, b: (a * b).sum(), [a, b])

    def test_div(self, rng):
        a = t(rng.normal(size=(4,)))
        b = t(rng.normal(size=(4,)) + 3.0)
        assert gradcheck(lambda a, b: (a / b).sum(), [a, b])

    def test_matmul(self, rng):
        a = t(rng.normal(size=(3, 4)))
        b = t(rng.normal(size=(4, 2)))
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_matmul_batched(self, rng):
        a = t(rng.normal(size=(2, 3, 4)))
        b = t(rng.normal(size=(2, 4, 2)))
        assert gradcheck(lambda a, b: ((a @ b) ** 2).sum(), [a, b])

    def test_matmul_vector_cases(self, rng):
        a = t(rng.normal(size=(4,)))
        b = t(rng.normal(size=(4, 3)))
        assert gradcheck(lambda a, b: (a @ b).sum(), [a, b])
        c = t(rng.normal(size=(3, 4)))
        d = t(rng.normal(size=(4,)))
        assert gradcheck(lambda c, d: (c @ d).sum(), [c, d])

    def test_exp_log_sqrt(self, rng):
        x = t(np.abs(rng.normal(size=5)) + 0.5)
        assert gradcheck(lambda x: x.exp().sum(), [x])
        assert gradcheck(lambda x: x.log().sum(), [x])
        assert gradcheck(lambda x: x.sqrt().sum(), [x])

    def test_pow(self, rng):
        x = t(np.abs(rng.normal(size=5)) + 0.5)
        assert gradcheck(lambda x: (x ** 3).sum(), [x])

    def test_relu_away_from_kink(self, rng):
        x = t(rng.normal(size=10) + 5.0)
        assert gradcheck(lambda x: x.relu().sum(), [x])

    def test_sigmoid_tanh(self, rng):
        x = t(rng.normal(size=6))
        assert gradcheck(lambda x: x.sigmoid().sum(), [x])
        assert gradcheck(lambda x: x.tanh().sum(), [x])

    def test_reductions(self, rng):
        x = t(rng.normal(size=(3, 4)))
        assert gradcheck(lambda x: x.sum(axis=0).sum(), [x])
        assert gradcheck(lambda x: x.mean(axis=1).sum(), [x])
        assert gradcheck(lambda x: (x.sum(axis=(0, 1), keepdims=True) ** 2).sum(), [x])

    def test_max_unique(self, rng):
        x = t(np.arange(12.0).reshape(3, 4) + rng.normal(size=(3, 4)) * 0.01)
        assert gradcheck(lambda x: x.max(axis=1).sum(), [x])

    def test_shape_ops(self, rng):
        x = t(rng.normal(size=(2, 6)))
        assert gradcheck(lambda x: (x.reshape((3, 4)) ** 2).sum(), [x])
        assert gradcheck(lambda x: (x.T ** 2).sum(), [x])

    def test_getitem(self, rng):
        x = t(rng.normal(size=(4, 5)))
        assert gradcheck(lambda x: (x[1:3, ::2] ** 2).sum(), [x])
        idx = (np.array([0, 2]), np.array([1, 3]))
        assert gradcheck(lambda x: (x[idx] ** 2).sum(), [x])

    def test_concat_stack_pad(self, rng):
        a = t(rng.normal(size=(2, 3)))
        b = t(rng.normal(size=(1, 3)))
        assert gradcheck(lambda a, b: (concat([a, b], axis=0) ** 2).sum(), [a, b])
        assert gradcheck(lambda a: (stack([a, a]) ** 2).sum(), [a])
        assert gradcheck(lambda a: (pad(a, ((1, 0), (0, 1))) ** 2).sum(), [a])

    def test_where_clip(self, rng):
        a = t(rng.normal(size=6))
        b = t(rng.normal(size=6))
        cond = np.array([1, 0, 1, 1, 0, 0], dtype=bool)
        assert gradcheck(lambda a, b: (where(cond, a, b) ** 2).sum(), [a, b])
        x = t(rng.normal(size=6) * 0.3)
        assert gradcheck(lambda x: x.clip(-0.5, 0.5).sum(), [x])

    def test_softmax_logsoftmax(self, rng):
        x = t(rng.normal(size=(3, 5)))
        assert gradcheck(lambda x: (softmax(x, axis=-1) ** 2).sum(), [x])
        assert gradcheck(lambda x: (log_softmax(x, axis=-1) * 0.1).sum(), [x])


class TestComplexGrads:
    """Complex leaves: gradcheck perturbs real/imag independently."""

    def zt(self, rng, shape):
        return Tensor(
            rng.normal(size=shape) + 1j * rng.normal(size=shape), requires_grad=True
        )

    def test_complex_mul_abs2(self, rng):
        z = self.zt(rng, (3,))
        w = self.zt(rng, (3,))
        assert gradcheck(lambda z, w: ((z * w) * (z * w).conj()).real().sum(), [z, w])

    def test_complex_matmul(self, rng):
        a = self.zt(rng, (2, 3))
        b = self.zt(rng, (3, 2))
        assert gradcheck(lambda a, b: ((a @ b).abs() ** 2).sum(), [a, b])

    def test_complex_exp(self, rng):
        z = self.zt(rng, (4,)) * 0.5
        assert gradcheck(lambda z: (z.exp().abs() ** 2).sum(), [z])

    def test_real_imag_conj(self, rng):
        z = self.zt(rng, (5,))
        assert gradcheck(lambda z: z.real().sum(), [z])
        assert gradcheck(lambda z: z.imag().sum(), [z])
        assert gradcheck(lambda z: (z.conj() * z).real().sum(), [z])

    def test_abs_complex(self, rng):
        z = self.zt(rng, (5,)) + 2.0  # keep away from 0
        assert gradcheck(lambda z: z.abs().sum(), [z])

    def test_phase_shifter_chain(self, rng):
        """Real phases -> complex field -> real loss: the exact pattern
        every photonic layer uses."""
        phi = Tensor(rng.uniform(0, 2 * np.pi, 4), requires_grad=True)
        x = Tensor(rng.normal(size=(4,)) + 1j * rng.normal(size=(4,)), requires_grad=True)

        def f(phi, x):
            field = (phi * Tensor(np.array(-1j))).exp() * x
            return (field.real() ** 2).sum() + field.imag().sum()

        assert gradcheck(f, [phi, x])

    def test_fused_phase_factor(self, rng):
        phi = Tensor(rng.uniform(0, 2 * np.pi, (2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)))

        def f(phi):
            field = phase_factor(phi) * w
            return (field.real() ** 2).sum() + field.imag().sum()

        assert gradcheck(f, [phi])

    def test_mixed_real_complex_matmul(self, rng):
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)  # real leaf
        b = self.zt(rng, (3, 3))
        assert gradcheck(lambda a, b: ((a.astype(complex) @ b).abs() ** 2).sum(), [a, b])


class TestFusedKernelGradcheck:
    """Finite-difference checks of the fused kernels' custom backwards,
    under every registered execution backend (forward-only backends
    must demote to an identical grad-capable path)."""

    def cascade_inputs(self, rng, n=2, n_blocks=3, k=4, per_mesh=False):
        cshape = (n, n_blocks, k, k) if per_mesh else (n_blocks, k, k)
        consts = Tensor(
            rng.normal(size=cshape) + 1j * rng.normal(size=cshape),
            requires_grad=True,
        )
        phases = Tensor(
            rng.uniform(0, 2 * np.pi, size=(n, n_blocks, k)), requires_grad=True
        )
        return consts, phases

    @staticmethod
    def cascade_loss(backend=None, gates=None):
        def f(consts, phases):
            ps = (phases * Tensor(np.array(-1j))).exp()
            u = phase_column_cascade(consts, ps, gates, backend=backend)
            return (u * u.conj()).real().sum()

        return f

    def test_cascade_shared_consts(self, rng):
        assert gradcheck(self.cascade_loss(), list(self.cascade_inputs(rng)))

    def test_cascade_per_mesh_consts(self, rng):
        inputs = self.cascade_inputs(rng, per_mesh=True)
        assert gradcheck(self.cascade_loss(), list(inputs))

    def test_cascade_with_exec_prob(self, rng):
        consts, phases = self.cascade_inputs(rng)
        gates = Tensor(rng.uniform(0.2, 0.8, size=(3,)), requires_grad=True)

        def f(consts, phases, gates):
            ps = (phases * Tensor(np.array(-1j))).exp()
            u = phase_column_cascade(consts, ps, gates)
            return (u * u.conj()).real().sum()

        assert gradcheck(f, [consts, phases, gates])

    def test_matmul_chain(self, rng):
        mats = Tensor(
            rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4)),
            requires_grad=True,
        )

        def f(mats):
            u = matmul_chain(mats)
            return (u * u.conj()).real().sum()

        assert gradcheck(f, [mats])

    def test_cascade_under_c64_backend_demotes(self, rng):
        """Explicit c64 request while recording: the grad fallback must
        pass the same finite-difference check as the native path."""
        inputs = self.cascade_inputs(rng)
        assert gradcheck(self.cascade_loss(backend="numpy-c64"), list(inputs))

    def test_cascade_under_c64_default_scope(self, rng):
        inputs = self.cascade_inputs(rng)
        with backend_scope("numpy-c64"):
            assert gradcheck(self.cascade_loss(), list(inputs))

    def test_factory_build_gradcheck(self, rng):
        """End-to-end: a tiny mesh factory's build() is differentiable
        in its phase parameters."""
        from repro.ptc import ButterflyFactory

        f = ButterflyFactory(4, 1, rng=np.random.default_rng(11))

        def loss(phases):
            u = f.build()
            return (u * u.conj()).real().sum()

        assert gradcheck(loss, [f.phases])


class TestGradAccumulation:
    def test_reused_tensor_accumulates(self, rng):
        x = t(rng.normal(size=3))
        y = (x * x).sum() + (x * 2).sum()
        y.backward()
        assert np.allclose(x.grad, 2 * x.data + 2)

    def test_grad_scalar_zero_dim_shape(self):
        """Regression: 0-d complex grads must stay 0-d through real()."""
        m = Tensor(np.array(0.5), requires_grad=True)
        blk = Tensor(np.ones((2, 3, 3), dtype=complex))
        out = (m * blk).real().sum()
        out.backward()
        assert np.shape(m.grad) == ()

    def test_deep_chain_has_no_recursion_limit(self):
        """A graph deeper than the interpreter's recursion limit."""
        x = Tensor(np.array(2.0), requires_grad=True)
        y = x
        for _ in range(1500):
            y = y + 1.0
        (y * x).backward()
        assert x.grad == pytest.approx(2 * 2.0 + 1500)

    def test_descent_reduces_loss(self, rng):
        x = Tensor(rng.normal(size=8), requires_grad=True)
        losses = []
        for _ in range(50):
            loss = ((x - 3.0) ** 2).sum()
            x.grad = None
            loss.backward()
            x.data -= 0.1 * x.grad
            losses.append(loss.item())
        assert losses[-1] < 1e-3 < losses[0]
