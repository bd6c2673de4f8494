"""Reverse-mode automatic differentiation over numpy arrays.

This module is the substrate that replaces PyTorch for the ADEPT
reproduction.  It implements a :class:`Tensor` wrapper around
``numpy.ndarray`` with a dynamically-built computation graph and a
``backward()`` pass, including full support for **complex-valued
tensors**, which photonic circuit simulation requires (phase shifters
apply ``exp(-j*phi)``, couplers have imaginary cross terms).

Gradient convention for complex tensors
---------------------------------------
For a real scalar loss ``L`` and a complex leaf ``z = x + i*y`` the
gradient stored in ``z.grad`` is::

    z.grad = dL/dx + i * dL/dy        (= 2 * dL/d(conj(z)))

This is exactly PyTorch's convention, so update rules such as
``z -= lr * z.grad`` perform steepest descent on ``L``.  For a
holomorphic elementary operation ``w = f(z)`` the chain rule under this
convention reads ``grad_z = grad_w * conj(f'(z))``; non-holomorphic
operations (``conj``, ``real``, ``imag``, ``abs``) implement their own
rules, each verified against finite differences in the test suite.

Gradients flowing into a *real* leaf from a complex subgraph are
projected onto the real axis (again matching PyTorch), which is what
makes ``exp(-1j * phi)`` with real ``phi`` trainable.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

Arrayable = Union["Tensor", np.ndarray, float, int, complex, list, tuple]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction.

    Inside the block, all operations produce constant tensors; this is
    used for evaluation loops and in-place parameter updates.
    """
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _as_array(data: Arrayable) -> np.ndarray:
    if isinstance(data, Tensor):
        return data.data
    arr = np.asarray(data)
    if arr.dtype == np.float64 or arr.dtype == np.float32:
        return arr
    if np.issubdtype(arr.dtype, np.integer) or arr.dtype == np.bool_:
        return arr.astype(np.float64)
    return arr


def _adjoint(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes; a real operand that is
    C- or F-contiguous is returned as a view, since copying it would
    not change its layout."""
    xt = np.swapaxes(x, -1, -2)
    if not np.iscomplexobj(x) and (x.flags.c_contiguous or x.flags.f_contiguous):
        return xt
    return np.conj(xt)


def _needs_grad(t: "Tensor") -> bool:
    """Whether the backward pass keeps a gradient for ``t``; a constant
    leaf's gradient is dropped, so ops need not compute it."""
    return t.requires_grad or bool(t._parents)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _match_dtype(grad: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Project a gradient onto the dtype of the tensor it belongs to.

    A complex gradient accumulating into a real leaf keeps only its real
    part (the imaginary direction is not a degree of freedom of the
    leaf).
    """
    if np.iscomplexobj(grad) and not np.iscomplexobj(target):
        # np.asarray (not ascontiguousarray) keeps 0-d arrays 0-d.
        return np.asarray(grad.real)
    return grad


class Tensor:
    """A numpy-backed tensor that records operations for backprop."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")
    __array_priority__ = 100.0  # make numpy defer to our reflected dunders

    def __init__(
        self,
        data: Arrayable,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]] = None,
        name: Optional[str] = None,
    ):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.data)

    @property
    def is_leaf(self) -> bool:
        return not self._parents

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_str = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_str})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> Union[float, complex]:
        return self.data.item()

    def detach(self) -> "Tensor":
        """Return a view of the data cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        out = _make(self.data.copy(), (self,), lambda g: (g,))
        return out

    def copy_(self, other: "Tensor") -> "Tensor":
        """In-place copy of ``other``'s data (no graph recorded)."""
        np.copyto(self.data, np.asarray(other.data, dtype=self.data.dtype))
        return self

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[Union[np.ndarray, "Tensor"]] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to 1 for scalar outputs.
        """
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a scalar output"
                )
            grad = np.ones_like(self.data)
        elif isinstance(grad, Tensor):
            grad = grad.data
        grad = np.asarray(grad)

        # Iterative post-order DFS (parents in order): the same order a
        # recursive sort gives, without a recursion limit on graph depth.
        topo: List[Tensor] = []
        visited = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in visited:
                    visited.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(t)

        grads: dict = {id(self): grad}
        for t in reversed(topo):
            g = grads.pop(id(t), None)
            if g is None:
                continue
            if t.requires_grad and t.is_leaf:
                g_leaf = _match_dtype(g, t.data)
                if t.grad is None:
                    t.grad = np.array(g_leaf, copy=True)
                else:
                    t.grad = t.grad + g_leaf
            if t._backward is None:
                continue
            parent_grads = t._backward(g)
            for p, pg in zip(t._parents, parent_grads):
                if pg is None:
                    continue
                pg = _match_dtype(pg, p.data)
                key = id(p)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg

    # ------------------------------------------------------------------
    # Operator overloads (implementations below, module level)
    # ------------------------------------------------------------------
    def __add__(self, other: Arrayable) -> "Tensor":
        return add(self, other)

    def __radd__(self, other: Arrayable) -> "Tensor":
        return add(other, self)

    def __sub__(self, other: Arrayable) -> "Tensor":
        return sub(self, other)

    def __rsub__(self, other: Arrayable) -> "Tensor":
        return sub(other, self)

    def __mul__(self, other: Arrayable) -> "Tensor":
        return mul(self, other)

    def __rmul__(self, other: Arrayable) -> "Tensor":
        return mul(other, self)

    def __truediv__(self, other: Arrayable) -> "Tensor":
        return div(self, other)

    def __rtruediv__(self, other: Arrayable) -> "Tensor":
        return div(other, self)

    def __neg__(self) -> "Tensor":
        return neg(self)

    def __pow__(self, exponent: float) -> "Tensor":
        return pow_(self, exponent)

    def __matmul__(self, other: Arrayable) -> "Tensor":
        return matmul(self, other)

    def __rmatmul__(self, other: Arrayable) -> "Tensor":
        return matmul(other, self)

    def __getitem__(self, idx) -> "Tensor":
        return getitem(self, idx)

    # Comparison operators return plain numpy boolean arrays (no grad).
    def __gt__(self, other: Arrayable):
        return self.data > _as_array(other)

    def __lt__(self, other: Arrayable):
        return self.data < _as_array(other)

    def __ge__(self, other: Arrayable):
        return self.data >= _as_array(other)

    def __le__(self, other: Arrayable):
        return self.data <= _as_array(other)

    # ------------------------------------------------------------------
    # Method-style ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return sum_(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 0:
            axes = None
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)

    @property
    def T(self) -> "Tensor":
        return transpose(self, None)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return swapaxes(self, a, b)

    def exp(self) -> "Tensor":
        return exp(self)

    def log(self) -> "Tensor":
        return log(self)

    def sqrt(self) -> "Tensor":
        return sqrt(self)

    def abs(self) -> "Tensor":
        return abs_(self)

    def conj(self) -> "Tensor":
        return conj(self)

    def real(self) -> "Tensor":
        return real(self)

    def imag(self) -> "Tensor":
        return imag(self)

    def relu(self) -> "Tensor":
        return relu(self)

    def sigmoid(self) -> "Tensor":
        return sigmoid(self)

    def tanh(self) -> "Tensor":
        return tanh(self)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return max_(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return neg(max_(neg(self), axis=axis, keepdims=keepdims))

    def clip(self, lo: Optional[float], hi: Optional[float]) -> "Tensor":
        return clip(self, lo, hi)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return reshape(self, shape)

    def astype(self, dtype) -> "Tensor":
        return astype(self, dtype)


# ----------------------------------------------------------------------
# Core op plumbing
# ----------------------------------------------------------------------

def _make(
    data: np.ndarray,
    parents: Tuple[Tensor, ...],
    backward: Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]],
) -> Tensor:
    """Create a graph node if grad mode is on and any parent needs grad."""
    if _GRAD_ENABLED and any(p.requires_grad or p._parents for p in parents):
        return Tensor(data, requires_grad=False, _parents=parents, _backward=backward)
    return Tensor(data)


def ensure_tensor(x: Arrayable) -> Tensor:
    """Coerce ``x`` to a :class:`Tensor` (constants become leaves)."""
    return x if isinstance(x, Tensor) else Tensor(x)


# ----------------------------------------------------------------------
# Elementwise arithmetic
# ----------------------------------------------------------------------

def add(a: Arrayable, b: Arrayable) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data + b.data

    def backward(g: np.ndarray):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make(out, (a, b), backward)


def sub(a: Arrayable, b: Arrayable) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data - b.data

    def backward(g: np.ndarray):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _make(out, (a, b), backward)


def mul(a: Arrayable, b: Arrayable) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data * b.data

    def backward(g: np.ndarray):
        ga = _unbroadcast(g * np.conj(b.data), a.shape) if _needs_grad(a) else None
        gb = _unbroadcast(g * np.conj(a.data), b.shape) if _needs_grad(b) else None
        return ga, gb

    return _make(out, (a, b), backward)


def div(a: Arrayable, b: Arrayable) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data / b.data

    def backward(g: np.ndarray):
        ga = _unbroadcast(g * np.conj(1.0 / b.data), a.shape)
        gb = _unbroadcast(g * np.conj(-a.data / (b.data * b.data)), b.shape)
        return ga, gb

    return _make(out, (a, b), backward)


def neg(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)

    def backward(g: np.ndarray):
        return (-g,)

    return _make(-a.data, (a,), backward)


def pow_(a: Arrayable, exponent: float) -> Tensor:
    """Elementwise power with a constant (real) exponent."""
    a = ensure_tensor(a)
    out = a.data ** exponent

    def backward(g: np.ndarray):
        return (g * np.conj(exponent * a.data ** (exponent - 1)),)

    return _make(out, (a,), backward)


def exp(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = np.exp(a.data)

    def backward(g: np.ndarray):
        return (g * np.conj(out),)

    return _make(out, (a,), backward)


def log(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = np.log(a.data)

    def backward(g: np.ndarray):
        return (g * np.conj(1.0 / a.data),)

    return _make(out, (a,), backward)


def sqrt(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = np.sqrt(a.data)

    def backward(g: np.ndarray):
        return (g * np.conj(0.5 / out),)

    return _make(out, (a,), backward)


def abs_(a: Arrayable) -> Tensor:
    """Elementwise absolute value / complex magnitude.

    For complex inputs, ``d|z|/dz-bar`` style handling gives
    ``grad = g * z / |z|`` under the PyTorch convention.  The gradient at
    exactly zero is defined as zero.
    """
    a = ensure_tensor(a)
    out = np.abs(a.data)

    def backward(g: np.ndarray):
        denom = np.where(out == 0, 1.0, out)
        if np.iscomplexobj(a.data):
            return (g * a.data / denom,)
        return (g * np.sign(a.data),)

    return _make(out, (a,), backward)


def conj(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)

    def backward(g: np.ndarray):
        return (np.conj(g),)

    return _make(np.conj(a.data), (a,), backward)


def real(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = np.asarray(a.data.real).copy()

    def backward(g: np.ndarray):
        if np.iscomplexobj(a.data):
            return (g.real.astype(a.data.dtype),)
        return (g,)

    return _make(out, (a,), backward)


def imag(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = np.asarray(a.data.imag).copy()

    def backward(g: np.ndarray):
        # z.grad = dL/dx + i dL/dy; y = Im(z) so dL/dy = g, dL/dx = 0.
        return ((1j * g.real).astype(a.data.dtype),)

    return _make(out, (a,), backward)


def astype(a: Arrayable, dtype) -> Tensor:
    a = ensure_tensor(a)
    dtype = np.dtype(dtype)
    out = a.data.astype(dtype)

    def backward(g: np.ndarray):
        return (g,)

    return _make(out, (a,), backward)


# ----------------------------------------------------------------------
# Nonlinearities
# ----------------------------------------------------------------------

def relu(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    mask = a.data > 0
    out = a.data * mask

    def backward(g: np.ndarray):
        return (g * mask,)

    return _make(out, (a,), backward)


def sigmoid(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g: np.ndarray):
        return (g * out * (1.0 - out),)

    return _make(out, (a,), backward)


def tanh(a: Arrayable) -> Tensor:
    a = ensure_tensor(a)
    out = np.tanh(a.data)

    def backward(g: np.ndarray):
        return (g * (1.0 - out * out),)

    return _make(out, (a,), backward)


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------

def sum_(a: Arrayable, axis=None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g: np.ndarray):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        ax = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, ax)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(out, (a,), backward)


def mean(a: Arrayable, axis=None, keepdims: bool = False) -> Tensor:
    a = ensure_tensor(a)
    if axis is None:
        count = a.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.shape[i] for i in ax]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / count)


def max_(a: Arrayable, axis=None, keepdims: bool = False) -> Tensor:
    """Maximum reduction; gradient is split evenly among ties."""
    a = ensure_tensor(a)
    out = a.data.max(axis=axis, keepdims=keepdims)

    def backward(g: np.ndarray):
        g = np.asarray(g)
        if axis is None:
            full = np.broadcast_to(out, a.shape)
            gfull = np.broadcast_to(g, a.shape)
        else:
            ax = axis if isinstance(axis, tuple) else (axis,)
            o = out if keepdims else np.expand_dims(out, ax)
            gg = g if keepdims else np.expand_dims(g, ax)
            full = np.broadcast_to(o, a.shape)
            gfull = np.broadcast_to(gg, a.shape)
        mask = (a.data == full)
        counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
        if axis is not None:
            counts = np.broadcast_to(counts, a.shape)
        return (gfull * mask / counts,)

    return _make(out, (a,), backward)


# ----------------------------------------------------------------------
# Shape ops
# ----------------------------------------------------------------------

def reshape(a: Arrayable, shape: Sequence[int]) -> Tensor:
    a = ensure_tensor(a)
    out = a.data.reshape(shape)

    def backward(g: np.ndarray):
        return (g.reshape(a.shape),)

    return _make(out, (a,), backward)


def transpose(a: Arrayable, axes: Optional[Sequence[int]]) -> Tensor:
    a = ensure_tensor(a)
    out = np.transpose(a.data, axes)
    if axes is None:
        inv = None
    else:
        inv = np.argsort(axes)

    def backward(g: np.ndarray):
        return (np.transpose(g, inv),)

    return _make(out, (a,), backward)


def swapaxes(a: Arrayable, ax1: int, ax2: int) -> Tensor:
    a = ensure_tensor(a)
    out = np.swapaxes(a.data, ax1, ax2)

    def backward(g: np.ndarray):
        return (np.swapaxes(g, ax1, ax2),)

    return _make(out, (a,), backward)


def getitem(a: Arrayable, idx) -> Tensor:
    a = ensure_tensor(a)
    out = a.data[idx]

    def backward(g: np.ndarray):
        ga = np.zeros_like(a.data)
        np.add.at(ga, idx, g.astype(ga.dtype, copy=False))
        return (ga,)

    return _make(out, (a,), backward)


def concat(tensors: Iterable[Arrayable], axis: int = 0) -> Tensor:
    ts = [ensure_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray):
        return tuple(np.split(g, splits, axis=axis))

    return _make(out, tuple(ts), backward)


def stack(tensors: Iterable[Arrayable], axis: int = 0) -> Tensor:
    ts = [ensure_tensor(t) for t in tensors]
    out = np.stack([t.data for t in ts], axis=axis)

    def backward(g: np.ndarray):
        parts = np.split(g, len(ts), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in parts)

    return _make(out, tuple(ts), backward)


def pad(a: Arrayable, pad_width, constant: float = 0.0) -> Tensor:
    a = ensure_tensor(a)
    out = np.pad(a.data, pad_width, mode="constant", constant_values=constant)
    slices = tuple(
        slice(pw[0], pw[0] + s) for pw, s in zip(pad_width, a.shape)
    )

    def backward(g: np.ndarray):
        return (g[slices],)

    return _make(out, (a,), backward)


def where(cond: np.ndarray, a: Arrayable, b: Arrayable) -> Tensor:
    """Elementwise select; ``cond`` is a constant boolean array."""
    cond = np.asarray(cond, dtype=bool)
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = np.where(cond, a.data, b.data)

    def backward(g: np.ndarray):
        ga = _unbroadcast(np.where(cond, g, 0.0), a.shape)
        gb = _unbroadcast(np.where(cond, 0.0, g), b.shape)
        return ga, gb

    return _make(out, (a, b), backward)


def clip(a: Arrayable, lo: Optional[float], hi: Optional[float]) -> Tensor:
    """Clamp values into ``[lo, hi]``; gradient is zero outside."""
    a = ensure_tensor(a)
    out = np.clip(a.data, lo, hi)
    mask = np.ones_like(a.data, dtype=float)
    if lo is not None:
        mask = mask * (a.data >= lo)
    if hi is not None:
        mask = mask * (a.data <= hi)

    def backward(g: np.ndarray):
        return (g * mask,)

    return _make(out, (a,), backward)


# ----------------------------------------------------------------------
# Linear algebra
# ----------------------------------------------------------------------

def matmul(a: Arrayable, b: Arrayable) -> Tensor:
    """Batched matrix multiplication with broadcasting.

    Complex gradient rules (PyTorch convention):
    ``grad_a = g @ conj(b).T``, ``grad_b = conj(a).T @ g``.
    """
    a, b = ensure_tensor(a), ensure_tensor(b)
    out = a.data @ b.data

    def backward(g: np.ndarray):
        ad, bd = a.data, b.data
        ga = gb = None
        if ad.ndim == 1 and bd.ndim == 1:
            # inner product
            ga = g * np.conj(bd)
            gb = g * np.conj(ad)
        elif ad.ndim == 1:
            # (k,) @ (..., k, n) -> (..., n)
            ga = (np.expand_dims(g, -2) @ np.conj(np.swapaxes(bd, -1, -2))).squeeze(-2)
            ga = _unbroadcast(ga, a.shape)
            gb = np.conj(ad)[..., :, None] * np.expand_dims(g, -2)
            gb = _unbroadcast(gb, b.shape)
        elif bd.ndim == 1:
            # (..., m, k) @ (k,) -> (..., m)
            ga = np.expand_dims(g, -1) * np.conj(bd)
            ga = _unbroadcast(ga, a.shape)
            gb = np.conj(np.swapaxes(ad, -1, -2)) @ np.expand_dims(g, -1)
            gb = _unbroadcast(gb.squeeze(-1), b.shape)
        else:
            # Gradients of constant operands are skipped: the backward
            # pass would drop them.
            if _needs_grad(a):
                ga = _unbroadcast(g @ _adjoint(bd), a.shape)
            if _needs_grad(b):
                gb = _unbroadcast(_adjoint(ad) @ g, b.shape)
        return ga, gb

    return _make(out, (a, b), backward)


# ----------------------------------------------------------------------
# Softmax family (numerically stable, used by losses and Gumbel)
# ----------------------------------------------------------------------

def softmax(a: Arrayable, axis: int = -1) -> Tensor:
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g: np.ndarray):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), backward)


def log_softmax(a: Arrayable, axis: int = -1) -> Tensor:
    a = ensure_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    soft = np.exp(out)

    def backward(g: np.ndarray):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), backward)


# ----------------------------------------------------------------------
# Straight-through / custom-gradient helpers
# ----------------------------------------------------------------------

def straight_through(forward_value: np.ndarray, a: Tensor, grad_scale=1.0) -> Tensor:
    """Return ``forward_value`` in the forward pass but route gradients
    straight through to ``a`` (optionally scaled).

    This is the primitive behind binarization-aware training of
    directional couplers (Eq. 14 of the paper).
    """
    a = ensure_tensor(a)

    def backward(g: np.ndarray):
        return (g * grad_scale,)

    return _make(np.asarray(forward_value), (a,), backward)


def custom_grad(forward_value: np.ndarray, parents: Tuple[Tensor, ...], backward) -> Tensor:
    """Create a tensor with a user-supplied backward rule."""
    return _make(np.asarray(forward_value), parents, backward)
