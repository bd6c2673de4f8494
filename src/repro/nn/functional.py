"""Functional NN operations built on the autograd engine.

The convolution path uses an im2col transform implemented as a custom
autograd op (forward: ``sliding_window_view``; backward: col2im
scatter-add), after which convolution reduces to a matrix product —
the same lowering the paper's ONN layers use to map convolutions onto
photonic tensor cores.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd import Tensor, custom_grad, ensure_tensor
from ..autograd import tensor as T


def _pair(v) -> Tuple[int, int]:
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def _im2col_array(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(N, C, H, W) -> (N, OH, OW, C, kh, kw) patch view (copied).

    Windows are taken over a channels-last copy of ``x``, so the gather
    reads runs of C contiguous values instead of single elements.
    """
    x_nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    windows = np.lib.stride_tricks.sliding_window_view(x_nhwc, (kh, kw), axis=(1, 2))
    # windows: (N, H-kh+1, W-kw+1, C, kh, kw)
    return np.ascontiguousarray(windows[:, ::sh, ::sw])


#: Bytes of ``gcol`` scattered per chunk in :func:`_col2im_array`
#: (about one L2 cache).
_COL2IM_CHUNK_BYTES = 1 << 20


def _col2im_array(
    gcol: np.ndarray,
    x_shape: Tuple[int, ...],
    kh: int,
    kw: int,
    sh: int,
    sw: int,
) -> np.ndarray:
    """Adjoint of :func:`_im2col_array` (scatter-add patches back).

    Accumulates channels-last, matching ``gcol``'s layout, a chunk of
    samples at a time so the kh*kw strided passes re-read ``gcol`` from
    cache.  Every element still receives its patches in the same (i, j)
    order, so the sums are bit-for-bit those of a plain loop.
    """
    n, c, h, w = x_shape
    gx = np.zeros((n, h, w, c), dtype=gcol.dtype)
    # gcol: (N, OH, OW, C, kh, kw)
    oh, ow = gcol.shape[1], gcol.shape[2]
    step = max(1, _COL2IM_CHUNK_BYTES // max(1, gcol[:1].nbytes))
    for n0 in range(0, n, step):
        g, gx_chunk = gcol[n0:n0 + step], gx[n0:n0 + step]
        for i in range(kh):
            h_end = i + sh * oh
            for j in range(kw):
                w_end = j + sw * ow
                gx_chunk[:, i:h_end:sh, j:w_end:sw, :] += g[..., i, j]
    return np.ascontiguousarray(gx.transpose(0, 3, 1, 2))


def im2col(x: Tensor, kernel_size, stride=1) -> Tensor:
    """Differentiable im2col: (N,C,H,W) -> (N,OH,OW,C,kh,kw)."""
    x = ensure_tensor(x)
    kh, kw = _pair(kernel_size)
    sh, sw = _pair(stride)
    col = _im2col_array(x.data, kh, kw, sh, sw)
    x_shape = x.shape

    def backward(g: np.ndarray):
        return (_col2im_array(g, x_shape, kh, kw, sh, sw),)

    return custom_grad(col, (x,), backward)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride=1,
    padding=0,
) -> Tensor:
    """2-D convolution (cross-correlation) via im2col + matmul.

    ``x``: (N, C, H, W); ``weight``: (O, C, kh, kw); ``bias``: (O,).
    """
    x = ensure_tensor(x)
    ph, pw = _pair(padding)
    if ph or pw:
        x = T.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    o, c, kh, kw = weight.shape
    col = im2col(x, (kh, kw), stride)  # (N, OH, OW, C, kh, kw)
    n, oh, ow = col.shape[0], col.shape[1], col.shape[2]
    col2 = col.reshape((n * oh * ow, c * kh * kw))
    w2 = weight.reshape((o, c * kh * kw))
    out = col2 @ w2.T  # (N*OH*OW, O)
    if bias is not None:
        out = out + bias
    out = out.reshape((n, oh, ow, o))
    return out.transpose((0, 3, 1, 2))


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias``; ``weight``: (out, in)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def avg_pool2d(x: Tensor, kernel_size) -> Tensor:
    """Non-overlapping average pooling (kernel == stride)."""
    kh, kw = _pair(kernel_size)
    n, c, h, w = x.shape
    if h % kh or w % kw:
        # Crop the ragged border (matches "valid" pooling behaviour).
        x = x[:, :, : (h // kh) * kh, : (w // kw) * kw]
        n, c, h, w = x.shape
    x = x.reshape((n, c, h // kh, kh, w // kw, kw))
    return x.mean(axis=(3, 5))


def max_pool2d(x: Tensor, kernel_size) -> Tensor:
    """Non-overlapping max pooling (kernel == stride)."""
    kh, kw = _pair(kernel_size)
    n, c, h, w = x.shape
    if h % kh or w % kw:
        x = x[:, :, : (h // kh) * kh, : (w // kw) * kw]
        n, c, h, w = x.shape
    x = x.reshape((n, c, h // kh, kh, w // kw, kw))
    return x.max(axis=(3, 5))


def adaptive_avg_pool2d(x: Tensor, output_size) -> Tensor:
    """Adaptive average pooling for sizes that evenly divide the input."""
    oh, ow = _pair(output_size)
    n, c, h, w = x.shape
    if h % oh or w % ow:
        raise ValueError(
            f"adaptive_avg_pool2d requires divisible sizes, got {h}x{w} -> {oh}x{ow}"
        )
    return avg_pool2d(x, (h // oh, w // ow))


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: scale kept activations by 1/(1-p) at train time."""
    if not training or p <= 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


def flatten(x: Tensor, start_dim: int = 1) -> Tensor:
    return x.flatten(start_dim)
