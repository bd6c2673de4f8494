"""Stochastic permutation legalization (SPL, paper Eq. 13 / Fig. 3).

The ALM relaxation does not guarantee convergence to a *legal*
permutation — it can stall on saddle points where two rows tie on the
same column.  SPL forces legality:

1. ``Softmax(P / tau), tau -> 0+`` — row-wise hard argmax (binarize).
2. SVD projection ``P S Q* = SVD(...)`` and take ``|U V^H|`` — the
   closest orthogonal matrix, which pushes mass away from saddle
   points.
3. Add Gaussian perturbations ``delta ~ N(0, sigma^2)`` to break row
   ties, re-binarize, and check legality; repeat until a legal
   permutation appears.

A deterministic Hungarian-assignment fallback guarantees termination
(used only if the stochastic loop exhausts its budget, which the test
suite shows is rare).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..photonics.crossings import count_inversions, is_permutation_matrix
from ..utils.rng import get_rng


def _row_argmax_binarize(p: np.ndarray) -> np.ndarray:
    """Softmax(P / tau) in the tau -> 0+ limit: row-wise one-hot."""
    out = np.zeros_like(p, dtype=float)
    out[np.arange(p.shape[0]), np.argmax(p, axis=1)] = 1.0
    return out


def _orthogonal_projection(p: np.ndarray) -> np.ndarray:
    """Polar/SVD projection onto the orthogonal group: U @ V^H."""
    u, _, vh = np.linalg.svd(p)
    return u @ vh


def legalize_one(
    p_relaxed: np.ndarray,
    sigma: float = 0.05,
    max_tries: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, int]:
    """Legalize a single relaxed K x K matrix.

    Returns ``(P_legal, tries)``; ``tries`` counts stochastic rounds
    (0 means the straight binarization was already legal).  Among legal
    candidates encountered, the one with the fewest crossings is kept —
    SPL should not inflate the CR budget ("without introducing too many
    extra crossings").
    """
    rng = get_rng(rng)
    p = np.asarray(p_relaxed, dtype=float)
    k = p.shape[0]

    binarized = _row_argmax_binarize(p)
    if is_permutation_matrix(binarized):
        return binarized, 0

    q_star = _orthogonal_projection(binarized)
    base = np.abs(q_star)
    best: Optional[np.ndarray] = None
    best_crossings = np.inf
    for attempt in range(1, max_tries + 1):
        noisy = base + rng.normal(0.0, sigma, size=base.shape)
        cand = _row_argmax_binarize(noisy)
        if is_permutation_matrix(cand):
            crossings = count_inversions(list(np.argmax(cand, axis=1)))
            if crossings < best_crossings:
                best, best_crossings = cand, crossings
            # A handful of legal samples is enough to pick a cheap one.
            if attempt >= 10 and best is not None:
                return best, attempt
    if best is not None:
        return best, max_tries
    # Deterministic fallback: maximum-weight assignment on the relaxed
    # scores — always a legal permutation.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(-p)
    fallback = np.zeros_like(p)
    fallback[rows, cols] = 1.0
    return fallback, max_tries


def legalize_all(
    p_relaxed: np.ndarray,
    sigma: float = 0.05,
    max_tries: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Legalize a stack (B, K, K) of relaxed permutations.

    Returns ``(P_legal, tries)`` with shapes (B, K, K) and (B,).
    """
    rng = get_rng(rng)
    p = np.asarray(p_relaxed, dtype=float)
    out = np.empty_like(p)
    tries = np.empty(p.shape[0], dtype=int)
    for b in range(p.shape[0]):
        out[b], tries[b] = legalize_one(p[b], sigma=sigma, max_tries=max_tries, rng=rng)
    return out, tries
