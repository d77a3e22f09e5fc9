"""Uncertainty measures over outcome distributions.

The array kernels accept any batch shape, a single 1-d distribution
included, and reduce over the last axis; `_measure` maps a kind to its
kernel. Probabilities below 1e-15 are treated as exact zeros before any
log or power, so the 0 log 0 = 0 and 0^alpha = 0 conventions hold for
every order.
"""

import math

import numpy as np

from .errors import ValidationError
from .qstate import ZERO_CUTOFF, _row_sum


def _pair_sum(x):
    """sum_{i<j} x_i x_j over the last axis, as sum_j x_j (x_0 + ... + x_{j-1}):
    products and sums only, so no digits cancel near a point mass."""
    prefix = x[..., 0].copy()
    out = x[..., 1] * prefix
    for j in range(2, x.shape[-1]):
        prefix += x[..., j - 1]
        out += x[..., j] * prefix
    out += 0.0  # an all -0.0 sum is +0.0, as numpy's reduce gives
    return out


def delta_measure(p):
    """sqrt(1 - sum p^2), the purity deficit of the dephased state, as
    sqrt(2 sum_{i<j} p_i p_j): the cross terms keep the digits that
    1 - sum p^2 cancels near a point mass."""
    return np.sqrt(2.0 * _pair_sum(np.asarray(p, dtype=np.float64)))


def shannon_entropy(p, base: float = 2.0):
    """-sum p log p; a point mass gives +0.0 (the + 0.0 maps -0.0 to it)."""
    p = np.asarray(p, dtype=np.float64)
    safe = np.maximum(p, ZERO_CUTOFF)
    terms = np.where(p > ZERO_CUTOFF, p * np.log(safe), 0.0)
    return -_row_sum(terms) / np.log(base) + 0.0


def renyi_entropy(p, alpha: float, base: float = 2.0):
    """Order-alpha entropy log(sum p^alpha) / (1 - alpha); alpha=1 is Shannon.

    alpha=0 counts the support, per the zero-probability convention. A point
    mass gives +0.0 at every order.
    """
    if not 0 <= alpha < math.inf:
        raise ValidationError(f"alpha must be finite and >= 0, got {alpha}")
    if alpha == 1.0:
        return shannon_entropy(p, base=base)
    p = np.asarray(p, dtype=np.float64)
    safe = np.maximum(p, ZERO_CUTOFF)
    powered = np.where(p > ZERO_CUTOFF, safe**alpha, 0.0)
    return np.log(_row_sum(powered)) / (np.log(base) * (1.0 - alpha)) + 0.0


def half_norm_measure(p):
    """Half of ((sum sqrt(p))^2 - 1), the 1/2-quasinorm overshoot, as
    sum_{i<j} sqrt(p_i p_j), which keeps its digits near a point mass."""
    return _pair_sum(np.sqrt(np.clip(np.asarray(p, dtype=np.float64), 0.0, None)))


def _measure(kind: str, alpha: float | None, p, base: float = 2.0):
    """Uncertainty measure `kind` of batched distributions p: delta and
    half_norm are base-free, entropies are in the given log base."""
    if kind == "delta":
        return delta_measure(p)
    if kind == "shannon":
        return shannon_entropy(p, base=base)
    if kind == "renyi":
        return renyi_entropy(p, alpha, base=base)
    return half_norm_measure(p)
