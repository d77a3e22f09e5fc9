"""Distinguishability measures, quantum and classical, plus their gauges.

Six kinds are supported: trace, infidelity, renyi_sandwiched, tsallis,
relative_entropy, hilbert_schmidt. The first four admit a gauge G putting
them on the common [0, 1] distance scale used by the trade-off relations;
`gauge_inverse` maps a divergence value back through G^{-1}. `qdiv`, `cdiv`
and `gauge_inverse` work in bits; the array kernels take a log base.
Divergences that can diverge return math.inf, and every consumer of these
values (gauges, verdicts) handles inf. The kind maps `_dephased` and
`_classical` give the two sides of each kind's data processing inequality.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfRange, NotGaugeable
from .qstate import (
    ZERO_CUTOFF,
    DensityMatrix,
    ProbDist,
    TripleBatch,
    _check_same_dim,
    _diagonal_probs,
    _pseudo_power,
    _row_sum,
)
from .uncertainty import shannon_entropy

DIVERGENCE_KINDS = (
    "trace",
    "infidelity",
    "renyi_sandwiched",
    "tsallis",
    "relative_entropy",
    "hilbert_schmidt",
)

GAUGEABLE_KINDS = ("trace", "infidelity", "renyi_sandwiched", "tsallis")

# Mass of rho1 allowed outside the support of rho2 before declaring +inf.
SUPPORT_LEAK_TOL = 1e-9


# The orders at which each kind's data processing inequality holds, as
# low <= alpha < high: sandwiched Renyi from 1/2 (Frank & Lieb 2013,
# arXiv:1306.5358), Tsallis from 0. The other kinds take no order.
_ORDER_RANGES = {"renyi_sandwiched": (0.5, 1.0), "tsallis": (0.0, 1.0)}


def _check_order(kind: str | None, alpha: float | None, name: str) -> None:
    """Raise AlphaOutOfRange for `name` unless alpha lies in kind's order
    range, or is None for a kind that takes no order."""
    if kind in _ORDER_RANGES:
        low, high = _ORDER_RANGES[kind]
        if alpha is None or not low <= alpha < high:  # a NaN fails the comparison
            raise AlphaOutOfRange(f"{name} needs {low:g} <= alpha < {high:g}, got {alpha}")
    elif alpha is not None:
        raise AlphaOutOfRange(f"{name} takes no alpha")


@dataclass(frozen=True)
class DivergenceSpec:
    """Choice of divergence; alpha is legal only where the kind uses it."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in DIVERGENCE_KINDS:
            raise ValueError(f"unknown divergence kind {self.kind!r}")
        _check_order(self.kind, self.alpha, self.kind)


# ---------------------------------------------------------------------------
# classical kernels (reduce over the last axis, accept any batch shape)


def l1_distance(q, qp):
    q = np.asarray(q, dtype=np.float64)
    qp = np.asarray(qp, dtype=np.float64)
    return 0.5 * _row_sum(np.abs(q - qp))


def euclidean_distance(q, qp):
    q = np.asarray(q, dtype=np.float64)
    qp = np.asarray(qp, dtype=np.float64)
    return np.sqrt(_row_sum((q - qp) ** 2))


def classical_infidelity(q, qp):
    """sqrt(1 - F^2) for the classical fidelity F = sum sqrt(q q').

    It is computed as sqrt(h (2 - h)) from the squared Hellinger distance
    h = 1 - F = sum (sqrt q - sqrt q')^2 / 2, clipped to [0, 1], which keeps
    its digits near F = 1: equal rows give 0 and disjoint supports give 1.
    """
    q = np.asarray(q, dtype=np.float64)
    qp = np.asarray(qp, dtype=np.float64)
    h = np.clip(0.5 * _row_sum((np.sqrt(q) - np.sqrt(qp)) ** 2), 0.0, 1.0)
    return np.sqrt(h * (2.0 - h))


def power_overlap(q, qp, alpha: float):
    """sum over {q_i > 0} of q^alpha q'^(1-alpha).

    For alpha < 1 a vanishing q' makes the term 0; for alpha > 1 it makes
    the sum +inf, matching the divergence conventions.
    """
    q = np.asarray(q, dtype=np.float64)
    qp = np.asarray(qp, dtype=np.float64)
    on = q > ZERO_CUTOFF
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(on, q, 1.0) ** alpha * np.where(
            on | (qp > ZERO_CUTOFF), qp, 1.0
        ) ** (1.0 - alpha)
    return _row_sum(np.where(on, terms, 0.0))


def renyi_divergence(q, qp, alpha: float, base: float = 2.0):
    """log(sum q^alpha q'^(1-alpha)) / (alpha - 1); +inf on support clash.

    Equal distributions give +0.0 at every order.
    """
    if not 0 <= alpha < math.inf or alpha == 1.0:
        raise AlphaOutOfRange(f"need finite alpha >= 0, alpha != 1, got {alpha}")
    s = power_overlap(q, qp, alpha)
    with np.errstate(divide="ignore"):
        return np.log(s) / (np.log(base) * (alpha - 1.0)) + 0.0


def tsallis_divergence(q, qp, alpha: float):
    """(1 - sum q^alpha q'^(1-alpha)) / (1 - alpha), at an order in tsallis's range."""
    _check_order("tsallis", alpha, "tsallis_divergence")
    return (1.0 - power_overlap(q, qp, alpha)) / (1.0 - alpha)


def kl_divergence(q, qp, base: float = 2.0):
    """sum q log(q/q'); +inf when q puts mass where q' has none."""
    q = np.asarray(q, dtype=np.float64)
    qp = np.asarray(qp, dtype=np.float64)
    on = q > ZERO_CUTOFF
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(np.where(on, q, 1.0)) - np.log(np.where(qp > 0, qp, 0.0))
        terms = np.where(on, q * logs, 0.0)
    return _row_sum(terms) / np.log(base)


# ---------------------------------------------------------------------------
# the kind maps and the scalar front ends


def _classical(kind: str, alpha: float | None, q, qp, base: float = 2.0):
    """The classical counterpart of divergence `kind` on batched (q, q')."""
    if kind == "trace":
        return l1_distance(q, qp)
    if kind == "infidelity":
        return classical_infidelity(q, qp)
    if kind == "renyi_sandwiched":
        return renyi_divergence(q, qp, alpha, base=base)
    if kind == "tsallis":
        return tsallis_divergence(q, qp, alpha)
    if kind == "relative_entropy":
        return kl_divergence(q, qp, base=base)
    return euclidean_distance(q, qp)


def _sandwiched_trace(batch: TripleBatch, alpha: float):
    """tr (s rho s)^alpha with s = diag(p)^((1-alpha)/(2 alpha)) on the support:
    the sandwiched Renyi trace of each state against diag(p), from one
    batched eigh.

    It is 0 where s rho s has no more than ZERO_CUTOFF of trace: there the
    supports clash, and the power alpha < 1 would lift eigh's rounding on
    the empty overlap to a finite trace.
    """
    scale = _pseudo_power(batch.p, (1.0 - alpha) / (2.0 * alpha))
    core = batch.rho * scale[:, :, None]
    core *= scale[:, None, :]
    lam = np.clip(np.linalg.eigvalsh(core), 0.0, None)
    return np.where(_row_sum(lam) > ZERO_CUTOFF, _row_sum(_pseudo_power(lam, alpha)), 0.0)


def _dephased(kind: str, alpha: float | None, batch: TripleBatch, base: float = 2.0):
    """The divergence of each state from diag(p), both in the batch's frame.

    In A's frame diag(p) is the A-dephased state, so this is the quantum side
    of `kind`'s data processing inequality; for relative_entropy it is the
    relative entropy of coherence. renyi_sandwiched and relative_entropy
    read +inf on a support clash.
    """
    p = batch.p
    if kind in ("trace", "hilbert_schmidt"):
        diff = batch.rho.copy()
        idx = np.arange(batch.dim)
        diff[:, idx, idx] -= p
        if kind == "hilbert_schmidt":
            return np.sqrt((np.abs(diff) ** 2).sum(axis=(1, 2)))
        return 0.5 * _row_sum(np.abs(np.linalg.eigvalsh(diff)))
    if kind == "infidelity":
        f = np.clip(_sandwiched_trace(batch, 0.5), 0.0, 1.0)
        return np.sqrt(np.clip(1.0 - f**2, 0.0, None))
    if kind == "renyi_sandwiched":
        total = _sandwiched_trace(batch, alpha)
        # an incoherent state's log 1 / (alpha - 1) is -0.0; + 0.0 makes it +0.0
        with np.errstate(divide="ignore"):
            value = np.log(total) / (np.log(base) * (alpha - 1.0)) + 0.0
        return np.where(total > ZERO_CUTOFF, value, np.inf)
    if kind == "tsallis":
        lam, vec = np.linalg.eigh(batch.rho)
        lam_a = _pseudo_power(np.clip(lam, 0.0, None), alpha)
        diag_pow = np.einsum("nik,nk->ni", np.abs(vec) ** 2, lam_a)
        cross = _row_sum(diag_pow * _pseudo_power(p, 1.0 - alpha))
        return (1.0 - cross) / (1.0 - alpha)
    # -sum w log p - S(rho), with w rho's diagonal reduced as p is, so on an
    # A-frame batch w is p and this is H(p) - S(rho) to the bit
    w = _diagonal_probs(batch.rho)
    on = p > ZERO_CUTOFF
    cross = -_row_sum(np.where(on, w * np.log(np.maximum(p, ZERO_CUTOFF)), 0.0))
    value = cross / np.log(base) + 0.0 - shannon_entropy(batch.spectrum, base=base)
    return np.where(_row_sum(np.where(on, 0.0, w)) > SUPPORT_LEAK_TOL, np.inf, value)


def qdiv(spec: DivergenceSpec, rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Divergence between two states; entropic kinds are in bits.

    In rho2's eigenframe rho2 is diag(lambda), so this is `_dephased` on a
    batch of one: rho1 in that frame, with p = lambda. Rounding can leave an
    equal pair a hair below zero, which reads as +0.0.
    """
    _check_same_dim(rho1, rho2)
    v = rho2.eigenvectors
    batch = TripleBatch((v.conj().T @ rho1.matrix @ v)[None], rho2.eigenvalues[None],
                        None, None, None, rho1.eigenvalues[None])
    return max(0.0, float(_dephased(spec.kind, spec.alpha, batch)[0]))


def cdiv(spec: DivergenceSpec, q: ProbDist, qp: ProbDist) -> float:
    """Classical counterpart of `qdiv` on outcome distributions, in bits; like
    `qdiv`, it reads a rounding hair below zero as +0.0."""
    _check_same_dim(q, qp)
    return max(0.0, float(_classical(spec.kind, spec.alpha, q.probs, qp.probs)))


def gauge_inverse(spec: DivergenceSpec, value: float) -> float:
    """Map a divergence value back to the common [0, 1] distance scale.

    trace and infidelity are already on that scale (identity gauge). For
    renyi_sandwiched the gauge is G(x) = (alpha/(alpha-1)) log2(1 - x^2), so
    G^{-1}(y) = sqrt(1 - 2^((alpha-1) y / alpha)); for tsallis
    G(x) = x^2 / (1 - alpha), so G^{-1}(y) = sqrt((1 - alpha) y). Infinite
    input maps to 1.
    """
    if spec.kind not in GAUGEABLE_KINDS:
        raise NotGaugeable(f"{spec.kind} has no distance gauge")
    if not value >= 0:  # a NaN fails this comparison, as a negative value does
        raise ValueError(f"gauge input must be >= 0, got {value}")
    if spec.kind in ("trace", "infidelity"):
        return float(min(value, 1.0))
    if spec.kind == "renyi_sandwiched":
        if math.isinf(value):
            return 1.0
        inner = 1.0 - 2.0 ** ((spec.alpha - 1.0) * value / spec.alpha)
        return float(np.sqrt(min(max(inner, 0.0), 1.0)))
    if math.isinf(value):
        return 1.0
    return float(np.sqrt(min((1.0 - spec.alpha) * value, 1.0)))
