"""Distinguishability measures, quantum and classical.

Six kinds are supported: trace, infidelity, renyi_sandwiched, tsallis,
relative_entropy, hilbert_schmidt. The classical kernels accept any batch
shape, a single 1-d distribution included, and take a log base.
Divergences that can diverge return math.inf, and every consumer of these
values (verdicts, margins) handles inf. The kind maps `_dephased` and
`_classical` give the two sides of each kind's data processing inequality:
a state against its A-dephased state, and (q, q') after the second basis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qstate import ZERO_CUTOFF, TripleBatch, _pseudo_power, _row_sum
from .uncertainty import shannon_entropy

DIVERGENCE_KINDS = (
    "trace",
    "infidelity",
    "renyi_sandwiched",
    "tsallis",
    "relative_entropy",
    "hilbert_schmidt",
)


# The orders at which each kind's data processing inequality holds, as
# low <= alpha < high: sandwiched Renyi from 1/2 (Frank & Lieb 2013,
# arXiv:1306.5358), Tsallis from 0. The other kinds take no order.
_ORDER_RANGES = {"renyi_sandwiched": (0.5, 1.0), "tsallis": (0.0, 1.0)}


def _check_order(kind: str | None, alpha: float | None, name: str) -> None:
    """Raise ValidationError for `name` unless alpha lies in kind's order
    range, or is None for a kind that takes no order."""
    if kind in _ORDER_RANGES:
        low, high = _ORDER_RANGES[kind]
        if alpha is None or not low <= alpha < high:  # a NaN fails the comparison
            raise ValidationError(f"{name} needs {low:g} <= alpha < {high:g}, got {alpha}")
    elif alpha is not None:
        raise ValidationError(f"{name} takes no alpha")


@dataclass(frozen=True)
class DivergenceSpec:
    """Choice of divergence; alpha is legal only where the kind uses it."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in DIVERGENCE_KINDS:
            raise ValidationError(f"unknown divergence kind {self.kind!r}")
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

    It is the largest of the gauged disturbances 1/2 sum|q - q'|,
    sqrt(1 - S_a^(1/a)) and sqrt(1 - S_a) for 1/2 <= a < 1, where
    S_a = sum over q_i > 0 of q_i^a q'_i^(1-a), so F = S_(1/2):
      - 1/2 sum|q - q'| <= sqrt(1 - F^2) (Fuchs & van de Graaf, IEEE TIT 45,
        1216, 1999);
      - log S_a is convex in a and S_0 <= 1, so with 1/2 = (1 - t) 0 + t a,
        t = 1/(2a): log F <= t log S_a, that is S_a^(1/a) >= F^2;
      - S_a <= 1 (Holder) and 1/a > 1 give S_a >= S_a^(1/a) >= F^2.
    Every term is thus at most the infidelity, which is itself one of them,
    so it is the whole of THM1_UNIVERSAL's bound.
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

    Equal distributions give 0 up to rounding, which may leave either sign.
    """
    if not 0 <= alpha < math.inf or alpha == 1.0:
        raise ValidationError(f"need finite alpha >= 0, alpha != 1, got {alpha}")
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
# the kind maps


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

    diag rho is p, so tr s rho s = sum p^(1/alpha) >= d^(1 - 1/alpha), and
    for alpha < 1 the trace is at least that: it never nears 0.
    """
    scale = _pseudo_power(batch.p, (1.0 - alpha) / (2.0 * alpha))
    core = batch.rho * scale[:, :, None]
    core *= scale[:, None, :]
    lam = np.clip(np.linalg.eigvalsh(core), 0.0, None)
    return _row_sum(_pseudo_power(lam, alpha))


def _dephased(kind: str, alpha: float | None, batch: TripleBatch, base: float = 2.0):
    """D(rho || rho_A) of each state of an A-frame batch, where rho_A = diag(p).

    This is the quantum side of `kind`'s data processing inequality; for
    relative_entropy it is the relative entropy of coherence, H(p) - S(rho).
    rho_A's support holds rho's, so every value is finite.
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
        return np.log(total) / (np.log(base) * (alpha - 1.0)) + 0.0
    if kind == "tsallis":
        lam, vec = np.linalg.eigh(batch.rho)
        lam_a = _pseudo_power(np.clip(lam, 0.0, None), alpha)
        diag_pow = np.einsum("nik,nk->ni", np.abs(vec) ** 2, lam_a)
        cross = _row_sum(diag_pow * _pseudo_power(p, 1.0 - alpha))
        return (1.0 - cross) / (1.0 - alpha)
    return shannon_entropy(p, base=base) - shannon_entropy(batch.spectrum, base=base)
