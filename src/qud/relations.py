"""The trade-off catalog: relations, duals and counterexample search.

Each relation compares an uncertainty functional of the first measurement's
statistics p against a disturbance functional of (q, q'), where q is the
second observable's intrinsic distribution and q' its post-measurement one.
Entropic relations additionally come in a `printed` variant reproducing
forms that carry a known prefactor/orientation defect; `canonical` is the
derivation-consistent default.
"""

import math
from dataclasses import dataclass

import numpy as np

from .divergence import _check_order, _classical, _dephased
from .errors import ValidationError
from . import qstate
from .qstate import (
    DensityMatrix,
    OrthonormalBasis,
    _frame_of_one,
    _matrix_max,
    _scan_chunk,
    _scan_rows,
    make_basis,
    make_density,
    standard_basis,
)
from .rng import _map_chunks
from .uncertainty import _measure

# The catalog, one row per id: the divergence kind whose order range its
# alpha takes (None: it takes none), whether it has a printed form distinct
# from the canonical one, whether it is self-dual under the order swap, and,
# for a relation that bounds a divergence, its terms: the uncertainty measure
# of p, the order of that measure as a function of alpha (None: it takes
# none), and the divergence kind whose classical form of (q, q') at alpha it
# bounds. U_ts bounds the Renyi divergence, though its alpha takes tsallis's
# range. EUR_MU's conjugate orders are checked by their own rule.
_CATALOG = {
    "U_tr": (None, False, False, ("delta", None, "trace")),
    "U_tr_prime": (None, False, False, ("half_norm", None, "trace")),
    "U_rd": ("renyi_sandwiched", False, False,
             ("renyi", lambda a: 1.0 / a, "renyi_sandwiched")),
    "U_if": (None, True, False, None),
    "U_ts": ("tsallis", True, False, ("renyi", lambda a: 2.0 - a, "renyi_sandwiched")),
    "U_re": (None, False, False, ("shannon", None, "relative_entropy")),
    "U_hs": (None, False, False, ("delta", None, "hilbert_schmidt")),
    "THM1_UNIVERSAL": (None, False, False, ("delta", None, "infidelity")),
    "EUR_TS": ("tsallis", True, False, None),
    "EUR_MU": (None, False, True, None),
}
RELATION_IDS = tuple(_CATALOG)

VERDICT_RTOL = 1e-9
SEARCH_MARGIN = -1e-6
# rows per scan chunk up to d=4 (qstate._scan_rows), read here by the benchmark
SEARCH_CHUNK = qstate.SEARCH_CHUNK
_FLOAT_MAX = np.finfo(np.float64).max


@dataclass(frozen=True)
class RelationId:
    """A relation from the catalog plus its variant and order parameters."""

    id: str
    variant: str = "canonical"
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.id not in _CATALOG:
            raise ValidationError(f"unknown relation id {self.id!r}")
        if self.variant not in ("canonical", "printed"):
            raise ValidationError(f"unknown variant {self.variant!r}")
        kind, printed, _, _ = _CATALOG[self.id]
        if self.variant == "printed" and not printed:
            raise ValidationError(f"{self.id} has no distinct printed form")
        a, b = self.alpha, self.beta
        if self.id != "EUR_MU":
            _check_order(kind, a, self.id)
            if b is not None:
                raise ValidationError(f"{self.id} takes no beta")
        elif a is None or b is None or not (0.5 <= a < math.inf and 0.5 <= b < math.inf):
            raise ValidationError("EUR_MU needs finite alpha, beta >= 1/2")
        elif abs(1.0 / a + 1.0 / b - 2.0) > 1e-9:
            raise ValidationError("EUR_MU needs conjugate orders 1/alpha + 1/beta = 2")

    def label(self) -> str:
        """Compact single-cell form used in CSV report columns."""
        parts = []
        if self.alpha is not None:
            parts.append(f"alpha={self.alpha:g}")
        if self.beta is not None:
            parts.append(f"beta={self.beta:g}")
        if self.variant != "canonical":
            parts.append(self.variant)
        return self.id if not parts else f"{self.id}[{','.join(parts)}]"


@dataclass(frozen=True)
class RelationVerdict:
    lhs: float
    rhs: float
    margin: float
    satisfied: bool


@dataclass(frozen=True)
class Counterexample:
    state: DensityMatrix
    basis_a: OrthonormalBasis
    basis_b: OrthonormalBasis
    verdict: RelationVerdict
    sample_index: int


def relation_sides(rel: RelationId, p, q, qp, cmax=None, base: float = 2.0):
    """Vectorized (lhs, rhs) arrays for batches of distributions.

    p, q, qp reduce over the last axis; cmax (same leading shape) is needed
    only by the EUR_* relations. A relation that bounds a divergence takes
    its terms from its catalog row, and printed U_ts divides its lhs by
    2 - a. The EUR relations are H_x(p) + H_y(q) >= -log cmax: EUR_MU at
    (x, y) = (a, b), canonical EUR_TS at (2 - a, a); printed EUR_TS swaps p
    and q and weighs H_x(q) by 1/x. Every term is read through a kind map.
    """
    rid, var, a = rel.id, rel.variant, rel.alpha
    if rid == "U_if":  # U_rd's formula at a = 1/2; printed, at a = 2 untransformed
        rid, var, a = "U_rd", "canonical", 2.0 if var == "printed" else 0.5
    terms = _CATALOG[rid][3]
    if terms is not None:
        measure, order, kind = terms
        lhs = _measure(measure, order(a) if order else None, p, base)
        lhs = lhs / (2.0 - a) if var == "printed" else lhs  # printed U_ts
        return lhs, _classical(kind, a, q, qp, base)
    if cmax is None:
        raise ValidationError(f"{rid} needs the overlap matrix (cmax)")
    rhs = -np.log(np.asarray(cmax, dtype=np.float64)) / np.log(base)
    x, y = (a, rel.beta) if rid == "EUR_MU" else (2.0 - a, a)
    if var == "printed":
        return _measure("renyi", x, q, base) / x + _measure("renyi", y, p, base), rhs
    return _measure("renyi", x, p, base) + _measure("renyi", y, q, base), rhs


def _dpi_chain(rel: RelationId, batch, base: float = 2.0):
    """(lhs, quantum side, rhs) of the chain lhs >= D(rho||rho_A) >= rhs on a
    TripleBatch, for a relation that bounds a divergence: its outer terms are
    `relation_sides`, its middle one its row's kind through `_dephased`."""
    lhs, rhs = relation_sides(rel, batch.p, batch.q, batch.qp, None, base)
    return lhs, _dephased(_CATALOG[rel.id][3][2], rel.alpha, batch, base), rhs


def satisfied_mask(lhs, rhs):
    """Vectorized verdicts: margin >= -1e-9 * max(1, |lhs|, |rhs|), inf-aware.

    An infinite side would make the scale infinite, so it is clamped to the
    largest float: a finite margin is then judged on the finite sides alone,
    and an infinite one is judged by its sign. lhs = +inf always holds, and
    NaN never does unless lhs is +inf.
    """
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    scale = np.clip(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0, _FLOAT_MAX)
    with np.errstate(invalid="ignore"):
        return ((lhs - rhs) >= -VERDICT_RTOL * scale) | (lhs == np.inf)


def _shared_arrays(p, q, c):
    """Relation-independent arrays of batched (p, q, C): qp = p C, pp = C q, max C."""
    return (np.einsum("ni,nij->nj", p, c), np.einsum("nij,nj->ni", c, q),
            _matrix_max(c))


def _forward_dual(rel: RelationId, p, q, shared, judge, base: float = 2.0):
    """judge(lhs, rhs) of the forward pair on (p, q, p C), then of the dual
    pair on (q, p, C q), from `_shared_arrays`. A self-dual relation has the
    forward pair alone. Each pair is judged before the next is computed."""
    qp, pp, cmax = shared
    out = [judge(*relation_sides(rel, p, q, qp, cmax, base))]
    if not _CATALOG[rel.id][2]:  # not self-dual
        out.append(judge(*relation_sides(rel, q, p, pp, cmax, base)))
    return out


def _accepts(rel: RelationId, p, q, shared):
    """Admissibility from `_shared_arrays(p, q, C)`: the relation AND its dual."""
    masks = _forward_dual(rel, p, q, shared, satisfied_mask)
    return masks[0] & masks[-1]


def _verdict(lhs, rhs, index: int = 0) -> RelationVerdict:
    """The verdict of one sample of batched (lhs, rhs) arrays."""
    lhs, rhs = float(lhs[index]), float(rhs[index])
    return RelationVerdict(lhs, rhs, lhs - rhs, bool(satisfied_mask(lhs, rhs)))


def eval_with_dual(rel: RelationId, rho: DensityMatrix, a: OrthonormalBasis,
                   b: OrthonormalBasis, base: float = 2.0
                   ) -> tuple[RelationVerdict, RelationVerdict]:
    """Forward verdict on (p, q, p C) and dual on (q, p, C q) of one instance
    (rho, A, B), reduced once in A's frame as a batch of one.

    EUR_MU is self-dual under the order swap, so the same verdict is
    returned twice.
    """
    batch = _frame_of_one(rho, a, b)
    p, q = batch.p, batch.q
    verdicts = _forward_dual(rel, p, q, _shared_arrays(p, q, batch.overlap), _verdict, base)
    return verdicts[0], verdicts[-1]


def search_counterexample(rel: RelationId, dim: int, budget: int, seed: int,
                          base: float = 2.0) -> Counterexample | None:
    """Scan Haar-random pure states and basis pairs for a violation.

    Returns the first instance with margin < -1e-6 (absolute): each chunk's
    first hit, folded in chunk order, stops the scan, so no later chunk is
    drawn. Chunks have derived streams, each is drawn whole and a short last
    chunk scans its first samples, so a larger budget scans a superset of a
    smaller one. A hit is drawn in basis A's frame and carries the sides its
    scan computed.
    """
    if budget < 1:
        raise ValidationError(f"budget must be >= 1, got {budget}")

    def first_hit(index, offset, count):
        batch, w = _scan_chunk(dim, seed, True, index, count)
        lhs, rhs = relation_sides(rel, batch.p, batch.q, batch.qp, batch.cmax, base)
        with np.errstate(invalid="ignore"):
            bad = np.nonzero((lhs - rhs) < SEARCH_MARGIN)[0]
        if bad.size:  # else the chunk's result is None
            i = int(bad[0])
            return Counterexample(make_density(batch.rho[i]), standard_basis(dim),
                                  make_basis(w[i]), _verdict(lhs, rhs, i), offset + i)

    return next(filter(None, _map_chunks(first_hit, budget, _scan_rows(dim), 1)), None)
