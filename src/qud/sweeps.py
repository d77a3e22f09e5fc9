"""Batched Haar ensembles and vectorized margins for large property sweeps.

These front ends reproduce the scalar qdiv/cdiv/relation results on whole
ensembles at once, which is what makes the 10^5-sample soundness sweeps
affordable; both sides of each data processing inequality come from the
kind maps of `divergence`. Ensembles are drawn in the frame of the first
basis, where the dephased state is diagonal, so nothing is rotated; the
scalar `dpi_margin` is a batch of one, rotated into that frame first.
"""

import numpy as np

from .divergence import DivergenceSpec, _classical, _dephased
from .qstate import (
    DensityMatrix,
    OrthonormalBasis,
    TripleBatch,
    _frame_of_one,
    _haar_chunks,
    _haar_frames,
    _triples,
)
from .relations import RelationId, _dpi_chain, relation_sides
from .rng import stream


def haar_triples(dim: int, count: int, seed: int, pure: bool = False,
                 chunk: int | None = None) -> TripleBatch:
    """Draw states and basis pairs in A's frame; deterministic in the inputs."""
    return _triples(*_haar_frames(stream(seed, chunk), count, dim, pure), pure)


def relation_margins(rel, batch: TripleBatch):
    """lhs - rhs over the batch in bits (inf-aware subtraction)."""
    lhs, rhs = relation_sides(rel, batch.p, batch.q, batch.qp, batch.cmax)
    with np.errstate(invalid="ignore"):
        return lhs - rhs


def dpi_margins(kind: str, alpha: float | None, batch: TripleBatch,
                base: float = 2.0):
    """Quantum-minus-classical divergence margins, `_dephased` - `_classical`,
    across the batch. Data processing keeps every margin >= -1e-8."""
    DivergenceSpec(kind, alpha)  # rejects unknown kinds and orders
    quantum = _dephased(kind, alpha, batch, base)
    return quantum - _classical(kind, alpha, batch.q, batch.qp, base)


def dpi_scan(kind: str, alpha: float | None, dim: int, samples: int, seed: int,
             base: float = 2.0):
    """`dpi_margins` over `samples` Haar mixed triples, drawn by the chunk
    rule of `search_counterexample`: chunk k is drawn whole, its first rows
    are read, and only their margins, one float per sample, are kept. So a
    larger budget's margins begin with a smaller one's."""
    margins = np.empty(samples)
    for offset, batch, _ in _haar_chunks(dim, samples, seed, pure=False):
        margins[offset:offset + len(batch.p)] = dpi_margins(kind, alpha, batch, base)
    return margins


def dpi_margin(spec: DivergenceSpec, rho: DensityMatrix, a: OrthonormalBasis,
               b: OrthonormalBasis) -> float:
    """qdiv(rho, dephased rho) minus its classical counterpart after B, in bits.

    Data processing makes this nonnegative (to 1e-8) for every supported
    divergence; Hilbert-Schmidt is only monotone under the dephasing step
    checked here, not under general channels.
    """
    return float(dpi_margins(spec.kind, spec.alpha, _frame_of_one(rho, a, b))[0])


def chain_margins(batch: TripleBatch):
    """The two links of THM1_UNIVERSAL's chain on each sample:

    delta(p) - IF(rho, rho_A)  and  IF(rho, rho_A) - IF(q, q').

    IF(q, q') is the universal bound, so the second link is the infidelity
    margin of `dpi_margins`.
    """
    lhs, infid, rhs = _dpi_chain(RelationId("THM1_UNIVERSAL"), batch)
    return lhs - infid, infid - rhs
