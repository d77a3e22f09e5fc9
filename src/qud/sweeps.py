"""Batched Haar ensembles and vectorized margins for large property sweeps.

These front ends reproduce the `eval_with_dual` results on whole ensembles
at once, which is what makes the 10^5-sample soundness sweeps affordable;
both sides of each data processing inequality come from the kind maps of
`divergence`. Ensembles are drawn in the frame of the first basis, where
the dephased state is diagonal, so nothing is rotated.
"""

import numpy as np

from .divergence import _check_divergence, _classical, _dephased
from .qstate import TripleBatch, _haar_frames, _scan_chunk, _scan_rows, _triples
from .relations import RelationId, _dpi_chain, relation_sides
from .rng import _map_chunks, stream


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
    _check_divergence(kind, alpha)
    quantum = _dephased(kind, alpha, batch, base)
    return quantum - _classical(kind, alpha, batch.q, batch.qp, base)


def dpi_scan(kind: str, alpha: float | None, dim: int, samples: int, seed: int,
             base: float = 2.0):
    """`dpi_margins` over `samples` Haar mixed triples, drawn by the chunk
    rule of `search_counterexample`: chunk k is drawn whole, its first rows
    are read, and only their margins, one float per sample, are kept. So a
    larger budget's margins begin with a smaller one's. (kind, alpha) is
    checked before the margins are allocated."""
    _check_divergence(kind, alpha)
    margins = np.empty(samples)

    def scan(index, offset, count):
        batch, _ = _scan_chunk(dim, seed, False, index, count)
        margins[offset:offset + count] = dpi_margins(kind, alpha, batch, base)

    for _ in _map_chunks(scan, samples, _scan_rows(dim), 1):
        pass
    return margins


def chain_margins(batch: TripleBatch):
    """The two links of THM1_UNIVERSAL's chain on each sample:

    delta(p) - IF(rho, rho_A)  and  IF(rho, rho_A) - IF(q, q').

    IF(q, q') is the universal bound, so the second link is the infidelity
    margin of `dpi_margins`.
    """
    lhs, infid, rhs = _dpi_chain(RelationId("THM1_UNIVERSAL"), batch)
    return lhs - infid, infid - rhs
