"""Batched Haar ensembles and vectorized margins for large property sweeps.

These kernels reproduce the scalar qdiv/cdiv/relation results on whole
ensembles at once, which is what makes the 10^5-sample soundness sweeps
affordable. Ensembles are drawn already in the frame of the first basis,
where the dephased state is diagonal, so nothing is rotated. A cross-check
test pins the batch paths to the scalar implementations; the scalar
`dpi_margin` is a batch of one, rotated into that frame first.
"""

import numpy as np

from .divergence import DivergenceSpec, _classical, classical_infidelity
from .qstate import (
    DensityMatrix,
    OrthonormalBasis,
    TripleBatch,
    _frame_of_one,
    _haar_chunks,
    _haar_frames,
    _pseudo_power,
    _row_sum,
    _triples,
)
from .relations import relation_sides
from .rng import stream
from .uncertainty import delta_measure, shannon_entropy


def haar_triples(dim: int, count: int, seed: int, pure: bool = False,
                 chunk: int | None = None) -> TripleBatch:
    """Draw states and basis pairs in A's frame; deterministic in the inputs."""
    return _triples(*_haar_frames(stream(seed, chunk), count, dim, pure), pure)


def relation_margins(rel, batch: TripleBatch):
    """lhs - rhs over the batch in bits (inf-aware subtraction)."""
    lhs, rhs = relation_sides(rel, batch.p, batch.q, batch.qp, batch.cmax)
    with np.errstate(invalid="ignore"):
        return lhs - rhs


def _sandwiched_trace(batch: TripleBatch, alpha: float):
    """tr (s rho s)^alpha with s = diag(p)^((1-alpha)/(2 alpha)) on the support.

    In the A frame the dephased state is diag(p), so this is the sandwiched
    Renyi trace against the dephased state, from one batched eigh.
    """
    scale = _pseudo_power(batch.p, (1.0 - alpha) / (2.0 * alpha))
    core = batch.rho * scale[:, :, None]
    core *= scale[:, None, :]
    lam = np.clip(np.linalg.eigvalsh(core), 0.0, None)
    return _row_sum(_pseudo_power(lam, alpha))


def _infidelity_to_dephased(batch: TripleBatch):
    """sqrt(1 - F^2) between each state and its A-dephased version."""
    f = np.clip(_sandwiched_trace(batch, 0.5), 0.0, 1.0)
    return np.sqrt(np.clip(1.0 - f**2, 0.0, None))


def dpi_margins(kind: str, alpha: float | None, batch: TripleBatch,
                base: float = 2.0):
    """Quantum-minus-classical divergence margins across the batch.

    The quantum divergence is taken between each state and its A-dephased
    version; the classical one between the B statistics before and after
    dephasing. Data processing keeps every margin >= -1e-8.
    """
    DivergenceSpec(kind, alpha)  # rejects unknown kinds and orders
    p = batch.p
    if kind == "trace":
        diff = batch.rho.copy()
        idx = np.arange(batch.dim)
        diff[:, idx, idx] -= p
        quantum = 0.5 * _row_sum(np.abs(np.linalg.eigvalsh(diff)))
    elif kind == "hilbert_schmidt":
        fro2 = np.real(np.abs(batch.rho) ** 2).sum(axis=(1, 2))
        quantum = np.sqrt(np.clip(fro2 - _row_sum(p**2), 0.0, None))
    elif kind == "infidelity":
        quantum = _infidelity_to_dephased(batch)
    elif kind == "relative_entropy":
        quantum = (shannon_entropy(p, base=base)
                   - shannon_entropy(batch.spectrum, base=base))
    elif kind == "renyi_sandwiched":
        total = _sandwiched_trace(batch, alpha)
        with np.errstate(divide="ignore"):
            quantum = np.log(total) / (np.log(base) * (alpha - 1.0))
    else:
        lam, vec = np.linalg.eigh(batch.rho)
        lam_a = _pseudo_power(np.clip(lam, 0.0, None), alpha)
        diag_pow = np.einsum("nik,nk->ni", np.abs(vec) ** 2, lam_a)
        cross = _row_sum(diag_pow * _pseudo_power(p, 1.0 - alpha))
        quantum = (1.0 - cross) / (1.0 - alpha)
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
    """The two links of the universal chain on each sample:

    delta(p) - IF(rho, rho_A)  and  IF(rho, rho_A) - IF(q, q').

    IF(q, q') is the universal bound, so the second link is the infidelity
    margin of `dpi_margins`.
    """
    infid = _infidelity_to_dephased(batch)
    return delta_measure(batch.p) - infid, infid - classical_infidelity(batch.q, batch.qp)
