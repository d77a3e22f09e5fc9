"""Feasible-region volumes, region grids, coherence bounds, and shot protocols.

Monte-Carlo loops run over fixed-size chunks with per-chunk derived RNG
streams and integer-count accumulation, so a result depends only on
(relation, dim, samples, seed) — never on worker count or scheduling, nor on
which other relations share the draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .qstate import (
    DensityMatrix,
    OrthonormalBasis,
    _frame_of_one,
    _frozen,
    _haar_overlaps,
)
from .relations import RelationId, _accepts, _dpi_chain, _shared_arrays, relation_sides
from .rng import _map_chunks, role_stream, stream

# Rows per volume chunk. Each worker holds one chunk's arrays at a time, so
# this sets the peak memory of volume and table2. Each chunk also costs about
# 1 ms of Python that threads cannot share, so small chunks scale worse: on
# 2^18 d=3 samples two workers took 335, 250, 235 and 240 ms at 2^12, 2^13,
# 2^14 and 2^16 rows (BENCH_pr16.json). 2^14 keeps the 2^16 time.
VOLUME_CHUNK = 1 << 14
VOLUME_DIMS = (2, 3)
MIN_VOLUME_SAMPLES = 1000


@dataclass(frozen=True)
class VolumeEstimate:
    accepted: int
    volume: float
    std_error: float


def _qubit_rows(x):
    """Rows (x, 1 - x): qubit distributions from their first entries."""
    return np.stack([x, 1.0 - x], axis=-1)


def _qubit_overlaps(c00):
    """Doubly stochastic 2x2 overlaps [[c00, 1-c00], [1-c00, c00]]."""
    rows = _qubit_rows(c00)
    return np.stack([rows, rows[..., ::-1]], axis=-2)


def _draw_parameters(rng, dim: int, count: int):
    """One chunk of the data-parameter measure: (p, q, C) arrays.

    d=2 takes three uniforms a row, for p0, q0 and c00. d=3 draws p and q
    from the flat simplex and C = |U|^2 of a Haar U(3) in closed form, from
    one more Dirichlet column and two uniforms (`qstate._haar_overlaps`).
    """
    if dim == 2:
        u = rng.random((count, 3))
        return _qubit_rows(u[:, 0]), _qubit_rows(u[:, 1]), _qubit_overlaps(u[:, 2])
    p = rng.dirichlet(np.ones(3), count)
    q = rng.dirichlet(np.ones(3), count)
    return p, q, _haar_overlaps(rng, count)


def estimate_volumes(rels, dim: int, samples: int, seed: int,
                     workers: int = 1) -> tuple[VolumeEstimate, ...]:
    """Fraction of the data-parameter space admitted by each relation + dual.

    d=2 draws (p0, q0, c00) uniform on the cube; d=3 draws p, q from the
    flat simplex measure and C = |U|^2 of a Haar-random unitary U, whose law
    `_haar_overlaps` draws in closed form, with no unitary built. Each chunk is
    drawn once and every relation is evaluated on it, so each estimate
    equals the one a separate run for its relation alone would give. The
    estimates are in the order of rels, and each holds only what it measured.
    """
    rels = tuple(rels)
    if dim not in VOLUME_DIMS:
        raise ValidationError(f"volume estimation supports dim in {VOLUME_DIMS}, got {dim}")
    if samples < MIN_VOLUME_SAMPLES:
        raise ValidationError(f"samples must be >= {MIN_VOLUME_SAMPLES}, got {samples}")

    def chunk_counts(index, offset, count):
        p, q, c = _draw_parameters(stream(seed, index), dim, count)
        shared = _shared_arrays(p, q, c)
        del c  # read only by the shared arrays: free it before the relations run
        return [int(np.count_nonzero(_accepts(rel, p, q, shared))) for rel in rels]

    totals = [0] * len(rels)
    for counts in _map_chunks(chunk_counts, samples, VOLUME_CHUNK, workers):
        totals = [total + n for total, n in zip(totals, counts)]
    volumes = [accepted / samples for accepted in totals]
    return tuple(VolumeEstimate(accepted, v, math.sqrt(v * (1.0 - v) / samples))
                 for accepted, v in zip(totals, volumes))


def estimate_volume(rel: RelationId, dim: int, samples: int, seed: int,
                    workers: int = 1) -> VolumeEstimate:
    """Fraction of the data-parameter space admitted by one relation + dual."""
    return estimate_volumes((rel,), dim, samples, seed, workers=workers)[0]


def _grid_axis(resolution: int):
    """i/(resolution-1) for i < resolution: the points at which region_grid
    evaluates its cells and the region report prints them."""
    return np.arange(resolution) / (resolution - 1)


def region_grid(rel: RelationId, c00: float, resolution: int):
    """Admissibility over the (p0, q0) square at fixed qubit overlap c00.

    Cell (i, j) covers p0 = i/(resolution-1), q0 = j/(resolution-1).
    """
    if not 0.0 <= c00 <= 1.0:
        raise ValidationError(f"c00 must lie in [0, 1], got {c00}")
    if resolution < 2:
        raise ValidationError(f"resolution must be >= 2, got {resolution}")
    axis = _grid_axis(resolution)
    p0, q0 = np.meshgrid(axis, axis, indexing="ij")
    p, q = _qubit_rows(p0.ravel()), _qubit_rows(q0.ravel())
    c = _qubit_overlaps(np.full(p0.size, float(c00)))
    return _accepts(rel, p, q, _shared_arrays(p, q, c)).reshape(resolution, resolution)


def coherence_bounds(rho: DensityMatrix, a: OrthonormalBasis, b: OrthonormalBasis,
                     base: float = 2.0) -> tuple[float, float, float]:
    """U_re's `_dpi_chain` on one instance, (upper, exact, lower): the
    operational sandwich around the relative entropy of coherence.
    upper = H(p), exact = H(p) - S(rho) clipped at 0, lower = KL(q || q')
    with q' the post-dephasing statistics of the second basis. exact and
    lower are the two sides of the relative_entropy DPI, so exact - lower is
    its margin.
    """
    upper, exact, lower = _dpi_chain(RelationId("U_re"), _frame_of_one(rho, a, b), base)
    return float(upper[0]), max(float(exact[0]), 0.0), float(lower[0])


def simulate_shots(rho: DensityMatrix, a: OrthonormalBasis | None,
                   b: OrthonormalBasis, n: int, seed: int) -> np.ndarray:
    """Read-only multinomial counts of n shots measuring B directly (a=None),
    shape (d,), or A then B, shape (d, d) indexed by (A outcome, B outcome).

    p and C are those of `_frame_of_one`; measuring B directly is measuring
    it first, so its probabilities are the p of the instance (rho, B, B).
    Each kind draws from its own role stream of `seed`, so neither shares
    bits with the other or with an instance drawn from stream(seed).
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    kind = "direct_B" if a is None else "sequential_AB"
    batch = _frame_of_one(rho, b if a is None else a, b)
    joint = batch.p[0] if a is None else batch.p[0][:, None] * batch.overlap[0]
    counts = role_stream(seed, kind).multinomial(n, joint.ravel() / joint.sum())
    return _frozen(counts.reshape(joint.shape))


def estimate_coherence(direct, sequential, smoothing: float = 0.5, base: float = 2.0):
    """Plug-in coherence bounds (lower, upper): U_re's sides on finite counts.

    direct holds the (d,) counts of measuring B directly and sequential the
    (d, d) counts of A then B, as `simulate_shots` returns them; every entry
    must be a finite, non-negative whole number. Adds
    `smoothing` pseudo-counts per cell before normalizing; smoothing 0 keeps
    the support-violation semantics (lower may be +inf).
    """
    direct, sequential = np.asarray(direct), np.asarray(sequential)
    d = direct.size
    if direct.shape != (d,) or sequential.shape != (d, d) or d < 2:
        raise ValidationError(f"counts must have shapes (d,) and (d, d), d >= 2, "
                              f"got {direct.shape} and {sequential.shape}")
    cells = np.concatenate([direct, sequential.ravel()])
    if not np.all(np.isfinite(cells) & (cells >= 0) & (cells == np.floor(cells))):
        raise ValidationError("counts must be finite, non-negative whole numbers")
    total, seq_total = direct.sum(), sequential.sum()
    if total == 0 or seq_total == 0:
        raise ValidationError("need at least one shot in each record")
    if not 0.0 <= smoothing < math.inf:
        raise ValidationError(f"smoothing must be finite and >= 0, got {smoothing}")
    q_hat = (direct + smoothing) / (total + d * smoothing)
    p_hat = (sequential.sum(axis=1) + smoothing) / (seq_total + d * smoothing)
    qp_hat = (sequential.sum(axis=0) + smoothing) / (seq_total + d * smoothing)
    upper, lower = relation_sides(RelationId("U_re"), p_hat, q_hat, qp_hat, base=base)
    return float(lower), float(upper)


# The paper's Table 2: reference feasible-region volumes by relation, at
# d=2 and d=3, that the regression suite and the table2 --compare report read.
# Its keys, in order, are the relations table2 tabulates.
TABLE2_REFERENCE = {
    RelationId("U_tr"): {2: 0.930, 3: 0.94675},
    RelationId("U_tr_prime"): {2: 0.705, 3: 0.94682},
    RelationId("U_rd", alpha=0.5): {2: 0.787, 3: 0.917},
    RelationId("U_re"): {2: 0.770, 3: 0.905},
    RelationId("U_ts", alpha=0.5): {2: 0.814, 3: 0.937},
    RelationId("U_hs"): {2: 0.705, 3: 0.887},
    RelationId("EUR_MU", alpha=1.0, beta=1.0): {2: 0.974, 3: 0.999},
}


def table2_relations() -> tuple[RelationId, ...]:
    """The seven relations whose feasible-region volumes are tabulated."""
    return tuple(TABLE2_REFERENCE)
