"""Shared fixtures: the qubit instance used throughout (plus state, Z then X),
and the independent checks the tests hold the program to:

- `oracle_qdiv`, the scalar quantum divergences of two states as first
  written, one kernel per kind, kept as the reference `_dephased` must
  match on an A-frame pair (rho, diag p);
- `sample`, one seeded Haar state or basis;
- `born`, a basis's outcome distribution by the Born rule, and
  `triple_of`, an instance's (p, q, q', C) read from it and from
  C = |A^dag B|^2, apart from the program's A-frame reduction;
- `oracle_dephase`, the A-dephased state built as a matrix from the Born
  rule, and `sequential_dist`, the classical q' = p C, which the A-frame
  reduction must factor through;
- `majorizes`, the partial-sum order behind the Schur-concavity checks;
- `power`, a state's pseudo-power from the eigendecomposition of its
  matrix, and
  `fidelity`, the Uhlmann fidelity from an SVD of sqrt(rho1) sqrt(rho2),
  a second formula beside the sandwiched trace the kernels use;
- `verdict_of`, one relation judged on one (p, q, q') triple of plain
  arrays from `relation_sides` and `satisfied_mask` alone, with no
  forward/dual rule.
"""

import math

import numpy as np
import pytest

from qud.errors import ValidationError
from qud.qstate import (
    ZERO_CUTOFF,
    DensityMatrix,
    OrthonormalBasis,
    _check_dim,
    _check_same_dim,
    _haar_frames,
    _haar_unitaries,
    _pseudo_power,
    fourier_basis,
    make_basis,
    make_density,
    standard_basis,
)
from qud.relations import RelationId, RelationVerdict, relation_sides, satisfied_mask
from qud.rng import stream

RT2 = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="session")
def plus_state():
    return make_density(np.full((2, 2), 0.5))


@pytest.fixture(scope="session")
def zero_state():
    return make_density(np.diag([1.0, 0.0]))


@pytest.fixture(scope="session")
def z_basis():
    return standard_basis(2)


@pytest.fixture(scope="session")
def x_basis():
    return fourier_basis(2)


@pytest.fixture(scope="session")
def f1(plus_state, z_basis, x_basis):
    """(rho, A, B) with p = (1/2, 1/2), q = (1, 0), q' = (1/2, 1/2)."""
    return plus_state, z_basis, x_basis


SAMPLE_KINDS = ("haar_state_pure", "haar_state_mixed", "haar_unitary_basis")


def sample(kind: str, dim: int, seed: int):
    """Draw one object of the given kind; bit-reproducible in (kind, dim, seed)."""
    _check_dim(dim)
    rng = stream(seed)
    if kind in ("haar_state_pure", "haar_state_mixed"):
        rho = _haar_frames(rng, 1, dim, pure=kind == "haar_state_pure")[0]
        return make_density(rho[0])
    if kind == "haar_unitary_basis":
        return make_basis(_haar_unitaries(rng, 1, dim)[0])
    raise ValidationError(f"unknown sample kind {kind!r}; expected one of {SAMPLE_KINDS}")


def triple_of(rho, a, b):
    """(p, q, qp, c) arrays for a measured instance: p and q by the Born rule
    in A and in B, C = |A^dag B|^2 and q' = p C."""
    p, q = born(rho, a), born(rho, b)
    c = np.abs(a.kets.conj().T @ b.kets) ** 2
    return p, q, sequential_dist(p, c), c


# ---------------------------------------------------------------------------
# scalar oracles the package no longer carries


def _check_same_len(x, y):
    if len(x) != len(y):
        raise ValidationError(f"dimensions differ: {len(x)} vs {len(y)}")


def born(rho: DensityMatrix, basis: OrthonormalBasis) -> np.ndarray:
    """Born probabilities p_k = <a_k| rho |a_k>, clipped at 0."""
    _check_same_dim(rho, basis)
    u = basis.kets
    return np.clip(np.real(np.einsum("ik,ij,jk->k", u.conj(), rho.matrix, u)), 0.0, None)


def oracle_dephase(rho: DensityMatrix, basis: OrthonormalBasis) -> DensityMatrix:
    """Project onto the basis diagonal: sum_k p_k |a_k><a_k|."""
    u = basis.kets
    p = born(rho, basis)
    matrix = (u * p) @ u.conj().T
    return DensityMatrix((matrix + matrix.conj().T) / 2.0)


def sequential_dist(p, c) -> np.ndarray:
    """Statistics of the second measurement after dephasing by the first:
    q'_j = sum_i p_i c_ij. With the roles of the two bases exchanged, the
    dual map is the forward map of c.T.
    """
    _check_same_len(p, c)
    out = np.clip(np.asarray(p) @ c, 0.0, 1.0)
    return out / out.sum()


def spectrum(rho: DensityMatrix):
    """(eigenvalues clipped to [0, 1], eigenvectors) of the state's matrix."""
    lam, vec = np.linalg.eigh(rho.matrix)
    return np.clip(lam, 0.0, 1.0), vec


def power(rho: DensityMatrix, exponent: float) -> np.ndarray:
    """Pseudo-power on the support: kernel eigenvalues stay zero."""
    lam, vec = spectrum(rho)
    return (vec * _pseudo_power(lam, exponent)) @ vec.conj().T


def fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho2) rho1 sqrt(rho2)), clipped to [0, 1]."""
    _check_same_dim(rho1, rho2)
    cross = power(rho1, 0.5) @ power(rho2, 0.5)
    sv = np.linalg.svd(cross, compute_uv=False)
    return float(np.clip(sv.sum(), 0.0, 1.0))


def majorizes(p1, p2) -> bool:
    """True when every partial sum of p1 (sorted down) weakly dominates p2's."""
    _check_same_len(p1, p2)
    a = np.cumsum(np.sort(p1)[::-1])
    b = np.cumsum(np.sort(p2)[::-1])
    return bool(np.all(a - b >= -1e-10))


def verdict_of(rel: RelationId, p, q, qp, c=None) -> RelationVerdict:
    """The forward verdict of one relation on (p, q, q'), in bits; the
    overlap matrix supplies cmax, which only the EUR_* relations read."""
    cmax = None if c is None else np.array([np.max(c)])
    sides = relation_sides(rel, *(np.asarray(x)[None] for x in (p, q, qp)), cmax)
    lhs, rhs = (float(side[0]) for side in sides)
    return RelationVerdict(lhs, rhs, lhs - rhs, bool(satisfied_mask(lhs, rhs)))


# ---------------------------------------------------------------------------
# the oracle: the scalar quantum kernels that `_dephased` replaced

# mass of rho1 allowed outside the support of rho2 before declaring +inf
SUPPORT_LEAK_TOL = 1e-9


def _trace_distance(rho1, rho2):
    diff = rho1.matrix - rho2.matrix
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def _sandwiched_renyi(rho1, rho2, alpha):
    c = (1.0 - alpha) / (2.0 * alpha)
    half = power(rho2, c)
    core = half @ rho1.matrix @ half
    lam = np.clip(np.linalg.eigvalsh((core + core.conj().T) / 2.0), 0.0, None)
    total = float(_pseudo_power(lam, alpha).sum())
    if total <= ZERO_CUTOFF:
        return math.inf
    return math.log(total) / (math.log(2.0) * (alpha - 1.0))


def _tsallis_quantum(rho1, rho2, alpha):
    cross = float(np.real(np.trace(power(rho1, alpha) @ power(rho2, 1.0 - alpha))))
    return (1.0 - cross) / (1.0 - alpha)


def _relative_entropy(rho1, rho2):
    lam1 = spectrum(rho1)[0]
    lam2, vec2 = spectrum(rho2)
    # mass of rho1 on the kernel of rho2
    weights = np.real(np.einsum("ij,ik,jk->k", rho1.matrix, vec2.conj(), vec2))
    weights = np.clip(weights, 0.0, None)
    kernel = lam2 <= ZERO_CUTOFF
    if float(weights[kernel].sum()) > SUPPORT_LEAK_TOL:
        return math.inf
    on1 = lam1 > ZERO_CUTOFF
    term1 = float((lam1[on1] * np.log(lam1[on1])).sum())
    on2 = ~kernel
    term2 = float((weights[on2] * np.log(lam2[on2])).sum())
    return (term1 - term2) / math.log(2.0)


def oracle_qdiv(kind: str, alpha: float | None, rho1: DensityMatrix,
                rho2: DensityMatrix) -> float:
    """Divergence `kind` at order alpha between two states; entropic kinds
    are in bits."""
    _check_same_dim(rho1, rho2)
    if kind == "trace":
        return _trace_distance(rho1, rho2)
    if kind == "infidelity":
        f = fidelity(rho1, rho2)
        return float(np.sqrt(max(1.0 - f * f, 0.0)))
    if kind == "renyi_sandwiched":
        return _sandwiched_renyi(rho1, rho2, alpha)
    if kind == "tsallis":
        return _tsallis_quantum(rho1, rho2, alpha)
    if kind == "relative_entropy":
        return _relative_entropy(rho1, rho2)
    return float(np.linalg.norm(rho1.matrix - rho2.matrix))
