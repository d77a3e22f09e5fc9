"""Shared fixtures: the qubit instance used throughout (plus state, Z then X),
and `oracle_qdiv`, the scalar quantum divergences as first written, one
kernel per kind, kept as the reference `qdiv` must match.
"""

import math

import numpy as np
import pytest

from qud.divergence import SUPPORT_LEAK_TOL, DivergenceSpec
from qud.qstate import (
    ZERO_CUTOFF,
    DensityMatrix,
    _check_same_dim,
    _pseudo_power,
    fidelity,
    fourier_basis,
    make_density,
    outcome_dist,
    overlap_matrix,
    sequential_dist,
    standard_basis,
)

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


def triple_of(rho, a, b):
    """(p, q, qp, c) statistics for a measured instance."""
    p = outcome_dist(rho, a)
    q = outcome_dist(rho, b)
    c = overlap_matrix(a, b)
    qp = sequential_dist(p, c)
    return p, q, qp, c


# ---------------------------------------------------------------------------
# the oracle: qdiv's scalar kernels, which batch-of-one qdiv replaced


def _trace_distance(rho1, rho2):
    diff = rho1.matrix - rho2.matrix
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


def _sandwiched_renyi(rho1, rho2, alpha):
    c = (1.0 - alpha) / (2.0 * alpha)
    half = rho2.power(c)
    core = half @ rho1.matrix @ half
    lam = np.clip(np.linalg.eigvalsh((core + core.conj().T) / 2.0), 0.0, None)
    total = float(_pseudo_power(lam, alpha).sum())
    if total <= ZERO_CUTOFF:
        return math.inf
    return math.log(total) / (math.log(2.0) * (alpha - 1.0))


def _tsallis_quantum(rho1, rho2, alpha):
    cross = float(np.real(np.trace(rho1.power(alpha) @ rho2.power(1.0 - alpha))))
    return (1.0 - cross) / (1.0 - alpha)


def _relative_entropy(rho1, rho2):
    lam1 = rho1.eigenvalues
    lam2 = rho2.eigenvalues
    # mass of rho1 on the kernel of rho2
    weights = np.real(
        np.einsum("ij,ik,jk->k", rho1.matrix, rho2.eigenvectors.conj(), rho2.eigenvectors)
    )
    weights = np.clip(weights, 0.0, None)
    kernel = lam2 <= ZERO_CUTOFF
    if float(weights[kernel].sum()) > SUPPORT_LEAK_TOL:
        return math.inf
    on1 = lam1 > ZERO_CUTOFF
    term1 = float((lam1[on1] * np.log(lam1[on1])).sum())
    on2 = ~kernel
    term2 = float((weights[on2] * np.log(lam2[on2])).sum())
    return (term1 - term2) / math.log(2.0)


def oracle_qdiv(spec: DivergenceSpec, rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Divergence between two states; entropic kinds are in bits."""
    _check_same_dim(rho1, rho2)
    if spec.kind == "trace":
        return _trace_distance(rho1, rho2)
    if spec.kind == "infidelity":
        f = fidelity(rho1, rho2)
        return float(np.sqrt(max(1.0 - f * f, 0.0)))
    if spec.kind == "renyi_sandwiched":
        return _sandwiched_renyi(rho1, rho2, spec.alpha)
    if spec.kind == "tsallis":
        return _tsallis_quantum(rho1, rho2, spec.alpha)
    if spec.kind == "relative_entropy":
        return _relative_entropy(rho1, rho2)
    return float(np.linalg.norm(rho1.matrix - rho2.matrix))
