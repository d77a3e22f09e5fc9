import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qud.errors import ValidationError
from qud.qstate import _haar_unitaries
from qud.rng import stream
from qud.uncertainty import (
    _measure,
    delta_measure,
    half_norm_measure,
    renyi_entropy,
    shannon_entropy,
)

from conftest import RT2, majorizes


def test_umeasure_fixtures():
    half = np.array([0.5, 0.5])
    assert_allclose(_measure("delta", None, half), RT2, atol=1e-12)
    assert_allclose(_measure("renyi", 2.0, half), 1.0, atol=1e-12)
    assert_allclose(_measure("shannon", None, np.array([1.0, 0.0])), 0.0, atol=0)
    assert_allclose(_measure("half_norm", None, half), 0.5, atol=1e-12)
    signed_point_mass = np.array([[1.0, -0.0, -0.0]])
    for kind in ("delta", "half_norm"):  # its value is +0.0, as numpy's reduce gives
        assert math.copysign(1.0, _measure(kind, None, signed_point_mass)[0]) == 1.0


@pytest.mark.parametrize("kind", ["delta", "renyi", "shannon", "half_norm"])
def test_umeasure_is_the_batched_map_on_one_distribution(kind):
    # a 1-d distribution is a batch of one: each row alone gives the batch's
    # value, bit for bit; rows with zeros and a point mass, so every zero
    # convention is exercised
    draws = stream(5).dirichlet(np.ones(3), 64)
    draws[:16, 0] = 0.0
    draws[16] = (1.0, 0.0, 0.0)
    probs = draws / draws.sum(axis=1, keepdims=True)
    for alpha in ((0.5, 2.0) if kind == "renyi" else (None,)):
        for base in (2.0, np.e):
            rows = [float(_measure(kind, alpha, row, base)) for row in probs]
            assert _measure(kind, alpha, probs, base).tolist() == rows, (alpha, base)


def test_renyi_three_halves_value():
    # cross-checked against a 30-digit mpmath evaluation
    got = renyi_entropy(np.array([0.85355, 0.14645]), 1.5)
    assert_allclose(got, 0.4872498464904143, atol=1e-12)


def test_renyi_alpha_one_matches_shannon():
    # the relations never ask for alpha = 1; the array kernel takes the limit
    probs = np.array([0.6, 0.3, 0.1])
    assert_allclose(renyi_entropy(probs, 1.0), shannon_entropy(probs), atol=1e-12)


def test_renyi_alpha_zero_counts_support():
    assert_allclose(renyi_entropy(np.array([0.5, 0.5, 0.0]), 0.0), 1.0, atol=1e-12)
    assert_allclose(renyi_entropy(np.array([0.9, 0.05, 0.05]), 0.0), np.log2(3), atol=1e-12)


def test_renyi_rejects_negative_alpha():
    with pytest.raises(ValidationError, match="alpha must be finite and >= 0"):
        renyi_entropy(np.array([0.5, 0.5]), -0.5)


@pytest.mark.parametrize("alpha", [np.inf, np.nan])
def test_renyi_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValidationError, match="alpha must be finite and >= 0"):
        renyi_entropy(np.array([0.5, 0.5]), alpha)


MEASURES = (("delta", None), ("shannon", None), ("half_norm", None))


def test_zero_exactly_on_deterministic_distributions():
    point = np.array([0.0, 1.0, 0.0])
    spread = np.array([0.8, 0.1, 0.1])
    for kind, alpha in (*MEASURES, ("renyi", 0.5), ("renyi", 3.0)):
        assert _measure(kind, alpha, point) == pytest.approx(0.0, abs=1e-12)
        assert _measure(kind, alpha, spread) > 0.01


@pytest.mark.parametrize("alpha", [0.3, 0.5, 2.0, 7.0])
def test_uniform_renyi_is_log_dim(alpha):
    for dim in (2, 3, 5):
        uniform = np.full(dim, 1.0 / dim)
        assert_allclose(renyi_entropy(uniform, alpha), np.log2(dim), atol=1e-12)


def test_uniform_maximizes_every_measure():
    rng = stream(404)
    for kind, alpha in (*MEASURES, ("renyi", 0.5), ("renyi", 2.0)):
        for dim in (2, 3, 4):
            top = _measure(kind, alpha, np.full(dim, 1.0 / dim))
            for _ in range(50):
                value = _measure(kind, alpha, rng.dirichlet(np.ones(dim)))
                assert 0.0 <= value <= top + 1e-9


def test_base_e_shannon():
    p = np.array([0.5, 0.5])
    assert_allclose(shannon_entropy(p, base=np.e), np.log(2.0), atol=1e-12)


def test_collision_identity():
    # H_2(p) = -log(1 - delta(p)^2)
    probs = stream(17).dirichlet(np.ones(4), size=500)
    h2 = renyi_entropy(probs, 2.0)
    delta = delta_measure(probs)
    assert np.abs(h2 + np.log2(1.0 - delta**2)).max() < 1e-9


@pytest.mark.parametrize("k", range(2, 19))
def test_delta_keeps_its_digits_near_a_point_mass(k):
    # p = (1 - eps, eps, 0): delta(p) = sqrt(2 eps (1 - eps)) exactly, and
    # 1 - sum p^2 would cancel all but the last bits of it
    eps = 10.0**-k
    exact = math.sqrt(2 * Fraction(eps) * (1 - Fraction(eps)))
    got = float(delta_measure(np.array([1.0 - eps, eps, 0.0])))
    assert abs(got - exact) <= 1e-12 * exact, (got, exact)


@pytest.mark.parametrize("k", range(2, 19))
def test_half_norm_keeps_its_digits_near_a_point_mass(k):
    # p = (1 - eps, eps, 0): the half-norm is sqrt(eps (1 - eps)) exactly,
    # and ((sum sqrt p)^2 - 1) / 2 would cancel half its digits at eps = 1e-16
    eps = 10.0**-k
    exact = math.sqrt(Fraction(eps) * (1 - Fraction(eps)))
    got = float(half_norm_measure(np.array([1.0 - eps, eps, 0.0])))
    assert abs(got - exact) <= 1e-12 * exact, (got, exact)


def test_renyi_entropy_decreases_in_alpha():
    probs = stream(18).dirichlet(np.ones(3), size=300)
    alphas = [0.3, 0.5, 0.9, 1.0, 1.5, 2.0, 5.0]
    values = [renyi_entropy(probs, a) for a in alphas]
    for lower, higher in zip(values[1:], values[:-1]):
        assert (lower <= higher + 1e-9).all()


def test_half_norm_matches_pairwise_root_products():
    # for d = 2 the measure reduces to sqrt(p0 p1)
    probs = stream(19).dirichlet(np.ones(2), size=200)
    expected = np.sqrt(probs[:, 0] * probs[:, 1])
    assert_allclose(half_norm_measure(probs), expected, atol=1e-10)
    # both cross-term measures against the loop over i < j: the same products
    # added in another order, so within one rounding per pair
    for dim in (3, 5, 9):
        probs = stream(19 + dim).dirichlet(np.ones(dim), size=200)
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        roots = np.sqrt(probs)
        tol = len(pairs) * np.finfo(np.float64).eps
        assert_allclose(half_norm_measure(probs),
                        sum(roots[:, i] * roots[:, j] for i, j in pairs), rtol=tol, atol=0)
        assert_allclose(delta_measure(probs),
                        np.sqrt(sum(2.0 * probs[:, i] * probs[:, j] for i, j in pairs)),
                        rtol=tol, atol=0)


def test_majorizes_fixtures():
    top = np.array([1.0, 0.0, 0.0])
    uniform = np.full(3, 1 / 3)
    mid = np.array([0.6, 0.3, 0.1])
    assert majorizes(top, uniform)
    assert majorizes(top, mid)
    assert not majorizes(uniform, mid)
    assert majorizes(uniform, uniform)
    assert majorizes(np.array([0.7, 0.2, 0.1]), mid)


def test_majorizes_incomparable_pair():
    p1 = np.array([0.5, 0.5, 0.0])
    p2 = np.array([0.6, 0.2, 0.2])
    assert not majorizes(p1, p2)
    assert not majorizes(p2, p1)


def test_majorizes_ignores_ordering_of_entries():
    assert majorizes(np.array([0.1, 0.9]), np.array([0.6, 0.4]))


def test_majorizes_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimensions differ"):
        majorizes(np.array([0.5, 0.5]), np.array([0.5, 0.3, 0.2]))


def _mixing_pairs(dim, count, seed):
    """(sharper, flatter) pairs: flattening by a doubly stochastic map."""
    rng = stream(seed)
    sharp = rng.dirichlet(np.ones(dim), size=count)
    mixers = np.abs(_haar_unitaries(rng, count, dim)) ** 2
    flat = np.einsum("ni,nij->nj", sharp, mixers)
    return sharp, flat


def test_schur_concavity_under_mixing():
    for dim in (2, 3, 4):
        sharp, flat = _mixing_pairs(dim, 700, 600 + dim)
        for k in range(0, 700, 7):
            assert majorizes(sharp[k], flat[k])
        for fn in (
            delta_measure,
            shannon_entropy,
            half_norm_measure,
            lambda p: renyi_entropy(p, 0.5),
            lambda p: renyi_entropy(p, 2.0),
        ):
            assert (fn(sharp) <= fn(flat) + 1e-9).all()
