import numpy as np
import pytest
from numpy.testing import assert_allclose

from qud.errors import ValidationError
from qud.qstate import _haar_unitaries, make_prob
from qud.rng import stream
from qud.uncertainty import (
    UMEASURE_KINDS,
    UncertaintySpec,
    _measure,
    delta_measure,
    half_norm_measure,
    renyi_entropy,
    shannon_entropy,
    umeasure,
)

from conftest import RT2, majorizes


def test_spec_validation():
    UncertaintySpec("delta")
    UncertaintySpec("renyi", 2.0)
    with pytest.raises(ValueError):
        UncertaintySpec("variance")
    with pytest.raises(ValidationError, match="renyi needs finite alpha > 0, alpha != 1"):
        UncertaintySpec("renyi")
    with pytest.raises(ValidationError, match="renyi needs finite alpha > 0, alpha != 1"):
        UncertaintySpec("renyi", 0.0)
    with pytest.raises(ValidationError, match="renyi needs finite alpha > 0, alpha != 1"):
        UncertaintySpec("renyi", 1.0)
    for bad in (np.nan, np.inf, -np.inf):  # at construction, not later in renyi_entropy
        with pytest.raises(ValidationError, match="renyi needs finite alpha > 0, alpha != 1"):
            UncertaintySpec("renyi", bad)
    with pytest.raises(ValidationError, match="shannon takes no alpha"):
        UncertaintySpec("shannon", 2.0)


def test_umeasure_fixtures():
    half = make_prob([0.5, 0.5])
    assert_allclose(umeasure(UncertaintySpec("delta"), half), RT2, atol=1e-12)
    assert_allclose(umeasure(UncertaintySpec("renyi", 2.0), half), 1.0, atol=1e-12)
    assert_allclose(umeasure(UncertaintySpec("shannon"), make_prob([1.0, 0.0])), 0.0, atol=0)
    assert_allclose(umeasure(UncertaintySpec("half_norm"), half), 0.5, atol=1e-12)


@pytest.mark.parametrize("kind", UMEASURE_KINDS)
def test_umeasure_is_the_batched_map_on_one_distribution(kind):
    # rows with zeros and a point mass, so every zero convention is exercised
    draws = stream(5).dirichlet(np.ones(3), 64)
    draws[:16, 0] = 0.0
    draws[16] = (1.0, 0.0, 0.0)
    dists = [make_prob(row / row.sum()) for row in draws]
    probs = np.stack([dist.probs for dist in dists])
    for alpha in ((0.5, 2.0) if kind == "renyi" else (None,)):
        spec = UncertaintySpec(kind, alpha)
        for base in (2.0, np.e):
            rows = [umeasure(spec, dist, base) for dist in dists]
            assert _measure(kind, alpha, probs, base).tolist() == rows, (alpha, base)


def test_renyi_three_halves_value():
    # cross-checked against a 30-digit mpmath evaluation
    p = make_prob([0.85355, 0.14645])
    got = umeasure(UncertaintySpec("renyi", 1.5), p)
    assert_allclose(got, 0.4872498464904143, atol=1e-12)


def test_renyi_alpha_one_matches_shannon():
    # UncertaintySpec forbids alpha = 1; the array kernel takes the limit
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
    with pytest.raises(ValidationError, match="renyi needs finite alpha > 0, alpha != 1"):
        umeasure(UncertaintySpec("renyi", alpha), make_prob([0.5, 0.5]))


def test_zero_exactly_on_deterministic_distributions():
    point = make_prob([0.0, 1.0, 0.0])
    spread = make_prob([0.8, 0.1, 0.1])
    for spec in (
        UncertaintySpec("delta"),
        UncertaintySpec("shannon"),
        UncertaintySpec("half_norm"),
        UncertaintySpec("renyi", 0.5),
        UncertaintySpec("renyi", 3.0),
    ):
        assert umeasure(spec, point) == pytest.approx(0.0, abs=1e-12)
        assert umeasure(spec, spread) > 0.01


@pytest.mark.parametrize("alpha", [0.3, 0.5, 2.0, 7.0])
def test_uniform_renyi_is_log_dim(alpha):
    for dim in (2, 3, 5):
        uniform = make_prob(np.full(dim, 1.0 / dim))
        assert_allclose(umeasure(UncertaintySpec("renyi", alpha), uniform), np.log2(dim), atol=1e-12)


def test_uniform_maximizes_every_measure():
    rng = stream(404)
    for spec in (
        UncertaintySpec("delta"),
        UncertaintySpec("shannon"),
        UncertaintySpec("half_norm"),
        UncertaintySpec("renyi", 0.5),
        UncertaintySpec("renyi", 2.0),
    ):
        for dim in (2, 3, 4):
            top = umeasure(spec, make_prob(np.full(dim, 1.0 / dim)))
            for _ in range(50):
                p = make_prob(rng.dirichlet(np.ones(dim)))
                value = umeasure(spec, p)
                assert 0.0 <= value <= top + 1e-9


def test_base_e_shannon():
    p = make_prob([0.5, 0.5])
    assert_allclose(umeasure(UncertaintySpec("shannon"), p, base=np.e), np.log(2.0), atol=1e-12)


def test_collision_identity():
    # H_2(p) = -log(1 - delta(p)^2)
    probs = stream(17).dirichlet(np.ones(4), size=500)
    h2 = renyi_entropy(probs, 2.0)
    delta = delta_measure(probs)
    assert np.abs(h2 + np.log2(1.0 - delta**2)).max() < 1e-9


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


def test_majorizes_fixtures():
    top = make_prob([1.0, 0.0, 0.0])
    uniform = make_prob(np.full(3, 1 / 3))
    mid = make_prob([0.6, 0.3, 0.1])
    assert majorizes(top, uniform)
    assert majorizes(top, mid)
    assert not majorizes(uniform, mid)
    assert majorizes(uniform, uniform)
    assert majorizes(make_prob([0.7, 0.2, 0.1]), mid)


def test_majorizes_incomparable_pair():
    p1 = make_prob([0.5, 0.5, 0.0])
    p2 = make_prob([0.6, 0.2, 0.2])
    assert not majorizes(p1, p2)
    assert not majorizes(p2, p1)


def test_majorizes_ignores_ordering_of_entries():
    assert majorizes(make_prob([0.1, 0.9]), make_prob([0.6, 0.4]))


def test_majorizes_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimensions differ"):
        majorizes(make_prob([0.5, 0.5]), make_prob([0.5, 0.3, 0.2]))


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
            assert majorizes(make_prob(sharp[k]), make_prob(flat[k]))
        for fn in (
            delta_measure,
            shannon_entropy,
            half_norm_measure,
            lambda p: renyi_entropy(p, 0.5),
            lambda p: renyi_entropy(p, 2.0),
        ):
            assert (fn(sharp) <= fn(flat) + 1e-9).all()
