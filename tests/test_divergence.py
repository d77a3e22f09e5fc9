import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qud.divergence import (
    DIVERGENCE_KINDS,
    GAUGEABLE_KINDS,
    DivergenceSpec,
    _classical,
    gauge_inverse,
    kl_divergence,
    power_overlap,
    qdiv,
    renyi_divergence,
    tsallis_divergence,
)
from qud.errors import ValidationError
from qud.qstate import (
    _ginibre_states,
    _haar_unitaries,
    make_density,
)
from qud.rng import stream

from conftest import RT2, fidelity, oracle_qdiv


def _eye(dim):
    return make_density(np.eye(dim) / dim)


def _alpha_for(kind):
    return 0.5 if kind in ("renyi_sandwiched", "tsallis") else None


def _all_specs():
    out = []
    for kind in DIVERGENCE_KINDS:
        if kind == "renyi_sandwiched":
            out += [DivergenceSpec(kind, a) for a in (0.5, 0.75, 0.99)]
        elif kind == "tsallis":
            out += [DivergenceSpec(kind, a) for a in (0.0, 0.5, 0.9)]
        else:
            out.append(DivergenceSpec(kind))
    return out


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    DivergenceSpec("trace")
    DivergenceSpec("renyi_sandwiched", 0.5)
    DivergenceSpec("tsallis", 0.0)
    with pytest.raises(ValueError):
        DivergenceSpec("bures")
    for bad in (0.4, 1.0, None):
        with pytest.raises(ValidationError, match="renyi_sandwiched needs 0.5 <= alpha < 1,"):
            DivergenceSpec("renyi_sandwiched", bad)
    for bad in (-0.1, 1.0, None):
        with pytest.raises(ValidationError, match="tsallis needs 0 <= alpha < 1,"):
            DivergenceSpec("tsallis", bad)
    with pytest.raises(ValidationError, match="trace takes no alpha"):
        DivergenceSpec("trace", 0.5)


# ---------------------------------------------------------------------------
# quantum divergences


def test_qdiv_fixtures_plus_vs_maximally_mixed(plus_state):
    eye2 = _eye(2)
    assert_allclose(qdiv(DivergenceSpec("trace"), plus_state, eye2), 0.5, atol=1e-12)
    assert_allclose(qdiv(DivergenceSpec("infidelity"), plus_state, eye2), RT2, atol=1e-12)
    assert_allclose(
        qdiv(DivergenceSpec("relative_entropy"), plus_state, eye2), 1.0, atol=1e-12
    )
    assert_allclose(
        qdiv(DivergenceSpec("renyi_sandwiched", 0.5), plus_state, eye2), 1.0, atol=1e-12
    )
    assert_allclose(
        qdiv(DivergenceSpec("tsallis", 0.5), plus_state, eye2),
        2.0 * (1.0 - RT2),
        atol=1e-12,
    )
    assert_allclose(qdiv(DivergenceSpec("hilbert_schmidt"), plus_state, eye2), RT2, atol=1e-12)


def test_qdiv_zero_on_identical_states():
    rho = make_density(_ginibre_states(stream(7), 1, 3)[0])
    for spec in _all_specs():
        # sqrt(1 - F^2) turns the ~1e-15 fidelity rounding into ~1e-8
        tol = 1e-7 if spec.kind == "infidelity" else 1e-9
        assert abs(qdiv(spec, rho, rho)) < tol


def test_qdiv_faithful():
    rng = stream(8)
    pair = _ginibre_states(rng, 2, 3)
    r1, r2 = make_density(pair[0]), make_density(pair[1])
    for spec in _all_specs():
        if spec.kind == "tsallis" and spec.alpha == 0.0:
            # order zero only sees the support projector, not the weights
            continue
        assert qdiv(spec, r1, r2) > 1e-4


def test_relative_entropy_support_violation(plus_state, zero_state):
    one = make_density(np.diag([0.0, 1.0]))
    assert qdiv(DivergenceSpec("relative_entropy"), zero_state, one) == np.inf
    assert qdiv(DivergenceSpec("relative_entropy"), _eye(2), zero_state) == np.inf
    # support contained the other way round stays finite
    assert np.isfinite(qdiv(DivergenceSpec("relative_entropy"), zero_state, _eye(2)))


def test_sandwiched_renyi_disjoint_support_is_infinite(zero_state):
    one = make_density(np.diag([0.0, 1.0]))
    assert qdiv(DivergenceSpec("renyi_sandwiched", 0.5), zero_state, one) == np.inf


def test_qdiv_dimension_mismatch(plus_state):
    with pytest.raises(ValidationError, match="dimensions differ"):
        qdiv(DivergenceSpec("trace"), plus_state, _eye(3))


def test_qdiv_unitary_invariance():
    rng = stream(9)
    pair = _ginibre_states(rng, 2, 3)
    r1, r2 = make_density(pair[0]), make_density(pair[1])
    for k in range(20):
        u = _haar_unitaries(rng, 1, 3)[0]
        s1 = make_density(u @ r1.matrix @ u.conj().T)
        s2 = make_density(u @ r2.matrix @ u.conj().T)
        for spec in _all_specs():
            assert abs(qdiv(spec, s1, s2) - qdiv(spec, r1, r2)) < 1e-9


# every kind on an order grid; tsallis at order 0 is left out, since there a
# full-rank pair's value is a rounding-level zero
ORACLE_SPECS = [DivergenceSpec(kind, alpha) for kind in DIVERGENCE_KINDS
                for alpha in {"renyi_sandwiched": (0.5, 0.75, 0.95),
                              "tsallis": (0.25, 0.5, 0.9)}.get(kind, (None,))]


def _assert_matches_oracle(spec, r1, r2):
    # near 0 the rounding of a log near 1, over 1 - alpha, is ~1e-14 absolute
    got, want = qdiv(spec, r1, r2), oracle_qdiv(spec, r1, r2)
    if math.isinf(want) or math.isinf(got):
        assert got == want, spec
    else:
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-13), (spec, got, want)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_qdiv_matches_the_oracle_on_general_pairs(dim):
    # Ginibre-mixed, Haar-pure and rank-2 states, every ordered pair
    rng = stream(20 + dim)
    mixed = _ginibre_states(rng, 6, dim)
    kets = _haar_unitaries(rng, 6, dim, 1)[:, :, 0]
    pure = kets[:, :, None] * kets[:, None, :].conj()
    lam, vec = np.linalg.eigh(_ginibre_states(rng, 6, dim))
    lam[:, :-2] = 0.0
    lam /= lam.sum(axis=1, keepdims=True)
    rank2 = (vec * lam[:, None, :]) @ vec.conj().transpose(0, 2, 1)
    states = [make_density(m) for m in (*mixed, *pure, *rank2)]
    for i, r1 in enumerate(states):
        for r2 in states[:i] + states[i + 1:]:
            for spec in ORACLE_SPECS:
                _assert_matches_oracle(spec, r1, r2)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_qdiv_matches_the_oracle_on_rotated_support_clashes(dim):
    # U|0><0|U^dag against U diag(0, 1/(d-1), ...) U^dag and U diag(1/2, 1/2, 0, ...)
    # U^dag, both ways: the +inf rules meet eigh's rounding on an empty overlap
    ket, rest, half = np.eye(dim)[0], np.full(dim, 1 / (dim - 1)), np.zeros(dim)
    rest[0], half[:2] = 0.0, 0.5
    for seed in range(12):
        u = _haar_unitaries(stream(seed), 1, dim)[0]
        zero, off, two = (make_density((u * x) @ u.conj().T) for x in (ket, rest, half))
        for r1, r2, clash in ((zero, off, True), (off, zero, True),
                              (zero, two, False), (two, zero, False)):
            for spec in ORACLE_SPECS:
                if clash and spec.kind == "renyi_sandwiched":
                    # the oracle lifts eigh's ~1e-17 overlap to a finite 50-190
                    # bits by the power alpha; the supports are disjoint
                    assert qdiv(spec, r1, r2) == np.inf
                else:
                    _assert_matches_oracle(spec, r1, r2)


def test_renyi_alpha_near_one_approaches_relative_entropy():
    rng = stream(10)
    spec = DivergenceSpec("renyi_sandwiched", 0.99)
    for dim in (2, 3, 4):
        for _ in range(60):
            pair = _ginibre_states(rng, 2, dim)
            r1, r2 = make_density(pair[0]), make_density(pair[1])
            near = qdiv(spec, r1, r2)
            exact = qdiv(DivergenceSpec("relative_entropy"), r1, r2)
            assert abs(near - exact) <= 5e-2 * (1.0 + exact)


# ---------------------------------------------------------------------------
# classical divergences


def _cdiv(spec, q, qp):
    """The classical divergence of one (q, q') pair, in bits."""
    return float(_classical(spec.kind, spec.alpha, np.asarray(q), np.asarray(qp)))


def test_cdiv_fixtures():
    q = [1.0, 0.0]
    qp = [0.5, 0.5]
    assert_allclose(_cdiv(DivergenceSpec("renyi_sandwiched", 0.5), q, qp), 1.0, atol=1e-12)
    assert_allclose(_cdiv(DivergenceSpec("relative_entropy"), q, qp), 1.0, atol=1e-12)
    assert_allclose(_cdiv(DivergenceSpec("trace"), q, qp), 0.5, atol=1e-12)
    assert_allclose(_cdiv(DivergenceSpec("infidelity"), q, qp), RT2, atol=1e-12)
    assert_allclose(
        _cdiv(DivergenceSpec("tsallis", 0.5), q, qp), 2.0 * (1.0 - RT2), atol=1e-12
    )
    assert_allclose(_cdiv(DivergenceSpec("hilbert_schmidt"), q, qp), RT2, atol=1e-12)
    for spec in _all_specs():
        assert abs(_cdiv(spec, qp, qp)) < 1e-12


def test_classical_zero_probability_conventions():
    # alpha < 1: terms with q_i = 0 contribute nothing
    assert_allclose(
        tsallis_divergence(np.array([1.0, 0.0]), np.array([0.25, 0.75]), 0.0), 0.75, atol=1e-12
    )
    # disjoint supports: the overlap sum is empty, the divergence infinite
    q = np.array([1.0, 0.0])
    flipped = np.array([0.0, 1.0])
    assert power_overlap(q, flipped, 0.5) == 0.0
    assert renyi_divergence(q, flipped, 0.5) == np.inf
    assert kl_divergence(q, flipped) == np.inf
    assert kl_divergence(flipped + 0.0, np.array([0.5, 0.5])) == 1.0


def test_power_overlap_alpha_above_one():
    q = np.array([0.5, 0.5])
    qp = np.array([1.0, 0.0])
    # q puts mass where qp has none and the exponent on qp is negative
    assert power_overlap(q, qp, 2.0) == np.inf
    assert np.isfinite(power_overlap(qp, q, 2.0))


@pytest.mark.parametrize("alpha", [1.0, -0.1, np.nan])
def test_tsallis_divergence_rejects_alpha_off_its_range(alpha):
    with pytest.raises(ValidationError, match="tsallis_divergence needs 0 <= alpha < 1,"):
        tsallis_divergence(np.array([0.3, 0.7]), np.array([0.5, 0.5]), alpha)


@pytest.mark.parametrize("alpha", [np.inf, np.nan])
def test_renyi_divergence_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValidationError, match="need finite alpha >= 0, alpha != 1"):
        renyi_divergence(np.array([0.3, 0.7]), np.array([0.5, 0.5]), alpha)


def test_cdiv_matches_qdiv_on_diagonal_states():
    rng = stream(11)
    for _ in range(40):
        q = rng.dirichlet(np.ones(3))
        qp = rng.dirichlet(np.ones(3))
        dq = make_density(np.diag(q))
        dqp = make_density(np.diag(qp))
        for spec in _all_specs():
            classical = _cdiv(spec, q, qp)
            quantum = qdiv(spec, dq, dqp)
            assert abs(classical - quantum) < 1e-9


# ---------------------------------------------------------------------------
# gauge machinery


def test_gauge_inverse_fixtures():
    assert_allclose(
        gauge_inverse(DivergenceSpec("renyi_sandwiched", 0.5), 1.0), RT2, atol=1e-12
    )
    assert gauge_inverse(DivergenceSpec("trace"), 0.37) == 0.37
    assert_allclose(
        gauge_inverse(DivergenceSpec("tsallis", 0.5), 2.0 * (1.0 - RT2)),
        0.541196100146197,
        atol=1e-12,
    )


def test_gauge_inverse_edge_cases():
    for kind, alpha in (("trace", None), ("infidelity", None),
                        ("renyi_sandwiched", 0.5), ("tsallis", 0.5)):
        spec = DivergenceSpec(kind, alpha)
        assert gauge_inverse(spec, 0.0) == 0.0
        assert gauge_inverse(spec, np.inf) == 1.0
    assert gauge_inverse(DivergenceSpec("infidelity"), 1.7) == 1.0


@pytest.mark.parametrize("value", [-0.1, -np.inf, np.nan])
@pytest.mark.parametrize("kind", GAUGEABLE_KINDS)
def test_gauge_inverse_rejects_negative_and_nan_input(kind, value):
    with pytest.raises(ValueError, match="gauge input must be >= 0"):
        gauge_inverse(DivergenceSpec(kind, _alpha_for(kind)), value)


def test_gauge_inverse_rejects_ungaugeable_kinds():
    for kind in ("relative_entropy", "hilbert_schmidt"):
        with pytest.raises(ValidationError, match="has no distance gauge"):
            gauge_inverse(DivergenceSpec(kind), 0.5)
    assert set(GAUGEABLE_KINDS) == {"trace", "infidelity", "renyi_sandwiched", "tsallis"}


def test_pure_state_gauge_law():
    # on pure pairs the gauged divergence collapses to the infidelity
    rng = stream(12)
    for dim in (2, 3):
        kets1 = _haar_unitaries(rng, 250, dim, 1)[:, :, 0]
        kets2 = _haar_unitaries(rng, 250, dim, 1)[:, :, 0]
        for k in range(250):
            phi = make_density(np.outer(kets1[k], kets1[k].conj()))
            psi = make_density(np.outer(kets2[k], kets2[k].conj()))
            target = qdiv(DivergenceSpec("infidelity"), phi, psi)
            for kind in GAUGEABLE_KINDS:
                spec = DivergenceSpec(kind, _alpha_for(kind))
                gauged = gauge_inverse(spec, qdiv(spec, phi, psi))
                assert abs(gauged - target) < 1e-8


def test_gauged_value_never_exceeds_one():
    rng = stream(13)
    pair = _ginibre_states(rng, 2, 4)
    r1, r2 = make_density(pair[0]), make_density(pair[1])
    for kind in GAUGEABLE_KINDS:
        spec = DivergenceSpec(kind, _alpha_for(kind))
        assert 0.0 <= gauge_inverse(spec, qdiv(spec, r1, r2)) <= 1.0


def test_a_divergence_of_equal_inputs_gauges_to_plus_zero():
    # rounding can leave D(x||x) a hair below zero, which gauge_inverse
    # rejects; qdiv reads it as +0.0
    rng = stream(14)
    for dim in (2, 3, 4):
        states = _ginibre_states(rng, 100, dim)
        rng.dirichlet(np.ones(dim), 100)  # keeps the next dimension's states on their stream
        for k in range(100):
            rho = make_density(states[k])
            for kind in GAUGEABLE_KINDS:
                spec = DivergenceSpec(kind, _alpha_for(kind))
                value = qdiv(spec, rho, rho)
                assert math.copysign(1.0, value) == 1.0 and value >= 0.0, spec
                gauged = gauge_inverse(spec, value)
                assert math.copysign(1.0, gauged) == 1.0 and gauged >= 0.0, spec


def test_fidelity_infidelity_consistency(plus_state):
    eye2 = _eye(2)
    infid = qdiv(DivergenceSpec("infidelity"), plus_state, eye2)
    assert_allclose(infid, np.sqrt(1.0 - fidelity(plus_state, eye2) ** 2), atol=1e-12)
