import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qud.divergence import (
    DIVERGENCE_KINDS,
    _check_divergence,
    _classical,
    _dephased,
    _sandwiched_trace,
    kl_divergence,
    power_overlap,
    renyi_divergence,
    tsallis_divergence,
)
from qud.errors import ValidationError
from qud.qstate import (
    _complex_normal,
    _diagonal_probs,
    _frame_of_one,
    _ginibre_states,
    _haar_unitaries,
    _scan_chunk,
    _triples,
    fourier_basis,
    make_basis,
    make_density,
    standard_basis,
)
from qud.rng import stream
from qud.sweeps import dpi_margins, haar_triples

from conftest import RT2, fidelity, oracle_qdiv


def _eye(dim):
    return make_density(np.eye(dim) / dim)


def _alpha_for(kind):
    return 0.5 if kind in ("renyi_sandwiched", "tsallis") else None


def _all_specs():
    """(kind, alpha) for every kind on an order grid."""
    out = []
    for kind in DIVERGENCE_KINDS:
        if kind == "renyi_sandwiched":
            out += [(kind, a) for a in (0.5, 0.75, 0.99)]
        elif kind == "tsallis":
            out += [(kind, a) for a in (0.0, 0.5, 0.9)]
        else:
            out.append((kind, None))
    return out


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    # the CLI's check and dpi_margins accept and refuse the same (kind, alpha)
    batch = haar_triples(2, 4, 0)
    for kind, alpha in (("trace", None), ("renyi_sandwiched", 0.5), ("tsallis", 0.0)):
        _check_divergence(kind, alpha)
        assert dpi_margins(kind, alpha, batch).shape == (4,)
    refused = [("bures", None, "unknown divergence kind 'bures'"),
               ("trace", 0.5, "trace takes no alpha")]
    refused += [("renyi_sandwiched", bad, "renyi_sandwiched needs 0.5 <= alpha < 1,")
                for bad in (0.4, 1.0, None)]
    refused += [("tsallis", bad, "tsallis needs 0 <= alpha < 1,") for bad in (-0.1, 1.0, None)]
    for kind, alpha, message in refused:
        for check in (_check_divergence, lambda k, a: dpi_margins(k, a, batch)):
            with pytest.raises(ValidationError, match=message):
                check(kind, alpha)


# ---------------------------------------------------------------------------
# the A-frame invariant: every state _dephased reads has diag rho = p


def _a_frame_batches():
    """A-frame batches from each of the three constructors: haar_triples,
    scan chunks and single instances, mixed and pure, with incoherent states
    and point masses (plain and rotated into a Haar basis A) among them."""
    for dim in (2, 3, 4, 6):
        for pure in (False, True):
            yield haar_triples(dim, 2000, 30 + dim, pure)
            yield _scan_chunk(dim, 40 + dim, pure, 1, 500)[0]
        u = _haar_unitaries(stream(50 + dim), 2, dim)
        a, b = make_basis(u[0]), make_basis(u[1])
        p = stream(60 + dim).dirichlet(np.ones(dim))
        point = np.eye(dim)[0]
        for rho in (np.diag(p), np.diag(point), np.diag(point[::-1])):
            yield _frame_of_one(make_density(rho), standard_basis(dim), b)
            yield _frame_of_one(make_density(u[0] @ rho @ u[0].conj().T), a, b)
        yield _frame_of_one(make_density(np.eye(dim) / dim), fourier_basis(dim), b)


def test_dephased_inputs_are_a_frame_batches():
    # _dephased reads diag(p) as the A-dephased state of rho, so its
    # relative_entropy is H(p) - S(rho) and its sandwiched trace is at least
    # (sum p^(1/alpha))^alpha >= d^(1 - 1/alpha): no support rule is needed
    for batch in _a_frame_batches():
        assert _diagonal_probs(batch.rho).tobytes() == batch.p.tobytes()
        for alpha in (0.5, 0.75, 0.999):
            floor = batch.dim ** (1.0 - 1.0 / alpha) * (1.0 - 1e-12)
            assert _sandwiched_trace(batch, alpha).min() >= floor, (batch.dim, alpha)


# ---------------------------------------------------------------------------
# quantum divergences: D(rho || rho_A) through _dephased on A-frame batches


def _dephased_of(spec, batch):
    """`_dephased` of spec = (kind, alpha) on every state of an A-frame
    batch, as floats."""
    return _dephased(*spec, batch).tolist()


def test_qdiv_fixtures_plus_vs_maximally_mixed(plus_state, z_basis, x_basis):
    # |+> dephased in Z is I/2
    batch = _frame_of_one(plus_state, z_basis, x_basis)
    for spec, want in ((("trace", None), 0.5), (("infidelity", None), RT2),
                       (("relative_entropy", None), 1.0),
                       (("renyi_sandwiched", 0.5), 1.0),
                       (("tsallis", 0.5), 2.0 * (1.0 - RT2)),
                       (("hilbert_schmidt", None), RT2)):
        assert_allclose(_dephased_of(spec, batch), [want], atol=1e-12, err_msg=spec[0])


def test_qdiv_zero_on_identical_states():
    # measured in its own eigenbasis, a state is its A-dephased state
    rho = make_density(_ginibre_states(stream(7), 1, 3)[0])
    a = make_basis(np.linalg.eigh(rho.matrix)[1])
    batch = _frame_of_one(rho, a, fourier_basis(3))
    for spec in _all_specs():
        # sqrt(1 - F^2) turns the ~1e-15 fidelity rounding into ~1e-8
        tol = 1e-7 if spec[0] == "infidelity" else 1e-9
        assert abs(_dephased_of(spec, batch)[0]) < tol, spec


def test_qdiv_faithful():
    rng = stream(8)
    rho = _ginibre_states(rng, 2, 3)
    batch = _triples(rho, _haar_unitaries(rng, 2, 3), pure=False)
    for spec in _all_specs():
        if spec == ("tsallis", 0.0):
            # order zero only sees the support projector, not the weights
            continue
        assert min(_dephased_of(spec, batch)) > 1e-4, spec


def test_qdiv_dimension_mismatch(plus_state, z_basis):
    # an instance's state and bases share one dimension
    three = standard_basis(3)
    with pytest.raises(ValidationError, match="dimensions differ"):
        _frame_of_one(plus_state, three, three)
    with pytest.raises(ValidationError, match="dimensions differ"):
        _frame_of_one(plus_state, z_basis, three)


def test_qdiv_unitary_invariance():
    # one unitary V on the state and both bases leaves every A-frame datum,
    # and so D(rho || rho_A), as it is
    rng = stream(9)
    rho = make_density(_ginibre_states(rng, 1, 3)[0])
    u = _haar_unitaries(rng, 2, 3)
    a, b = make_basis(u[0]), make_basis(u[1])
    batch = _frame_of_one(rho, a, b)
    for k in range(20):
        v = _haar_unitaries(rng, 1, 3)[0]
        turned = _frame_of_one(make_density(v @ rho.matrix @ v.conj().T),
                               make_basis(v @ u[0]), make_basis(v @ u[1]))
        for spec in _all_specs():
            got, want = _dephased_of(spec, turned)[0], _dephased_of(spec, batch)[0]
            assert abs(got - want) < 1e-9, spec


# every kind on an order grid; tsallis at order 0 is left out, since there a
# full-rank pair's value is a rounding-level zero
ORACLE_SPECS = [(kind, alpha) for kind in DIVERGENCE_KINDS
                for alpha in {"renyi_sandwiched": (0.5, 0.75, 0.95),
                              "tsallis": (0.25, 0.5, 0.9)}.get(kind, (None,))]


def _assert_matches_oracle(spec, got, rho, p):
    # near 0 the rounding of a log near 1, over 1 - alpha, is ~1e-14 absolute
    want = oracle_qdiv(*spec, rho, make_density(np.diag(p)))
    assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-13), (spec, got, want)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_qdiv_matches_the_oracle_on_general_pairs(dim):
    # Ginibre-mixed, Haar-pure and rank-2 states, each in the frame of 17
    # bases A, one of them the standard basis, against their A-dephased
    # state: 306 pairs (rho, diag p), as many as the ordered pairs of the 18
    # states. Six states on the first two basis vectors add 102 pairs, whose
    # p in the standard basis's frame has d - 2 zeros.
    rng = stream(20 + dim)
    mixed = _ginibre_states(rng, 6, dim)
    kets = _complex_normal(rng, (6, dim))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    pure = kets[:, :, None] * kets[:, None, :].conj()
    lam, vec = np.linalg.eigh(_ginibre_states(rng, 6, dim))
    lam[:, :-2] = 0.0
    lam /= lam.sum(axis=1, keepdims=True)
    rank2 = (vec * lam[:, None, :]) @ vec.conj().transpose(0, 2, 1)
    edge = np.zeros_like(mixed)
    edge[:, :2, :2] = _ginibre_states(rng, 6, 2)
    states = np.concatenate([mixed, pure, rank2, edge])
    bases = np.concatenate([np.eye(dim)[None], _haar_unitaries(rng, 16, dim)])
    frames = np.einsum("bji,njk,bkl->bnil", bases.conj(), states, bases)
    frames = frames.reshape(-1, dim, dim)
    batch = _triples(frames, np.broadcast_to(np.eye(dim), frames.shape), pure=False)
    rhos = [make_density(m) for m in frames]
    for spec in ORACLE_SPECS:
        for k, got in enumerate(_dephased_of(spec, batch)):
            _assert_matches_oracle(spec, got, rhos[k], batch.p[k])


def test_renyi_alpha_near_one_approaches_relative_entropy():
    rng = stream(10)
    near, exact = ("renyi_sandwiched", 0.99), ("relative_entropy", None)
    for dim in (2, 3, 4):
        # Ginibre states in the frame they are drawn in, which is a Haar basis
        batch = _triples(_ginibre_states(rng, 60, dim), _haar_unitaries(rng, 60, dim),
                         pure=False)
        for got, want in zip(_dephased_of(near, batch), _dephased_of(exact, batch)):
            assert abs(got - want) <= 5e-2 * (1.0 + want)


# ---------------------------------------------------------------------------
# classical divergences


def _cdiv(spec, q, qp):
    """The classical divergence spec = (kind, alpha) of one (q, q') pair, in bits."""
    return float(_classical(*spec, np.asarray(q), np.asarray(qp)))


def test_cdiv_fixtures():
    q = [1.0, 0.0]
    qp = [0.5, 0.5]
    assert_allclose(_cdiv(("renyi_sandwiched", 0.5), q, qp), 1.0, atol=1e-12)
    assert_allclose(_cdiv(("relative_entropy", None), q, qp), 1.0, atol=1e-12)
    assert_allclose(_cdiv(("trace", None), q, qp), 0.5, atol=1e-12)
    assert_allclose(_cdiv(("infidelity", None), q, qp), RT2, atol=1e-12)
    assert_allclose(
        _cdiv(("tsallis", 0.5), q, qp), 2.0 * (1.0 - RT2), atol=1e-12
    )
    assert_allclose(_cdiv(("hilbert_schmidt", None), q, qp), RT2, atol=1e-12)
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


def test_fidelity_infidelity_consistency(plus_state, z_basis, x_basis):
    infid = _dephased("infidelity", None, _frame_of_one(plus_state, z_basis, x_basis))[0]
    eye2 = _eye(2)
    assert_allclose(infid, np.sqrt(1.0 - fidelity(plus_state, eye2) ** 2), atol=1e-12)
