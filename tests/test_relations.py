import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qud import relations
from qud.divergence import (
    _check_divergence,
    _classical,
    _dephased,
    classical_infidelity,
    euclidean_distance,
    kl_divergence,
    l1_distance,
    power_overlap,
    renyi_divergence,
)
from qud.errors import ValidationError
from qud.experiments import _draw_parameters, table2_relations
from qud.qstate import (
    TripleBatch,
    _complex_normal,
    _frame_of_one,
    _ginibre_states,
    _haar_unitaries,
    _scan_chunk,
    _scan_rows,
    _triples,
    fourier_basis,
    make_density,
    standard_basis,
)
from qud.relations import (
    RELATION_IDS,
    SEARCH_CHUNK,
    Counterexample,
    RelationId,
    _accepts,
    _shared_arrays,
    eval_with_dual,
    relation_sides,
    satisfied_mask,
    search_counterexample,
)
from qud.rng import stream
from qud.sweeps import (
    chain_margins,
    dpi_margins,
    dpi_scan,
    haar_triples,
    relation_margins,
)
from qud.uncertainty import (
    delta_measure,
    half_norm_measure,
    renyi_entropy,
    shannon_entropy,
)

from conftest import (
    RT2,
    born,
    oracle_dephase,
    oracle_qdiv,
    sample,
    sequential_dist,
    triple_of,
    verdict_of,
)

ALL_RELATIONS = (
    RelationId("U_tr"),
    RelationId("U_tr_prime"),
    RelationId("U_rd", alpha=0.5),
    RelationId("U_rd", alpha=0.75),
    RelationId("U_if"),
    RelationId("U_if", "printed"),
    RelationId("U_ts", alpha=0.0),
    RelationId("U_ts", alpha=0.5),
    RelationId("U_ts", "printed", alpha=0.5),
    RelationId("U_re"),
    RelationId("U_hs"),
    RelationId("THM1_UNIVERSAL"),
    RelationId("EUR_TS", alpha=0.5),
    RelationId("EUR_TS", "printed", alpha=0.5),
    RelationId("EUR_MU", alpha=1.0, beta=1.0),
    RelationId("EUR_MU", alpha=2.0, beta=2.0 / 3.0),
)


# ---------------------------------------------------------------------------
# RelationId


def test_relation_id_validation():
    with pytest.raises(ValidationError):
        RelationId("U_xx")
    with pytest.raises(ValidationError):
        RelationId("U_tr", "draft")
    with pytest.raises(ValidationError):
        RelationId("U_tr", "printed")  # printed form identical, not a variant
    with pytest.raises(ValidationError, match="U_rd needs 0.5 <= alpha < 1, got 0.4"):
        RelationId("U_rd", alpha=0.4)
    with pytest.raises(ValidationError, match="U_rd needs 0.5 <= alpha < 1, got 1.0"):
        RelationId("U_rd", alpha=1.0)
    with pytest.raises(ValidationError, match="U_ts needs 0 <= alpha < 1, got 1.0"):
        RelationId("U_ts", alpha=1.0)
    with pytest.raises(ValidationError, match="U_ts needs 0 <= alpha < 1, got None"):
        RelationId("U_ts")
    with pytest.raises(ValidationError, match="U_tr takes no alpha"):
        RelationId("U_tr", alpha=0.5)
    with pytest.raises(ValidationError, match="U_re takes no beta"):
        RelationId("U_re", beta=1.0)
    with pytest.raises(ValidationError, match="EUR_MU needs conjugate orders"):
        RelationId("EUR_MU", alpha=2.0, beta=0.7)
    with pytest.raises(ValidationError, match="EUR_MU needs finite alpha, beta >= 1/2"):
        RelationId("EUR_MU", alpha=0.4, beta=1.0)
    # 1/inf + 1/0.5 = 2 passes the conjugate check; finiteness must catch it
    for alpha, beta in ((np.inf, 0.5), (0.5, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValidationError, match="EUR_MU needs finite alpha, beta >= 1/2"):
            RelationId("EUR_MU", alpha=alpha, beta=beta)
    RelationId("EUR_MU", alpha=2.0, beta=2.0 / 3.0)


ORDER_PROBES = (None, np.nan, np.inf, -np.inf, 0.0, 0.5, np.nextafter(0.5, 0.0),
                np.nextafter(1.0, 0.0), 1.0)


def _accepted(make, alpha) -> bool:
    try:
        make(alpha)
    except ValidationError as exc:
        assert re.search("(needs .* <= alpha <|takes no alpha)", str(exc)), exc
        return False
    return True


@pytest.mark.parametrize("alpha", ORDER_PROBES)
@pytest.mark.parametrize("rid, kind", [("U_rd", "renyi_sandwiched"), ("U_ts", "tsallis"),
                                       ("EUR_TS", "tsallis")])
def test_a_relation_takes_the_order_range_of_its_divergence(rid, kind, alpha):
    # each relation is the data processing inequality of one divergence, so
    # its alpha is legal exactly where that divergence's is
    assert _accepted(lambda a: RelationId(rid, alpha=a), alpha) == _accepted(
        lambda a: _check_divergence(kind, a), alpha)


def test_relation_id_labels():
    assert RelationId("U_tr").label() == "U_tr"
    assert RelationId("U_rd", alpha=0.5).label() == "U_rd[alpha=0.5]"
    assert RelationId("U_ts", "printed", 0.5).label() == "U_ts[alpha=0.5,printed]"
    assert RelationId("EUR_MU", alpha=1.0, beta=1.0).label() == "EUR_MU[alpha=1,beta=1]"


def test_catalog_contents():
    assert set(RELATION_IDS) == {
        "U_tr", "U_tr_prime", "U_rd", "U_if", "U_ts", "U_re", "U_hs",
        "THM1_UNIVERSAL", "EUR_TS", "EUR_MU",
    }
    labels = [rel.label() for rel in table2_relations()]
    assert labels == [
        "U_tr", "U_tr_prime", "U_rd[alpha=0.5]", "U_re", "U_ts[alpha=0.5]",
        "U_hs", "EUR_MU[alpha=1,beta=1]",
    ]


# ---------------------------------------------------------------------------
# fixture verdicts


def test_fixture_verdicts(f1):
    p, q, qp, c = triple_of(*f1)
    v = verdict_of(RelationId("U_tr"), p, q, qp, c)
    assert_allclose(v.lhs, RT2, atol=1e-12)
    assert_allclose(v.rhs, 0.5, atol=1e-12)
    assert_allclose(v.margin, 0.20710678118654757, atol=1e-12)
    assert v.satisfied

    tight_zero = {
        "U_tr_prime": RelationId("U_tr_prime"),
        "U_rd": RelationId("U_rd", alpha=0.5),
        "U_if": RelationId("U_if"),
        "U_ts": RelationId("U_ts", alpha=0.5),
        "U_re": RelationId("U_re"),
        "U_hs": RelationId("U_hs"),
        "THM1_UNIVERSAL": RelationId("THM1_UNIVERSAL"),
        "EUR_TS": RelationId("EUR_TS", alpha=0.5),
        "EUR_MU": RelationId("EUR_MU", alpha=1.0, beta=1.0),
    }
    for rel in tight_zero.values():
        v = verdict_of(rel, p, q, qp, c)
        assert v.satisfied, rel.label()
        assert abs(v.margin) < 1e-9, rel.label()


def test_printed_variants_fail_their_fixtures(f1, zero_state, z_basis, x_basis):
    p, q, qp, c = triple_of(*f1)
    v = verdict_of(RelationId("U_ts", "printed", 0.5), p, q, qp, c)
    assert not v.satisfied
    assert_allclose(v.lhs, 2.0 / 3.0, atol=1e-12)
    assert_allclose(v.rhs, 1.0, atol=1e-12)
    assert_allclose(v.margin, -1.0 / 3.0, atol=1e-12)

    p0, q0, qp0, c0 = triple_of(zero_state, z_basis, x_basis)
    v0 = verdict_of(RelationId("EUR_TS", "printed", 0.5), p0, q0, qp0, c0)
    assert not v0.satisfied
    assert_allclose(v0.margin, -1.0 / 3.0, atol=1e-12)
    # the canonical orientation holds on the same instance
    vc = verdict_of(RelationId("EUR_TS", alpha=0.5), p0, q0, qp0, c0)
    assert vc.satisfied


def test_printed_u_if_holds_at_the_fixture(f1):
    # both readings are tight here; adjudication needs the volume scan
    p, q, qp, c = triple_of(*f1)
    v = verdict_of(RelationId("U_if", "printed"), p, q, qp, c)
    assert v.satisfied
    assert abs(v.margin) < 1e-9


def test_zero_disturbance_always_satisfied(f1):
    rho, a, _ = f1
    p, q, qp, c = triple_of(rho, a, a)
    assert_allclose(qp, q, atol=1e-12)
    for rel in ALL_RELATIONS:
        v = verdict_of(rel, p, q, qp, c)
        assert v.satisfied, rel.label()


def test_unbounded_rhs_is_a_violation():
    v = verdict_of(RelationId("U_re"), [0.5, 0.5], [1.0, 0.0], [0.0, 1.0])
    assert v.rhs == np.inf
    assert v.margin == -np.inf
    assert not v.satisfied


def test_satisfied_mask_handles_infinities():
    lhs = np.array([1.0, 1.0, np.inf, 0.0])
    rhs = np.array([1.0 + 1e-12, np.inf, 2.0, 1e-12])
    mask = satisfied_mask(lhs, rhs)
    assert mask.tolist() == [True, False, True, True]


def _two_pass_mask(lhs, rhs):
    """The verdict rule as first written: finite parts for the scale, then
    +inf on either side decided apart."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    lf = np.where(np.isfinite(lhs), lhs, 0.0)
    rf = np.where(np.isfinite(rhs), rhs, 0.0)
    scale = np.maximum(1.0, np.maximum(np.abs(lf), np.abs(rf)))
    with np.errstate(invalid="ignore"):
        ok = (lhs - rhs) >= -1e-9 * scale
    ok = np.where(np.isposinf(rhs), np.isposinf(lhs), ok)
    return np.where(np.isposinf(lhs), True, ok)


def test_satisfied_mask_keeps_the_two_pass_rule_on_the_edges():
    big = np.finfo(np.float64).max
    edges = np.array([np.inf, -np.inf, big, -big, 1e300, -1e300, 2.0, -2.0, 1.0, -1.0,
                      1.0 + 1e-9, 1.0 - 1e-9, 1e-10, -1e-10, 0.0, -0.0, np.nan])
    lhs, rhs = (a.ravel() for a in np.meshgrid(edges, edges, indexing="ij"))
    with np.errstate(over="ignore"):  # max - (-max) overflows to inf, as it should
        mask = satisfied_mask(lhs, rhs)
        assert mask.dtype == bool and mask.shape == lhs.shape
        assert np.array_equal(mask, _two_pass_mask(lhs, rhs))
        # 0-d inputs, as _verdict passes them
        for a, b in zip(lhs, rhs):
            one = satisfied_mask(float(a), float(b))
            assert np.ndim(one) == 0 and bool(one) == bool(_two_pass_mask(a, b))


def test_an_eur_relation_without_cmax_is_a_missing_overlap(f1):
    p, q, qp, _ = triple_of(*f1)
    with pytest.raises(ValidationError, match="needs the overlap matrix"):
        relation_sides(RelationId("EUR_MU", alpha=1.0, beta=1.0),
                       p[None], q[None], qp[None])


# ---------------------------------------------------------------------------
# structure among relations


def test_u_if_equals_u_rd_half():
    # both compare H_2(p) with D_(1/2)(q || q'), through the same kernels
    for dim in (2, 3):
        for seed in (1, 2):
            batch = haar_triples(dim, 4096, seed)
            args = (batch.p, batch.q, batch.qp, batch.cmax)
            if_lhs, if_rhs = relation_sides(RelationId("U_if"), *args)
            rd_lhs, rd_rhs = relation_sides(RelationId("U_rd", alpha=0.5), *args)
            assert np.array_equal(if_lhs, rd_lhs)
            assert np.array_equal(if_rhs, rd_rhs)


def test_thm1_u_rd_half_and_u_if_accept_the_same_points():
    # delta(p) >= IF(q, q') is H_2(p) >= D_(1/2)(q || q'): the three are one inequality
    rels = (RelationId("THM1_UNIVERSAL"), RelationId("U_rd", alpha=0.5), RelationId("U_if"))
    for dim in (2, 3):
        for seed in (1, 2, 3):
            p, q, c = _draw_parameters(stream(seed, 0), dim, 2**16)
            shared = _shared_arrays(p, q, c)
            masks = [_accepts(rel, p, q, shared) for rel in rels]
            assert np.array_equal(masks[0], masks[1]), (dim, seed)
            assert np.array_equal(masks[0], masks[2]), (dim, seed)


# Every catalog entry, variant and the orders at the ends of each range.
ORACLE_RELATIONS = (
    RelationId("U_tr"),
    RelationId("U_tr_prime"),
    RelationId("U_rd", alpha=0.5),
    RelationId("U_rd", alpha=0.75),
    RelationId("U_if"),
    RelationId("U_if", "printed"),
    RelationId("U_ts", alpha=0.0),
    RelationId("U_ts", alpha=0.5),
    RelationId("U_ts", "printed", alpha=0.0),
    RelationId("U_ts", "printed", alpha=0.5),
    RelationId("U_re"),
    RelationId("U_hs"),
    RelationId("THM1_UNIVERSAL"),
    RelationId("EUR_TS", alpha=0.0),
    RelationId("EUR_TS", alpha=0.5),
    RelationId("EUR_TS", "printed", alpha=0.0),
    RelationId("EUR_TS", "printed", alpha=0.5),
    RelationId("EUR_MU", alpha=1.0, beta=1.0),
    RelationId("EUR_MU", alpha=0.75, beta=1.5),
)


def _catalog_formula(rel, p, q, qp, cmax, base):
    """(lhs, rhs) of `rel` as README's relation catalog states it, one kernel
    per term: the reference that `relation_sides` must match bit for bit."""
    a, b = rel.alpha, rel.beta

    def h(x, order):
        return renyi_entropy(x, order, base=base)

    def d(order):
        return renyi_divergence(q, qp, order, base=base)

    log_cmax = -np.log(cmax) / np.log(base)
    formulas = {
        ("U_tr", "canonical"): lambda: (delta_measure(p), l1_distance(q, qp)),
        ("U_tr_prime", "canonical"): lambda: (half_norm_measure(p), l1_distance(q, qp)),
        ("U_rd", "canonical"): lambda: (h(p, 1.0 / a), d(a)),
        ("U_if", "canonical"): lambda: (h(p, 2.0), d(0.5)),
        ("U_if", "printed"): lambda: (h(p, 0.5), d(2.0)),
        ("U_ts", "canonical"): lambda: (h(p, 2.0 - a), d(a)),
        ("U_ts", "printed"): lambda: (h(p, 2.0 - a) / (2.0 - a), d(a)),
        ("U_re", "canonical"): lambda: (shannon_entropy(p, base=base),
                                        kl_divergence(q, qp, base=base)),
        ("U_hs", "canonical"): lambda: (delta_measure(p), euclidean_distance(q, qp)),
        ("THM1_UNIVERSAL", "canonical"): lambda: (delta_measure(p),
                                                  classical_infidelity(q, qp)),
        ("EUR_TS", "canonical"): lambda: (h(p, 2.0 - a) + h(q, a), log_cmax),
        ("EUR_TS", "printed"): lambda: (h(q, 2.0 - a) / (2.0 - a) + h(p, a), log_cmax),
        ("EUR_MU", "canonical"): lambda: (h(p, a) + h(q, b), log_cmax),
    }
    return formulas[rel.id, rel.variant]()


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True)
            and np.array_equal(np.signbit(x), np.signbit(y)))


@pytest.mark.parametrize("rel", ORACLE_RELATIONS, ids=RelationId.label)
def test_relation_sides_match_the_catalog_formulas(rel):
    # seeded d=2 cube chunks and d=3 simplex x Haar chunks, both directions,
    # in bits and in nats
    for dim in (2, 3):
        for seed in (1, 2):
            p, q, c = _draw_parameters(stream(seed, 0), dim, 4096)
            qp, pp, cmax = _shared_arrays(p, q, c)
            for x, y, yp in ((p, q, qp), (q, p, pp)):
                for base in (2.0, np.e):
                    got = relation_sides(rel, x, y, yp, cmax, base)
                    want = _catalog_formula(rel, x, y, yp, cmax, base)
                    for side, g, w in zip(("lhs", "rhs"), got, want):
                        assert _same_bits(g, w), (dim, seed, base, side)


# The universal bound as first written: the largest of 24 gauged classical
# disturbances (l1, the infidelity, and a Renyi and a Tsallis gauge at each
# order of this grid). Kept as the reference THM1_UNIVERSAL's bound, the
# classical infidelity, must match.
REFERENCE_ALPHA_GRID = (0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99)


def _gauged_maximum(q, qp):
    best = np.maximum(l1_distance(q, qp), classical_infidelity(q, qp))
    for a in REFERENCE_ALPHA_GRID:
        s = np.clip(power_overlap(q, qp, a), 0.0, 1.0)
        best = np.maximum(best, np.sqrt(np.clip(1.0 - s ** (1.0 / a), 0.0, None)))
        best = np.maximum(best, np.sqrt(1.0 - s))
    return np.clip(best, 0.0, 1.0)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_universal_bound_is_the_gauged_maximum(dim):
    rng = np.random.default_rng(dim)
    n = 1 << 14
    q, qp = rng.dirichlet(np.ones(dim), n), rng.dirichlet(np.ones(dim), n)
    # zero out entries in a third of the pairs so supports clash or nest
    q[: n // 3][rng.random((n // 3, dim)) < 0.3] = 0.0
    qp[n // 6: n // 2][rng.random((n // 2 - n // 6, dim)) < 0.3] = 0.0
    keep = (q.sum(axis=1) > 0) & (qp.sum(axis=1) > 0)
    q = q[keep] / q[keep].sum(axis=1, keepdims=True)
    qp = qp[keep] / qp[keep].sum(axis=1, keepdims=True)
    _, bound = relation_sides(RelationId("THM1_UNIVERSAL"), q, q, qp)
    reference = _gauged_maximum(q, qp)
    assert (reference >= bound).all()
    assert (reference - bound).max() <= 1e-7
    assert (classical_infidelity(q, qp) == 1.0).any()  # some supports are disjoint
    for k in range(0, len(q), len(q) // 16):
        scalar = _classical("infidelity", None, q[k], qp[k])
        assert_allclose(scalar, bound[k], rtol=1e-12, atol=1e-15)


def test_universal_bound_fixture(f1):
    _, q, qp, _ = triple_of(*f1)
    assert_allclose(_classical("infidelity", None, q, qp), RT2, atol=1e-12)
    assert _classical("infidelity", None, qp, qp) == 0.0


def test_universal_bound_dominates_components(f1):
    _, q, qp, _ = triple_of(*f1)
    bound = _classical("infidelity", None, q, qp)
    assert bound >= _classical("trace", None, q, qp) - 1e-12


def test_dual_swaps_roles(f1):
    rho, a, b = f1
    forward, dual = eval_with_dual(RelationId("U_tr"), rho, a, b)
    assert_allclose(forward.margin, 0.20710678118654757, atol=1e-12)
    assert_allclose(dual.lhs, 0.0, atol=1e-12)
    assert_allclose(dual.rhs, 0.0, atol=1e-12)
    assert dual.satisfied
    # the dual equals the forward verdict of the swapped instance (rho, B, A)
    swapped, _ = eval_with_dual(RelationId("U_tr"), rho, b, a)
    assert_allclose(swapped.lhs, dual.lhs, atol=1e-12)
    assert_allclose(swapped.rhs, dual.rhs, atol=1e-12)


def test_eur_mu_is_self_dual(f1):
    forward, dual = eval_with_dual(RelationId("EUR_MU", alpha=1.0, beta=1.0), *f1)
    assert forward == dual


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_eval_with_dual_is_the_oracle_verdict_of_the_born_statistics(dim):
    # the forward pair on (p, q, p C) and the dual on (q, p, C q), each read
    # by the Born rule apart from the program's A-frame reduction
    for seed in range(20):
        rho = sample("haar_state_mixed", dim, seed)
        b = sample("haar_unitary_basis", dim, 100 + seed)
        for a in (sample("haar_unitary_basis", dim, 200 + seed), fourier_basis(dim)):
            p, q, qp, c = triple_of(rho, a, b)
            for rel in (*table2_relations(), RelationId("THM1_UNIVERSAL")):
                expected = (verdict_of(rel, p, q, qp, c),
                            verdict_of(rel, q, p, sequential_dist(q, c.T), c))
                if rel.id == "EUR_MU":  # self-dual: the forward pair alone
                    expected = expected[:1] * 2
                for got, want in zip(eval_with_dual(rel, rho, a, b), expected):
                    assert_allclose([got.lhs, got.rhs], [want.lhs, want.rhs],
                                    rtol=0, atol=1e-12, err_msg=rel.label())
                    assert got.satisfied == want.satisfied, rel.label()


def test_dpi_margin_nonnegative_and_consistent(f1):
    rho, a, b = f1
    margin = dpi_margins("trace", None, _frame_of_one(rho, a, b))[0]
    p, q, qp, _ = triple_of(rho, a, b)
    direct = (oracle_qdiv("trace", None, rho, oracle_dephase(rho, a))
              - _classical("trace", None, q, qp))
    assert_allclose(margin, direct, atol=1e-12)
    for seed in range(25):
        rho_r = sample("haar_state_mixed", 3, 300 + seed)
        a_r = sample("haar_unitary_basis", 3, 400 + seed)
        b_r = sample("haar_unitary_basis", 3, 500 + seed)
        rho_a = oracle_dephase(rho_r, a_r)
        for kind, alpha in (("trace", None), ("infidelity", None),
                            ("renyi_sandwiched", 0.75), ("tsallis", 0.5),
                            ("relative_entropy", None), ("hilbert_schmidt", None)):
            margin = dpi_margins(kind, alpha, _frame_of_one(rho_r, a_r, b_r))[0]
            assert margin >= -1e-8
            direct = oracle_qdiv(kind, alpha, rho_r, rho_a) - _classical(
                kind, alpha, born(rho_r, b_r), born(rho_a, b_r)
            )
            assert abs(margin - direct) < 1e-8, kind


def _incoherent_qubit():
    # the dephasing leaves diag(0.7, 0.3) as it is, so both DPI sides vanish
    rho = make_density(np.diag([0.7, 0.3]))
    return _frame_of_one(rho, standard_basis(2), fourier_basis(2))


def test_infidelity_dpi_margin_of_an_incoherent_state_keeps_the_floor():
    assert dpi_margins("infidelity", None, _incoherent_qubit())[0] >= -1e-8


def test_sandwiched_renyi_dpi_margin_of_an_incoherent_state_is_plus_zero():
    margin = dpi_margins("renyi_sandwiched", 0.5, _incoherent_qubit())[0]
    assert math.copysign(1.0, margin) == 1.0


def test_hilbert_schmidt_side_keeps_its_digits_near_incoherence():
    # [[0.7, eps], [eps, 0.3]] is sqrt(2) eps from its Z-dephased state, and
    # its Hilbert-Schmidt margin against Z then X is exactly 0
    z, x = standard_basis(2), fourier_basis(2)

    def rho(eps):
        return make_density(np.array([[0.7, eps], [eps, 0.3]]))

    for eps in (1e-6, 1e-9, 1e-12):
        side = _dephased("hilbert_schmidt", None, _frame_of_one(rho(eps), z, x))[0]
        assert abs(side / (np.sqrt(2.0) * eps) - 1.0) <= 1e-12, eps
    for eps in np.linspace(1e-9, 5e-8, 200):
        margin = dpi_margins("hilbert_schmidt", None, _frame_of_one(rho(eps), z, x))[0]
        assert margin >= -1e-12, eps


def test_classical_infidelity_is_exact_at_equal_and_disjoint_rows():
    q = np.random.default_rng(3).dirichlet(np.ones(3), 4096)
    assert (classical_infidelity(q, q) == 0).all()
    assert classical_infidelity(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.5])) == 1.0


# ---------------------------------------------------------------------------
# counterexample search


def test_search_finds_printed_tsallis_violation():
    rel = RelationId("U_ts", "printed", 0.5)
    found = search_counterexample(rel, 2, 1000, 1)
    assert isinstance(found, Counterexample)
    assert found.verdict.margin < -1e-6
    assert 0 <= found.sample_index < 1000
    # the returned instance replays to the same verdict
    p, q, qp, c = triple_of(found.state, found.basis_a, found.basis_b)
    replay = verdict_of(rel, p, q, qp, c)
    assert_allclose(replay.margin, found.verdict.margin, atol=1e-9)
    again = search_counterexample(rel, 2, 1000, 1)
    assert again.sample_index == found.sample_index


def test_search_hit_reports_the_sides_its_scan_computed():
    # the hit's verdict is the scan's own, not a re-evaluation of the rebuilt instance
    rel = RelationId("EUR_TS", "printed", 0.5)
    found = search_counterexample(rel, 2, 10_000, 1)
    k, i = divmod(found.sample_index, SEARCH_CHUNK)
    batch = haar_triples(2, SEARCH_CHUNK, 1, pure=True, chunk=k)
    lhs, rhs = relation_sides(rel, batch.p, batch.q, batch.qp, batch.cmax)
    assert found.verdict.lhs == lhs[i] and found.verdict.rhs == rhs[i]
    assert found.verdict.margin == lhs[i] - rhs[i]
    assert not found.verdict.satisfied


def test_search_survives_canonical_form():
    assert search_counterexample(RelationId("U_ts", alpha=0.5), 2, 20_000, 3) is None
    assert search_counterexample(RelationId("U_tr"), 2, 20_000, 3) is None


def test_search_rejects_bad_budget():
    with pytest.raises(ValueError):
        search_counterexample(RelationId("U_tr"), 2, 0, 1)


# ---------------------------------------------------------------------------
# batched sweeps agree with the scalar evaluator


def test_haar_triples_are_consistent():
    batch = haar_triples(3, 64, 9)
    assert batch.rho.shape[0] == 64 and batch.dim == 3
    assert_allclose(batch.p.sum(axis=1), 1.0, atol=1e-9)
    assert_allclose(batch.q.sum(axis=1), 1.0, atol=1e-9)
    assert_allclose(batch.qp, np.einsum("ni,nij->nj", batch.p, batch.overlap), atol=1e-12)
    assert_allclose(batch.overlap.sum(axis=1), 1.0, atol=1e-8)
    assert_allclose(batch.spectrum.sum(axis=1), 1.0, atol=1e-9)
    repeat = haar_triples(3, 64, 9)
    assert np.array_equal(batch.rho, repeat.rho)
    pure = haar_triples(3, 64, 9, pure=True)
    assert_allclose((pure.spectrum**2).sum(axis=1), 1.0, atol=1e-9)


def test_haar_triples_chunks_do_not_change_the_stream():
    first = haar_triples(2, 100, 4, chunk=0)
    again = haar_triples(2, 100, 4, chunk=0)
    second = haar_triples(2, 100, 4, chunk=1)
    for field in dataclasses.fields(TripleBatch):
        assert np.array_equal(getattr(first, field.name), getattr(again, field.name))
    assert not np.array_equal(first.rho, second.rho)


def test_scan_chunks_shrink_as_one_over_d_squared_above_d4():
    assert [_scan_rows(d) for d in (2, 3, 4)] == [SEARCH_CHUNK] * 3
    assert [_scan_rows(d) for d in (5, 32, 10**6)] == [2621, 64, 1]


@pytest.mark.parametrize("dim", [0, 1])
@pytest.mark.parametrize("scan", [
    lambda dim: search_counterexample(RelationId("U_tr"), dim, 10, 0),
    lambda dim: dpi_scan("trace", None, dim, 5, 0),
    lambda dim: haar_triples(dim, 5, 0),
    lambda dim: dpi_scan("trace", None, dim, 0, 0),
], ids=["search_counterexample", "dpi_scan", "haar_triples", "dpi_scan_no_samples"])
def test_haar_scans_reject_a_dimension_below_two(scan, dim):
    with pytest.raises(ValidationError, match="need dimension >= 2"):
        scan(dim)


@pytest.mark.parametrize("dim", [3, 5])
def test_search_chunk_k_scans_the_first_rows_of_chunk_k(dim, monkeypatch):
    scanned = []

    def recording_sides(rel, p, q, qp, cmax, base):
        scanned.append((p, q, qp, cmax))
        return relation_sides(rel, p, q, qp, cmax, base)

    monkeypatch.setattr(relations, "relation_sides", recording_sides)
    rows = _scan_rows(dim)
    budget = 2 * rows + 100
    assert search_counterexample(RelationId("U_tr"), dim, budget, 6) is None
    assert [len(chunk[0]) for chunk in scanned] == [rows, rows, 100]
    for k, (p, q, qp, cmax) in enumerate(scanned):
        full = haar_triples(dim, rows, 6, pure=True, chunk=k)
        count = len(p)
        assert np.array_equal(p, full.p[:count])
        assert np.array_equal(q, full.q[:count])
        assert np.array_equal(qp, full.qp[:count])
        assert np.array_equal(cmax, full.cmax[:count])


def test_search_stops_at_its_first_hit(monkeypatch):
    # printed U_ts(1/2) at d=2, seed 1 hits at sample 1 of a 10-chunk budget,
    # so the fold stops there and draws no later chunk
    drawn = []

    def recording_chunk(dim, seed, pure, index, count):
        drawn.append(index)
        return _scan_chunk(dim, seed, pure, index, count)

    monkeypatch.setattr(relations, "_scan_chunk", recording_chunk)
    found = search_counterexample(RelationId("U_ts", "printed", 0.5), 2, 10 * SEARCH_CHUNK, 1)
    assert found.sample_index == 1
    assert drawn == [0]


@pytest.mark.parametrize("seed", range(1, 6))
def test_a_larger_search_budget_scans_a_superset(seed):
    for rel in (RelationId("U_ts", "printed", 0.5), RelationId("EUR_TS", "printed", 0.5)):
        large = 3 * SEARCH_CHUNK
        found = search_counterexample(rel, 2, large, seed)
        hit = large if found is None else found.sample_index
        for budget in (1, 2, 5, 6, 7, 10, 17, 100, 2000, SEARCH_CHUNK, SEARCH_CHUNK + 1):
            small = search_counterexample(rel, 2, budget, seed)
            if hit < budget:
                assert small is not None and small.sample_index == hit
            else:
                assert small is None


def test_triple_batch_fields_keep_their_order():
    # bench/layers.py builds a TripleBatch positionally from these attributes
    names = ("rho", "p", "q", "qp", "overlap", "spectrum")
    for pure in (False, True):
        batch = haar_triples(3, 16, 2, pure=pure)
        again = TripleBatch(*(getattr(batch, name) for name in names))
        for name in names:
            assert np.array_equal(getattr(again, name), getattr(batch, name))


def test_a_mixed_spectrum_is_computed_only_when_read():
    batch = haar_triples(3, 256, 12)
    assert batch.known_spectrum is None
    spectrum = np.clip(np.linalg.eigvalsh(batch.rho), 0.0, 1.0)
    assert batch.spectrum.tobytes() == spectrum.tobytes()
    margins = dpi_margins("relative_entropy", None, batch)
    expected = (shannon_entropy(batch.p) - shannon_entropy(spectrum)
                - kl_divergence(batch.q, batch.qp))
    assert margins.tobytes() == expected.tobytes()


def _rotated_reference(rng, count, dim, pure):
    """p0, q0, qp0 and cmax from explicit (rho, U_A, U_B) draws, rotated."""
    if pure:
        kets = _complex_normal(rng, (count, dim))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        rho = kets[:, :, None] * kets[:, None, :].conj()
    else:
        rho = _ginibre_states(rng, count, dim)
    ua = _haar_unitaries(rng, count, dim)
    ub = _haar_unitaries(rng, count, dim)
    p = np.einsum("nik,nij,njk->nk", ua.conj(), rho, ua).real
    q = np.einsum("nik,nij,njk->nk", ub.conj(), rho, ub).real
    c = np.abs(ua.conj().transpose(0, 2, 1) @ ub) ** 2
    qp = np.einsum("ni,nij->nj", p, c)
    return p[:, 0], q[:, 0], qp[:, 0], c.max(axis=(1, 2))


def _mean_and_variance_errors(x):
    """Sample mean and variance with their standard errors."""
    n = len(x)
    centred = x - x.mean()
    var = (centred**2).mean()
    m4 = (centred**4).mean()
    return x.mean(), var, np.sqrt(var / n), np.sqrt((m4 - var**2) / n)


@pytest.mark.parametrize("pure", [False, True])
def test_frame_reduced_draw_has_the_law_of_the_rotated_draw(pure):
    # drawing the state in A's frame and only W = U_A^dag U_B must give the
    # law of drawing rho, U_A and U_B and rotating
    count, dim = 2**17, 3
    batch = haar_triples(dim, count, 31, pure=pure)
    frame = (batch.p[:, 0], batch.q[:, 0], batch.qp[:, 0], batch.cmax)
    reference = _rotated_reference(stream(32), count, dim, pure)
    for name, x, y in zip(("p0", "q0", "qp0", "cmax"), frame, reference):
        mx, vx, smx, svx = _mean_and_variance_errors(x)
        my, vy, smy, svy = _mean_and_variance_errors(y)
        assert abs(mx - my) <= 5.0 * np.hypot(smx, smy), name
        assert abs(vx - vy) <= 5.0 * np.hypot(svx, svy), name
    if pure:
        spectrum = np.clip(np.linalg.eigvalsh(batch.rho), 0.0, 1.0)
        assert np.abs(batch.spectrum - spectrum).max() <= 1e-12


def test_relation_margins_match_scalar_eval():
    batch = haar_triples(3, 150, 14)
    for rel in ALL_RELATIONS:
        margins = relation_margins(rel, batch)
        assert margins.shape == (150,)
        for k in (0, 57, 149):
            p, q, c = batch.p[k], batch.q[k], batch.overlap[k]
            v = verdict_of(rel, p, q, sequential_dist(p, c), c)
            if np.isinf(v.margin):
                assert np.isinf(margins[k])
            else:
                assert abs(margins[k] - v.margin) < 1e-9, rel.label()


def test_dpi_margins_match_scalar_eval():
    batch = haar_triples(2, 60, 15)
    cases = (("trace", None), ("infidelity", None), ("renyi_sandwiched", 0.6),
             ("tsallis", 0.5), ("relative_entropy", None), ("hilbert_schmidt", None))
    for kind, alpha in cases:
        margins = dpi_margins(kind, alpha, batch)
        assert margins.shape == (60,)
        for k in (0, 31):
            # the batch works in the A frame, so A is the standard basis there
            rho = make_density(batch.rho[k])
            a = standard_basis(2)
            margin_direct = (
                oracle_qdiv(kind, alpha, rho, oracle_dephase(rho, a))
                - _classical(kind, alpha, batch.q[k], batch.qp[k])
            )
            assert abs(margins[k] - margin_direct) < 1e-8, kind


@pytest.mark.parametrize("dim", [2, 3])
def test_an_empty_batch_gives_empty_margins(dim):
    batch = haar_triples(dim, 0, 1)
    assert batch.cmax.shape == (0,)
    for rel in ALL_RELATIONS:
        assert relation_margins(rel, batch).shape == (0,), rel.label()
    assert dpi_margins("trace", None, batch).shape == (0,)
    masks = relations._forward_dual(RelationId("U_tr"), batch.p, batch.q,
                                    _shared_arrays(batch.p, batch.q, batch.overlap),
                                    satisfied_mask)
    assert [m.shape for m in masks] == [(0,), (0,)]


def test_dpi_margins_check_orders_like_divergence_spec():
    batch = haar_triples(2, 4, 15)
    for kind, alpha, broken in (("trace", 0.5, "trace takes no alpha"),
                                ("renyi_sandwiched", 0.4, "needs 0.5 <= alpha < 1, got 0.4"),
                                ("renyi_sandwiched", None, "needs 0.5 <= alpha < 1, got None"),
                                ("tsallis", 1.0, "tsallis needs 0 <= alpha < 1, got 1.0")):
        with pytest.raises(ValidationError, match=broken):
            dpi_margins(kind, alpha, batch)
    with pytest.raises(ValueError):
        dpi_margins("bures", None, batch)


def test_chain_margins_match_scalar_eval():
    batch = haar_triples(3, 40, 16)
    first, second = chain_margins(batch)
    assert (first >= -1e-9).all()
    assert (second >= -1e-9).all()
    for k in (0, 17):
        rho = make_density(batch.rho[k])
        a = standard_basis(3)
        infid = oracle_qdiv("infidelity", None, rho, oracle_dephase(rho, a))
        delta = np.sqrt(max(0.0, 1.0 - float((batch.p[k] ** 2).sum())))
        bound = _classical("infidelity", None, batch.q[k], batch.qp[k])
        assert abs(first[k] - (delta - infid)) < 1e-9
        assert abs(second[k] - (infid - bound)) < 1e-9


def test_chain_second_link_is_the_infidelity_dpi_margin():
    for dim in (2, 3):
        batch = haar_triples(dim, 4096, 21)
        assert np.array_equal(chain_margins(batch)[1], dpi_margins("infidelity", None, batch))


# The rows whose uncertainty term is the quantum side of their DPI at psi_p,
# and the rows whose term only bounds it
PSI_P_EXACT = (RelationId("U_re"), RelationId("U_rd", alpha=0.5),
               RelationId("U_rd", alpha=0.75), RelationId("U_hs"),
               RelationId("THM1_UNIVERSAL"))
PSI_P_LOOSE = (RelationId("U_tr"), RelationId("U_tr_prime"), RelationId("U_ts", alpha=0.5))


def psi_p_batch(dim, count, seed):
    """psi_p = sum_i sqrt(p_i)|i>, the pure state whose A-statistics are p,
    for Dirichlet p, each with a Haar second basis."""
    rng = stream(seed)
    psi = np.sqrt(rng.dirichlet(np.ones(dim), count)).astype(complex)
    return _triples(psi[:, :, None] * psi[:, None, :], _haar_unitaries(rng, count, dim),
                    pure=True)


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_dpi_chain_is_sharp_at_the_pure_state_of_p(dim):
    # every pure state with A-statistics p is psi_p up to diagonal phases, so
    # an exact row's uncertainty term is its DPI's quantum side there, and a
    # loose row's term never falls below it; data processing holds throughout
    batch = psi_p_batch(dim, 2000, 80 + dim)
    for rel in PSI_P_EXACT + PSI_P_LOOSE:
        lhs, quantum, rhs = relations._dpi_chain(rel, batch)
        if rel in PSI_P_EXACT:
            assert np.abs(lhs - quantum).max() <= 1e-12, rel.label()
        else:
            assert (lhs - quantum).min() >= -1e-12, rel.label()
        assert (quantum - rhs).min() >= -1e-8, rel.label()
    if dim == 2:
        # k*(U_tr, 2) = sqrt 2: delta(p) = sqrt(2 p0 p1), and the trace
        # distance from psi_p to diag p is sqrt(p0 p1), its positive eigenvalue
        lhs, quantum, _ = relations._dpi_chain(RelationId("U_tr"), batch)
        assert np.abs(lhs - np.sqrt(2.0) * quantum).max() <= 1e-12
