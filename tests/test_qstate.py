import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qud.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    NotDoublyStochastic,
    NotFinite,
    NotHermitian,
    NotNormalized,
    NotOrthonormal,
    NotPositive,
    TraceNotOne,
    ValidationError,
)
from qud.qstate import (
    SAMPLE_KINDS,
    _complex_normal,
    _ginibre_states,
    _haar_frames,
    _haar_overlaps,
    _haar_unitaries,
    _row_max,
    _row_sum,
    _triples,
    dephase,
    fidelity,
    fourier_basis,
    make_basis,
    make_density,
    make_overlap,
    make_prob,
    outcome_dist,
    overlap_matrix,
    sample,
    sequential_dist,
    standard_basis,
    von_neumann_entropy,
)
from qud.rng import ROLE_KEYS, role_stream, stream

from conftest import RT2, triple_of


# ---------------------------------------------------------------------------
# constructors and validation


def test_make_density_rejects_non_square():
    with pytest.raises(ValidationError):
        make_density(np.zeros((2, 3)))


def test_make_density_rejects_dim_one():
    with pytest.raises(DimensionTooSmall):
        make_density(np.ones((1, 1)))


def test_make_density_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        make_density(np.array([[0.5, 0.2], [0.0, 0.5]]))


def test_make_density_rejects_wrong_trace():
    with pytest.raises(TraceNotOne):
        make_density(np.diag([0.6, 0.6]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_density_and_basis_reject_non_finite(bad):
    # a NaN fails every tolerance comparison, so only an explicit check catches it
    with pytest.raises(NotFinite):
        make_density(np.array([[0.5, bad], [bad, 0.5]]))
    with pytest.raises(NotFinite):
        make_basis(np.array([[1.0, 0.0], [0.0, bad]], dtype=complex))


def test_make_density_rejects_negative_spectrum():
    # eigenvalues 0.5 +- sqrt(0.29), min about -0.04
    with pytest.raises(NotPositive):
        make_density(np.array([[0.7, 0.5], [0.5, 0.3]]))


def test_make_density_clips_rounding_noise():
    rho = make_density(np.diag([1.0 + 1e-9, -1e-9]))
    assert rho.eigenvalues.min() == 0.0
    assert rho.eigenvalues.max() <= 1.0
    assert_allclose(np.trace(rho.matrix).real, 1.0, atol=1e-12)


def test_density_matrix_is_frozen(plus_state):
    assert not plus_state.matrix.flags.writeable
    with pytest.raises(ValueError):
        plus_state.matrix[0, 0] = 2.0


def test_density_properties(plus_state):
    assert plus_state.dim == 2
    assert_allclose(plus_state.purity, 1.0, atol=1e-12)
    mixed = make_density(np.diag([0.75, 0.25]))
    assert_allclose(mixed.purity, 0.625, atol=1e-12)


def test_density_power():
    rho = make_density(np.diag([0.25, 0.75]))
    assert_allclose(rho.power(0.5), np.diag([0.5, np.sqrt(0.75)]), atol=1e-12)


def test_density_power_is_pseudo_power_on_support(plus_state, zero_state):
    # rank-1 projectors are fixed points of every power
    assert_allclose(plus_state.power(0.5), plus_state.matrix, atol=1e-12)
    assert_allclose(zero_state.power(-1.0), zero_state.matrix, atol=1e-12)


def test_make_basis_accepts_unitary_columns():
    make_basis(fourier_basis(3).kets)


def test_make_basis_rejects_unnormalized():
    with pytest.raises(NotOrthonormal):
        make_basis(np.diag([1.0, 2.0]).astype(complex))


def test_make_basis_rejects_non_orthogonal():
    kets = np.array([[1.0, RT2], [0.0, RT2]], dtype=complex)
    with pytest.raises(NotOrthonormal):
        make_basis(kets)


def test_make_prob_validation():
    make_prob([0.2, 0.8])
    with pytest.raises(DimensionTooSmall):
        make_prob([1.0])
    with pytest.raises(NotNormalized):
        make_prob([0.5, 0.6])
    with pytest.raises(NotNormalized):
        make_prob([-0.2, 1.2])
    with pytest.raises(NotFinite):
        make_prob([np.nan, 1.0])
    with pytest.raises(NotFinite):
        make_prob([np.inf, 0.0])


def test_make_prob_clips_rounding_noise():
    p = make_prob([1.0 + 5e-9, -5e-9])
    assert p.probs.min() == 0.0
    assert_allclose(p.probs.sum(), 1.0, atol=0)


def test_make_overlap_validation():
    c = make_overlap([[0.3, 0.7], [0.7, 0.3]])
    assert c.cmax == 0.7
    with pytest.raises(NotDoublyStochastic):
        make_overlap([[0.5, 0.6], [0.5, 0.4]])
    with pytest.raises(NotDoublyStochastic):
        make_overlap([[-0.1, 1.1], [1.1, -0.1]])
    with pytest.raises(NotFinite):
        make_overlap([[np.nan, 1.0], [1.0, 0.0]])
    with pytest.raises(NotFinite):
        make_overlap([[np.inf, 0.0], [0.0, 1.0]])


def test_overlap_transpose():
    c = make_overlap([[0.3, 0.7], [0.7, 0.3]])
    assert_allclose(c.transpose().entries, c.entries.T, atol=0)


# ---------------------------------------------------------------------------
# bases, statistics, dephasing


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_standard_fourier_are_mutually_unbiased(dim):
    c = overlap_matrix(standard_basis(dim), fourier_basis(dim))
    assert_allclose(c.entries, np.full((dim, dim), 1.0 / dim), atol=1e-12)
    assert_allclose(c.cmax, 1.0 / dim, atol=1e-12)


def test_outcome_dist_plus_state(plus_state, z_basis, x_basis):
    assert_allclose(outcome_dist(plus_state, z_basis).probs, [0.5, 0.5], atol=1e-12)
    assert_allclose(outcome_dist(plus_state, x_basis).probs, [1.0, 0.0], atol=1e-12)


def test_outcome_dist_normalized():
    rho = sample("haar_state_mixed", 4, 11)
    b = sample("haar_unitary_basis", 4, 12)
    p = outcome_dist(rho, b).probs
    assert p.min() >= 0.0
    assert_allclose(p.sum(), 1.0, atol=1e-12)


def test_dephase_kills_off_diagonals(plus_state, z_basis):
    rho_a = dephase(plus_state, z_basis)
    frame = z_basis.kets.conj().T @ rho_a.matrix @ z_basis.kets
    off = frame - np.diag(np.diag(frame))
    assert np.abs(off).max() < 1e-10
    assert_allclose(rho_a.matrix, np.eye(2) / 2, atol=1e-12)


def test_dephase_is_a_fixed_point():
    rho = sample("haar_state_mixed", 3, 21)
    b = sample("haar_unitary_basis", 3, 22)
    once = dephase(rho, b)
    twice = dephase(once, b)
    assert_allclose(twice.matrix, once.matrix, atol=1e-12)


def test_dephase_preserves_basis_statistics():
    rho = sample("haar_state_mixed", 3, 31)
    b = sample("haar_unitary_basis", 3, 32)
    assert_allclose(
        outcome_dist(dephase(rho, b), b).probs, outcome_dist(rho, b).probs, atol=1e-10
    )


def test_sequential_dist_directions():
    p = make_prob([1.0, 0.0])
    c = make_overlap(np.full((2, 2), 0.5))
    assert_allclose(sequential_dist(p, c).probs, [0.5, 0.5], atol=1e-12)
    # the dual map p'_i = sum_j c_ij q_j, bases exchanged, is the forward map
    # of the transpose
    c = make_overlap([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]])
    q = make_prob([0.2, 0.3, 0.5])
    assert_allclose(sequential_dist(q, c).probs, [0.3, 0.3, 0.4], atol=1e-12)
    assert_allclose(sequential_dist(q, c.transpose()).probs, [0.25, 0.375, 0.375], atol=1e-12)


def test_sequential_dist_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        sequential_dist(make_prob([0.5, 0.5]), make_overlap(np.full((3, 3), 1 / 3)))


def test_dephase_factorizes_through_the_overlap_matrix():
    # q' computed on the dephased state agrees with the classical propagation
    per_dim = {2: 3400, 3: 3300, 4: 3300}
    for dim, cases in per_dim.items():
        rng = stream(900 + dim)
        states = _ginibre_states(rng, cases, dim)
        ua = _haar_unitaries(rng, cases, dim)
        ub = _haar_unitaries(rng, cases, dim)
        for k in range(cases):
            rho = make_density(states[k])
            a = make_basis(ua[k])
            b = make_basis(ub[k])
            left = outcome_dist(dephase(rho, a), b).probs
            right = sequential_dist(outcome_dist(rho, a), overlap_matrix(a, b)).probs
            assert np.abs(left - right).max() < 1e-9


def test_overlap_matrix_is_doubly_stochastic_in_bulk():
    u = _haar_unitaries(stream(77), 10_000, 3)
    c = np.abs(u) ** 2
    assert np.abs(c.sum(axis=1) - 1.0).max() < 1e-8
    assert np.abs(c.sum(axis=2) - 1.0).max() < 1e-8
    rng = stream(78)
    ua = _haar_unitaries(rng, 100, 4)
    ub = _haar_unitaries(rng, 100, 4)
    for k in range(100):
        overlap_matrix(make_basis(ua[k]), make_basis(ub[k]))


# ---------------------------------------------------------------------------
# fidelity and entropy


def test_fidelity_fixtures(plus_state, zero_state):
    eye2 = make_density(np.eye(2) / 2)
    one = make_density(np.diag([0.0, 1.0]))
    assert_allclose(fidelity(plus_state, plus_state), 1.0, atol=1e-12)
    assert_allclose(fidelity(plus_state, eye2), RT2, atol=1e-12)
    assert_allclose(fidelity(zero_state, one), 0.0, atol=1e-12)


def test_fidelity_symmetric_and_bounded():
    rng = stream(41)
    for dim in (2, 3):
        pair = _ginibre_states(rng, 2, dim)
        r1, r2 = make_density(pair[0]), make_density(pair[1])
        f = fidelity(r1, r2)
        assert 0.0 <= f <= 1.0 + 1e-9
        assert_allclose(fidelity(r2, r1), f, atol=1e-10)


def test_fidelity_dominates_state_overlap():
    for dim in (2, 3, 4):
        rng = stream(50 + dim)
        left = _ginibre_states(rng, 3400, dim)
        right = _ginibre_states(rng, 3400, dim)
        for k in range(3400):
            r1 = make_density(left[k])
            r2 = make_density(right[k])
            overlap = float(np.trace(r1.matrix @ r2.matrix).real)
            assert fidelity(r1, r2) ** 2 >= overlap - 1e-9


def test_fidelity_unitary_invariance():
    rng = stream(61)
    for _ in range(50):
        pair = _ginibre_states(rng, 2, 3)
        u = _haar_unitaries(rng, 1, 3)[0]
        r1, r2 = make_density(pair[0]), make_density(pair[1])
        s1 = make_density(u @ r1.matrix @ u.conj().T)
        s2 = make_density(u @ r2.matrix @ u.conj().T)
        assert abs(fidelity(s1, s2) - fidelity(r1, r2)) < 1e-9


def test_fidelity_dimension_mismatch(plus_state):
    with pytest.raises(DimensionMismatch):
        fidelity(plus_state, make_density(np.eye(3) / 3))


def test_von_neumann_entropy_fixtures(plus_state, zero_state):
    assert_allclose(von_neumann_entropy(plus_state), 0.0, atol=1e-12)
    # a pure state's entropy is +0.0, as shannon_entropy's point mass is
    assert math.copysign(1.0, von_neumann_entropy(zero_state)) == 1.0
    assert_allclose(von_neumann_entropy(make_density(np.eye(2) / 2)), 1.0, atol=1e-12)
    rho = make_density(np.diag([0.75, 0.25]))
    assert_allclose(von_neumann_entropy(rho), 0.8112781244591328, atol=1e-12)
    assert_allclose(von_neumann_entropy(rho, base=np.e), 0.5623351446188083, atol=1e-12)


# ---------------------------------------------------------------------------
# sampling


def test_sample_kinds_cover_contract():
    assert set(SAMPLE_KINDS) == {
        "haar_state_pure",
        "haar_state_mixed",
        "haar_unitary_basis",
        "simplex",
    }


def test_sample_pure_states_have_unit_purity():
    for seed in range(20):
        rho = sample("haar_state_pure", 3, seed)
        assert abs(rho.purity - 1.0) < 1e-10


def test_sample_mixed_states_are_valid():
    rho = sample("haar_state_mixed", 4, 5)
    assert_allclose(np.trace(rho.matrix).real, 1.0, atol=1e-10)
    assert rho.eigenvalues.min() >= 0.0


def test_sample_simplex_first_coordinate_is_uniform():
    u = np.array([sample("simplex", 2, s).probs[0] for s in range(100_000)])
    assert abs(u.mean() - 0.5) < 0.005


def test_sample_is_deterministic():
    for kind in SAMPLE_KINDS:
        first = sample(kind, 3, 123)
        second = sample(kind, 3, 123)
        if kind == "simplex":
            assert np.array_equal(first.probs, second.probs)
        elif kind == "haar_unitary_basis":
            assert np.array_equal(first.kets, second.kets)
        else:
            assert np.array_equal(first.matrix, second.matrix)


@pytest.mark.parametrize("make", [standard_basis, fourier_basis])
def test_named_bases_reject_dim_one(make):
    with pytest.raises(DimensionTooSmall):
        make(1)


def test_sample_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample("bell_pair", 2, 0)
    with pytest.raises(DimensionTooSmall):
        sample("simplex", 1, 0)


def test_stream_chunks_are_reproducible():
    a = stream(9, 0).random(4)
    b = stream(9, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, stream(9, 1).random(4))
    assert not np.array_equal(a, stream(9).random(4))


def test_role_streams_differ_from_instance_and_chunk_streams():
    # a role key is two elements long, so it never equals a chunk key (k,)
    assert {len(key) for key in ROLE_KEYS.values()} == {2}
    assert len(set(ROLE_KEYS.values())) == len(ROLE_KEYS)
    for seed in (0, 1, 7, 8):
        draws = [stream(seed).random(8), stream(seed + 1).random(8),
                 *(stream(seed, k).random(8) for k in range(4)),
                 *(role_stream(seed, role).random(8) for role in ROLE_KEYS)]
        assert len({d.tobytes() for d in draws}) == len(draws)
        again = role_stream(seed, "direct_B").random(8)
        assert np.array_equal(again, draws[6])


def test_haar_kets_are_normalized():
    rho, _ = _haar_frames(stream(3), 100, 4, pure=True)
    assert_allclose(np.einsum("nii->n", rho).real, 1.0, atol=1e-12)
    assert_allclose(rho @ rho, rho, atol=1e-12)


def _qr_haar_unitaries(rng, count, dim, columns):
    """Reference sampler: LAPACK QR of the same Ginibre draw, phase fixed."""
    shape = (count, dim, columns)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    d = np.einsum("nii->ni", r)
    return q * (d / np.abs(d))[:, None, :]


@pytest.mark.parametrize("dim", range(2, 7))
def test_haar_unitaries_equal_phase_fixed_qr(dim):
    for columns in range(1, dim + 1):
        gram_schmidt = _haar_unitaries(stream(100 + dim), 4096, dim, columns)
        reference = _qr_haar_unitaries(stream(100 + dim), 4096, dim, columns)
        assert gram_schmidt.shape == (4096, dim, columns)
        assert np.abs(gram_schmidt - reference).max() <= 1e-12


def test_haar_overlaps_complete_the_drawn_columns_exactly():
    # the third column of a unitary is conj(u1 x u2) up to a phase, so the
    # row complement is its squared modulus
    u = _haar_unitaries(stream(91), 1 << 14, 3, 2)
    c = _haar_overlaps(stream(91), 1 << 14, 3)
    assert c.shape == (1 << 14, 3, 3)
    assert np.array_equal(c[:, :, :2], np.abs(u) ** 2)
    third = np.abs(np.cross(u[:, :, 0], u[:, :, 1]).conj()) ** 2
    assert np.abs(c[:, :, 2] - third).max() <= 1e-14
    assert np.abs(c.sum(axis=2) - 1.0).max() <= 4e-16
    assert np.abs(c.sum(axis=1) - 1.0).max() <= 1e-12
    assert c.min() >= 0.0


def test_haar_overlaps_have_the_haar_u3_moments():
    # E C_ij = 1/3 and E C_ij^2 = 1/6 in every cell; E C_ij C_kl = 1/12 for
    # two cells of one row or column and 1/8 otherwise, over every pair of
    # cells, so the completed third column is checked against both kinds
    c = _haar_overlaps(stream(92), 1 << 18, 3)

    def check(x, expected):
        se = x.std() / np.sqrt(len(x))
        assert abs(x.mean() - expected) <= 6 * se, (x.mean(), expected, se)

    cells = [(i, j) for i in range(3) for j in range(3)]
    for i, j in cells:
        check(c[:, i, j], 1 / 3)
        check(c[:, i, j] ** 2, 1 / 6)
    for (i, j), (k, l) in itertools.combinations(cells, 2):
        check(c[:, i, j] * c[:, k, l], 1 / 12 if i == k or j == l else 1 / 8)


@pytest.mark.parametrize("dim", range(2, 13))
def test_haar_unitaries_stay_orthonormal(dim):
    u = _haar_unitaries(stream(200 + dim), 4096, dim)
    gram = u.conj().transpose(0, 2, 1) @ u
    assert np.abs(gram - np.eye(dim)).max() <= 1e-10


@pytest.mark.parametrize("shape", [(1000, 3), (1000, 3, 3), (257, 4, 4)],
                         ids=["kets", "unitaries_and_states", "d4"])
def test_complex_normal_is_the_two_draw_sum_to_the_bit(shape):
    rng, reference = stream(31), stream(31)
    z = _complex_normal(rng, shape)
    expected = reference.standard_normal(shape) + 1j * reference.standard_normal(shape)
    assert z.tobytes() == expected.tobytes()
    assert rng.random() == reference.random()  # the stream is left at the same point


def test_haar_kets_and_ginibre_states_are_the_two_draw_forms_to_the_bit():
    # a pure draw is the first Gram-Schmidt column: its Ginibre column over
    # its norm, leaving the stream where a normalised Gaussian ket leaves it
    for dim in range(2, 17):
        for count in (1, 5, 4096):
            rng = stream(60 + dim)
            z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
            kets = z / np.linalg.norm(z, axis=-1, keepdims=True)
            w = _haar_unitaries(rng, count, dim)
            rho, w_drawn = _haar_frames(stream(60 + dim), count, dim, pure=True)
            assert rho.tobytes() == (kets[:, :, None] * kets[:, None, :].conj()).tobytes()
            assert w_drawn.tobytes() == w.tobytes()
    for dim in (2, 3, 4):
        rng = stream(70 + dim)
        g = (rng.standard_normal((500, dim, dim))
             + 1j * rng.standard_normal((500, dim, dim)))
        m = g @ g.conj().transpose(0, 2, 1)
        states = m / np.real(np.einsum("nii->n", m))[:, None, None]
        assert _ginibre_states(stream(70 + dim), 500, dim).tobytes() == states.tobytes()


@pytest.mark.parametrize("pure", [False, True], ids=["mixed", "pure"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_triples_q_equals_the_conjugate_first_reduction(dim, pure):
    rho, w = _haar_frames(stream(40 + dim), 2048, dim, pure)
    q = np.clip(np.einsum("nik,nik->nk", w.conj(), rho @ w).real, 0.0, 1.0)
    q = q / q.sum(axis=1, keepdims=True)
    assert _triples(rho, w, pure).q.tobytes() == q.tobytes()


def _reduction_inputs(dim):
    """Wide-range signed data with +-0, +-inf and both signs of NaN, plus
    rows of signed zeros only and rows of unit-range values, whose sums
    round by the order of the adds, in 1-d, 2-d, 3-d and strided layouts."""
    rng = stream(80 + dim)
    x = 10.0 ** rng.uniform(-300, 300, (600, dim)) * rng.choice([-1.0, 1.0], (600, dim))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0])
    pick = rng.random((600, dim)) < 0.3
    x[pick] = rng.choice(special, int(pick.sum()))
    x[:100] = rng.choice([0.0, -0.0], (100, dim))
    x[100] = -0.0
    x[400:] = rng.random((200, dim))
    wide = x.reshape(20, 30, dim)
    return [x[0], x[100], x[250], x, wide, np.asfortranarray(x),
            np.swapaxes(np.ascontiguousarray(np.swapaxes(wide, 1, 2)), 1, 2)]


def _bits(x):
    """The int64 view of x with every NaN made the same NaN: IEEE 754 leaves
    the sign and payload of a NaN result open, and numpy's own reduce picks
    different ones for different layouts of the same rows."""
    x = np.array(x, dtype=np.float64)
    x[np.isnan(x)] = np.nan
    return x.view(np.int64)


@pytest.mark.parametrize("dim", range(2, 13))
def test_row_sum_and_row_max_are_numpys_reduce_to_the_bit(dim):
    for x in _reduction_inputs(dim):
        with np.errstate(invalid="ignore"):
            pairs = ((_row_sum(x), x.sum(axis=-1)), (_row_max(x), x.max(axis=-1)))
        for got, expected in pairs:
            assert np.shape(got) == np.shape(expected)
            assert np.array_equal(_bits(got), _bits(expected))


def test_triple_of_helper_consistency(f1):
    p, q, qp, c = triple_of(*f1)
    assert_allclose(p.probs, [0.5, 0.5], atol=1e-12)
    assert_allclose(q.probs, [1.0, 0.0], atol=1e-12)
    assert_allclose(qp.probs, [0.5, 0.5], atol=1e-12)
    assert_allclose(c.entries, np.full((2, 2), 0.5), atol=1e-12)
