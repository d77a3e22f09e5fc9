import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qud.errors import ValidationError
from qud.qstate import (
    _complex_normal,
    _frame_of_one,
    _ginibre_states,
    _haar_frames,
    _haar_overlaps,
    _haar_unitaries,
    _row_max,
    _row_sum,
    _triples,
    fourier_basis,
    make_basis,
    make_density,
    standard_basis,
)
from qud.rng import ROLE_KEYS, role_stream, stream

from conftest import (
    RT2,
    SAMPLE_KINDS,
    born,
    fidelity,
    oracle_dephase,
    power,
    sample,
    sequential_dist,
    spectrum,
    triple_of,
)


# ---------------------------------------------------------------------------
# constructors and validation


def test_make_density_rejects_non_square():
    with pytest.raises(ValidationError):
        make_density(np.zeros((2, 3)))


def test_make_density_rejects_dim_one():
    with pytest.raises(ValidationError, match="needs dimension >= 2"):
        make_density(np.ones((1, 1)))


def test_make_density_rejects_non_hermitian():
    with pytest.raises(ValidationError, match="Hermiticity drift"):
        make_density(np.array([[0.5, 0.2], [0.0, 0.5]]))


def test_make_density_rejects_wrong_trace():
    with pytest.raises(ValidationError, match="^trace 1.2 differs from 1"):
        make_density(np.diag([0.6, 0.6]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_density_and_basis_reject_non_finite(bad):
    # a NaN fails every tolerance comparison, so only an explicit check catches it
    with pytest.raises(ValidationError, match="a density matrix has a non-finite entry"):
        make_density(np.array([[0.5, bad], [bad, 0.5]]))
    with pytest.raises(ValidationError, match="a basis has a non-finite entry"):
        make_basis(np.array([[1.0, 0.0], [0.0, bad]], dtype=complex))


def test_make_density_rejects_negative_spectrum():
    # eigenvalues 0.5 +- sqrt(0.29), min about -0.04
    with pytest.raises(ValidationError, match="minimum eigenvalue"):
        make_density(np.array([[0.7, 0.5], [0.5, 0.3]]))


def test_make_density_clips_rounding_noise():
    rho = make_density(np.diag([1.0 + 1e-9, -1e-9]))
    lam = np.linalg.eigvalsh(rho.matrix)
    assert lam.min() == 0.0
    assert lam.max() <= 1.0
    assert_allclose(np.trace(rho.matrix).real, 1.0, atol=1e-12)


def test_density_matrix_is_frozen(plus_state):
    assert not plus_state.matrix.flags.writeable
    with pytest.raises(ValueError):
        plus_state.matrix[0, 0] = 2.0


def test_density_properties(plus_state):
    assert plus_state.dim == 2
    assert_allclose(np.sum(spectrum(plus_state)[0] ** 2), 1.0, atol=1e-12)
    mixed = make_density(np.diag([0.75, 0.25]))
    assert_allclose(np.sum(spectrum(mixed)[0] ** 2), 0.625, atol=1e-12)


def test_density_power():
    rho = make_density(np.diag([0.25, 0.75]))
    assert_allclose(power(rho, 0.5), np.diag([0.5, np.sqrt(0.75)]), atol=1e-12)


def test_density_power_is_pseudo_power_on_support(plus_state, zero_state):
    # rank-1 projectors are fixed points of every power
    assert_allclose(power(plus_state, 0.5), plus_state.matrix, atol=1e-12)
    assert_allclose(power(zero_state, -1.0), zero_state.matrix, atol=1e-12)


def test_make_basis_accepts_unitary_columns():
    make_basis(fourier_basis(3).kets)


def test_make_basis_rejects_unnormalized():
    with pytest.raises(ValidationError, match="Gram drift"):
        make_basis(np.diag([1.0, 2.0]).astype(complex))


def test_make_basis_rejects_non_orthogonal():
    kets = np.array([[1.0, RT2], [0.0, RT2]], dtype=complex)
    with pytest.raises(ValidationError, match="Gram drift"):
        make_basis(kets)


# ---------------------------------------------------------------------------
# bases, statistics, dephasing


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_standard_fourier_are_mutually_unbiased(dim):
    batch = _frame_of_one(make_density(np.eye(dim) / dim), standard_basis(dim),
                          fourier_basis(dim))
    assert_allclose(batch.overlap[0], np.full((dim, dim), 1.0 / dim), atol=1e-12)
    assert_allclose(batch.cmax[0], 1.0 / dim, atol=1e-12)


def test_outcome_dist_plus_state(plus_state, z_basis, x_basis):
    batch = _frame_of_one(plus_state, z_basis, x_basis)
    assert_allclose(batch.p[0], [0.5, 0.5], atol=1e-12)
    assert_allclose(batch.q[0], [1.0, 0.0], atol=1e-12)


def test_outcome_dist_normalized():
    rho = sample("haar_state_mixed", 4, 11)
    b = sample("haar_unitary_basis", 4, 12)
    batch = _frame_of_one(rho, b, standard_basis(4))
    for p in (batch.p[0], batch.q[0]):
        assert p.min() >= 0.0
        assert_allclose(p.sum(), 1.0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_outcome_dist_is_the_p_of_frame_of_one(dim):
    # one Born rule: a basis's statistics, read with it as both A and B, are
    # the p of every instance that measures it first, bit for bit
    for seed in range(20):
        rho = sample("haar_state_mixed", dim, seed)
        b = sample("haar_unitary_basis", dim, 100 + seed)
        for a in (sample("haar_unitary_basis", dim, 200 + seed), fourier_basis(dim)):
            p = _frame_of_one(rho, a, b).p[0]
            assert _frame_of_one(rho, a, a).p[0].tobytes() == p.tobytes()


def test_dephase_kills_off_diagonals(plus_state, z_basis):
    rho_a = oracle_dephase(plus_state, z_basis)
    frame = z_basis.kets.conj().T @ rho_a.matrix @ z_basis.kets
    off = frame - np.diag(np.diag(frame))
    assert np.abs(off).max() < 1e-10
    assert_allclose(rho_a.matrix, np.eye(2) / 2, atol=1e-12)


def test_dephase_is_a_fixed_point():
    rho = sample("haar_state_mixed", 3, 21)
    b = sample("haar_unitary_basis", 3, 22)
    once = oracle_dephase(rho, b)
    twice = oracle_dephase(once, b)
    assert_allclose(twice.matrix, once.matrix, atol=1e-12)


def test_dephase_preserves_basis_statistics():
    rho = sample("haar_state_mixed", 3, 31)
    b = sample("haar_unitary_basis", 3, 32)
    assert_allclose(born(oracle_dephase(rho, b), b), born(rho, b), atol=1e-10)


def test_sequential_dist_directions():
    p = np.array([1.0, 0.0])
    c = np.full((2, 2), 0.5)
    assert_allclose(sequential_dist(p, c), [0.5, 0.5], atol=1e-12)
    # the dual map p'_i = sum_j c_ij q_j, bases exchanged, is the forward map
    # of the transpose
    c = np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5], [0.25, 0.25, 0.5]])
    q = np.array([0.2, 0.3, 0.5])
    assert_allclose(sequential_dist(q, c), [0.3, 0.3, 0.4], atol=1e-12)
    assert_allclose(sequential_dist(q, c.T), [0.25, 0.375, 0.375], atol=1e-12)


def test_sequential_dist_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimensions differ"):
        sequential_dist(np.array([0.5, 0.5]), np.full((3, 3), 1 / 3))


def test_dephase_factorizes_through_the_overlap_matrix():
    # the q' = p C of the A-frame reduction is the B-statistics of the
    # A-dephased state
    # A-dephased state, built in the lab frame from the Born rule in A, over
    # the whole ensemble at once
    per_dim = {2: 3400, 3: 3300, 4: 3300}
    for dim, cases in per_dim.items():
        rng = stream(900 + dim)
        states = _ginibre_states(rng, cases, dim)
        ua = _haar_unitaries(rng, cases, dim)
        ub = _haar_unitaries(rng, cases, dim)
        p = np.clip(np.einsum("nik,nij,njk->nk", ua.conj(), states, ua).real, 0.0, None)
        rho_a = np.einsum("nik,nk,njk->nij", ua, p, ua.conj())
        left = np.einsum("nji,njk,nki->ni", ub.conj(), rho_a, ub).real
        to_a = ua.conj().transpose(0, 2, 1)
        right = _triples(to_a @ states @ ua, to_a @ ub, pure=False).qp
        assert np.abs(left - right).max() < 1e-9


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_overlap_matrix_is_the_overlap_of_frame_of_one(dim):
    # one overlap formula: a basis pair's C = |A^dag B|^2 is the overlap its
    # instance reduces to, bit for bit, whatever the state
    rng = stream(950 + dim)
    states = _ginibre_states(rng, 200, dim)
    ua = _haar_unitaries(rng, 200, dim)
    ub = _haar_unitaries(rng, 200, dim)
    for k in range(200):
        a, b = make_basis(ua[k]), make_basis(ub[k])
        c = _frame_of_one(make_density(states[k]), a, b).overlap[0]
        assert (np.abs(a.kets.conj().T @ b.kets) ** 2).tobytes() == c.tobytes()


def test_overlap_matrix_is_doubly_stochastic_in_bulk():
    u = _haar_unitaries(stream(77), 10_000, 3)
    c = np.abs(u) ** 2
    assert np.abs(c.sum(axis=1) - 1.0).max() < 1e-8
    assert np.abs(c.sum(axis=2) - 1.0).max() < 1e-8
    rng = stream(78)
    ua = _haar_unitaries(rng, 100, 4)
    ub = _haar_unitaries(rng, 100, 4)
    rho = make_density(np.eye(4) / 4)
    for k in range(100):
        c = _frame_of_one(rho, make_basis(ua[k]), make_basis(ub[k])).overlap[0]
        assert np.abs(c.sum(axis=0) - 1.0).max() < 1e-8
        assert np.abs(c.sum(axis=1) - 1.0).max() < 1e-8


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
    with pytest.raises(ValidationError, match="dimensions differ"):
        fidelity(plus_state, make_density(np.eye(3) / 3))


# ---------------------------------------------------------------------------
# sampling


def test_sample_kinds_cover_contract():
    assert set(SAMPLE_KINDS) == {
        "haar_state_pure",
        "haar_state_mixed",
        "haar_unitary_basis",
    }


def test_sample_pure_states_have_unit_purity():
    for seed in range(20):
        rho = sample("haar_state_pure", 3, seed)
        assert abs(np.sum(spectrum(rho)[0] ** 2) - 1.0) < 1e-10


def test_sample_mixed_states_are_valid():
    rho = sample("haar_state_mixed", 4, 5)
    assert_allclose(np.trace(rho.matrix).real, 1.0, atol=1e-10)
    assert np.linalg.eigvalsh(rho.matrix).min() >= 0.0


def test_sample_is_deterministic():
    for kind in SAMPLE_KINDS:
        first = sample(kind, 3, 123)
        second = sample(kind, 3, 123)
        if kind == "haar_unitary_basis":
            assert np.array_equal(first.kets, second.kets)
        else:
            assert np.array_equal(first.matrix, second.matrix)


@pytest.mark.parametrize("make", [standard_basis, fourier_basis])
def test_named_bases_reject_dim_one(make):
    with pytest.raises(ValidationError, match="need dimension >= 2"):
        make(1)


def test_sample_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample("bell_pair", 2, 0)
    with pytest.raises(ValidationError, match="need dimension >= 2"):
        sample("haar_state_mixed", 1, 0)


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


def _closed_form_unitaries(rng, count):
    """The unitaries behind `_haar_overlaps`, rebuilt from the same draws.

    U = [r, v, conj(r x v)]: r = sqrt(x), and v = a e1 + b e2 in the real
    basis of r's complement, with |a|^2 = s and a conj(b) = sqrt(s (1 - s))
    exp(2 pi i t).
    """
    x = rng.dirichlet(np.ones(3), count)
    s, t = rng.random((2, count))
    r = np.sqrt(x)
    m = x[:, 0] + x[:, 1]
    e1 = np.stack([r[:, 1], -r[:, 0], np.zeros(count)], axis=1)
    e2 = np.stack([r[:, 0] * r[:, 2], r[:, 1] * r[:, 2], -m], axis=1)
    a = np.sqrt(s / m)
    b = np.sqrt((1.0 - s) / m) * np.exp(-2j * np.pi * t)
    v = a[:, None] * e1 + b[:, None] * e2
    return np.stack([r + 0j, v, np.cross(r, v).conj()], axis=2)


def test_haar_overlaps_are_the_moduli_of_the_rebuilt_unitaries():
    u = _closed_form_unitaries(stream(91), 1 << 14)
    c = _haar_overlaps(stream(91), 1 << 14)
    assert c.shape == (1 << 14, 3, 3)
    assert np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(3)).max() <= 1e-12
    assert np.abs(c - np.abs(u) ** 2).max() <= 1e-14
    assert np.abs(c.sum(axis=2) - 1.0).max() <= 4e-16
    assert np.abs(c.sum(axis=1) - 1.0).max() <= 1e-12
    assert c.min() >= 0.0


def _ginibre_overlaps(rng, count):
    """The reference law: C = |U|^2 of phase-fixed Gram-Schmidt Haar U(3)."""
    u = _haar_unitaries(rng, count, 3, 2)
    head = np.abs(u) ** 2
    return np.concatenate([head, 1.0 - head.sum(axis=2, keepdims=True)], axis=2)


def test_haar_overlaps_match_the_ginibre_sampler_in_law():
    # a two-sample check on 2^18 draws a side: third and fourth moments of
    # every cell, and the law of the largest overlap, agree within 6 SE
    n = 1 << 18
    new = _haar_overlaps(stream(93), n).reshape(n, 9)
    ref = _ginibre_overlaps(stream(94), n).reshape(n, 9)

    def check(x, y, what):
        se = np.sqrt(x.var(axis=0) / len(x) + y.var(axis=0) / len(y))
        z = np.abs(x.mean(axis=0) - y.mean(axis=0)) / se
        assert (z <= 6).all(), (what, z.max())

    check(new ** 3, ref ** 3, "E C^3")
    check(new ** 4, ref ** 4, "E C^4")
    for level in (0.5, 0.6, 0.7, 0.8, 0.9):
        below = [(x.max(axis=1) <= level).astype(float)[:, None] for x in (new, ref)]
        check(*below, f"P(max C <= {level})")


def test_haar_overlaps_have_the_haar_u3_moments():
    # E C_ij = 1/3 and E C_ij^2 = 1/6 in every cell; E C_ij C_kl = 1/12 for
    # two cells of one row or column and 1/8 otherwise, over every pair of
    # cells, so the completed third column is checked against both kinds
    c = _haar_overlaps(stream(92), 1 << 18)

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


def test_row_sum_of_a_one_entry_axis_is_numpys_reduce():
    # delta(p) sums the one cross term p_0 p_1 of a d=2 row
    for x in _reduction_inputs(1):
        with np.errstate(invalid="ignore"):
            got, expected = _row_sum(x), x.sum(axis=-1)
        assert np.shape(got) == np.shape(expected)
        assert np.array_equal(_bits(got), _bits(expected))


def test_triple_of_helper_consistency(f1):
    p, q, qp, c = triple_of(*f1)
    assert_allclose(p, [0.5, 0.5], atol=1e-12)
    assert_allclose(q, [1.0, 0.0], atol=1e-12)
    assert_allclose(qp, [0.5, 0.5], atol=1e-12)
    assert_allclose(c, np.full((2, 2), 0.5), atol=1e-12)
