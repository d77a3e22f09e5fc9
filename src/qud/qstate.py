"""States, bases, and sequential-measurement statistics.

Everything downstream works with the two frozen value types defined here,
DensityMatrix and OrthonormalBasis, or with TripleBatch, an ensemble of
(state, A, B) instances reduced in the first basis's frame.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rng import stream

VALIDATION_TOL = 1e-8

# eigenvalues below RANK_TOL * largest are eigh noise on the kernel, not support
RANK_TOL = 1e-13

# probabilities below ZERO_CUTOFF count as exact zeros before any log or power
ZERO_CUTOFF = 1e-15

# Rows per scan chunk of search and dpi up to d=4. Above that a chunk's rows
# shrink as 1/d^2, so each complex d x d array of a chunk stays at
# _SCAN_ENTRIES entries (1 MB) and a scan's memory does not grow with d.
SEARCH_CHUNK = 4096
_SCAN_ENTRIES = SEARCH_CHUNK * 4**2


# below this many entries, _row_sum and _row_max chain elementwise ops
_SHORT_AXIS = 8


def _row_sum(x):
    """x.sum(axis=-1), bit for bit, over an axis of two or more entries.

    numpy's reduce pays a per-row cost that dwarfs the arithmetic of a short
    axis. Below 8 entries it adds in order from 0.0, so elementwise adds in
    place give its result; from 8 entries on it sums pairwise, so its own
    reduce is kept.
    """
    if x.shape[-1] >= _SHORT_AXIS:
        return x.sum(axis=-1)
    out = x[..., 0] + x[..., 1]
    for k in range(2, x.shape[-1]):
        out += x[..., k]
    out += 0.0  # numpy's start: an all -0.0 row sums to +0.0
    return out


def _row_max(x):
    """x.max(axis=-1), bit for bit: a chain of np.maximum below 8 entries.

    From 8 entries on numpy's vectorized reduce may pick the other of -0.0
    and +0.0, so its own reduce is kept there.
    """
    if x.shape[-1] >= _SHORT_AXIS:
        return x.max(axis=-1)
    out = np.maximum(x[..., 0], x[..., 1])
    for k in range(2, x.shape[-1]):
        out = np.maximum(out, x[..., k])
    return out


def _matrix_max(m):
    """The largest entry of each of n matrices; the row width is explicit, so n may be 0."""
    return _row_max(m.reshape(len(m), m.shape[1] * m.shape[2]))


def _pseudo_power(values, exponent: float):
    """values**exponent on the support, 0 off it; reduces over the last axis.

    An entry at or below RANK_TOL times the largest one is off the support.
    """
    on = values > (_row_max(values) * RANK_TOL)[..., None]
    return np.where(on, values, 1.0) ** exponent * on


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def _check_matrix(m, what):
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {m.shape}")
    if m.shape[0] < 2:
        raise ValidationError(f"{what} needs dimension >= 2, got {m.shape[0]}")
    # every comparison with NaN is False, so the tolerance checks would pass it
    if not np.isfinite(m).all():
        raise ValidationError(f"{what} has a non-finite entry")


def _check_dim(dim: int):
    if dim < 2:
        raise ValidationError(f"need dimension >= 2, got {dim}")


def _check_same_dim(x, y):
    if x.dim != y.dim:
        raise ValidationError(f"dimensions differ: {x.dim} vs {y.dim}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated density matrix, exactly Hermitian and rebuilt by
    `make_density` from its cleaned spectrum."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Orthonormal measurement basis; kets are the columns of `kets`."""

    kets: np.ndarray

    @property
    def dim(self) -> int:
        return self.kets.shape[0]


def make_density(entries) -> DensityMatrix:
    """Validate a raw matrix and return the cleaned DensityMatrix.

    Rejects non-square or dim<2 input, non-finite entries, Hermiticity drift,
    eigenvalues below -1e-8, and trace off 1 by more than 1e-8. Accepted
    spectra are clipped to [0, 1] and renormalized, and the matrix is rebuilt
    from the cleaned eigendecomposition.
    """
    m = np.asarray(entries, dtype=np.complex128)
    _check_matrix(m, "a density matrix")
    drift = float(np.max(np.abs(m - m.conj().T)))
    if drift > VALIDATION_TOL:
        raise ValidationError(f"max Hermiticity drift {drift:.3g} exceeds {VALIDATION_TOL}")
    h = (m + m.conj().T) / 2.0
    tr = float(np.real(np.trace(h)))
    if abs(tr - 1.0) > VALIDATION_TOL:
        raise ValidationError(f"trace {tr:.10g} differs from 1 by more than {VALIDATION_TOL}")
    lam, vec = np.linalg.eigh(h)
    if lam[0] < -VALIDATION_TOL:
        raise ValidationError(f"minimum eigenvalue {lam[0]:.6g} below -{VALIDATION_TOL}")
    lam = np.clip(lam, 0.0, 1.0)
    lam = lam / lam.sum()
    cleaned = (vec * lam) @ vec.conj().T
    cleaned = (cleaned + cleaned.conj().T) / 2.0
    return DensityMatrix(_frozen(cleaned))


def make_basis(kets) -> OrthonormalBasis:
    """Validate a matrix of ket columns (Gram within 1e-8 of identity)."""
    u = np.asarray(kets, dtype=np.complex128)
    _check_matrix(u, "a basis")
    drift = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if drift > VALIDATION_TOL:
        raise ValidationError(f"max Gram drift {drift:.3g} exceeds {VALIDATION_TOL}")
    return OrthonormalBasis(_frozen(u))


def standard_basis(dim: int) -> OrthonormalBasis:
    _check_dim(dim)
    return OrthonormalBasis(_frozen(np.eye(dim, dtype=np.complex128)))


def fourier_basis(dim: int) -> OrthonormalBasis:
    """Discrete-Fourier basis, mutually unbiased with the standard one."""
    _check_dim(dim)
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    u = np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim)
    return OrthonormalBasis(_frozen(u))


def _complex_normal(rng, shape):
    """rng.standard_normal(shape) + 1j * rng.standard_normal(shape), filled in
    place: all real parts are drawn first, so stream and values are the same,
    without the sum's three full-size temporaries."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def _haar_unitaries(rng, count: int, dim: int):
    """Modified Gram-Schmidt on the columns of complex Ginibre matrices.

    Its R factor has a positive real diagonal, so Q is the QR factor with the
    phase fix that makes it Haar distributed (Mezzadri 2007).
    """
    q = _complex_normal(rng, (count, dim, dim))
    for k in range(dim):
        col = q[:, :, k:k + 1]
        col /= np.linalg.norm(col, axis=1, keepdims=True)
        rest = q[:, :, k + 1:]
        rest -= col @ (col.conj().transpose(0, 2, 1) @ rest)
    return q


def _haar_overlaps(rng, count: int):
    """C = |U|^2 of Haar U(3) unitaries U, in closed form from three draws.

    C does not change under row and column phases, so U's first column can
    be taken real: r = sqrt(x), where x ~ Dirichlet(1, 1, 1) holds the
    squared moduli of a uniform unit vector of C^3. Given r, the second
    column v is uniform on the unit sphere of r's orthogonal complement,
    which has the real orthonormal basis

        e1 = (r1, -r0, 0) / sqrt(m),  e2 = (r0 r2, r1 r2, -m) / sqrt(m),

    with m = x0 + x1. In it v = a e1 + b e2 with (a, b) uniform on the unit
    sphere of C^2, so s = |a|^2 ~ U(0, 1) and arg(a conj(b)) = 2 pi t with
    t ~ U(0, 1), independent of s. Expanding |v_i|^2 gives

        C[0, 1] = (s x1 + (1 - s) x0 x2) / m + k,
        C[1, 1] = (s x0 + (1 - s) x1 x2) / m - k,
        C[2, 1] = (1 - s) m,  k = 2 cos(2 pi t) sqrt(s (1 - s) x0 x1 x2) / m,

    and the first two rows are clipped at 0 against rounding. Each row of U
    has unit norm, so the last column of C is each row's complement
    1 - sum of its other entries, clipped at 0. It draws x from rng, then
    (s, t) = rng.random((2, count)).
    """
    x = rng.dirichlet(np.ones(3), count)
    s, t = rng.random((2, count))
    x0, x1, x2 = x.T
    m = x0 + x1
    w = 1.0 - s
    k = np.cos(2.0 * np.pi * t)
    k *= 2.0 * np.sqrt(s * w * x0 * x1 * x2)
    w_x2 = w * x2
    c = np.empty((count, 3, 3))
    c[:, :, 0] = x
    col = c[:, :, 1]
    col[:, 0] = s * x1 + w_x2 * x0 + k
    col[:, 1] = s * x0 + w_x2 * x1 - k
    col[:, :2] /= m[:, None]
    np.maximum(col[:, :2], 0.0, out=col[:, :2])
    np.multiply(w, m, out=col[:, 2])
    np.subtract(1.0, _row_sum(c[:, :, :2]), out=c[:, :, 2])
    np.maximum(c[:, :, 2], 0.0, out=c[:, :, 2])
    return c


def _ginibre_states(rng, count: int, dim: int):
    """Hilbert-Schmidt-distributed mixed states G G^dag / tr."""
    g = _complex_normal(rng, (count, dim, dim))
    m = g @ g.conj().transpose(0, 2, 1)
    m /= np.real(np.einsum("nii->n", m))[:, None, None]
    return m


def _haar_frames(rng, count: int, dim: int, pure: bool):
    """(rho, w): states in basis A's frame, then W = U_A^dag U_B, one stream.

    States are Hilbert-Schmidt mixed, or Haar pure: a Gaussian ket over its
    norm, in law a Haar unitary's column. These measures and Haar's are
    unitarily invariant, so this is the law of an independent (rho, U_A, U_B)
    draw rotated into A's frame (Zyczkowski & Sommers 2001).
    """
    _check_dim(dim)
    if pure:
        kets = _complex_normal(rng, (count, dim))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        rho = kets[:, :, None] * kets[:, None, :].conj()
    else:
        rho = _ginibre_states(rng, count, dim)
    return rho, _haar_unitaries(rng, count, dim)


@dataclass(frozen=True, eq=False)
class TripleBatch:
    """An ensemble of (state, basis A, basis B) triples as A-frame data.

    Basis A is the standard basis, so rho is the state as drawn, the
    dephased state is diag(p) and overlap is C = |W|^2; q is the diagonal of
    W^dag rho W and qp = p C. known_spectrum holds each state's eigenvalues
    when the draw knows them (pure states); otherwise `spectrum` computes
    them on every read, so only its readers pay for the eigvalsh.
    """

    rho: np.ndarray
    p: np.ndarray
    q: np.ndarray
    qp: np.ndarray
    overlap: np.ndarray
    known_spectrum: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.rho.shape[1]

    @property
    def cmax(self):
        return _matrix_max(self.overlap)

    @property
    def spectrum(self):
        if self.known_spectrum is not None:
            return self.known_spectrum
        return np.clip(np.linalg.eigvalsh(self.rho), 0.0, 1.0)


def _diagonal_probs(rho):
    """Each state's diagonal as a distribution: clipped to [0, 1], renormalized."""
    p = np.clip(np.real(np.einsum("nii->ni", rho)), 0.0, 1.0)
    return p / _row_sum(p)[:, None]


def _triples(rho, w, pure: bool) -> TripleBatch:
    """Reduce A-frame states and unitaries W; a pure spectrum is one-hot."""
    overlap = np.abs(w) ** 2
    p = _diagonal_probs(rho)
    # Re(w conj(x)) is Re(conj(w) x) to the bit, so conjugating the fresh
    # x = rho W in place spares a copy of conj(W)
    x = rho @ w
    q = np.clip(np.einsum("nik,nik->nk", w, np.conjugate(x, out=x)).real, 0.0, 1.0)
    q = q / _row_sum(q)[:, None]
    qp = np.einsum("ni,nij->nj", p, overlap)
    spectrum = np.eye(p.shape[1])[np.full(len(p), -1)] if pure else None
    return TripleBatch(rho, p, q, qp, overlap, spectrum)


def _scan_rows(dim: int) -> int:
    """Rows per scan chunk at dimension dim >= 2: SEARCH_CHUNK up to d=4, then fewer."""
    _check_dim(dim)
    return max(1, _SCAN_ENTRIES // max(dim, 4) ** 2)


def _scan_chunk(dim: int, seed: int, pure: bool, index: int, count: int):
    """(batch, w): the first `count` rows of scan chunk `index` and their W,
    drawn whole from stream(seed, index) as haar_triples(dim, _scan_rows(dim),
    seed, chunk=index) draws it. So a larger budget scans a superset of a
    smaller one, and a scan's memory grows with neither its budget nor d."""
    rho, w = _haar_frames(stream(seed, index), _scan_rows(dim), dim, pure)
    return _triples(rho[:count], w[:count], pure), w[:count]


def _frame_of_one(rho: DensityMatrix, a: OrthonormalBasis,
                  b: OrthonormalBasis) -> TripleBatch:
    """One (rho, A, B) instance rotated into A's frame, as a batch of one."""
    _check_same_dim(rho, a)
    _check_same_dim(a, b)
    to_a = a.kets.conj().T
    return _triples((to_a @ rho.matrix @ a.kets)[None], (to_a @ b.kets)[None], pure=False)
