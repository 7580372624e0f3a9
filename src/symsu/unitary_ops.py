"""Dense unitary-level operations over the invariant algebra.

Covers the exponential map from Hermitian generator sums, products of
invariant unitaries, seeded sampling of invariant unitaries, a
unitary eigendecomposition with degenerate-cluster handling, the
eigenphase-interpolation path A(t) = P D(t) P+ from the identity to A,
and rescaling onto determinant one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import InvariantBasis, build_basis
from .errors import DimensionError, NotUnitaryError, NumericError
from .paulis import PauliSum, sum_to_matrix
from .symmetry import SymmetryGroup

UNITARITY_TOL = 1e-9

# Eigenvalues closer than this on the unit circle are treated as one
# degenerate cluster with one theta: its spectral projector, not its
# individual eigenvectors, carries the meaning.
CLUSTER_TOL = 1e-8

RECONSTRUCTION_TOL = 1e-9

# Bytes of element eigenpairs one basis keeps for _basis_exp, each counted as a complex
# 2^n x 2^n matrix: all of cyclic n=6 (d = 699), 4 at n=10; later ones are not kept.
_SPECTRA_BYTES = 1 << 26

_REAL_PRODUCT_DIM = 64  # below it, the extra numpy calls of real products cost more than they save


def _unitarity_residual(m: np.ndarray) -> float:
    """||M M+ - 1||_F; from _REAL_PRODUCT_DIM on, for M = A + iB, Re(M M+) =
    A A^T + B B^T is one symmetric product of M's interleaved real view and
    Im(M M+) = K - K^T with K = B A^T."""
    dim = len(m)
    if dim < _REAL_PRODUCT_DIM:
        return float(np.linalg.norm(m @ m.conj().T - np.eye(dim)))
    r = np.ascontiguousarray(m).view(np.float64).reshape(dim, -1)
    re = r @ r.T
    re.flat[::dim + 1] -= 1.0
    sq = np.vdot(re, re)
    if np.iscomplexobj(m):
        k = np.ascontiguousarray(m.imag) @ np.ascontiguousarray(m.real).T
        im = k - k.T
        sq += np.vdot(im, im)
    return float(np.sqrt(sq))


def _spectral_product(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """P diag(d) P+, from two real products when P is real (from _REAL_PRODUCT_DIM on)."""
    if np.iscomplexobj(p) or len(p) < _REAL_PRODUCT_DIM:
        return (p * d) @ p.conj().T
    out = ((p * d.real) @ p.T).astype(complex)
    out.imag = (p * d.imag) @ p.T
    return out


class Unitary:
    """A dense square matrix validated to be unitary at construction: the
    residual ||UU+ - 1||_F of the stored matrix, by _unitarity_residual."""

    __slots__ = ("matrix", "unitarity_residual", "_eig", "_spectrum")

    def __init__(self, matrix, tol: float = UNITARITY_TOL):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        dim = m.shape[0]
        if dim & (dim - 1):
            raise DimensionError(f"dimension {dim} is not a power of two")
        if not np.isfinite(m).all():
            raise NotUnitaryError("matrix has a non-finite entry")
        residual = _unitarity_residual(m)
        if not residual < tol:
            raise NotUnitaryError(f"||UU+ - 1|| = {residual:.3e} exceeds {tol:.1e}")
        m.setflags(write=False)
        self.matrix = m
        self.unitarity_residual = residual
        self._eig = None
        self._spectrum = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.dim.bit_length() - 1

    def dagger(self) -> "Unitary":
        return Unitary(self.matrix.conj().T)

    def __repr__(self) -> str:
        return f"Unitary(dim={self.dim}, residual={self.unitarity_residual:.2e})"


def _generator_spectrum(h: PauliSum) -> tuple:
    """Eigenpairs (w, v) of H's realization, with v read-only since a basis shares it."""
    if not h.is_hermitian():
        raise ValueError("generator must be Hermitian (real coefficients on phase-free terms)")
    hm = sum_to_matrix(h)
    w, v = np.linalg.eigh(hm if hm.imag.any() else hm.real)
    v.setflags(write=False)
    return w, v


def _spectral_exp(w: np.ndarray, v: np.ndarray, alpha: float) -> Unitary:
    """exp(-i*alpha/2 * H) from H's eigenpairs, which stay on the result for eig_unitary."""
    if not math.isfinite(alpha):
        raise ValueError(f"angle alpha must be finite, got {alpha}")
    lambdas = np.exp(-0.5j * alpha * w)
    u = Unitary(_spectral_product(v, lambdas))
    u._spectrum = (v, lambdas)
    return u


def exp_generator(h: PauliSum, alpha: float) -> Unitary:
    """exp(-i*alpha/2 * H) for a Hermitian generator sum H and a finite alpha.

    Computed through the Hermitian eigendecomposition of the realization,
    so the result is unitary up to eigensolver error.  A sum with an even
    number of Y letters in every term has a real realization, solved as such.
    """
    return _spectral_exp(*_generator_spectrum(h), alpha)


def _basis_exp(basis: InvariantBasis, k: int, alpha: float) -> Unitary:
    """exp_generator(basis.elements[k], alpha), eigensolving each element once per
    basis while its kept eigenpairs fit in _SPECTRA_BYTES."""
    spectrum = basis._spectra.get(k) or _generator_spectrum(basis.elements[k])
    if k not in basis._spectra and (len(basis._spectra) + 1) * 16 << 2 * basis.n <= _SPECTRA_BYTES:
        basis._spectra[k] = spectrum
    return _spectral_exp(*spectrum, alpha)


def compose(u1: Unitary, u2: Unitary) -> Unitary:
    """Apply u1 first, then u2: the matrix product U2 U1."""
    if u1.dim != u2.dim:
        raise DimensionError(f"dimensions differ: {u1.dim} vs {u2.dim}")
    return Unitary(u2.matrix @ u1.matrix)


def random_invariant(n: int, group: SymmetryGroup, seed: int, depth: int,
                     basis: InvariantBasis | None = None) -> Unitary:
    """Product of `depth` exponentials of uniformly drawn basis elements.

    Deterministic per seed; angles are uniform in [0, 2*pi).
    """
    if basis is None:
        basis = build_basis(n, group)
    if len(basis) == 0:
        raise ValueError("degenerate group: the invariant basis is empty")
    rng = np.random.default_rng(seed)
    u = np.eye(1 << n, dtype=complex)
    for _ in range(depth):
        k = int(rng.integers(len(basis)))
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        u = _basis_exp(basis, k, alpha).matrix @ u
    return Unitary(u)


@dataclass(frozen=True)
class EigDecomposition:
    """Orthonormal eigenvectors and clustered eigenphases of a unitary.

    ``clusters`` holds half-open column ranges of equal eigenvalues;
    thetas are identical within each cluster and lie in (-pi, pi].
    """

    eigenvectors: np.ndarray
    thetas: np.ndarray
    clusters: tuple

    def reconstruct(self, t: float = 1.0) -> np.ndarray:
        return _spectral_product(self.eigenvectors, np.exp(1j * t * self.thetas))


def _cluster_indices(values: np.ndarray, tol: float) -> list[np.ndarray]:
    """Group indices of unit-circle values into single-linkage clusters.

    Two values within tol of each other are linked.  Every value on the
    shorter arc between two linked ones is within tol of both, so in angle
    order a cluster is a run of neighbours whose gaps are at most tol, the
    gap across -1 included.  Members are listed in index order.
    """
    order = np.argsort(np.angle(values), kind="stable")
    ring = values[order]
    cut = np.abs(ring - np.roll(ring, -1)) > tol  # cut[k]: order[k] | order[k+1]
    labels = np.concatenate(([0], np.cumsum(cut[:-1])))
    if not cut[-1]:
        labels[labels == labels[-1]] = 0  # the last run wraps into the first
    by_index = np.empty_like(labels)
    by_index[order] = labels
    members = np.argsort(by_index, kind="stable")
    starts = np.flatnonzero(np.diff(by_index[members])) + 1
    return np.split(members, starts)


def _assemble(vectors: np.ndarray, lambdas: np.ndarray) -> EigDecomposition:
    """Cluster the eigenvalues of a Hermitian eigensolve's orthonormal
    columns and gather the columns cluster by cluster, sorted by theta."""
    reps = []
    for members in _cluster_indices(lambdas, CLUSTER_TOL):
        rep = np.mean(lambdas[members])
        reps.append((float(np.angle(rep / abs(rep))), members))
    reps.sort(key=lambda item: item[0])
    sizes = [len(members) for _, members in reps]
    stops = np.cumsum(sizes).tolist()
    return EigDecomposition(vectors[:, np.concatenate([members for _, members in reps])],
                            np.repeat([theta for theta, _ in reps], sizes),
                            tuple(zip([0] + stops[:-1], stops)))


def _cayley_decomposition(m: np.ndarray) -> EigDecomposition:
    """One Hermitian eigensolve of the Cayley transform H = i(1 - A')(1 + A')^-1
    of A' = exp(i phi) A, whose eigenvalue tan(theta'/2) has slope at least 1/2
    in the eigenphase theta' = theta + phi.

    So eigenvectors are as well conditioned as the eigenphases are apart; the
    real part cos(theta) would map theta and -theta alike.  phi rotates onto -1,
    where tan(theta'/2) diverges, the middle of the widest gap between the
    candidate eigenphases +-arccos of the real part's eigenvalues.
    """
    cos = np.clip(np.linalg.eigvalsh((m + m.conj().T) / 2), -1.0, 1.0)
    phases = np.sort(np.concatenate((np.arccos(cos), -np.arccos(cos))))
    gaps = np.diff(phases, append=phases[0] + 2 * np.pi)
    k = int(np.argmax(gaps))
    phi = np.pi - phases[k] - gaps[k] / 2
    a, eye = np.exp(1j * phi) * m, np.eye(len(m))
    h = 1j * np.linalg.solve(eye + a, eye - a)
    mu, v = np.linalg.eigh((h + h.conj().T) / 2)
    theta = np.pi - np.mod(np.pi + phi - 2 * np.arctan(mu), 2 * np.pi)  # in (-pi, pi]
    return _assemble(v, np.exp(1j * theta))


def eig_unitary(a) -> EigDecomposition:
    """Eigendecomposition of a unitary with degenerate-cluster grouping.

    Both routes are Hermitian eigensolves: the spectrum a Unitary from
    exp_generator carries, then the Cayley route.  The first whose P
    reconstructs the matrix and is orthonormal within RECONSTRUCTION_TOL
    wins; NumericError names the last route's residuals if none does.
    """
    m = np.asarray(getattr(a, "matrix", a), dtype=complex)
    stored = getattr(a, "_spectrum", None)
    routes = ([] if stored is None else [lambda _: _assemble(*stored)]) + [_cayley_decomposition]
    for route in routes:
        dec = route(m)
        recon = float(np.linalg.norm(dec.reconstruct() - m))
        ortho = _unitarity_residual(dec.eigenvectors)  # = ||P+P - 1|| for a square P
        if recon < RECONSTRUCTION_TOL and ortho < RECONSTRUCTION_TOL:
            return dec
    raise NumericError(
        f"unitary eigendecomposition failed: reconstruction residual {recon:.3e}, "
        f"orthonormality residual {ortho:.3e}, target {RECONSTRUCTION_TOL:.1e}"
    )


def connectedness_path(a: Unitary, t: float) -> Unitary:
    """Point on the eigenphase-interpolation path from the identity to A.

    A(t) = P diag(exp(i t theta)) P+ with one cached decomposition per A;
    A(0) is the identity and A(1) reproduces A.  If A commutes with a
    symmetry group, so does every A(t), because the interpolation only
    rescales eigenvalues while keeping the spectral projectors fixed.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"path parameter must lie in [0, 1], got {t}")
    if a._eig is None:
        a._eig = eig_unitary(a)
        a._spectrum = None  # exp_generator's eigenpairs: dim^2 numbers no longer needed
    return Unitary(a._eig.reconstruct(t))


def project_to_su(u: Unitary) -> Unitary:
    """Rescale by the principal dim-th root of det(U) onto determinant one.

    The factor is a global phase, so commutation with every symmetry
    element is unchanged.
    """
    d = complex(np.linalg.det(u.matrix))
    factor = abs(d) ** (-1.0 / u.dim) * np.exp(-1j * np.angle(d) / u.dim)
    return Unitary(u.matrix * factor)
