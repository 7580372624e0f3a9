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

from .basis import InvariantBasis, _check_qubits, _generator_images, build_basis
from .errors import DimensionError, NotUnitaryError, NumericError
from .paulis import PauliSum, _flip_cosets, _realize
from .symmetry import SymmetryGroup, _moved_keys

UNITARITY_TOL = 1e-9

# Eigenvalues closer than this on the unit circle are treated as one
# degenerate cluster with one theta: its spectral projector, not its
# individual eigenvectors, carries the meaning.
CLUSTER_TOL = 1e-8

RECONSTRUCTION_TOL = 1e-9

# Bytes of element eigenpairs one basis keeps for the draws, as their arrays hold them: all of
# cyclic n=6 (d = 699); at n=10, 4 dense complex ones (16 MiB each) or more blocked or real ones.
_SPECTRA_BYTES = 1 << 26

_REAL_PRODUCT_DIM = 64  # below it, the extra numpy calls of real products cost more than they save

# Bytes of one complex stack of a chunk (_chunk) below _REAL_PRODUCT_DIM: 8 seeds or elements at n=5.
_STACK_BYTES = 1 << 17


def _chunk(dim: int) -> int:
    """Matrices per stack of the draws and the element eigensolves: _STACK_BYTES of complex ones
    below _REAL_PRODUCT_DIM, one from it on, where blocks of different elements differ in shape."""
    return max(1, _STACK_BYTES // (16 * dim * dim)) if dim < _REAL_PRODUCT_DIM else 1


def _unitarity_residual(m: np.ndarray) -> float:
    """||M M+ - 1||_F, over all blocks of a stack: below _REAL_PRODUCT_DIM, summed by
    np.linalg.norm's dots over M M+ less 1 on its diagonal; from it on, for
    M = A + iB, Re(M M+) = A A^T + B B^T is one symmetric product of M's
    interleaved real view and Im(M M+) = K - K^T with K = B A^T."""
    dim = m.shape[-1]
    if dim < _REAL_PRODUCT_DIM:
        g = m @ m.conj().mT
        g.reshape(-1, dim * dim)[:, ::dim + 1] -= 1.0
        g = g.reshape(-1)
        sq = g.real.dot(g.real) + g.imag.dot(g.imag) if np.iscomplexobj(g) else g.dot(g)
        return float(np.sqrt(sq))
    r = np.ascontiguousarray(m).view(np.float64).reshape(*m.shape[:-1], -1)
    re = r @ r.mT
    re.reshape(-1, dim * dim)[:, ::dim + 1] -= 1.0
    sq = np.vdot(re, re)
    if np.iscomplexobj(m):
        k = np.ascontiguousarray(m.imag) @ np.ascontiguousarray(m.real).mT
        im = k - k.mT
        sq += np.vdot(im, im)
    return float(np.sqrt(sq))


def _spectral_product(p: np.ndarray, d: np.ndarray) -> np.ndarray:
    """P diag(d) P+, block by block for a stack; from two real products when P is
    real (from _REAL_PRODUCT_DIM on), one when d is real."""
    if np.iscomplexobj(p) or p.shape[-1] < _REAL_PRODUCT_DIM:
        return (p * d[..., None, :]) @ p.conj().mT
    out = ((p * d.real[..., None, :]) @ p.mT).astype(complex)
    if d.imag.any():
        out.imag = (p * d.imag[..., None, :]) @ p.mT
    return out


def _blocks(m: np.ndarray, cosets) -> np.ndarray:
    """The stack of m's blocks on the rows of a coset table; m for no table."""
    return m if cosets is None else m[cosets[:, :, None], cosets[:, None, :]]


def _scatter(blocks: np.ndarray, cosets) -> np.ndarray:
    """The matrix of a stack's blocks on the rows of a coset table, zero off them, or one such matrix
    per leading index of a stack of block stacks; blocks for no table."""
    if cosets is None:
        return blocks
    out = np.zeros(blocks.shape[:-3] + (cosets.size,) * 2, dtype=complex)
    out[..., cosets[:, :, None], cosets[:, None, :]] = blocks
    return out


def _checked_residual(m: np.ndarray, tol: float = UNITARITY_TOL) -> float:
    """_unitarity_residual of m, over all blocks of a stack, so at least each block's;
    NotUnitaryError unless m is finite and it is below tol."""
    if not np.isfinite(m).all():
        raise NotUnitaryError("matrix has a non-finite entry")
    residual = _unitarity_residual(m)
    if not residual < tol:
        raise NotUnitaryError(f"||UU+ - 1|| = {residual:.3e} exceeds {tol:.1e}")
    return residual


class Unitary:
    """A dense square matrix validated to be unitary by ||UU+ - 1||_F (_unitarity_residual); with a coset
    table `_cosets`, built from the stack of blocks on its rows: validated, then scattered, zero off them."""

    __slots__ = ("matrix", "unitarity_residual", "_eig", "_spectrum", "_cosets")

    def __init__(self, matrix, tol: float = UNITARITY_TOL, _cosets=None):
        m = np.array(matrix, dtype=complex) if _cosets is None else np.asarray(matrix, dtype=complex)
        if _cosets is None and (m.ndim != 2 or m.shape[0] != m.shape[1]):
            raise DimensionError(f"expected a square matrix, got shape {m.shape}")
        dim = m.shape[-1]
        if dim < 1 or dim & (dim - 1):
            raise DimensionError(f"dimension {dim} is not a power of two")
        self._adopt(m, _checked_residual(m, tol), _cosets)

    def _adopt(self, blocks: np.ndarray, residual: float, cosets) -> "Unitary":
        m = _scatter(blocks, cosets)
        m.setflags(write=False)
        if cosets is not None:
            cosets.setflags(write=False)
        self.matrix, self.unitarity_residual, self._cosets = m, residual, cosets
        self._eig = self._spectrum = None
        return self

    @classmethod
    def _checked(cls, blocks: np.ndarray, residual: float, cosets=None) -> "Unitary":
        """The Unitary of a kernel's fresh array (blocks on the rows of cosets, if given), whose
        _checked_residual the kernel has taken as `residual`."""
        return cls.__new__(cls)._adopt(blocks, residual, cosets)

    def __reduce__(self):
        # Rebuilt from its blocks, so the residual is recounted bit for bit; tol inf, as the one it
        # was checked against is not kept.  Kept eigenpairs are not pickled.
        return Unitary, (_blocks(self.matrix, self._cosets), math.inf, self._cosets)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.dim.bit_length() - 1

    def __repr__(self) -> str:
        return f"Unitary(dim={self.dim}, residual={self.unitarity_residual:.2e})"


def _sum_spectra(n: int, x: np.ndarray, z: np.ndarray, coeffs, element: np.ndarray, count: int) -> list:
    """(w, v, table) per sum of a _realize stack: the eigenpairs of its realization, read-only since a basis
    shares them, from one eigh of the real members and one of the complex ones (by imag.any()).  A stack
    from _REAL_PRODUCT_DIM on is one sum (_chunk), solved on the blocks of its _flip_cosets table if there
    are two or more, stacked by the table's rows; else table None."""
    hm = _realize(n, x, z, coeffs, element, count)
    cosets = _flip_cosets(n, x) if hm.shape[-1] >= _REAL_PRODUCT_DIM else None
    if cosets is not None and len(cosets) > 1:
        cosets.setflags(write=False)
        hm = _blocks(hm[0], cosets)[None]  # the dense realization is freed before the solve
    else:
        cosets = None
    odd = hm.imag.reshape(count, -1).any(axis=1)
    spectra = [None] * count
    for which, stack in ((~odd, hm.real), (odd, hm)):
        members = np.flatnonzero(which)
        if len(members):  # a whole stack is solved as it is: a selection would copy it
            w, v = np.linalg.eigh(stack if len(members) == count else stack[members])
            w.setflags(write=False)
            v.setflags(write=False)
            for i, wi, vi in zip(members.tolist(), w, v):
                spectra[i] = (wi, vi, cosets)
    return spectra


def _spectral_exp(w: np.ndarray, v: np.ndarray, cosets, alpha: float) -> Unitary:
    """exp(-i*alpha/2 * H) from H's eigenpairs, which stay on the result for eig_unitary."""
    if not math.isfinite(alpha):
        raise ValueError(f"angle alpha must be finite, got {alpha}")
    lambdas = np.exp(-0.5j * alpha * w)
    u = Unitary(_spectral_product(v, lambdas), _cosets=cosets)
    u._spectrum = (v, lambdas)
    return u


def exp_generator(h: PauliSum, alpha: float) -> Unitary:
    """exp(-i*alpha/2 * H) for a Hermitian generator sum H and a finite alpha.

    Computed through the Hermitian eigendecomposition of the realization,
    so the result is unitary up to eigensolver error.  A sum with an even
    number of Y letters in every term has a real realization, solved as such.
    """
    if not h.is_hermitian():
        raise ValueError("generator must be Hermitian (real coefficients on phase-free terms)")
    spectrum, = _sum_spectra(h.n, h.x, h.z, h.coeffs, np.zeros(len(h), dtype=np.int64), 1)
    return _spectral_exp(*spectrum, alpha)


def _basis_spectra(basis: InvariantBasis, ks):
    """Yield the _sum_spectra of basis elements ks, in order, a chunk (_chunk) of ks at a time: the kept
    ones are read, the rest realized as one stack from the basis's masks (unit coefficients: exact, as in
    exp_generator of the element) and kept on the basis, in order, while the kept byte total stays within
    _SPECTRA_BYTES."""
    kept, chunk = basis._spectra, _chunk(1 << basis.n)
    for start in range(0, len(ks), chunk):
        part = ks[start:start + chunk]
        got = {k: kept[k] for k in part if k in kept}
        todo = np.array([k for k in dict.fromkeys(part) if k not in got], dtype=np.int64)
        if len(todo):  # a stack of none cannot be realized
            lo, sizes = basis.offsets[todo], basis.offsets[todo + 1] - basis.offsets[todo]
            terms = np.arange(sizes.sum()) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
            element = np.repeat(np.arange(len(todo)), sizes)
            solved = _sum_spectra(basis.n, basis.x[terms], basis.z[terms], 1.0, element, len(todo))
            for k, spectrum in zip(todo.tolist(), solved):
                got[k] = spectrum
                size = sum(a.nbytes for a in spectrum if a is not None)
                if kept.nbytes + size <= _SPECTRA_BYTES:
                    kept[k] = spectrum
                    kept.nbytes += size
        yield from (got[k] for k in part)


def compose(u1: Unitary, u2: Unitary) -> Unitary:
    """Apply u1 first, then u2: the matrix product U2 U1."""
    if u1.dim != u2.dim:
        raise DimensionError(f"dimensions differ: {u1.dim} vs {u2.dim}")
    product = u2.matrix @ u1.matrix
    return Unitary._checked(product, _checked_residual(product))


def random_invariant(n: int, group: SymmetryGroup, seed: int, depth: int,
                     basis: InvariantBasis | None = None) -> Unitary:
    """Product of `depth` exponentials of uniformly drawn basis elements.

    Deterministic per seed; angles are uniform in [0, 2*pi).  A basis of
    another group must keep its orbit table under the group's generators.
    """
    return next(_random_invariants(n, group, (seed,), depth, basis))


def _random_invariants(n: int, group: SymmetryGroup, seeds, depth: int, basis: InvariantBasis | None = None):
    """Yield random_invariant(n, group, seed, depth, basis) for each seed, in order."""
    for u in _draw_stacks(n, group, seeds, depth, basis):
        yield from map(Unitary, u)


def _composed_pairs(n: int, group: SymmetryGroup, seeds, depth: int, basis: InvariantBasis):
    """Yield (u1, u2, products) per chunk of _draw_stacks over seeds[0::2] and seeds[1::2] side by side:
    u1[i] and u2[i] are the draws U1 and U2 of a pair, and products[i] is compose(U1, U2).matrix, one
    BLAS call per slice.  Each stack is checked at once; a stack residual below tol bounds every member's."""
    seeds = list(seeds)
    for u1, u2 in zip(_draw_stacks(n, group, seeds[0::2], depth, basis),
                      _draw_stacks(n, group, seeds[1::2], depth, basis)):
        products = u2 @ u1
        for stack in (u1, u2, products):
            _checked_residual(stack)
        yield u1, u2, products


def _draw_stacks(n: int, group: SymmetryGroup, seeds, depth: int, basis: InvariantBasis | None = None):
    """Yield the random_invariant matrices of the seeds, in order, as unchecked stacks of a chunk.

    Each seed draws from its own default_rng(seed).  The seeds go in chunks
    (_chunk; one seed from _REAL_PRODUCT_DIM on, where a factor may be
    blocked).  Per depth step, the chunk's draws read their spectra at once
    (_basis_spectra) and its factors are one stack, built by one
    spectral product, checked at once (finite, stack residual below
    UNITARITY_TOL), scattered if blocked and multiplied on by one stacked
    matmul, a BLAS call per slice, so every product is bit for bit that of the
    seed's exp_generator matrices, multiplied on one by one.
    """
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    _check_qubits(n, group)
    if basis is None:
        basis = build_basis(n, group)
    _check_qubits(n, basis.group)
    if basis.group is not group:
        if any(not np.array_equal(basis.orbit_of[_moved_keys(2 * n, row)], basis.orbit_of)
               for row in _generator_images(group).tolist()):
            raise ValueError(f"a basis of group {basis.group.name!r} is not invariant under {group.name!r}")
    if len(basis) == 0:
        raise ValueError("degenerate group: the invariant basis is empty")
    dim = 1 << n
    seeds = list(seeds)
    chunk = _chunk(dim)
    for start in range(0, len(seeds), chunk):
        rngs = [np.random.default_rng(seed) for seed in seeds[start:start + chunk]]
        u = np.broadcast_to(np.eye(dim, dtype=complex), (len(rngs), dim, dim))
        for _ in range(depth):
            draws = [(int(rng.integers(len(basis))), float(rng.uniform(0.0, 2.0 * math.pi))) for rng in rngs]
            spectra = list(_basis_spectra(basis, [k for k, _ in draws]))
            lambdas = [np.exp(-0.5j * alpha * w) for (_, alpha), (w, _, _) in zip(draws, spectra)]
            # A real P stacked with complex ones gets +0 imaginary parts, -0 in P+: that signs
            # only zero terms, and a BLAS sum, started from +0, ends with the same bits.
            factors = _spectral_product(np.stack([v for _, v, _ in spectra]), np.stack(lambdas))
            _checked_residual(factors)
            # A coset table comes only from _REAL_PRODUCT_DIM on, in a chunk of one seed: its
            # (1, blocks, b, b) stack scatters into one dim x dim factor.
            u = _scatter(factors, spectra[0][2]) @ u
            del factors, spectra  # freed before the next step's eigensolve
        yield u


@dataclass(frozen=True)
class EigDecomposition:
    """Read-only orthonormal eigenvectors and clustered eigenphases of a unitary.

    ``clusters`` holds half-open column ranges of equal eigenvalues;
    thetas are identical within each cluster and lie in (-pi, pi].  With
    ``cosets``, block k (on the states cosets[k]) is eigenvectors[k] and
    thetas[k], and clusters index the stack's flattened columns.
    """

    eigenvectors: np.ndarray
    thetas: np.ndarray
    clusters: tuple
    cosets: np.ndarray | None = None

    def __post_init__(self):
        for a in (self.eigenvectors, self.thetas, self.cosets):
            if a is not None:
                a.setflags(write=False)  # a Unitary shares its decomposition with every reader

    def __reduce__(self):
        return EigDecomposition, (self.eigenvectors, self.thetas, self.clusters, self.cosets)

    def reconstruct(self, t: float = 1.0) -> np.ndarray:
        return _scatter(self._points((t,))[0], self.cosets)

    def _points(self, ts) -> np.ndarray:
        """P diag(exp(i t theta)) P+ for each t of ts, one stack from one _spectral_product;
        per block, with cosets."""
        d = np.exp(np.multiply.outer(1j * np.asarray(ts), self.thetas))
        return _spectral_product(self.eigenvectors, d)


def _cluster_indices(values: np.ndarray, tol: float) -> tuple:
    """Group indices of unit-circle values into single-linkage clusters:
    (members, starts), cluster c being members[starts[c]:starts[c + 1]].

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
    return members, np.flatnonzero(np.diff(by_index[members], prepend=-1))


def _assemble(vectors: np.ndarray, lambdas: np.ndarray, cosets=None) -> EigDecomposition:
    """Cluster the eigenvalues of Hermitian eigensolves' orthonormal columns, over
    all blocks of a stack, and sort each block's columns by theta, ties by index."""
    flat = lambdas.reshape(-1)
    members, heads = _cluster_indices(flat, CLUSTER_TOL)
    sizes = np.diff(heads, append=flat.size)
    # Each cluster's theta is that of its np.mean: clusters go by size, as a 2-D add.reduce sums
    # each row as the 1-D one does, and np.hypot is the scalar abs.
    reps = np.empty(len(heads), dtype=complex)
    for size in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique would import numpy.ma
        which = np.flatnonzero(sizes == size)
        reps[which] = np.add.reduce(flat[members[heads[which, None] + np.arange(size)]], axis=1) / size
    thetas = np.empty(flat.size)
    thetas[members] = np.repeat(np.angle(reps / np.hypot(reps.real, reps.imag)), sizes)
    order = np.argsort(thetas.reshape(lambdas.shape), axis=-1, kind="stable")
    thetas = np.take_along_axis(thetas.reshape(lambdas.shape), order, -1)
    starts = np.flatnonzero(np.diff(thetas, prepend=-np.inf)).tolist()  # and every block's start
    vectors = np.take_along_axis(vectors, order[..., None, :], -1)
    return EigDecomposition(vectors, thetas, tuple(zip(starts, starts[1:] + [thetas.size])), cosets)


def _cayley_decomposition(m: np.ndarray, cosets=None) -> EigDecomposition:
    """One Hermitian eigensolve of the Cayley transform H = i(1 - A')(1 + A')^-1
    of A' = exp(i phi) A, whose eigenvalue tan(theta'/2) has slope at least 1/2
    in the eigenphase theta' = theta + phi; per block, with one phi each, for a
    stack of the blocks on the rows of a coset table.

    So eigenvectors are as well conditioned as the eigenphases are apart; the
    real part cos(theta) would map theta and -theta alike.  phi rotates onto -1,
    where tan(theta'/2) diverges, the middle of the widest gap between the
    candidate eigenphases +-arccos of the real part's eigenvalues.
    """
    cos = np.clip(np.linalg.eigvalsh((m + m.conj().mT) / 2), -1.0, 1.0)
    phases = np.sort(np.concatenate((np.arccos(cos), -np.arccos(cos)), axis=-1), axis=-1)
    gaps = np.diff(phases, axis=-1, append=phases[..., :1] + 2 * np.pi)
    k = np.argmax(gaps, axis=-1)[..., None]
    phi = np.pi - np.take_along_axis(phases, k, -1) - np.take_along_axis(gaps, k, -1) / 2
    a, eye = np.exp(1j * phi)[..., None] * m, np.eye(m.shape[-1])
    h = 1j * np.linalg.solve(eye + a, eye - a)
    mu, v = np.linalg.eigh((h + h.conj().mT) / 2)
    theta = np.pi - np.mod(np.pi + phi - 2 * np.arctan(mu), 2 * np.pi)  # in (-pi, pi]
    return _assemble(v, np.exp(1j * theta), cosets)


def eig_unitary(a) -> EigDecomposition:
    """Eigendecomposition of a unitary with degenerate-cluster grouping.

    Both routes are Hermitian eigensolves: the spectrum a Unitary from
    exp_generator carries, then the Cayley route, on the blocks of a Unitary's
    coset table if it has one.  The first whose P reconstructs the matrix and is
    orthonormal within RECONSTRUCTION_TOL wins, and a Unitary keeps it in place
    of its spectrum; NumericError names the last route's residuals if none does.
    """
    if getattr(a, "_eig", None) is not None:
        return a._eig
    stored, cosets = getattr(a, "_spectrum", None), getattr(a, "_cosets", None)
    m = _blocks(np.asarray(getattr(a, "matrix", a), dtype=complex), cosets)  # a is zero off its blocks
    routes = ([] if stored is None else [lambda: _assemble(*stored, cosets)]) + [
        lambda: _cayley_decomposition(m, cosets)]
    for route in routes:
        dec = route()
        d = np.exp(1j * dec.thetas)
        recon = float(np.linalg.norm(_spectral_product(dec.eigenvectors, d) - m))
        ortho = _unitarity_residual(dec.eigenvectors)  # = ||P+P - 1|| for a square P
        if recon < RECONSTRUCTION_TOL and ortho < RECONSTRUCTION_TOL:
            if isinstance(a, Unitary):  # exp_generator's eigenpairs: dim^2 numbers no longer needed
                a._eig, a._spectrum = dec, None
            return dec
    raise NumericError(
        f"unitary eigendecomposition failed: reconstruction residual {recon:.3e}, "
        f"orthonormality residual {ortho:.3e}, target {RECONSTRUCTION_TOL:.1e}"
    )


def connectedness_path(a: Unitary, t: float) -> Unitary:
    """Point on the eigenphase-interpolation path from the identity to A.

    A(t) = P diag(exp(i t theta)) P+ with the decomposition eig_unitary keeps on A;
    A(0) is the identity and A(1) reproduces A.  If A commutes with a
    symmetry group, so does every A(t), because the interpolation only
    rescales eigenvalues while keeping the spectral projectors fixed.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"path parameter must lie in [0, 1], got {t}")
    blocks, residual, cosets = _path_stack(a, (t,))
    return Unitary._checked(blocks[0], residual, cosets)


def _path_stack(a, ts) -> tuple:
    """(blocks, residual, cosets): connectedness_path(a, t) for each t of ts, as one stack of
    EigDecomposition._points (of blocks on the rows of cosets, if not None), checked at once;
    for one t, the residual is that point's own."""
    dec = eig_unitary(a)
    blocks = dec._points(ts)
    return blocks, _checked_residual(blocks), dec.cosets


def project_to_su(u: Unitary) -> Unitary:
    """Rescale by the principal dim-th root of det(U) onto determinant one.

    The factor is a global phase, so commutation with every symmetry
    element is unchanged.
    """
    blocks = _blocks(u.matrix, u._cosets)
    d = complex(np.prod(np.linalg.det(blocks)))
    factor = abs(d) ** (-1.0 / u.dim) * np.exp(-1j * np.angle(d) / u.dim)
    return Unitary(blocks * factor, _cosets=u._cosets)
