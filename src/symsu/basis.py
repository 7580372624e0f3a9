"""Basis of the symmetry-invariant subalgebra by orbit symmetrization.

Conjugation by a wire permutation maps Pauli strings to Pauli strings with
no phase, so the 4^n strings split into orbits.  Summing an orbit with
unit coefficients gives a Hermitian, traceless fixed point of the group
action; one such sum per orbit (identity orbit excluded) spans the
invariant subalgebra.  Orbit structure also gives an exact projection
onto the span: a sum lies in it iff its coefficients are constant on
every orbit, which avoids any numerical rank decisions.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError, UnsupportedSymmetryError
from .paulis import DEFAULT_MATRIX_CAP, PauliString, PauliSum, _I_POWERS, _anticommutes, _product
from .symmetry import SymmetryGroup, _move_masks

# Term pairs per block of closure_report; bounds its temporary arrays.
_CLOSURE_BLOCK = 1 << 11


def _check_qubits(n: int, group: SymmetryGroup) -> None:
    """Refuse a group on another qubit count than the n asked for."""
    if group.n != n:
        raise DimensionError(f"group acts on {group.n} qubits, basis requested for {n}")


def _generator_images(group: SymmetryGroup) -> np.ndarray:
    """The generators' image rows on string keys z << n | x: bit i of x to image[i] (the first
    n columns are the wire images), of z to n + image[i]; a raw-unitary generator is refused."""
    if group._raw:
        raise UnsupportedSymmetryError("orbit symmetrization supports qubit-permutation groups only; "
                                       f"group has {len(group._raw)} raw unitary generator(s)")
    return np.hstack((group._perm_images, group._perm_images + group.n))


def pauli_orbit(s: PauliString, group: SymmetryGroup) -> frozenset:
    """Orbit of a string under conjugation by the group, phase kept.

    Breadth-first from the generators alone, one array move per generator
    and round; no group element is enumerated.  The group is finite, so
    every inverse is a power of a generator.
    """
    if s.n != group.n:
        raise DimensionError(f"string on {s.n} qubits, group on {group.n}")
    images = _generator_images(group)[:, :s.n].tolist()
    dtype = np.int64 if s.n <= 62 else object  # Python-int masks above 62 qubits, as in PauliSum
    z, x = fz, fx = np.array([s.z_mask], dtype=dtype), np.array([s.x_mask], dtype=dtype)
    while len(fz):
        az = np.concatenate([z] + [_move_masks(fz, row) for row in images])
        ax = np.concatenate([x] + [_move_masks(fx, row) for row in images])
        order = np.lexsort((ax, az))  # stable: a known string sorts before its new copies
        sz, sx = az[order], ax[order]
        first = np.r_[True, (sz[1:] != sz[:-1]) | (sx[1:] != sx[:-1])]
        keep = order[first]
        new = keep[keep >= len(z)]
        fz, fx, z, x = az[new], ax[new], az[keep], ax[keep]
    return frozenset(PauliString(s.n, mx, mz, s.phase_exp) for mz, mx in zip(z.tolist(), x.tolist()))


def symmetrize(s: PauliString, group: SymmetryGroup) -> PauliSum:
    """Sum of the orbit with unit coefficients; a fixed point of the action."""
    return PauliSum(s.n, tuple((p, 1.0) for p in pauli_orbit(s, group)))


@dataclass(frozen=True)
class _Elements(Sequence):
    """A basis's elements, each built as a unit-coefficient PauliSum from its
    canonical slice of the basis arrays when it is read; slices are tuples."""

    basis: "InvariantBasis"

    def __len__(self) -> int:
        return len(self.basis)

    def __getitem__(self, k):
        b, k = self.basis, range(len(self))[k]
        if isinstance(k, range):
            return tuple(map(self.__getitem__, k))
        lo, hi = b.offsets[k:k + 2].tolist()
        return PauliSum._canonical(b.n, b.x[lo:hi], b.z[lo:hi], np.ones(hi - lo, complex))


@dataclass(frozen=True, eq=False)
class InvariantBasis:
    """One unit-coefficient orbit sum per Pauli-string orbit, identity excluded.

    Built from its orbit table ``orbit_of``, 4^n labels: entry z << n | x is
    the index of the element holding that string, or -1 for none (always
    for the identity).  The table is copied and frozen; element k is the
    strings ``offsets[k]:offsets[k + 1]`` of the read-only ``x`` and ``z``
    masks, in canonical order.  A group not on n qubits or a table of
    another length raises DimensionError; a label below -1, a labelled
    identity or an element index with no string raises ValueError.
    ``_spectra`` caches eigenpairs for unitary_ops.
    """

    n: int
    group: SymmetryGroup
    orbit_of: np.ndarray
    x: np.ndarray = field(init=False)
    z: np.ndarray = field(init=False)
    offsets: np.ndarray = field(init=False)
    _spectra: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        n, table = self.n, np.array(self.orbit_of, dtype=np.int64)
        if self.group.n != n or table.shape != (1 << 2 * n,):
            raise DimensionError(f"the group and the orbit table must act on the basis's {n} qubits")
        if table.min() < -1:
            raise ValueError(f"orbit labels must be -1 or an element index, got {table.min()}")
        if table[0] != -1:
            raise ValueError(f"basis element {table[0]} holds the identity string")
        sizes = np.bincount(table + 1)  # sizes[0] counts the strings in no element
        if np.any(sizes == 0):
            raise ValueError(f"basis element {np.argmin(sizes) - 1} is empty")
        keys = np.argsort(table, kind="stable")[sizes[0]:]  # by element, then by key
        offsets = np.concatenate(([0], np.cumsum(sizes[1:])))
        for name, value in (("orbit_of", table), ("x", keys & ((1 << n) - 1)), ("z", keys >> n),
                            ("offsets", offsets)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def elements(self) -> _Elements:
        return _Elements(self)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def _value(self) -> tuple:
        return self.n, self.group, self.orbit_of.tobytes()

    def __eq__(self, other) -> bool:
        return isinstance(other, InvariantBasis) and self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        return f"InvariantBasis(n={self.n}, group={self.group.name!r}, dim={len(self)})"


def _orbit_table(width: int, images) -> np.ndarray:
    """Orbit number of every width-bit key under the bit permutations of the
    image rows, bit i to bit row[i], from -1 (key 0: the identity string or
    the all-zero state) in the order of the orbits' smallest keys.

    Every key is moved once per generator; then each key pulls the label
    of its image, pushes its label to its image (a move is a bijection) and
    jumps to its label's label, until no label changes.  Labels only fall
    and stay in the orbit, so each ends as its orbit's smallest key.
    """
    keys = np.arange(1 << width)
    moves = [_move_masks(keys, row) for row in images]
    label, last = keys, None
    while last is None or not np.array_equal(label, last):
        last = label
        for move in moves:
            label = np.minimum(label, label[move])
            label[move] = np.minimum(label[move], label)
        label = label[label]
    return (np.cumsum(label == keys) - 2)[label]  # roots are the smallest keys


def build_basis(n: int, group: SymmetryGroup) -> InvariantBasis:
    """Enumerate all 4^n strings, orbit by orbit, in (z_mask, x_mask) order.

    The orbits come from the generators' moves on all string keys
    (`_orbit_table`), never from the group elements; one sort of the table
    lists each orbit's strings together, in canonical order.  Capped at
    DEFAULT_MATRIX_CAP qubits, as dense realizations are.
    """
    _check_qubits(n, group)
    if n > DEFAULT_MATRIX_CAP:
        raise CapacityError(f"enumerating 4^{n} strings exceeds the cap of {DEFAULT_MATRIX_CAP} qubits")
    return InvariantBasis(n, group, _orbit_table(2 * n, _generator_images(group).tolist()))


def _cycle_counts(images: np.ndarray) -> np.ndarray:
    """Cycles of the wire permutation of each image row, fixed points
    included: the wires that are the smallest of their cycle.  One wire
    at a time, so that every temporary is one entry per row."""
    flat, base = images.ravel(), np.arange(0, images.size, images.shape[1])
    counts = np.zeros(len(images), dtype=np.int64)
    for wire in range(images.shape[1]):
        low = reach = images[:, wire]  # reach is the image after k + 1 steps
        for _ in range(images.shape[1] - 2):
            reach = flat[base + reach]
            low = np.minimum(low, reach)
        counts += low >= wire
    return counts


def burnside_dimension(n: int, group: SymmetryGroup) -> int:
    """Orbit count from the cycle structure: avg of 4^cycles, minus identity.

    Independent of orbit enumeration, so the two routes cross-check each
    other.
    """
    _check_qubits(n, group)
    _generator_images(group)  # refuses raw-unitary groups
    # Summed exactly as Python ints over the rows of each cycle count, at most n + 1 terms.
    bins = np.bincount(_cycle_counts(group.images), minlength=n + 1).tolist()
    total = sum(rows * 4 ** c for c, rows in enumerate(bins))
    if total % len(group) != 0:
        raise ArithmeticError("orbit-count average is not an integer; group not closed?")
    return total // len(group) - 1


def in_span(x: PauliSum, basis: InvariantBasis) -> float:
    """Norm of the part of x outside span(basis), term-exactly.

    x lies in the span iff every term belongs to some orbit and the
    coefficients are constant on each orbit; the residual is the
    coefficient-vector norm of what remains after removing the per-orbit
    mean.
    """
    if x.n != basis.n:
        raise DimensionError(f"sum on {x.n} qubits, basis on {basis.n}")
    d = len(basis)
    orbit = basis.orbit_of[x.z << x.n | x.x]
    inside = orbit >= 0
    k, c = orbit[inside], x.coeffs[inside]
    size = np.diff(basis.offsets)
    present = np.bincount(k, minlength=d)
    # The mean of each orbit, members absent from x counting as 0; real and
    # imaginary parts are divided apart, as complex / int divides them.
    mean = np.bincount(k, c.real, d) / size + 1j * (np.bincount(k, c.imag, d) / size)
    residual_sq = (np.sum(np.abs(x.coeffs[~inside]) ** 2)
                   + np.sum(np.abs(c - mean[k]) ** 2)
                   + np.sum((size - present) * np.abs(mean) ** 2))  # each absent member
    return float(np.sqrt(residual_sq))


@dataclass(frozen=True)
class ClosureReport:
    """Worst span residual over all pairwise commutators of basis elements."""

    pair_count: int
    max_residual: float
    worst_pair: tuple | None
    tolerance: float
    passed: bool


def closure_report(basis: InvariantBasis, tol: float = 1e-10) -> ClosureReport:
    """Check that every pairwise commutator stays inside the span.

    The residual of a pair is in_span(sum_commutator(A_i, A_j), basis),
    computed for all term pairs of orbit i against a block of orbits j > i
    at once by the product rule of paulis on mask arrays.  Per (j, product
    string) the coefficients are summed as sum_commutator merges them; per
    (j, target orbit k) the squared residual is sum |c|^2 - |sum c|^2 / |O_k|,
    members absent from the commutator counting as 0, and strings in no orbit
    add |c|^2.  The coefficients are all 1, so every sum is an exact integer.
    The worst pair is the first to reach the maximum, in (i, j) order.
    """
    n, d, x, z, starts = basis.n, len(basis), basis.x, basis.z, basis.offsets
    sizes = np.diff(starts)
    owner = np.repeat(np.arange(d), sizes)
    string_mask = (1 << 2 * n) - 1
    # Slot 0, label -1 (no orbit), has infinite size, so that a string
    # outside the span keeps its whole |c|^2.
    orbit_size = np.append(np.inf, sizes.astype(float))

    worst, worst_pair = 0.0, None
    for i in range(d - 1):
        a = slice(starts[i], starts[i + 1])
        xa, za = x[a, None], z[a, None]
        step = max(1, _CLOSURE_BLOCK // int(sizes[i]))
        lo = starts[i + 1]
        while lo < starts[d]:
            # Whole orbits j only, so that each (j, string) sum is complete.
            hi = starts[min(d, np.searchsorted(starts, lo + step))]
            first = owner[lo]
            residual_sq = np.zeros(owner[hi - 1] - first + 1)
            xb, zb = x[lo:hi], z[lo:hi]
            ra, rb = np.nonzero(_anticommutes(xa, za, xb, zb))  # row-major, as in sum_commutator
            if len(ra):
                px, pz, power = _product(xa[ra, 0], za[ra, 0], xb[rb], zb[rb])
                c = 2.0 * _I_POWERS[power]
                key = (owner[lo + rb] - first) << 2 * n | pz << n | px
                keys, at = np.unique(key, return_inverse=True)
                sums = np.bincount(at, c.real) + 1j * np.bincount(at, c.imag)
                jk, at = np.unique((keys >> 2 * n) * (d + 1) + basis.orbit_of[keys & string_mask] + 1,
                                   return_inverse=True)
                sq = np.bincount(at, sums.real ** 2 + sums.imag ** 2)  # not abs(): exact for Gaussian integers
                total = np.bincount(at, sums.real) + 1j * np.bincount(at, sums.imag)
                spread = np.maximum(sq - (total.real ** 2 + total.imag ** 2) / orbit_size[jk % (d + 1)], 0.0)
                residual_sq += np.bincount(jk // (d + 1), spread, minlength=len(residual_sq))
            top = int(np.argmax(residual_sq))
            r = float(np.sqrt(residual_sq[top]))
            if r > worst:
                worst, worst_pair = r, (i, int(first) + top)
            lo = hi
    return ClosureReport(d * (d - 1) // 2, worst, worst_pair, tol, worst < tol)
