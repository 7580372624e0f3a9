"""Basis of the symmetry-invariant subalgebra by orbit symmetrization.

Conjugation by a wire permutation maps Pauli strings to Pauli strings with
no phase, so the 4^n strings split into orbits.  Summing an orbit with
unit coefficients gives a Hermitian, traceless fixed point of the group
action; one such sum per orbit (identity orbit excluded) spans the
invariant subalgebra.  Orbit structure also gives an exact projection
onto the span: a sum lies in it iff its coefficients are constant on
every orbit, which avoids any numerical rank decisions.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionError, UnsupportedSymmetryError
from .paulis import PHASES, PauliString, PauliSum
from .symmetry import QubitPermutation, SymmetryGroup, _basis_permutations, _image_rows

# Full 4^n enumeration is capped at this many qubits.
DEFAULT_ENUMERATION_CAP = 8

# Term pairs per block of closure_report; bounds its temporary arrays.
_CLOSURE_BLOCK = 1 << 11


def _generator_images(group: SymmetryGroup) -> np.ndarray:
    """Wire-image rows of the generators of a permutation group; groups with
    a raw-unitary element are refused.  A raw generator equal to one of the
    group's permutations up to phase moves no string, and is skipped.  Only
    a group with a raw generator is closed, to tell the two apart."""
    if not group._is_permutation_group():
        raw = sum(not e.is_permutation for e in group.elements)
        raise UnsupportedSymmetryError(
            "orbit symmetrization supports qubit-permutation groups only; "
            f"group contains {raw} raw unitary element(s)"
        )
    return _image_rows(group.n, group.generators)


def _orbit(z: int, x: int, moves) -> set:
    """Orbit of the mask pair (z, x) by breadth-first search over the
    generators, each given as its mask map (mask -> permuted mask).

    The group is finite, so every inverse is a power of a generator and
    the generators alone reach the whole group orbit.
    """
    seen = {(z, x)}
    frontier = [(z, x)]
    while frontier:
        nxt = []
        for mz, mx in frontier:
            for move in moves:
                q = (move(mz), move(mx))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def pauli_orbit(s: PauliString, group: SymmetryGroup) -> frozenset:
    """Orbit of a string under conjugation by the group, phase kept.

    Found from the generators alone; no group element is enumerated.
    """
    if s.n != group.n:
        raise DimensionError(f"string on {s.n} qubits, group on {group.n}")
    moves = [QubitPermutation(group.n, row).permute_mask for row in _generator_images(group).tolist()]
    return frozenset(PauliString(s.n, x, z, s.phase_exp)
                     for z, x in _orbit(s.z_mask, s.x_mask, moves))


def symmetrize(s: PauliString, group: SymmetryGroup) -> PauliSum:
    """Sum of the orbit with unit coefficients; a fixed point of the action."""
    return PauliSum(s.n, tuple((p, 1.0) for p in pauli_orbit(s, group)))


@dataclass(frozen=True)
class InvariantBasis:
    """One symmetrized element per Pauli-string orbit, identity excluded.

    The orbit table ``_orbit_of`` is derived from the elements: entry
    z << n | x is the index of the element holding that string, or
    len(elements) for a string in no element (the identity).
    """

    n: int
    group: SymmetryGroup
    elements: tuple
    _orbit_of: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = len(self.elements)
        keys = np.concatenate([e.z << self.n | e.x for e in self.elements] + [np.empty(0, np.int64)])
        table = np.full(1 << 2 * self.n, d, dtype=np.int64)
        table[keys] = np.repeat(np.arange(d), [len(e) for e in self.elements])
        table.setflags(write=False)
        object.__setattr__(self, "_orbit_of", table)

    def __len__(self) -> int:
        return len(self.elements)

    def orbit_members(self, index: int) -> tuple:
        return tuple(p for p, _ in self.elements[index].terms)

    def __repr__(self) -> str:
        return f"InvariantBasis(n={self.n}, group={self.group.name!r}, dim={len(self)})"


def build_basis(n: int, group: SymmetryGroup) -> InvariantBasis:
    """Enumerate all 4^n strings, orbit by orbit, in (z_mask, x_mask) order.

    Each orbit is found from the generators' mask tables, so the group
    elements are never enumerated.  The orbit of every string key
    z << n | x goes into one table; one sort of it lists each orbit's
    strings together, in canonical order.
    """
    if group.n != n:
        raise DimensionError(f"group acts on {group.n} qubits, basis requested for {n}")
    if n > DEFAULT_ENUMERATION_CAP:
        raise CapacityError(f"enumerating 4^{n} strings exceeds the cap of {DEFAULT_ENUMERATION_CAP} qubits")
    moves = [table.__getitem__ for table in _basis_permutations(_generator_images(group)).tolist()]
    size = 1 << n
    orbit_of = [-1] * (size * size)  # the identity (key 0) keeps -1: its orbit is excluded
    count = 0
    for key in range(1, size * size):
        if orbit_of[key] < 0:
            for mz, mx in _orbit(key >> n, key & (size - 1), moves):
                orbit_of[mz << n | mx] = count
            count += 1
    table = np.array(orbit_of)
    keys = np.argsort(table, kind="stable")[1:]  # by orbit, then by key
    x, z, ones = keys & (size - 1), keys >> n, np.ones(len(keys), dtype=complex)
    ends = np.cumsum(np.bincount(table[1:])).tolist()
    elements = tuple(PauliSum._canonical(n, x[lo:hi], z[lo:hi], ones[lo:hi])
                     for lo, hi in zip([0] + ends, ends))
    return InvariantBasis(n, group, elements)


def _cycle_counts(images: np.ndarray) -> np.ndarray:
    """Cycles of the wire permutation of each image row, fixed points
    included: the wires that are the smallest of their cycle."""
    wire = np.arange(images.shape[1])
    low, reach = np.broadcast_to(wire, images.shape), images
    for _ in range(images.shape[1] - 1):  # reach is the image after k + 1 steps
        low = np.minimum(low, reach)
        reach = np.take_along_axis(images, reach, axis=1)
    return (low == wire).sum(axis=1)


def burnside_dimension(n: int, group: SymmetryGroup) -> int:
    """Orbit count from the cycle structure: avg of 4^cycles, minus identity.

    Independent of orbit enumeration, so the two routes cross-check each
    other.
    """
    _generator_images(group)  # refuses raw-unitary groups
    total = sum(4 ** c for c in _cycle_counts(group.images).tolist())
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
    orbit = basis._orbit_of[x.z << x.n | x.x]
    inside = orbit < d
    k, c = orbit[inside], x.coeffs[inside]
    size = np.bincount(basis._orbit_of, minlength=d + 1)[:d]
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


def _norm_sq(v: np.ndarray) -> np.ndarray:
    """|v|^2 without the rounding of abs(): exact for Gaussian integers."""
    return v.real ** 2 + v.imag ** 2


def closure_report(basis: InvariantBasis, tol: float = 1e-10) -> ClosureReport:
    """Check that every pairwise commutator stays inside the span.

    The residual of a pair is in_span(sum_commutator(A_i, A_j), basis),
    computed for all term pairs of orbit i against a block of orbits j > i
    at once with bit operations.  Per (j, product string) the coefficients
    are summed as sum_commutator merges them; per (j, target orbit k) the
    squared residual is sum |c|^2 - |sum c|^2 / |O_k|, members absent from
    the commutator counting as 0, and strings in no orbit add |c|^2.  With
    the unit coefficients of build_basis every sum is an exact integer.
    The worst pair is the first to reach the maximum, in (i, j) order.
    Restriction: with coefficients not all 1 it rounds once per target orbit,
    so residuals that tie exactly can rank in another order than on the
    scalar in_span route; unit-coefficient build_basis bases are exact.
    """
    n, d = basis.n, len(basis)
    sizes = np.array([len(e) for e in basis.elements], dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    x = np.concatenate([e.x for e in basis.elements])
    z = np.concatenate([e.z for e in basis.elements])
    y = np.bitwise_count(x & z).astype(np.int64)
    coeff = np.concatenate([e.coeffs for e in basis.elements])
    owner = np.repeat(np.arange(d), sizes)
    string_mask = (1 << 2 * n) - 1
    # Orbit d, no orbit, has infinite size, so that a string outside the
    # span keeps its whole |c|^2.
    orbit_size = np.append(sizes.astype(float), np.inf)
    phases = np.array(PHASES)

    worst, worst_pair = 0.0, None
    for i in range(d - 1):
        a = slice(starts[i], starts[i + 1])
        xa, za, ya, ca = x[a, None], z[a, None], y[a, None], coeff[a, None]
        step = max(1, _CLOSURE_BLOCK // int(sizes[i]))
        lo = starts[i + 1]
        while lo < starts[d]:
            # Whole orbits j only, so that each (j, string) sum is complete.
            hi = starts[min(d, np.searchsorted(starts, lo + step))]
            first = owner[lo]
            residual_sq = np.zeros(owner[hi - 1] - first + 1)
            xb, zb, yb = x[lo:hi], z[lo:hi], y[lo:hi]
            anti = (np.bitwise_count(xa & zb) + np.bitwise_count(za & xb)) & 1
            ra, rb = np.nonzero(anti)  # row-major: the term order of sum_commutator
            if len(ra):
                # Product of anticommuting terms as in pauli_multiply.
                px, pz = xa[ra, 0] ^ xb[rb], za[ra, 0] ^ zb[rb]
                power = (ya[ra, 0] + yb[rb] - np.bitwise_count(px & pz).astype(np.int64)
                         + 2 * np.bitwise_count(za[ra, 0] & xb[rb]).astype(np.int64))
                c = 2.0 * ca[ra, 0] * coeff[lo + rb] * phases[power % 4]
                key = (owner[lo + rb] - first) << 2 * n | pz << n | px
                keys, at = np.unique(key, return_inverse=True)
                sums = np.bincount(at, c.real) + 1j * np.bincount(at, c.imag)
                jk, at = np.unique((keys >> 2 * n) * (d + 1) + basis._orbit_of[keys & string_mask],
                                   return_inverse=True)
                sq = np.bincount(at, _norm_sq(sums))
                total = np.bincount(at, sums.real) + 1j * np.bincount(at, sums.imag)
                spread = np.maximum(sq - _norm_sq(total) / orbit_size[jk % (d + 1)], 0.0)
                residual_sq += np.bincount(jk // (d + 1), spread, minlength=len(residual_sq))
            top = int(np.argmax(residual_sq))
            r = float(np.sqrt(residual_sq[top]))
            if r > worst:
                worst, worst_pair = r, (i, int(first) + top)
            lo = hi
    return ClosureReport(d * (d - 1) // 2, worst, worst_pair, tol, worst < tol)
