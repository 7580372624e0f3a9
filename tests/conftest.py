"""Shared fixtures and independent dense-matrix oracles.

The oracle helpers below build matrices with their own kron loop and
letter table so that tests of the symbolic algebra never reuse the code
path they are checking.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from symsu import (ClosureReport, DimensionError, InvariantBasis, PauliString, PauliSum, QubitPermutation, Unitary,
                   pauli_multiply, paulis_commute, preset_group)
from symsu import paulis
from symsu.paulis import _I_POWERS, _anticommuting_pairs, _product
from symsu.symmetry import _move_masks

ORACLE_LETTERS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_label(label: str) -> np.ndarray:
    """Kron product of letter matrices, most significant qubit first."""
    m = np.array([[1.0 + 0j]])
    for ch in label:
        m = np.kron(m, ORACLE_LETTERS[ch])
    return m


def dense_sum(pairs) -> np.ndarray:
    """Dense matrix of (label, coeff) pairs."""
    labels = [lab for lab, _ in pairs]
    dim = 2 ** len(labels[0])
    out = np.zeros((dim, dim), dtype=complex)
    for lab, c in pairs:
        out += c * dense_label(lab)
    return out


def fro(m) -> float:
    return float(np.linalg.norm(m))


@pytest.fixture(scope="session")
def s2():
    return preset_group("full_swap", 2)


@pytest.fixture(scope="session")
def s3():
    return preset_group("full_swap", 3)


@pytest.fixture(scope="session")
def trivial1():
    return preset_group("trivial", 1)


def orbit_terms_commute(label: str) -> bool:
    """Predict from letter counts whether a full_swap orbit commutes pairwise.

    Two strings anticommute iff an odd number of wires hold two different
    non-identity letters.  An identity-free orbit over letters A and B has
    as many (A, B) wires as (B, A) wires between any two members, an even
    count, so it commutes; one letter alone always commutes.  Otherwise a
    3-cycle of the wires holding A, B and I (or X, Y and Z) yields a member
    that differs from the label on exactly one (or three) such wires.
    """
    letters = set(label) - {"I"}
    return len(letters) <= 1 or (len(letters) == 2 and "I" not in label)


def generator_sets(max_n):
    """A qubit count n <= max_n with up to three random wire permutations."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=3)))


def breadth_first_closure(n: int, generators: np.ndarray) -> np.ndarray:
    """Oracle of symmetry._close_images: the group of the (k, n) wire-image
    rows by breadth-first search over the Cayley graph, sorted, uncapped.
    Each round composes every generator after every row found in the last
    round and keeps the keys not yet known; a row's key is its images read
    as base-n digits, first wire most significant (Python ints from n = 16
    on), so sorted keys are sorted rows, which are decoded from the keys."""
    weights = np.array([n ** k for k in range(n - 1, -1, -1)], dtype=np.int64 if n < 16 else object)
    known = frontier = np.array([np.arange(n) @ weights], dtype=weights.dtype)
    while len(frontier):
        rows = (frontier[:, None] // weights % n).astype(np.int64)
        # generators[:, rows][g, e] is the row of generator g after element e.
        keys = np.sort((generators[:, rows] @ weights).ravel())
        # Keep the last of each run of equal keys, if known (sorted) lacks it.
        fresh = (keys != np.r_[keys[1:], -1]) & (known.take(known.searchsorted(keys), mode="clip") != keys)
        frontier = keys[fresh]
        known = np.sort(np.concatenate((known, frontier)))
    return (known[:, None] // weights % n).astype(np.int64)


def transposition_defects(m: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Reference for symmetry._permutation_defects: ||S U - U S|| for the wire
    permutation S of each image row, from U seen as a (2,)*2n tensor (axis k
    of each half is qubit n-1-k) with the wire permutation applied to its row
    and column axes, which gives the entries of S U S+ - U."""
    n = images.shape[1]
    t = m.reshape((2,) * 2 * n)
    axes = np.empty_like(images)
    np.put_along_axis(axes, n - 1 - images, np.arange(n - 1, -1, -1), axis=1)
    return np.array([np.linalg.norm(t.transpose(a) - t) for a in np.hstack((axes, axes + n)).tolist()])


def split_orbit_table(n: int, images) -> np.ndarray:
    """Reference for basis._orbit_table on the 4^n string keys z << n | x, with
    the z and x masks moved apart by the wire image rows and joined again; the
    same min-label propagation then numbers the orbits by their smallest keys."""
    keys = np.arange(1 << 2 * n)
    z, x = keys >> n, keys & ((1 << n) - 1)
    moves = [_move_masks(z, row) << n | _move_masks(x, row) for row in images]
    label = keys
    while True:
        new = label
        for move in moves:
            new = np.minimum(new, new[move])
            new[move] = np.minimum(new[move], new)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    return (np.cumsum(label == keys) - 2)[label]


def conjugate_pauli(p, s: PauliString) -> PauliString:
    """Image of a Pauli string under the wire relabeling p, S s S+: letters
    move with their wires and the phase is unchanged."""
    if p.n != s.n:
        raise DimensionError(f"qubit counts differ: {p.n} vs {s.n}")
    return PauliString(s.n, permute_mask(p, s.x_mask), permute_mask(p, s.z_mask), s.phase_exp)


def permute_mask(p: QubitPermutation, mask: int) -> int:
    """mask with bit i moved to bit p.image[i], one bit at a time: the scalar
    reference for the array mask moves of symmetry._move_masks."""
    return sum(1 << dest for i, dest in enumerate(p.image) if mask >> i & 1)


def inverse(p: QubitPermutation) -> QubitPermutation:
    """The wire relabeling that undoes p."""
    inv = [0] * p.n
    for i, dest in enumerate(p.image):
        inv[dest] = i
    return QubitPermutation(p.n, tuple(inv))


def weight(p: PauliString) -> int:
    """Number of non-identity letters."""
    return (p.x_mask | p.z_mask).bit_count()


def is_identity(p: PauliString) -> bool:
    return p.x_mask == 0 and p.z_mask == 0


def phase_free(p: PauliString) -> PauliString:
    """The same letters with phase_exp 0 (canonical sum key)."""
    return PauliString(p.n, p.x_mask, p.z_mask)


def coefficient(s: PauliSum, p: PauliString) -> complex:
    """The coefficient of p's letters in s, 0 if s lacks them."""
    hit = (s.x == p.x_mask) & (s.z == p.z_mask) & (p.n == s.n)
    return complex(s.coeffs[hit].sum())


def has_identity_term(s: PauliSum) -> bool:
    return bool(np.any((s.x == 0) & (s.z == 0)))


def dagger(u: Unitary) -> Unitary:
    return Unitary(u.matrix.conj().T)


def orbit_members(basis: InvariantBasis, index: int) -> tuple:
    """The Pauli strings of basis element index."""
    return tuple(p for p, _ in basis.elements[index].terms)


def identity_unitary(n: int) -> Unitary:
    return Unitary(np.eye(1 << n))


def basis_from_sums(n, group, sums) -> InvariantBasis:
    """An InvariantBasis whose element k is sums[k]: its orbit table labels
    every string of sums[k] with k and every other string -1.  The sums must
    be disjoint and have unit coefficients, as a table expresses no other."""
    table = np.full(4 ** n, -1)
    for k, s in enumerate(sums):
        keys = s.z << n | s.x
        assert np.all(s.coeffs == 1), f"sum {k} has a coefficient other than 1"
        assert np.all(table[keys] == -1), f"sum {k} shares a string with an earlier sum"
        table[keys] = k
    return InvariantBasis(n, group, table)


# Letters by their (x, z) bits on one wire.
ORACLE_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


@functools.cache
def _letter_product(a: str, b: str) -> tuple:
    """(coeff, c) with L_a L_b = coeff L_c, read off the 2x2 matrices."""
    m = ORACLE_LETTERS[a] @ ORACLE_LETTERS[b]
    for c, lc in ORACLE_LETTERS.items():
        coeff = np.trace(lc.conj().T @ m) / 2
        if abs(coeff) > 0.5:
            return complex(round(coeff.real), round(coeff.imag)), c


@functools.cache
def string_product(n: int, a: tuple, b: tuple) -> tuple:
    """(coeff, (x, z)) with P_a P_b = coeff P_(x, z), for strings keyed by
    their (x, z) masks: the letter products, wire by wire."""
    letter = {bits: ch for ch, bits in ORACLE_BITS.items()}
    coeff, x, z = 1 + 0j, 0, 0
    for q in range(n):
        c, ch = _letter_product(letter[a[0] >> q & 1, a[1] >> q & 1], letter[b[0] >> q & 1, b[1] >> q & 1])
        coeff *= c
        x |= ORACLE_BITS[ch][0] << q
        z |= ORACLE_BITS[ch][1] << q
    return coeff, (x, z)


def pairs_commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Reference for paulis.sum_commutator: the term-pair route, one
    PauliString product and one Python complex coefficient 2.0 * ca * cb per
    anticommuting pair, in row-major order, merged by the PauliSum constructor."""
    right = b.terms
    return PauliSum(a.n, [(pauli_multiply(p, q), 2.0 * ca * cb)
                          for p, ca in a.terms for q, cb in right if not paulis_commute(p, q)])


def dict_commutator(n: int, a: dict, b: dict) -> dict:
    """[A, B] of sums held as {(x, z): coeff} dicts, term pair by term pair;
    zero coefficients are dropped."""
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            (ab, key), (ba, _) = string_product(n, ka, kb), string_product(n, kb, ka)
            if ab != ba:
                out[key] = out.get(key, 0) + (ab - ba) * ca * cb
    return {key: c for key, c in out.items() if c}


def dict_span_residual_sq(s: dict, orbit_of: dict, sizes: list) -> Fraction:
    """Exact squared norm of the part of s, a dict with Gaussian-integer
    coefficients, outside the span of unit-coefficient orbit sums: per orbit
    sum |c|^2 - |sum c|^2 / |orbit| (members s lacks counting as 0), plus
    |c|^2 of every string in no orbit (orbit_of maps (x, z) to its orbit)."""
    sq, total = {}, {}
    for key, c in s.items():
        k = orbit_of.get(key)
        sq[k] = sq.get(k, 0) + round(c.real) ** 2 + round(c.imag) ** 2
        total[k] = total.get(k, 0) + c
    residual = Fraction(sq.pop(None, 0))
    for k, t in total.items():
        if k is not None:
            residual += sq[k] - Fraction(round(t.real) ** 2 + round(t.imag) ** 2, sizes[k])
    return residual


def dict_closure(basis) -> tuple:
    """(pair count, max residual, first pair to reach it) over all pairwise
    commutators of the basis elements, from dict_commutator and the exact
    dict_span_residual_sq."""
    sums = [dict(zip(zip(e.x.tolist(), e.z.tolist()), e.coeffs.tolist())) for e in basis.elements]
    assert all(c == 1 for s in sums for c in s.values()), "dict_span_residual_sq needs unit coefficients"
    orbit_of = {key: k for k, s in enumerate(sums) for key in s}
    sizes = [len(s) for s in sums]
    worst, worst_pair = Fraction(0), None
    pairs = list(itertools.combinations(range(len(sums)), 2))
    for i, j in pairs:
        r = dict_span_residual_sq(dict_commutator(basis.n, sums[i], sums[j]), orbit_of, sizes)
        if r > worst:
            worst, worst_pair = r, (i, j)
    return len(pairs), float(np.sqrt(float(worst))), worst_pair


def reference_closure(basis: InvariantBasis, tol: float = 1e-10) -> ClosureReport:
    """Reference for basis.closure_report: the complex-coefficient kernel it
    replaced.  Per block of whole orbits j, each anticommuting pair adds
    2 * i**power as a complex number; np.unique merges them per (j, product
    string), and again per (j, target orbit k), where np.bincount sums the
    squared residual over k in increasing order."""
    n, d, x, z, starts = basis.n, len(basis), basis.x, basis.z, basis.offsets
    sizes = np.diff(starts)
    owner = np.repeat(np.arange(d), sizes)
    string_mask = (1 << 2 * n) - 1
    orbit_size = np.append(np.inf, sizes.astype(float))
    worst, worst_pair = 0.0, None
    for i in range(d - 1):
        xa, za = x[starts[i]:starts[i + 1]], z[starts[i]:starts[i + 1]]
        step = max(1, paulis._PAIR_BLOCK // int(sizes[i]))
        lo = starts[i + 1]
        while lo < starts[d]:
            hi = starts[min(d, np.searchsorted(starts, lo + step))]
            first = owner[lo]
            ra, rb = (np.concatenate(ix) for ix in zip(*_anticommuting_pairs(xa, za, x[lo:hi], z[lo:hi])))
            px, pz, power = _product(xa[ra], za[ra], x[lo + rb], z[lo + rb])
            c = 2.0 * _I_POWERS[power]
            key = (owner[lo + rb] - first) << 2 * n | pz << n | px
            keys, at = np.unique(key, return_inverse=True)
            sums = np.bincount(at, c.real) + 1j * np.bincount(at, c.imag)
            jk, at = np.unique((keys >> 2 * n) * (d + 1) + basis.orbit_of[keys & string_mask] + 1,
                               return_inverse=True)
            sq = np.bincount(at, sums.real ** 2 + sums.imag ** 2)
            total = np.bincount(at, sums.real) + 1j * np.bincount(at, sums.imag)
            spread = np.maximum(sq - (total.real ** 2 + total.imag ** 2) / orbit_size[jk % (d + 1)], 0.0)
            residual_sq = np.bincount(jk // (d + 1), spread, minlength=owner[hi - 1] - first + 1)
            top = int(np.argmax(residual_sq))
            r = float(np.sqrt(residual_sq[top]))
            if r > worst:
                worst, worst_pair = r, (i, int(first) + top)
            lo = hi
    return ClosureReport(d * (d - 1) // 2, worst, worst_pair, tol, worst < tol)


def reference_sum_texts(n: int, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray, offsets, sep: str) -> list:
    """Reference for paulis._sum_texts: the per-block writer it replaced.  One text per
    sum on n qubits, sum k being terms offsets[k]:offsets[k + 1] of the arrays, its
    '(re,im) LETTERS' terms joined by sep.  Per block of whole sums, the letters are
    read from the masks one qubit column at a time, and each distinct coefficient is
    formatted once, keyed by its bytes; the terms are joined as byte strings."""
    offsets = np.asarray(offsets)
    letter_bytes = np.frombuffer(b"IXZY", dtype=np.uint8)
    lines, k, joint = [], 0, sep.encode()
    while k < len(offsets) - 1:
        j = max(k + 1, int(np.searchsorted(offsets, offsets[k] + paulis._TEXT_BLOCK, "right")) - 1)
        lo, hi = int(offsets[k]), int(offsets[j])
        values, at = np.unique(coeffs[lo:hi].view("V16"), return_inverse=True)
        texts = np.array([f"({c.real:.17g},{c.imag:.17g}) " for c in values.view(complex).tolist()], "S")
        letters = np.empty((hi - lo, n), dtype=np.uint8)
        for column, q in enumerate(range(n - 1, -1, -1)):
            code = (x[lo:hi] >> q & 1) + 2 * (z[lo:hi] >> q & 1)
            letters[:, column] = letter_bytes[code.astype(np.intp, copy=False)]
        terms = np.strings.add(texts[at], letters.view(f"S{n}").reshape(hi - lo)).tolist()
        bounds = (offsets[k:j + 1] - lo).tolist()
        lines += [joint.join(terms[a:b]).decode() for a, b in zip(bounds, bounds[1:])]
        k = j
    return lines
