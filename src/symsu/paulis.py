"""Exact Pauli-string algebra on bit masks, plus the dense-matrix realization.

An n-qubit Pauli string is stored as two n-bit masks and a phase exponent.
Bit i of ``x_mask`` / ``z_mask`` says whether qubit i carries an X / Z
component; both bits set means Y, neither means identity.  The operator
realized is

    i**phase_exp * kron(L_{n-1}, ..., L_1, L_0),    L_q in {I, X, Y, Z}

where qubit 0 is the least significant bit of a computational basis index,
so the text label "XIZ" puts X on qubit 2 and Z on qubit 0.  Phase
bookkeeping uses Y = i * X * Z, so products of strings stay exact powers
of i; no floating point enters until a matrix is requested.

A sum of strings is kept canonical, as arrays of x masks, z masks and
complex coefficients: phases folded into the coefficients, equal strings
merged, zero coefficients dropped, terms sorted by (z_mask, x_mask).  A sum
with real coefficients therefore realizes a Hermitian matrix.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError

# Coefficients with magnitude below this are treated as zero after
# arithmetic; exact-integer paths never come near it.
ZERO_TOL = 1e-12

# Dense realizations are capped at this many qubits.
DEFAULT_MATRIX_CAP = 10

# Matrix entries per block of sum_to_matrix; bounds its temporary arrays.
_REALIZATION_BLOCK = 1 << 14

# Terms per block of _sum_texts; bounds its temporary arrays.
_TEXT_BLOCK = 1 << 13

# Term pairs per block of _anticommuting_pairs; bounds its temporary arrays.
_PAIR_BLOCK = 1 << 16

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
_I_POWERS = np.array(PHASES)

_LETTERS = "IXZY"  # indexed by x_bit + 2*z_bit
_LETTER_BYTES = np.frombuffer(_LETTERS.encode(), dtype=np.uint8)
_X_DIGITS, _Z_DIGITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")


@dataclass(frozen=True, order=True, slots=True)
class PauliString:
    """One tensor product of single-qubit Paulis with an i**k prefactor."""

    n: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        mask = (1 << self.n) - 1
        if self.x_mask & ~mask or self.z_mask & ~mask:
            raise ValueError("masks use only the low n bits")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @classmethod
    def from_label(cls, label: str, phase_exp: int = 0) -> "PauliString":
        """Parse a letter string, most significant qubit first ("XIZ")."""
        if not label or any(ch not in "IXYZ" for ch in label):
            raise ValueError(f"invalid Pauli label {label!r}")
        # Read as binary numerals, most significant qubit first.
        x_mask = int(label.translate(_X_DIGITS), 2)
        z_mask = int(label.translate(_Z_DIGITS), 2)
        return cls(len(label), x_mask, z_mask, phase_exp)

    def letter(self, qubit: int) -> str:
        """Single-qubit letter at the given wire."""
        x = (self.x_mask >> qubit) & 1
        z = (self.z_mask >> qubit) & 1
        return _LETTERS[x + 2 * z]

    def to_label(self) -> str:
        """Letter string, most significant qubit first; ignores the phase."""
        return "".join(self.letter(q) for q in reversed(range(self.n)))

    @property
    def phase(self) -> complex:
        return PHASES[self.phase_exp]

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_multiply(self, other)

    def __repr__(self) -> str:
        prefix = ("", "i*", "-", "-i*")[self.phase_exp]
        return f"{prefix}{self.to_label()}"


def _anticommutes(ax, az, bx, bz):
    """1 where strings (ax, az) and (bx, bz) anticommute, else 0, broadcasting:
    the parity of their symplectic product."""
    return np.bitwise_count((ax & bz) ^ (az & bx)) & 1


def _product(ax, az, bx, bz) -> tuple:
    """Masks and i-power (0..3) of each product P_a P_b of phase-free strings, broadcasting:
    to X^x Z^z form (one i per Y), Z past X, back to letters.  Bit counts are made int64:
    np.bitwise_count gives uint8, or a Python int past 64 bits."""
    x, z = ax ^ bx, az ^ bz
    ya, yb, y, zx = (np.asarray(np.bitwise_count(m), np.int64) for m in (ax & az, bx & bz, x & z, az & bx))
    return x, z, (ya + yb - y + 2 * zx) % 4


def pauli_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product a*b in the Pauli group, with the exact accumulated i-power."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    x, z, power = _product(a.x_mask, a.z_mask, b.x_mask, b.z_mask)
    return PauliString(a.n, x, z, a.phase_exp + b.phase_exp + int(power))


def paulis_commute(a: PauliString, b: PauliString) -> bool:
    """True when the strings commute (even number of anticommuting wires)."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    return not _anticommutes(a.x_mask, a.z_mask, b.x_mask, b.z_mask)


def _complex_product(a: np.ndarray, b) -> np.ndarray:
    """a * b as CPython forms a complex product, one float64 operation at a time:
    numpy's complex multiply may fuse them and round differently."""
    with np.errstate(over="ignore", invalid="ignore"):  # _canonical refuses what is not finite
        out = (a.real * b.real - a.imag * b.imag).astype(complex)
        out.imag = a.real * b.imag + a.imag * b.real
    return out


class PauliSum:
    """Canonical complex-weighted combination of phase-free Pauli strings.

    Stored as three read-only arrays in canonical order: the ``x`` and
    ``z`` masks of the strings and their complex ``coeffs``.  ``terms``
    gives the same sum as (PauliString, complex) pairs.
    """

    __slots__ = ("n", "x", "z", "coeffs")

    def __new__(cls, n: int, terms=()):
        pairs = tuple(terms)
        for p, _ in pairs:
            if p.n != n:
                raise DimensionError(f"term acts on {p.n} qubits, sum is on {n}")
        dtype = np.int64 if n <= 62 else object  # Python-int masks above 62 qubits
        x = np.array([p.x_mask for p, _ in pairs], dtype=dtype)
        z = np.array([p.z_mask for p, _ in pairs], dtype=dtype)
        return cls._canonical(n, x, z, np.array([complex(c) * p.phase for p, c in pairs], dtype=complex))

    @classmethod
    def _canonical(cls, n: int, x: np.ndarray, z: np.ndarray, values: np.ndarray) -> "PauliSum":
        """The one constructor: sort the terms by (z, x), merge equal strings in
        input order, drop coefficients below ZERO_TOL and freeze the arrays.
        A non-finite coefficient raises ValueError."""
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        order = np.lexsort((x, z))  # stable: equal strings keep their input order
        x, z, values = x[order], z[order], values[order]
        first = np.ones(len(x), dtype=bool)
        first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
        run = np.cumsum(first) - 1
        # bincount adds each run in order onto +0.0, as a dict merge onto 0j does.
        coeffs = np.bincount(run, values.real).astype(complex)
        coeffs.imag = np.bincount(run, values.imag)
        if not np.isfinite(coeffs).all():  # a nan or inf term leaves its merged coefficient non-finite
            raise ValueError("Pauli sum coefficients must be finite")
        keep = np.abs(coeffs) >= ZERO_TOL
        s = object.__new__(cls)
        for name, value in zip(cls.__slots__, (n, x[first][keep], z[first][keep], coeffs[keep])):
            if name != "n":
                value.setflags(write=False)
            object.__setattr__(s, name, value)
        return s

    def __setattr__(self, name, value):
        raise AttributeError(f"PauliSum is immutable; cannot set {name!r}")

    def __reduce__(self):
        return PauliSum._canonical, (self.n, self.x, self.z, self.coeffs)

    @property
    def terms(self) -> tuple:
        """(PauliString, complex) pairs in canonical order."""
        return tuple((PauliString(self.n, x, z), c)
                     for x, z, c in zip(self.x.tolist(), self.z.tolist(), self.coeffs.tolist()))

    @classmethod
    def from_label(cls, label: str, coeff: complex = 1.0) -> "PauliSum":
        return cls(len(label), ((PauliString.from_label(label), coeff),))

    @classmethod
    def from_labels(cls, n: int, pairs) -> "PauliSum":
        """Build from (label, coeff) pairs."""
        return cls(n, tuple((PauliString.from_label(lab), c) for lab, c in pairs))

    @classmethod
    def zero(cls, n: int) -> "PauliSum":
        return cls(n, ())

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.x, other.x)
                and np.array_equal(self.z, other.z) and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self) -> int:
        return hash((self.n, *(tuple(a.tolist()) for a in (self.x, self.z, self.coeffs))))

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} vs {other.n}")
        x, z, coeffs = (np.concatenate((a, b)) for a, b in
                        ((self.x, other.x), (self.z, other.z), (self.coeffs, other.coeffs)))
        return PauliSum._canonical(self.n, x, z, coeffs)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum._canonical(self.n, self.x, self.z, _complex_product(self.coeffs, complex(scalar)))

    __rmul__ = __mul__

    def is_hermitian(self) -> bool:
        """Imaginary parts below ZERO_TOL on phase-free keys realize a Hermitian matrix."""
        return bool(np.all(np.abs(self.coeffs.imag) < ZERO_TOL))

    def to_line(self) -> str:
        """One-line form: terms joined by ' + '."""
        return _sum_texts(self.n, self.x, self.z, self.coeffs, (0, len(self)), " + ")[0]

    def to_text(self) -> str:
        """Multi-line form: one '(re,im) LETTERS' term per line."""
        return _sum_texts(self.n, self.x, self.z, self.coeffs, (0, len(self)), "\n")[0]

    @classmethod
    def from_line(cls, line: str) -> "PauliSum":
        return cls._from_term_strings(part for part in line.split(" + ") if part.strip())

    @classmethod
    def from_text(cls, text: str) -> "PauliSum":
        lines = [ln.strip() for ln in text.splitlines()]
        return cls._from_term_strings(ln for ln in lines if ln and not ln.startswith("#"))

    @classmethod
    def _from_term_strings(cls, chunks) -> "PauliSum":
        pairs = [_parse_term(chunk) for chunk in chunks]
        if not pairs:
            raise ValueError("empty Pauli sum text")
        return cls(pairs[0][0].n, pairs)

    def __repr__(self) -> str:
        if not len(self):
            return f"PauliSum(n={self.n}, 0)"
        return f"PauliSum({self.to_line()})"


def _labels(n: int, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Letter strings of the mask pairs, most significant qubit first, as an
    array of n-byte strings; built one qubit column at a time."""
    letters = np.empty((len(x), n), dtype=np.uint8)
    for column, q in enumerate(range(n - 1, -1, -1)):
        code = (x >> q & 1) + 2 * (z >> q & 1)
        letters[:, column] = _LETTER_BYTES[code.astype(np.intp, copy=False)]  # object dtype above 62 qubits
    return letters.view(f"S{n}").reshape(len(x))


def _sum_texts(n: int, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray, offsets, sep: str) -> list:
    """One text per sum on n qubits, sum k being terms offsets[k]:offsets[k + 1] of
    the arrays: its '(re,im) LETTERS' terms joined by sep.  Per block of whole
    sums, the letters are read from the masks at once, and each distinct
    coefficient is formatted once, keyed by its bytes so that -0.0, 0.0 and
    nan keep texts of their own."""
    offsets = np.asarray(offsets)
    lines, k, joint = [], 0, sep.encode()
    while k < len(offsets) - 1:
        # Up to _TEXT_BLOCK terms; a longer sum is a block of its own.
        j = max(k + 1, int(np.searchsorted(offsets, offsets[k] + _TEXT_BLOCK, "right")) - 1)
        lo, hi = int(offsets[k]), int(offsets[j])
        values, at = np.unique(coeffs[lo:hi].view("V16"), return_inverse=True)
        texts = np.array([f"({c.real:.17g},{c.imag:.17g}) " for c in values.view(complex).tolist()], "S")
        terms = np.strings.add(texts[at], _labels(n, x[lo:hi], z[lo:hi])).tolist()
        bounds = (offsets[k:j + 1] - lo).tolist()
        lines += [joint.join(terms[a:b]).decode() for a, b in zip(bounds, bounds[1:])]
        k = j
    return lines


_TERM_RE = re.compile(r"^\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)\s+([IXYZ]+)$")


def _parse_term(chunk: str) -> tuple[PauliString, complex]:
    m = _TERM_RE.match(chunk.strip())
    if m is None:
        raise ValueError(f"malformed Pauli sum term {chunk!r}")
    return PauliString.from_label(m.group(3)), complex(float(m.group(1)), float(m.group(2)))


def pauli_commutator(a: PauliString, b: PauliString) -> PauliSum:
    """Commutator a*b - b*a as a sum: empty, or one term 2*(phase of ab)."""
    return sum_commutator(PauliSum(a.n, ((a, 1.0),)), PauliSum(b.n, ((b, 1.0),)))


def _anticommuting_pairs(a: PauliSum, b: PauliSum):
    """Index arrays (i, j) of the anticommuting term pairs of a and b in row-major
    order, at least one block of about _PAIR_BLOCK pairs of a's rows at a time."""
    step = max(1, _PAIR_BLOCK // max(1, len(b)))
    for lo in range(0, max(1, len(a)), step):
        i, j = np.nonzero(_anticommutes(a.x[lo:lo + step, None], a.z[lo:lo + step, None], b.x, b.z))
        yield i + lo, j


def sum_commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Bilinear expansion of the commutator over all term pairs: each
    anticommuting pair adds ((2.0 * ca) * cb) * i**power, formed as CPython
    forms it from complex scalars, on P_a P_b, merged in row-major pair order."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    i, j = (np.concatenate(blocks) for blocks in zip(*_anticommuting_pairs(a, b)))
    x, z, power = _product(a.x[i], a.z[i], b.x[j], b.z[j])
    values = _complex_product(_complex_product(2.0 * a.coeffs[i], b.coeffs[j]), _I_POWERS[power])
    return PauliSum._canonical(a.n, x, z, values)


def pauli_to_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n realization: i**phase_exp times the letter kron,
    filled as the monomial matrix it is (see sum_to_matrix)."""
    return sum_to_matrix(PauliSum(p.n, ((p, 1.0),)))


def sum_to_matrix(s: PauliSum) -> np.ndarray:
    """Dense realization of a sum, linear in the coefficients.

    A phase-free string is a monomial matrix,
    P|b> = i**#Y * (-1)**popcount(b & z_mask) * |b ^ x_mask>, so a term
    puts c * (+-1 or +-i) in row b ^ x_mask of each column b: 2^n entries,
    no kron products.  np.add.at adds the terms in canonical order, a
    block at a time, so every entry gets the same float additions in the
    same order as a sum of kron products would give it.
    """
    if s.n > DEFAULT_MATRIX_CAP:
        raise CapacityError(f"dense realization of {s.n} qubits exceeds the cap of {DEFAULT_MATRIX_CAP}")
    dim = 1 << s.n
    out = np.zeros((dim, dim), dtype=complex)
    b = np.arange(dim)
    x, z = s.x[:, None], s.z[:, None]
    value = (s.coeffs * _I_POWERS[np.bitwise_count(s.x & s.z) % 4])[:, None]
    step = max(1, _REALIZATION_BLOCK >> s.n)
    for lo in range(0, len(s), step):
        hi = lo + step
        odd = np.bitwise_count(b & z[lo:hi]) & 1  # uint8: select with it, no arithmetic
        entries = np.where(odd, -value[lo:hi], value[lo:hi])
        np.add.at(out, (b ^ x[lo:hi], np.broadcast_to(b, entries.shape)), entries)
    return out


def _flip_cosets(s: PauliSum) -> np.ndarray:
    """The cosets of the x masks' span in GF(2)^n, a (2^(n-r), 2^r) array of basis states
    a row each: a term maps |b> to |b ^ x>, so sum_to_matrix(s) is zero between rows.
    A state's row is named by the state with every pivot bit cleared (Gaussian elimination)."""
    reduced = np.arange(1 << s.n)  # each state reduced over the span of the masks so far
    for v in sorted(set(s.x.tolist())):
        if reduced[v]:  # outside the span: its leading bit is a new pivot, cleared from all
            reduced = np.minimum(reduced, reduced ^ reduced[v])
    return np.argsort(reduced, kind="stable").reshape(-1, np.count_nonzero(reduced == 0))
