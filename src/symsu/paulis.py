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

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

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


def pauli_multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product a*b in the Pauli group, with the exact accumulated i-power."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    # Convert both factors to X^x Z^z form (one i per Y), commute Z past X,
    # then convert the result back to letter form.
    phase = (
        a.phase_exp
        + b.phase_exp
        + (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        - (x & z).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
    )
    return PauliString(a.n, x, z, phase % 4)


def paulis_commute(a: PauliString, b: PauliString) -> bool:
    """True when the strings commute (even number of anticommuting wires)."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    count = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return count % 2 == 0


class PauliSum:
    """Canonical complex-weighted combination of phase-free Pauli strings.

    Stored as three read-only arrays in canonical order: the ``x`` and
    ``z`` masks of the strings and their complex ``coeffs``.  ``terms``
    gives the same sum as (PauliString, complex) pairs.
    """

    __slots__ = ("n", "x", "z", "coeffs")

    def __new__(cls, n: int, terms=()):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        pairs = tuple(terms)
        for p, _ in pairs:
            if p.n != n:
                raise DimensionError(f"term acts on {p.n} qubits, sum is on {n}")
        dtype = np.int64 if n <= 62 else object  # Python-int masks above 62 qubits
        x = np.array([p.x_mask for p, _ in pairs], dtype=dtype)
        z = np.array([p.z_mask for p, _ in pairs], dtype=dtype)
        values = np.array([complex(c) * p.phase for p, c in pairs], dtype=complex)
        order = np.lexsort((x, z))  # stable: equal strings keep their input order
        x, z, values = x[order], z[order], values[order]
        first = np.ones(len(x), dtype=bool)
        first[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
        run = np.cumsum(first) - 1
        # bincount adds each run in order onto +0.0, as a dict merge onto 0j does.
        coeffs = np.bincount(run, values.real).astype(complex)
        coeffs.imag = np.bincount(run, values.imag)
        keep = np.abs(coeffs) >= ZERO_TOL
        return cls._canonical(n, x[first][keep], z[first][keep], coeffs[keep])

    @classmethod
    def _canonical(cls, n: int, x: np.ndarray, z: np.ndarray, coeffs: np.ndarray) -> "PauliSum":
        """Wrap arrays that are already canonical, without copying them;
        they become read-only."""
        s = object.__new__(cls)
        for name, value in zip(cls.__slots__, (n, x, z, coeffs)):
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
        return hash((self.n, self.terms))

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} vs {other.n}")
        return PauliSum(self.n, self.terms + other.terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum(self.n, tuple((p, c * scalar) for p, c in self.terms))

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
    if paulis_commute(a, b):  # raises on differing qubit counts
        return PauliSum.zero(a.n)
    return PauliSum(a.n, ((pauli_multiply(a, b), 2.0),))


def sum_commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Bilinear expansion of the commutator over all term pairs."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    right = b.terms
    # The sum folds each product's phase into its coefficient.
    return PauliSum(a.n, [(pauli_multiply(p, q), 2.0 * ca * cb)
                          for p, ca in a.terms for q, cb in right if not paulis_commute(p, q)])


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
    value = (s.coeffs * np.array(PHASES)[np.bitwise_count(s.x & s.z) % 4])[:, None]
    step = max(1, _REALIZATION_BLOCK >> s.n)
    for lo in range(0, len(s), step):
        hi = lo + step
        odd = np.bitwise_count(b & z[lo:hi]) & 1  # uint8: select with it, no arithmetic
        entries = np.where(odd, -value[lo:hi], value[lo:hi])
        np.add.at(out, (b ^ x[lo:hi], np.broadcast_to(b, entries.shape)), entries)
    return out
