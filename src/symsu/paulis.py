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

Sums of strings are kept canonical: term keys are phase-free strings
(phase folded into the complex coefficient), zero coefficients dropped,
terms sorted by (z_mask, x_mask).  A sum with real coefficients therefore
realizes a Hermitian matrix.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionError

# Coefficients with magnitude below this are treated as zero after
# arithmetic; exact-integer paths never come near it.
ZERO_TOL = 1e-12

# Dense realizations are capped at this many qubits by default.
DEFAULT_MATRIX_CAP = 10

# Matrix entries per block of sum_to_matrix; bounds its temporary arrays.
_REALIZATION_BLOCK = 1 << 14

PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

_LETTERS = "IXZY"  # indexed by x_bit + 2*z_bit


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
        n = len(label)
        x_mask = z_mask = 0
        for q, ch in enumerate(reversed(label)):
            if ch in "XY":
                x_mask |= 1 << q
            if ch in "ZY":
                z_mask |= 1 << q
        return cls(n, x_mask, z_mask, phase_exp)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0, 0)

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

    @property
    def weight(self) -> int:
        """Number of non-identity letters."""
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def phase_free(self) -> "PauliString":
        """The same letters with phase_exp forced to 0 (canonical sum key)."""
        if self.phase_exp == 0:
            return self
        return PauliString(self.n, self.x_mask, self.z_mask, 0)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return pauli_multiply(self, other)

    def __repr__(self) -> str:
        prefix = ("", "i*", "-", "-i*")[self.phase_exp]
        return f"{prefix}{self.to_label()}"


def _y_count(p: PauliString) -> int:
    return (p.x_mask & p.z_mask).bit_count()


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
        + _y_count(a)
        + _y_count(b)
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


@dataclass(frozen=True)
class PauliSum:
    """Canonical complex-weighted combination of phase-free Pauli strings."""

    n: int
    terms: tuple = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
        merged: dict[PauliString, complex] = {}
        for p, coeff in self.terms:
            if p.n != self.n:
                raise DimensionError(
                    f"term acts on {p.n} qubits, sum is on {self.n}"
                )
            key = p.phase_free()
            merged[key] = merged.get(key, 0j) + complex(coeff) * p.phase
        canonical = tuple(
            (p, c)
            for p, c in sorted(merged.items(), key=lambda kv: (kv[0].z_mask, kv[0].x_mask))
            if abs(c) >= ZERO_TOL
        )
        object.__setattr__(self, "terms", canonical)

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

    def coefficient(self, p: PauliString) -> complex:
        return dict(self.terms).get(p.phase_free(), 0j)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} vs {other.n}")
        return PauliSum(self.n, self.terms + other.terms)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum(self.n, tuple((p, c * scalar) for p, c in self.terms))

    __rmul__ = __mul__

    def is_hermitian(self, tol: float = ZERO_TOL) -> bool:
        """Real coefficients on phase-free keys realize a Hermitian matrix."""
        return all(abs(c.imag) < tol for _, c in self.terms)

    @property
    def has_identity_term(self) -> bool:
        return any(p.is_identity for p, _ in self.terms)

    def to_line(self) -> str:
        """One-line form: terms joined by ' + '."""
        return " + ".join(_term_text(p, c) for p, c in self.terms)

    def to_text(self) -> str:
        """Multi-line form: one '(re,im) LETTERS' term per line."""
        return "\n".join(_term_text(p, c) for p, c in self.terms)

    @classmethod
    def from_line(cls, line: str) -> "PauliSum":
        return cls._from_term_strings(part for part in line.split(" + ") if part.strip())

    @classmethod
    def from_text(cls, text: str) -> "PauliSum":
        lines = [ln.strip() for ln in text.splitlines()]
        return cls._from_term_strings(ln for ln in lines if ln and not ln.startswith("#"))

    @classmethod
    def _from_term_strings(cls, chunks) -> "PauliSum":
        pairs = []
        n = None
        for chunk in chunks:
            p, c = _parse_term(chunk)
            if n is None:
                n = p.n
            pairs.append((p, c))
        if n is None:
            raise ValueError("empty Pauli sum text")
        return cls(n, tuple(pairs))

    def __repr__(self) -> str:
        if not self.terms:
            return f"PauliSum(n={self.n}, 0)"
        return f"PauliSum({self.to_line()})"


_TERM_RE = re.compile(r"^\(\s*([^,\s]+)\s*,\s*([^)\s]+)\s*\)\s+([IXYZ]+)$")


def _term_text(p: PauliString, c: complex) -> str:
    return f"({c.real:.17g},{c.imag:.17g}) {p.to_label()}"


def _parse_term(chunk: str) -> tuple[PauliString, complex]:
    m = _TERM_RE.match(chunk.strip())
    if m is None:
        raise ValueError(f"malformed Pauli sum term {chunk!r}")
    return PauliString.from_label(m.group(3)), complex(float(m.group(1)), float(m.group(2)))


def pauli_commutator(a: PauliString, b: PauliString) -> PauliSum:
    """Commutator a*b - b*a as a sum: empty, or one term 2*(phase of ab)."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    if paulis_commute(a, b):
        return PauliSum.zero(a.n)
    prod = pauli_multiply(a, b)
    return PauliSum(a.n, ((prod.phase_free(), 2.0 * prod.phase),))


def sum_commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """Bilinear expansion of the commutator over all term pairs."""
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    pairs = []
    for p, ca in a.terms:
        for q, cb in b.terms:
            if not paulis_commute(p, q):
                prod = pauli_multiply(p, q)
                pairs.append((prod.phase_free(), 2.0 * ca * cb * prod.phase))
    return PauliSum(a.n, tuple(pairs))


def _check_cap(n: int, max_qubits: int):
    if n > max_qubits:
        raise CapacityError(
            f"dense realization of {n} qubits exceeds the cap of {max_qubits}"
        )


def pauli_to_matrix(p: PauliString, max_qubits: int = DEFAULT_MATRIX_CAP) -> np.ndarray:
    """Dense 2^n x 2^n realization: i**phase_exp times the letter kron,
    filled as the monomial matrix it is (see sum_to_matrix)."""
    return sum_to_matrix(PauliSum(p.n, ((p, 1.0),)), max_qubits)


def sum_to_matrix(s: PauliSum, max_qubits: int = DEFAULT_MATRIX_CAP) -> np.ndarray:
    """Dense realization of a sum, linear in the coefficients.

    A phase-free string is a monomial matrix,
    P|b> = i**#Y * (-1)**popcount(b & z_mask) * |b ^ x_mask>, so a term
    puts c * (+-1 or +-i) in row b ^ x_mask of each column b: 2^n entries,
    no kron products.  np.add.at adds the terms in canonical order, a
    block at a time, so every entry gets the same float additions in the
    same order as a sum of kron products would give it.
    """
    _check_cap(s.n, max_qubits)
    dim = 1 << s.n
    out = np.zeros((dim, dim), dtype=complex)
    b = np.arange(dim)
    x = np.array([p.x_mask for p, _ in s.terms], dtype=np.int64)[:, None]
    z = np.array([p.z_mask for p, _ in s.terms], dtype=np.int64)[:, None]
    value = np.array([c * PHASES[_y_count(p) % 4] for p, c in s.terms], dtype=complex)[:, None]
    step = max(1, _REALIZATION_BLOCK >> s.n)
    for lo in range(0, len(s.terms), step):
        hi = lo + step
        odd = np.bitwise_count(b & z[lo:hi]) & 1  # uint8: select with it, no arithmetic
        entries = np.where(odd, -value[lo:hi], value[lo:hi])
        np.add.at(out, (b ^ x[lo:hi], np.broadcast_to(b, entries.shape)), entries)
    return out
