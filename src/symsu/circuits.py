"""Compilation of Pauli exponentials into CNOT-ladder gate circuits.

exp(-i*alpha/2 * P) for a single string P compiles to per-qubit basis
changes (H for X, H*S+ for Y) that move every active letter onto the Z
axis, a CNOT chain that accumulates the parity of the active qubits onto
the highest active wire, one RZ(alpha) there, and the mirrored tail.
The identity RZ(a) = exp(-i*a/2 * Z) makes the match exact including the
global phase.

A sum compiles as the concatenation of its term circuits.  That equals
the exponential of the sum only when the terms commute pairwise, so
synthesis checks commutation exactly and refuses otherwise; there is no
silent approximate splitting.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ProductFormulaError
from .paulis import PauliString, PauliSum, _anticommuting_pairs
from .unitary_ops import Unitary

GATE_KINDS = ("H", "S", "SDG", "RZ", "CNOT")

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_MATRIX = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG_MATRIX = np.array([[1, 0], [0, -1j]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    """exp(-i*theta/2 * Z); determinant one, not the bare phase gate."""
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


@dataclass(frozen=True)
class Gate:
    """One gate: kind, wire indices, and an angle for rotations."""

    kind: str
    qubits: tuple
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        expected = 2 if self.kind == "CNOT" else 1
        if len(self.qubits) != expected:
            raise ValueError(f"{self.kind} takes {expected} qubit(s), got {self.qubits}")
        if self.kind == "CNOT" and self.qubits[0] == self.qubits[1]:
            raise ValueError("CNOT control and target must differ")
        if (self.kind == "RZ") != (self.angle is not None):
            raise ValueError("exactly the RZ gate carries an angle")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"RZ angle must be finite, got {self.angle}")

    def to_text(self) -> str:
        if self.kind == "RZ":
            return f"RZ {self.qubits[0]} {self.angle:.17g}"
        return f"{self.kind} {' '.join(str(q) for q in self.qubits)}"


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on n qubits; the leftmost gate is applied first."""

    n: int
    gates: tuple

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if any(q < 0 or q >= self.n for q in g.qubits):
                raise ValueError(f"gate {g.to_text()!r} is out of range for {self.n} qubits")

    def __len__(self) -> int:
        return len(self.gates)

    def count(self, kind: str) -> int:
        return sum(1 for g in self.gates if g.kind == kind)

    def to_text(self) -> str:
        return "\n".join([f"QUBITS {self.n}"] + [g.to_text() for g in self.gates])

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        lines = [ln for ln in map(str.strip, text.splitlines()) if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("QUBITS "):
            raise ValueError("circuit text must start with a 'QUBITS n' header")
        n = int(lines[0].split()[1])
        gates = []
        for ln in lines[1:]:
            kind, *args = ln.split()
            kind = kind.upper()
            if kind in ("RZ", "CNOT") and len(args) != 2:
                raise ValueError(f"malformed {kind} line {ln!r}")
            if kind == "RZ":
                gates.append(Gate("RZ", (int(args[0]),), float(args[1])))
            elif kind == "CNOT" or (kind in ("H", "S", "SDG") and len(args) == 1):
                gates.append(Gate(kind, tuple(int(q) for q in args)))
            else:
                raise ValueError(f"malformed gate line {ln!r}")
        return cls(n, tuple(gates))


def two_pauli_condition(s: PauliSum) -> bool:
    """True iff at most two distinct non-identity letters occur in the sum.

    A letter count only: it does not decide whether the terms commute
    (the six arrangements of X, Z, I do not), so synthesis does not use it.
    """
    x_only, z_only, y = s.x & ~s.z, s.z & ~s.x, s.x & s.z
    return sum(bool(np.any(m)) for m in (x_only, z_only, y)) <= 2


# Per letter, the gates that turn it into Z and the gates that turn Z back.
_BASIS_CHANGE = {"X": (("H",), ("H",)), "Y": (("SDG", "H"), ("H", "S")), "Z": ((), ())}


def synthesize_pauli_exponential(p: PauliString, alpha: float) -> Circuit:
    """Circuit for exp(-i*alpha/2 * P), exact including the global phase."""
    if p.phase_exp != 0:
        raise ValueError(f"string must be phase-free, got i^{p.phase_exp}")
    active = [q for q in range(p.n) if p.letter(q) != "I"]
    if not active:
        raise ValueError("all-identity string exponentiates to a global phase; no gate realizes it")
    pre, post = ([Gate(kind, (q,)) for q in active for kind in _BASIS_CHANGE[p.letter(q)][side]]
                 for side in (0, 1))
    chain = [Gate("CNOT", (active[k], active[k + 1])) for k in range(len(active) - 1)]
    gates = pre + chain + [Gate("RZ", (active[-1],), float(alpha))] + chain[::-1] + post
    return Circuit(p.n, tuple(gates))


def synthesize_sum_exponential(s: PauliSum, alpha: float) -> Circuit:
    """Circuit for exp(-i*alpha/2 * S) as concatenated term exponentials.

    Valid only when the terms commute pairwise, which the routine checks
    exactly; otherwise it refuses rather than emit an approximation.
    """
    if not s.is_hermitian():
        raise ValueError("sum exponential needs real coefficients")
    if not math.isfinite(alpha):  # a sum whose coefficients are all 0 has no RZ gate to refuse it
        raise ValueError(f"angle alpha must be finite, got {alpha}")
    # Anticommutation is symmetric and never holds on the diagonal, so the first
    # pair in row-major order has i < j: the first pair i < j in (i, j) order.
    for i, j in _anticommuting_pairs(s, s):
        if len(i):
            p, q = (PauliString(s.n, int(s.x[k]), int(s.z[k])) for k in (i[0], j[0]))
            raise ProductFormulaError("terms do not commute; product formula inapplicable "
                                      f"({p.to_label()} and {q.to_label()} anticommute)")
    return Circuit(s.n, tuple(g for p, c in s.terms
                              for g in synthesize_pauli_exponential(p, alpha * c.real).gates))


_FIXED_GATES = {"H": H_MATRIX, "S": S_MATRIX, "SDG": SDG_MATRIX}


def circuit_to_matrix(c: Circuit) -> Unitary:
    """Evaluate the ordered gate product; the empty circuit is the identity.

    The running matrix keeps one row axis per qubit, qubit n-1 first, so a
    single-qubit gate is a 2x2 contraction on its axis and a CNOT swaps
    the two target halves of the control-1 half: O(4^n) work per gate.
    """
    dim = 1 << c.n
    m = np.eye(dim, dtype=complex).reshape((2,) * c.n + (dim,))
    for g in c.gates:
        axes = [c.n - 1 - q for q in g.qubits]
        if g.kind == "CNOT":
            view = np.moveaxis(m, axes, (0, 1))  # control axis first, then target
            view[1] = view[1, ::-1]  # numpy copies the overlapping source first
        else:
            gate = rz_matrix(g.angle) if g.kind == "RZ" else _FIXED_GATES[g.kind]
            m = np.moveaxis(np.tensordot(gate, m, axes=(1, axes[0])), 0, axes[0])
    return Unitary(m.reshape(dim, dim), tol=1e-10)
