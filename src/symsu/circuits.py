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

from dataclasses import dataclass

import numpy as np

from .errors import ProductFormulaError
from .paulis import PauliString, PauliSum, paulis_commute
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

    @classmethod
    def h(cls, q: int) -> "Gate":
        return cls("H", (q,))

    @classmethod
    def s(cls, q: int) -> "Gate":
        return cls("S", (q,))

    @classmethod
    def sdg(cls, q: int) -> "Gate":
        return cls("SDG", (q,))

    @classmethod
    def rz(cls, q: int, angle: float) -> "Gate":
        return cls("RZ", (q,), float(angle))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls("CNOT", (control, target))

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
        lines = [f"QUBITS {self.n}"]
        lines.extend(g.to_text() for g in self.gates)
        return "\n".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "Circuit":
        lines = [ln.strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln and not ln.startswith("#")]
        if not lines or not lines[0].startswith("QUBITS "):
            raise ValueError("circuit text must start with a 'QUBITS n' header")
        n = int(lines[0].split()[1])
        gates = []
        for ln in lines[1:]:
            parts = ln.split()
            kind = parts[0].upper()
            if kind == "RZ":
                if len(parts) != 3:
                    raise ValueError(f"malformed RZ line {ln!r}")
                gates.append(Gate.rz(int(parts[1]), float(parts[2])))
            elif kind == "CNOT":
                if len(parts) != 3:
                    raise ValueError(f"malformed CNOT line {ln!r}")
                gates.append(Gate.cnot(int(parts[1]), int(parts[2])))
            elif kind in ("H", "S", "SDG") and len(parts) == 2:
                gates.append(Gate(kind, (int(parts[1]),)))
            else:
                raise ValueError(f"malformed gate line {ln!r}")
        return cls(n, tuple(gates))


def two_pauli_condition(s: PauliSum) -> bool:
    """True iff at most two distinct non-identity letters occur in the sum.

    A letter count only: it does not decide whether the terms commute
    (the six arrangements of X, Z, I do not), so synthesis does not use it.
    """
    letters = set()
    for p, _ in s.terms:
        for q in range(p.n):
            ch = p.letter(q)
            if ch != "I":
                letters.add(ch)
    return len(letters) <= 2


def synthesize_pauli_exponential(p: PauliString, alpha: float) -> Circuit:
    """Circuit for exp(-i*alpha/2 * P), exact including the global phase."""
    if p.phase_exp != 0:
        raise ValueError(f"string must be phase-free, got i^{p.phase_exp}")
    active = [q for q in range(p.n) if p.letter(q) != "I"]
    if not active:
        raise ValueError(
            "all-identity string exponentiates to a global phase; no gate realizes it"
        )
    pre: list[Gate] = []
    post: list[Gate] = []
    for q in active:
        letter = p.letter(q)
        if letter == "X":
            pre.append(Gate.h(q))
            post.append(Gate.h(q))
        elif letter == "Y":
            pre.extend((Gate.sdg(q), Gate.h(q)))
            post.extend((Gate.h(q), Gate.s(q)))
    chain = [Gate.cnot(active[k], active[k + 1]) for k in range(len(active) - 1)]
    gates = pre + chain + [Gate.rz(active[-1], alpha)] + chain[::-1] + post
    return Circuit(p.n, tuple(gates))


def synthesize_sum_exponential(s: PauliSum, alpha: float) -> Circuit:
    """Circuit for exp(-i*alpha/2 * S) as concatenated term exponentials.

    Valid only when the terms commute pairwise, which the routine checks
    exactly; otherwise it refuses rather than emit an approximation.
    """
    if not s.is_hermitian():
        raise ValueError("sum exponential needs real coefficients")
    strings = [p for p, _ in s.terms]
    for i in range(len(strings)):
        for j in range(i + 1, len(strings)):
            if not paulis_commute(strings[i], strings[j]):
                raise ProductFormulaError(
                    "terms do not commute; product formula inapplicable "
                    f"({strings[i].to_label()} and {strings[j].to_label()} anticommute)"
                )
    gates: list[Gate] = []
    for p, c in s.terms:
        gates.extend(synthesize_pauli_exponential(p, alpha * c.real).gates)
    return Circuit(s.n, tuple(gates))


def _embed_single(gate_matrix: np.ndarray, q: int, n: int) -> np.ndarray:
    return np.kron(np.eye(1 << (n - 1 - q)), np.kron(gate_matrix, np.eye(1 << q)))


def _cnot_matrix(control: int, target: int, n: int) -> np.ndarray:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        out = idx ^ (((idx >> control) & 1) << target)
        m[out, idx] = 1.0
    return m


def gate_to_matrix(g: Gate, n: int) -> np.ndarray:
    if g.kind == "CNOT":
        return _cnot_matrix(g.qubits[0], g.qubits[1], n)
    single = {
        "H": H_MATRIX,
        "S": S_MATRIX,
        "SDG": SDG_MATRIX,
    }.get(g.kind)
    if single is None:
        single = rz_matrix(g.angle)
    return _embed_single(single, g.qubits[0], n)


def circuit_to_matrix(c: Circuit) -> Unitary:
    """Evaluate the ordered gate product; the empty circuit is the identity."""
    m = np.eye(1 << c.n, dtype=complex)
    for g in c.gates:
        m = gate_to_matrix(g, c.n) @ m
    return Unitary(m, tol=1e-10)
