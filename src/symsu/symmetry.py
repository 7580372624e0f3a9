"""Finite symmetry groups on qubits and the invariance condition S U S+ = U.

Symmetry elements are qubit permutations (realized as basis-permutation
matrices) or raw unitaries such as CNOT.  Groups are closed under
composition from a generator list.  The invariance of a matrix U under a
group is measured by the worst Frobenius defect ||S U - U S|| over the
elements.

Qubit index 0 is the least significant bit of a basis-state index, which
fixes the bit-permutation formula for permutation matrices.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GroupClosureError, NotUnitaryError
from .paulis import PauliString
from .serialize import matrix_from_pairs, matrix_to_pairs

RAW_UNITARITY_TOL = 1e-10

DEFAULT_CLOSURE_CAP = 10_000

# Matrix entries per block of is_invariant; bounds its stacked differences.
_DEFECT_BLOCK = 1 << 12


def _basis_permutations(images: np.ndarray) -> np.ndarray:
    """Row e is the basis-index table of the wire permutation images[e]:
    bit i of every index moves to bit images[e, i]."""
    n = images.shape[1]
    bits = (np.arange(1 << n, dtype=np.int64) >> np.arange(n)[:, None]) & 1
    return (1 << images) @ bits


@dataclass(frozen=True, order=True)
class QubitPermutation:
    """A relabeling of wires; image[i] is the destination wire of qubit i."""

    n: int
    image: tuple

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(int(i) for i in self.image))
        if sorted(self.image) != list(range(self.n)):
            raise ValueError(f"image {self.image} is not a bijection on 0..{self.n - 1}")

    @classmethod
    def identity(cls, n: int) -> "QubitPermutation":
        return cls(n, tuple(range(n)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "QubitPermutation":
        image = list(range(n))
        image[i], image[j] = image[j], image[i]
        return cls(n, tuple(image))

    @property
    def is_identity(self) -> bool:
        return self.image == tuple(range(self.n))

    def compose(self, other: "QubitPermutation") -> "QubitPermutation":
        """self after other (other applied first)."""
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} vs {other.n}")
        return QubitPermutation(self.n, tuple(self.image[other.image[i]] for i in range(self.n)))

    def inverse(self) -> "QubitPermutation":
        inv = [0] * self.n
        for i, dest in enumerate(self.image):
            inv[dest] = i
        return QubitPermutation(self.n, tuple(inv))

    def cycle_count(self) -> int:
        """Number of cycles of the wire permutation (fixed points included)."""
        seen = [False] * self.n
        count = 0
        for start in range(self.n):
            if seen[start]:
                continue
            count += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = self.image[j]
        return count

    def permute_mask(self, mask: int) -> int:
        """Move bit i of mask to bit image[i]."""
        out = 0
        for i in range(self.n):
            if (mask >> i) & 1:
                out |= 1 << self.image[i]
        return out

    def basis_permutation(self) -> np.ndarray:
        """Array s with S|b> = |s(b)> for every basis index b (permute_mask on all masks)."""
        return _basis_permutations(np.array([self.image], dtype=np.int64))[0]

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.n
        s = self.basis_permutation()
        m = np.zeros((dim, dim), dtype=complex)
        m[s, np.arange(dim)] = 1.0
        return m


class SymmetryElement:
    """Either a qubit permutation or a raw unitary matrix."""

    __slots__ = ("n", "perm", "matrix")

    def __init__(self, n: int, perm: QubitPermutation | None = None,
                 matrix: np.ndarray | None = None):
        if (perm is None) == (matrix is None):
            raise ValueError("exactly one of perm or matrix must be given")
        self.n = n
        self.perm = perm
        self.matrix = matrix
        if perm is not None and perm.n != n:
            raise DimensionError(f"permutation on {perm.n} qubits, element on {n}")

    @classmethod
    def from_permutation(cls, perm: QubitPermutation) -> "SymmetryElement":
        return cls(perm.n, perm=perm)

    @classmethod
    def from_unitary(cls, matrix: np.ndarray, tol: float = RAW_UNITARITY_TOL) -> "SymmetryElement":
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"raw symmetry must be square, got shape {m.shape}")
        dim = m.shape[0]
        n = dim.bit_length() - 1
        if 1 << n != dim:
            raise DimensionError(f"matrix dimension {dim} is not a power of two")
        residual = np.linalg.norm(m @ m.conj().T - np.eye(dim))
        if residual >= tol:
            raise NotUnitaryError(
                f"raw symmetry is not unitary: ||SS+ - 1|| = {residual:.3e}"
            )
        m.setflags(write=False)
        return cls(n, matrix=m)

    @classmethod
    def identity(cls, n: int) -> "SymmetryElement":
        return cls.from_permutation(QubitPermutation.identity(n))

    @property
    def is_permutation(self) -> bool:
        return self.perm is not None

    def to_matrix(self) -> np.ndarray:
        if self.perm is not None:
            return self.perm.to_matrix()
        return self.matrix

    def compose(self, other: "SymmetryElement") -> "SymmetryElement":
        """self after other."""
        if self.n != other.n:
            raise DimensionError(f"qubit counts differ: {self.n} vs {other.n}")
        if self.perm is not None and other.perm is not None:
            return SymmetryElement.from_permutation(self.perm.compose(other.perm))
        m = self.to_matrix() @ other.to_matrix()
        m.setflags(write=False)
        return SymmetryElement(self.n, matrix=m)

    def inverse(self) -> "SymmetryElement":
        if self.perm is not None:
            return SymmetryElement.from_permutation(self.perm.inverse())
        m = self.matrix.conj().T.copy()
        m.setflags(write=False)
        return SymmetryElement(self.n, matrix=m)

    def phase_normalized(self) -> np.ndarray:
        """Matrix rescaled so its first sizeable entry is positive real.

        S and exp(i phi) S induce the same conjugation, so this is the
        canonical representative used for deduplication.
        """
        m = self.to_matrix()
        flat = m.ravel()
        # Every unitary row has an entry of magnitude >= 1/sqrt(dim).
        pivot = flat[(abs(flat) > 1e-6).argmax()]
        return m * (abs(pivot) / pivot)

    def __repr__(self) -> str:
        if self.perm is not None:
            return f"SymmetryElement(perm={list(self.perm.image)})"
        return f"SymmetryElement(unitary dim={self.matrix.shape[0]})"


def _coerce_element(obj) -> SymmetryElement:
    if isinstance(obj, SymmetryElement):
        return obj
    if isinstance(obj, QubitPermutation):
        return SymmetryElement.from_permutation(obj)
    return SymmetryElement.from_unitary(np.asarray(obj))


class SymmetryGroup:
    """A finite, composition-closed set of symmetry elements."""

    __slots__ = ("n", "generators", "elements", "name")

    def __init__(self, n: int, generators, elements, name: str = "custom"):
        self.n = n
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.name = name

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def is_permutation_group(self) -> bool:
        return all(e.is_permutation for e in self.elements)

    def permutations(self) -> list[QubitPermutation]:
        return [e.perm for e in self.elements if e.is_permutation]

    def validate(self):
        """Re-verify that the element set is a group: identity, inverses,
        and closure under composition, with elements equal up to a global
        phase (`_phase_key`).  Quadratic in the group order, so meant for
        small groups and tests; `generate_group` output is closed by
        construction."""
        keys = {_phase_key(e) for e in self.elements}
        if _phase_key(SymmetryElement.identity(self.n)) not in keys:
            raise GroupClosureError("identity element missing")
        for a in self.elements:
            if _phase_key(a.inverse()) not in keys:
                raise GroupClosureError(f"inverse of {a!r} missing")
            for b in self.elements:
                if _phase_key(a.compose(b)) not in keys:
                    raise GroupClosureError(f"product {a!r} * {b!r} missing")

    def __repr__(self) -> str:
        return f"SymmetryGroup(n={self.n}, name={self.name!r}, size={len(self)})"


def _phase_key(element: SymmetryElement) -> bytes:
    """Hashable identity of an element up to global phase: the bytes of its
    phase-normalized matrix rounded to 9 decimals, with -0.0 folded to 0.0."""
    return (element.phase_normalized().view(np.float64).round(9) + 0.0).tobytes()


def _close(identity, generators, key, cap: int) -> list:
    """Breadth-first closure of the generators under left composition,
    one element per key, in discovery order."""
    known = {key(identity): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                q = g.compose(e)
                k = key(q)
                if k not in known:
                    if len(known) >= cap:
                        raise GroupClosureError(f"group not finite at this cap ({cap} elements)")
                    known[k] = q
                    nxt.append(q)
        frontier = nxt
    return list(known.values())


def generate_group(n: int, generators, cap: int = DEFAULT_CLOSURE_CAP,
                   name: str = "custom") -> SymmetryGroup:
    """Breadth-first closure of the generators under composition.

    Permutations are deduplicated exactly by their image and sorted; any
    group with a raw unitary is deduplicated up to a global phase by
    `_phase_key`, identity included.  All generators are invertible, so
    closing under products alone also yields every inverse and the identity.
    """
    gens = [_coerce_element(g) for g in generators]
    for g in gens:
        if g.n != n:
            raise DimensionError(f"generator acts on {g.n} qubits, group is on {n}")
    if all(g.is_permutation for g in gens):
        perms = _close(QubitPermutation.identity(n), [g.perm for g in gens],
                       lambda p: p.image, cap)
        elements = [SymmetryElement.from_permutation(p) for p in sorted(perms)]
    else:
        elements = _close(SymmetryElement.identity(n), gens, _phase_key, cap)
    return SymmetryGroup(n, gens, elements, name=name)


def conjugate_pauli(p: QubitPermutation, s: PauliString) -> PauliString:
    """Image of a Pauli string under wire relabeling: S s S+.

    Letters move with their wires; the phase is unchanged.
    """
    if p.n != s.n:
        raise DimensionError(f"qubit counts differ: {p.n} vs {s.n}")
    return PauliString(s.n, p.permute_mask(s.x_mask), p.permute_mask(s.z_mask), s.phase_exp)


def _square(u) -> np.ndarray:
    m = np.asarray(getattr(u, "matrix", u), dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_qubits(m: np.ndarray, n: int):
    if 1 << n != m.shape[0]:
        raise DimensionError(f"matrix dim {m.shape[0]} does not match {n} qubits")


def symmetry_defect(u, element) -> float:
    """Frobenius norm of S U - U S; zero iff U commutes with S."""
    m = _square(u)
    perm = None
    if isinstance(element, QubitPermutation):
        perm = element
    elif isinstance(element, SymmetryElement) and element.is_permutation:
        perm = element.perm
    if perm is not None:
        _check_qubits(m, perm.n)
        s = perm.basis_permutation()
        inv = np.empty_like(s)
        inv[s] = np.arange(len(s))
        return float(np.linalg.norm(m[inv, :] - m[:, s]))
    sm = element.to_matrix() if isinstance(element, SymmetryElement) else np.asarray(element, dtype=complex)
    if sm.shape != m.shape:
        raise DimensionError(f"dimension mismatch: {sm.shape} vs {m.shape}")
    return float(np.linalg.norm(sm @ m - m @ sm))


def is_invariant(u, group: SymmetryGroup, tol: float = 1e-10,
                 generators_only: bool = False) -> tuple[bool, float]:
    """(flag, max residual) of the invariance condition over the group.

    Checking generators alone is sufficient because products preserve
    invariance, but the full sweep is the default so that tests of that
    very fact do not assume it.  Each defect equals symmetry_defect of its
    element, bit for bit; the permutation members' index tables and
    differences are built together, a block of elements at a time.
    """
    members = group.generators if generators_only else group.elements
    m = _square(u)
    worst = 0.0
    images = np.array([e.perm.image for e in members if e.is_permutation], dtype=np.int64)
    if len(images):
        _check_qubits(m, group.n)
        columns = np.ascontiguousarray(m.T)  # row c is column c of m
        block = max(1, _DEFECT_BLOCK >> 2 * group.n)
        for start in range(0, len(images), block):
            tables = _basis_permutations(images[start:start + block])
            inverses = np.empty_like(tables)
            inverses[np.arange(len(tables))[:, None], tables] = np.arange(m.shape[0])
            # diffs[e] is the 2-D difference of symmetry_defect for element e.
            diffs = m[inverses, :]
            diffs -= columns[tables].transpose(0, 2, 1)
            for diff in diffs:
                worst = max(worst, float(np.linalg.norm(diff)))
    for element in members:
        if not element.is_permutation:
            worst = max(worst, symmetry_defect(m, element))
    return worst < tol, worst


# ---------------------------------------------------------------------------
# Named presets and the JSON group specification


def full_swap_generators(n: int) -> list[SymmetryElement]:
    """All wire transpositions; closure is the full symmetric group."""
    return [
        SymmetryElement.from_permutation(QubitPermutation.transposition(n, i, j))
        for i in range(n)
        for j in range(i + 1, n)
    ]


def cyclic_generators(n: int) -> list[SymmetryElement]:
    """Rotation by one wire."""
    if n == 1:
        return []
    rot = QubitPermutation(n, tuple((i + 1) % n for i in range(n)))
    return [SymmetryElement.from_permutation(rot)]


def dihedral_generators(n: int) -> list[SymmetryElement]:
    """Rotation plus reflection (symmetries of the n-gon of wires)."""
    if n == 1:
        return []
    refl = QubitPermutation(n, tuple((n - i) % n for i in range(n)))
    return cyclic_generators(n) + [SymmetryElement.from_permutation(refl)]


def trivial_generators(n: int) -> list[SymmetryElement]:
    return []


PRESETS = {
    "full_swap": full_swap_generators,
    "cyclic": cyclic_generators,
    "dihedral": dihedral_generators,
    "trivial": trivial_generators,
}


def preset_group(name: str, n: int, cap: int = DEFAULT_CLOSURE_CAP) -> SymmetryGroup:
    if name not in PRESETS:
        raise ValueError(f"unknown symmetry preset {name!r}; known: {sorted(PRESETS)}")
    return generate_group(n, PRESETS[name](n), cap=cap, name=name)


def group_from_spec(spec: dict, cap: int = DEFAULT_CLOSURE_CAP) -> SymmetryGroup:
    """Build a group from the JSON specification.

    Shape: {"n": 3, "generators": [{"perm": [1, 0, 2]},
    {"unitary": [[[re, im], ...], ...]}]}.  A preset name may stand in
    for the generator list; presets resolve to plain generators before
    closure, so files and presets share one code path.
    """
    try:
        n = int(spec["n"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"symmetry spec needs an integer 'n': {exc}") from exc
    if n < 1:
        raise ValueError(f"symmetry spec 'n' must be at least 1, got {n}")
    raw = spec.get("generators", [])
    if isinstance(raw, str):
        return preset_group(raw, n, cap=cap)
    gens = []
    for entry in raw:
        if "perm" in entry:
            gens.append(SymmetryElement.from_permutation(QubitPermutation(n, tuple(entry["perm"]))))
        elif "unitary" in entry:
            gens.append(SymmetryElement.from_unitary(matrix_from_pairs(entry["unitary"])))
        else:
            raise ValueError(f"generator entry needs 'perm' or 'unitary': {entry!r}")
    return generate_group(n, gens, cap=cap)


def load_group(path, cap: int = DEFAULT_CLOSURE_CAP) -> SymmetryGroup:
    with open(path, encoding="utf-8") as fh:
        return group_from_spec(json.load(fh), cap=cap)


def group_spec_data(group: SymmetryGroup) -> dict:
    """JSON-serializable spec reproducing the group's generators."""
    gens = []
    for g in group.generators:
        if g.is_permutation:
            gens.append({"perm": list(g.perm.image)})
        else:
            gens.append({"unitary": matrix_to_pairs(g.matrix)})
    return {"n": group.n, "generators": gens}
