"""Finite symmetry groups on qubits and the invariance condition S U S+ = U.

Symmetry elements are qubit permutations (realized as basis-permutation
matrices) or raw unitaries such as CNOT.  A group is held as its generator
list and closed under composition only when its elements are first read;
a closed group of wire permutations is one array of wire images, a row per
element.  The invariance of a matrix U under a group is measured by the
worst Frobenius defect ||S U - U S|| over the generators: U commutes with
every element iff it commutes with them, so invariance never closes a group.

Qubit index 0 is the least significant bit of a basis-state index, which
fixes the bit-permutation formula for permutation matrices.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, GroupClosureError, NotUnitaryError
from .paulis import PauliString
from .serialize import matrix_from_pairs

RAW_UNITARITY_TOL = 1e-10

# Closure caps: raw-unitary groups by default; permutation groups at 8!, the
# order of S_8, the largest group that enumeration up to 8 qubits needs.
DEFAULT_CLOSURE_CAP = 10_000
_PERMUTATION_CAP = 40_320


def _basis_permutations(images: np.ndarray) -> np.ndarray:
    """Row e is the basis-index table of the wire permutation images[e]:
    bit i of every index moves to bit images[e, i]."""
    n = images.shape[1]
    bits = (np.arange(1 << n, dtype=np.int64) >> np.arange(n)[:, None]) & 1
    return (1 << images) @ bits


def _image_rows(n: int, elements) -> np.ndarray:
    """Wire-image rows of the permutation elements; raw unitaries are left out."""
    return np.array([e.perm.image for e in elements if e.is_permutation], dtype=np.int64).reshape(-1, n)


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

    def permute_mask(self, mask: int) -> int:
        """Move bit i of mask to bit image[i]."""
        return sum(1 << dest for i, dest in enumerate(self.image) if mask >> i & 1)

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.n
        s = _basis_permutations(np.array([self.image], dtype=np.int64))[0]
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
    def from_unitary(cls, matrix: np.ndarray) -> "SymmetryElement":
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"raw symmetry must be square, got shape {m.shape}")
        dim = m.shape[0]
        n = dim.bit_length() - 1
        if 1 << n != dim:
            raise DimensionError(f"matrix dimension {dim} is not a power of two")
        if not np.isfinite(m).all():
            raise NotUnitaryError("raw symmetry has a non-finite entry")
        residual = np.linalg.norm(m @ m.conj().T - np.eye(dim))
        if not residual < RAW_UNITARITY_TOL:
            raise NotUnitaryError(f"raw symmetry is not unitary: ||SS+ - 1|| = {residual:.3e}")
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
    """A finite symmetry group, held as its generators.

    The group is closed only when ``images``, ``elements`` or ``len`` is
    first read, and the result is kept.  A wire-permutation group has
    ``images``, an (|G|, n) array of wire images, and builds ``elements``
    from the rows; any other group has ``images`` None.
    """

    __slots__ = ("n", "generators", "name", "_images", "_elements")

    def __init__(self, n: int, generators, name: str = "custom"):
        self.n = n
        self.generators = tuple(generators)
        self.name = name
        self._images = self._elements = None

    def _is_permutation_group(self) -> bool:
        """Whether every element is a wire permutation.  Known without
        closure when every generator is one; otherwise the group is closed,
        and a raw generator counts only if `_close` met a permutation with
        its phase key first."""
        return all(g.is_permutation for g in self.generators) or all(e.is_permutation for e in self.elements)

    @property
    def images(self) -> np.ndarray | None:
        if self._images is None and self._is_permutation_group():
            # With a raw generator, _is_permutation_group has listed the elements.
            rows = (_close_images(self.n, _image_rows(self.n, self.generators))
                    if self._elements is None else _image_rows(self.n, self._elements))
            rows.setflags(write=False)
            self._images = rows
        return self._images

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            self._elements = (_close(SymmetryElement.identity(self.n), self.generators)
                              if any(not g.is_permutation for g in self.generators) else
                              tuple(SymmetryElement.from_permutation(QubitPermutation(self.n, row))
                                    for row in self.images.tolist()))
        return self._elements

    def __len__(self) -> int:
        return len(self.elements) if self.images is None else len(self.images)

    def __repr__(self) -> str:
        return f"SymmetryGroup(n={self.n}, name={self.name!r}, generators={len(self.generators)})"


def _phase_key(element: SymmetryElement) -> bytes:
    """Hashable identity of an element up to global phase.

    S and exp(i phi) S induce the same conjugation, so the matrix is
    rescaled to make its first sizeable entry positive real (every unitary
    row has an entry of magnitude >= 1/sqrt(dim)); the key is the bytes of
    that matrix rounded to 9 decimals, with -0.0 folded to 0.0.
    """
    m = element.to_matrix()
    flat = m.ravel()
    pivot = flat[(abs(flat) > 1e-6).argmax()]
    return ((m * (abs(pivot) / pivot)).view(np.float64).round(9) + 0.0).tobytes()


def _close(identity: SymmetryElement, generators) -> tuple:
    """Breadth-first closure of the generators under left composition,
    one element per `_phase_key`, in discovery order.  Generators are
    invertible, so products alone also yield every inverse."""
    known = {_phase_key(identity): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                q = g.compose(e)
                k = _phase_key(q)
                if k not in known:
                    if len(known) >= DEFAULT_CLOSURE_CAP:
                        raise GroupClosureError(
                            f"raw-unitary group exceeded the cap of {DEFAULT_CLOSURE_CAP} elements")
                    known[k] = q
                    nxt.append(q)
        frontier = nxt
    return tuple(known.values())


def _close_images(n: int, generators: np.ndarray) -> np.ndarray:
    """Breadth-first closure of wire-image rows under composition, sorted.

    A row's key is its images read as base-n digits, first wire most
    significant (Python ints from n = 16 on, where int64 would overflow),
    so sorted keys are sorted rows; rows are decoded from keys.
    """
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
        if len(known) > _PERMUTATION_CAP:
            raise GroupClosureError(
                f"permutation group exceeded the cap of {_PERMUTATION_CAP} elements (the order of S_8)")
    return (known[:, None] // weights % n).astype(np.int64)


def generate_group(n: int, generators, name: str = "custom") -> SymmetryGroup:
    """The group of the generators, coerced to elements and checked to act
    on n qubits.  Nothing is closed here: `SymmetryGroup` closes on first
    read of its elements, as image rows (exact, sorted, at most 8! =
    40 320) when every generator is a permutation, else element by element
    up to a global phase (`_phase_key`), at most DEFAULT_CLOSURE_CAP.
    """
    gens = [_coerce_element(g) for g in generators]
    for g in gens:
        if g.n != n:
            raise DimensionError(f"generator acts on {g.n} qubits, group is on {n}")
    return SymmetryGroup(n, gens, name=name)


def conjugate_pauli(p: QubitPermutation, s: PauliString) -> PauliString:
    """Image of a Pauli string under wire relabeling: S s S+.

    Letters move with their wires; the phase is unchanged.
    """
    if p.n != s.n:
        raise DimensionError(f"qubit counts differ: {p.n} vs {s.n}")
    return PauliString(s.n, p.permute_mask(s.x_mask), p.permute_mask(s.z_mask), s.phase_exp)


def _square(u, n: int) -> np.ndarray:
    """u (a Unitary or an array) as a complex matrix on n qubits."""
    m = np.asarray(getattr(u, "matrix", u), dtype=complex)
    if m.shape != (1 << n, 1 << n):
        raise DimensionError(f"expected a {1 << n}x{1 << n} matrix for {n} qubits, got shape {m.shape}")
    return m


def _permutation_defects(m: np.ndarray, images: np.ndarray) -> np.ndarray:
    """||S U - U S|| for the wire permutation S of each image row.

    The entries of S U - U S are those of S U S+ - U in another order, and
    S U S+ is U seen as a (2,)*2n tensor (axis k of each half is qubit
    n-1-k) with the wire permutation applied to its row and column axes.
    """
    n = images.shape[1]
    t = m.reshape((2,) * 2 * n)
    axes = np.empty_like(images)
    np.put_along_axis(axes, n - 1 - images, np.arange(n - 1, -1, -1), axis=1)
    return np.array([np.linalg.norm(t.transpose(a) - t) for a in np.hstack((axes, axes + n)).tolist()])


def symmetry_defect(u, element) -> float:
    """Frobenius norm of S U - U S; zero iff U commutes with S."""
    perm = element.perm if isinstance(element, SymmetryElement) else element
    if isinstance(perm, QubitPermutation):
        return float(_permutation_defects(_square(u, perm.n), np.array([perm.image], dtype=np.int64))[0])
    sm = element.matrix if isinstance(element, SymmetryElement) else np.asarray(element, dtype=complex)
    m = _square(u, len(sm).bit_length() - 1)
    return float(np.linalg.norm(sm @ m - m @ sm))


def _defects(u, group: SymmetryGroup) -> np.ndarray:
    """symmetry_defect of each element of the group, in order; the elements
    of a permutation group are swept as image rows."""
    if group.images is not None:
        return _permutation_defects(_square(u, group.n), group.images)
    return np.array([symmetry_defect(u, e) for e in group.elements])


def is_invariant(u, group: SymmetryGroup, tol: float = 1e-10) -> tuple[bool, float]:
    """(flag, max residual) of the invariance condition over the generators.

    U commutes with every element iff it commutes with the generators; as
    d(gh) <= d(g) + d(h), an element that is a word of k generators has a
    defect of at most k times the residual.  Each defect is symmetry_defect
    of its generator, bit for bit (0.0 with none); a non-finite U gives NaN.
    """
    m = _square(u, group.n)
    if not np.isfinite(m).all():
        return False, float("nan")
    worst = max([0.0, *_permutation_defects(m, _image_rows(group.n, group.generators)).tolist(),
                 *(symmetry_defect(m, g) for g in group.generators if not g.is_permutation)])
    return worst < tol, worst


# ---------------------------------------------------------------------------
# Named presets and the JSON group specification


def full_swap_generators(n: int) -> list[SymmetryElement]:
    """Adjacent wire transpositions (the Coxeter generators of S_n);
    closure is the full symmetric group."""
    return [SymmetryElement.from_permutation(QubitPermutation.transposition(n, i, i + 1))
            for i in range(n - 1)]


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


def preset_group(name: str, n: int) -> SymmetryGroup:
    if name not in PRESETS:
        raise ValueError(f"unknown symmetry preset {name!r}; known: {sorted(PRESETS)}")
    return generate_group(n, PRESETS[name](n), name=name)


def group_from_spec(spec: dict) -> SymmetryGroup:
    """Build a group from the JSON specification.

    Shape: {"n": 3, "generators": [{"perm": [1, 0, 2]},
    {"unitary": [[[re, im], ...], ...]}]}.  A preset name may stand in
    for the generator list; presets resolve to plain generators before
    closure, so files and presets share one code path.  Any other shape
    raises ValueError.
    """
    n = spec.get("n") if isinstance(spec, dict) else None
    if type(n) is not int:
        raise ValueError(f"symmetry spec needs an integer 'n', got {n!r}")
    if n < 1:
        raise ValueError(f"symmetry spec 'n' must be at least 1, got {n}")
    raw = spec.get("generators", [])
    if isinstance(raw, str):
        return preset_group(raw, n)
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"symmetry spec 'generators' must be a preset name or a list, got {raw!r}")
    gens = []
    for entry in raw:
        perm = entry.get("perm") if isinstance(entry, dict) else None
        if isinstance(perm, (list, tuple)) and all(type(i) is int for i in perm):
            gens.append(SymmetryElement.from_permutation(QubitPermutation(n, tuple(perm))))
        elif isinstance(entry, dict) and "unitary" in entry:
            gens.append(SymmetryElement.from_unitary(matrix_from_pairs(entry["unitary"])))
        else:
            raise ValueError(f"generator entry needs 'perm' (a list of wires) or 'unitary': {entry!r}")
    return generate_group(n, gens)


def load_group(path) -> SymmetryGroup:
    with open(path, encoding="utf-8") as fh:
        return group_from_spec(json.load(fh))
