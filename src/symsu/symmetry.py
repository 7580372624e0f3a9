"""Finite symmetry groups on qubits and the invariance condition S U S+ = U.

A symmetry element is a `QubitPermutation` (realized as a basis-permutation
matrix) or a read-only complex array, a raw unitary such as CNOT, checked
once when it enters a group.  A group is held as its generator list and
closed under composition only when its elements are first read; a closed
group of wire permutations is one array of wire images, a row per element.
The invariance of a matrix U under a group is measured by the worst
Frobenius defect ||S U - U S|| over the generators: U commutes with
every element iff it commutes with them, so invariance never closes a group.

Qubit index 0 is the least significant bit of a basis-state index, which
fixes the bit-permutation formula for permutation matrices.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, DimensionError, GroupClosureError, NotUnitaryError
from .serialize import matrix_from_pairs

RAW_UNITARITY_TOL = 1e-10

# Closure caps: raw-unitary groups by default; permutation groups at 8!, the order of S_8; orbit
# enumeration, invariance checks and the cycle-index count of a preset read only the generators.
DEFAULT_CLOSURE_CAP = 10_000
_PERMUTATION_CAP = 40_320
# Presets and spec files up to 2^10 wires: full_swap's rows are 8 MB, orbit counts below int-to-str's limit.
_PRESET_QUBIT_CAP = 1 << 10


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only."""
    a.setflags(write=False)
    return a


def _move_masks(masks: np.ndarray, image) -> np.ndarray:
    """Masks with bit i moved to bit image[i], by one shift per distinct
    distance image[i] - i: at most n steps over the whole array."""
    selected = {}
    for i, dest in enumerate(image):
        selected[dest - i] = selected.get(dest - i, 0) | 1 << i
    out = np.zeros_like(masks)
    for shift, sel in selected.items():
        out |= (masks & sel) << shift if shift >= 0 else (masks & sel) >> -shift
    return out


def _moved_keys(width: int, image) -> np.ndarray:
    """_move_masks(np.arange(1 << width), image): bits move alone, so OR the high and low halves' moves."""
    hi, lo = np.arange(1 << width - width // 2) << width // 2, np.arange(1 << width // 2)
    return (_move_masks(hi, image)[:, None] | _move_masks(lo, image)).ravel()


@dataclass(frozen=True, order=True)
class QubitPermutation:
    """A relabeling of wires; image[i] is the destination wire of qubit i."""

    n: int
    image: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be >= 1, got {self.n}")
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

    def to_matrix(self) -> np.ndarray:
        dim = 1 << self.n
        m = np.zeros((dim, dim), dtype=complex)
        m[_moved_keys(self.n, self.image), np.arange(dim)] = 1.0
        return m


def _coerce_element(obj):
    """obj as a group element: a `QubitPermutation` as is, anything else as a
    read-only C-ordered complex copy, refused unless square (ValueError), of
    power-of-two dimension (DimensionError), finite and within
    RAW_UNITARITY_TOL of unitary (NotUnitaryError).  A unitary equal up to
    phase (`_phase_key`) to the wire permutation read off where each
    |1 << i> goes becomes that permutation."""
    if isinstance(obj, QubitPermutation):
        return obj
    m = _frozen(np.array(obj, dtype=complex, order="C"))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"raw symmetry must be square, got shape {m.shape}")
    dim = m.shape[0]
    n = dim.bit_length() - 1
    if dim < 1 or 1 << n != dim:
        raise DimensionError(f"matrix dimension {dim} is not a power of two")
    if not np.isfinite(m).all():
        raise NotUnitaryError("raw symmetry has a non-finite entry")
    residual = np.linalg.norm(m @ m.conj().T - np.eye(dim))
    if not residual < RAW_UNITARITY_TOL:
        raise NotUnitaryError(f"raw symmetry is not unitary: ||SS+ - 1|| = {residual:.3e}")
    rows = abs(m[:, 1 << np.arange(n)]).argmax(axis=0).tolist()
    try:
        perm = QubitPermutation(n, [r.bit_length() - 1 for r in rows])
    except ValueError:  # the columns do not land on single wires
        return m
    return perm if _phase_key(perm) == _phase_key(m) else m


def _compose(a, b):
    """a after b: a permutation while both are, else the matrix product."""
    if isinstance(a, QubitPermutation) and isinstance(b, QubitPermutation):
        return a.compose(b)
    return _frozen(_matrix(a) @ _matrix(b))


def _matrix(element) -> np.ndarray:
    return element.to_matrix() if isinstance(element, QubitPermutation) else element


class SymmetryGroup:
    """A finite symmetry group, held as its generators.

    Each generator (a `QubitPermutation` or a unitary matrix) is coerced by
    `_coerce_element` to an element, a `QubitPermutation` or a validated
    read-only complex array, and must act on n qubits, else DimensionError.
    They are split once: ``_perm_images``, the read-only (k, n) wire images
    of the permutation generators, and ``_raw``, the arrays.  ``_perm_maps``
    (their `_state_maps`), ``images`` and ``elements`` are read-only cached
    properties; the group is closed on the first read of ``images``,
    ``elements`` or ``len``, and a closure past its cap raises on every read.
    A group with no raw generator has ``images``, an (|G|, n) array of wire
    images listed coset by coset, built into ``elements``; else ``images`` is None.
    """

    def __init__(self, n: int, generators, name: str = "custom"):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        gens = tuple(_coerce_element(g) for g in generators)
        for g in gens:
            k = g.n if isinstance(g, QubitPermutation) else len(g).bit_length() - 1
            if k != n:
                raise DimensionError(f"generator acts on {k} qubits, group is on {n}")
        perms = [g.image for g in gens if isinstance(g, QubitPermutation)]
        self.n, self.generators, self.name = n, gens, name
        self._perm_images = _frozen(np.array(perms, dtype=np.int64).reshape(len(perms), n))
        self._raw = tuple(g for g in gens if not isinstance(g, QubitPermutation))

    def __reduce__(self):
        return SymmetryGroup, (self.n, self.generators, self.name)

    @cached_property
    def _perm_maps(self) -> np.ndarray:
        return _frozen(_state_maps(self._perm_images))

    @cached_property
    def images(self) -> np.ndarray | None:
        return None if self._raw else _frozen(_close_images(self.n, self._perm_images))

    @cached_property
    def elements(self) -> tuple:
        if self.images is None:
            return _close(QubitPermutation.identity(self.n), self.generators)
        return tuple(QubitPermutation(self.n, row) for row in self.images.tolist())

    def __len__(self) -> int:
        return len(self.elements if self.images is None else self.images)

    def __repr__(self) -> str:
        return f"SymmetryGroup(n={self.n}, name={self.name!r}, generators={len(self.generators)})"


def _phase_key(element) -> bytes:
    """Hashable identity of an element up to global phase.

    S and exp(i phi) S induce the same conjugation, so the matrix is
    rescaled to make its first sizeable entry positive real (every unitary
    row has an entry of magnitude >= 1/sqrt(dim)); the key is the bytes of
    that matrix rounded to 9 decimals, with -0.0 folded to 0.0.
    """
    m = _matrix(element)
    flat = m.ravel()
    pivot = flat[(abs(flat) > 1e-6).argmax()]
    return ((m * (abs(pivot) / pivot)).view(np.float64).round(9) + 0.0).tobytes()


def _close(identity: QubitPermutation, generators) -> tuple:
    """Breadth-first closure of the generators under left composition,
    one element per `_phase_key`, in discovery order.  Generators are
    invertible, so products alone also yield every inverse."""
    known = {_phase_key(identity): identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                q = _compose(g, e)
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
    """Closure of wire-image rows under composition, sorted, listed coset by
    coset (Dimino's algorithm).  Level i adds generator g_i to H, the group
    of the earlier ones: the cosets H r of <H, g_i> are found from their
    representatives alone, g_i and then each representative after each
    generator so far, and then gathered as the blocks H[:, r] of one array,
    sorted once.  A row's key is its images read as base-n digits, first
    wire most significant (Python ints from n = 16 on, where int64 would
    overflow), so sorted keys are sorted rows.
    """
    weights = np.array([n ** k for k in range(n - 1, -1, -1)], dtype=np.int64 if n < 16 else object)
    group = np.arange(n, dtype=np.int64)[None]
    keys = group @ weights
    for i, g in enumerate(generators):
        reps, pending = group[:1], [g]
        while pending:
            e = pending.pop()
            probe = reps[:, e.argsort()] @ weights  # r_j e^-1 is in H iff e is in H r_j
            if (keys.take(keys.searchsorted(probe), mode="clip") == probe).any():
                continue
            if (len(reps) + 1) * len(group) > _PERMUTATION_CAP:
                raise GroupClosureError(
                    f"permutation group exceeded the cap of {_PERMUTATION_CAP} elements (the order of S_8)")
            reps = np.vstack((reps, e))
            pending += list(e[generators[:i + 1]])
        # group[:, reps][h, j] is element h of H after representative j.
        level = group[:, reps].reshape(-1, n)
        level_keys = level @ weights
        order = level_keys.argsort()
        group, keys = level[order], level_keys[order]
    return group


def generate_group(n: int, generators, name: str = "custom") -> SymmetryGroup:
    """The group of the generators on n qubits: `SymmetryGroup(n, generators,
    name)`, which coerces each to a `QubitPermutation` or a validated unitary
    array, size-checks them and closes nothing.  On first read of its
    elements it lists image rows coset by coset (exact, sorted, at most
    8! = 40 320) when every generator is a permutation, else closes element
    by element up to a global phase (`_phase_key`), at most DEFAULT_CLOSURE_CAP.
    """
    return SymmetryGroup(n, generators, name)


def _square(u, n: int) -> np.ndarray:
    """u (a Unitary or an array) as a complex matrix on n qubits."""
    m = np.asarray(getattr(u, "matrix", u), dtype=complex)
    if m.shape != (1 << n, 1 << n):
        raise DimensionError(f"expected a {1 << n}x{1 << n} matrix for {n} qubits, got shape {m.shape}")
    return m


def _state_maps(images: np.ndarray) -> np.ndarray:
    """Row k: q(b) for every basis state b, the state S+|b> of the wire permutation S
    of image row k, which has bit w of b at bit image^-1[w]: the product of
    2^image^-1 and the states' bits."""
    bits = np.arange(1 << images.shape[1]) >> np.arange(images.shape[1])[:, None] & 1  # bits[w, b]
    return (1 << images.argsort(axis=1)) @ bits


def _map_defects(m: np.ndarray, tables) -> np.ndarray:
    """||S U - U S|| for the wire permutation S of each row q of each table of
    basis-state maps (`_state_maps`), in order.

    The entries of S U - U S are those of S U S+ - U in another order, and
    (S U S+)[i, j] = U[q(i), q(j)].  Per row, a row and a column gather of U
    fill one C-ordered buffer, U is subtracted in place, and np.linalg.norm's
    two dots sum it in row order, so a defect does not depend on U's memory
    layout.
    """
    m = np.ascontiguousarray(m)
    rows, diff = np.empty(m.shape, m.dtype), np.empty(m.shape, m.dtype)
    re, im = diff.reshape(-1).real, diff.reshape(-1).imag
    defects = [np.empty(0)]
    for table in tables:
        sq = np.empty(len(table))
        for k, q in enumerate(table):
            m.take(q, axis=0, out=rows, mode="clip")
            rows.take(q, axis=1, out=diff, mode="clip")
            np.subtract(diff, m, out=diff)
            sq[k] = re.dot(re) + im.dot(im)
        defects.append(np.sqrt(sq, out=sq))
    return np.concatenate(defects)


def symmetry_defect(u, element) -> float:
    """Frobenius norm of S U - U S, S a `QubitPermutation` or a square
    matrix; zero iff U commutes with S."""
    if isinstance(element, QubitPermutation):
        return float(_map_defects(_square(u, element.n), [_state_maps(np.array([element.image]))])[0])
    sm = np.asarray(element, dtype=complex)
    m = _square(u, len(sm).bit_length() - 1)
    return float(np.linalg.norm(sm @ m - m @ sm))


def _defects(u, group: SymmetryGroup) -> np.ndarray:
    """symmetry_defect of each element of the group, in order; the elements
    of a permutation group are swept as image rows, their maps built 512 rows at a time."""
    if group.images is not None:
        tables = (_state_maps(group.images[i:i + 512]) for i in range(0, len(group.images), 512))
        return _map_defects(_square(u, group.n), tables)
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
    worst = max([0.0, *_map_defects(m, [group._perm_maps]).tolist(),
                 *(symmetry_defect(m, g) for g in group._raw)])
    return worst < tol, worst


# ---------------------------------------------------------------------------
# Named presets and the JSON group specification


def full_swap_generators(n: int) -> list[QubitPermutation]:
    """Adjacent wire transpositions (the Coxeter generators of S_n);
    closure is the full symmetric group."""
    return [QubitPermutation.transposition(n, i, i + 1) for i in range(n - 1)]


def cyclic_generators(n: int) -> list[QubitPermutation]:
    """Rotation by one wire."""
    if n == 1:
        return []
    return [QubitPermutation(n, tuple((i + 1) % n for i in range(n)))]


def dihedral_generators(n: int) -> list[QubitPermutation]:
    """Rotation plus reflection (symmetries of the n-gon of wires)."""
    if n == 1:
        return []
    return cyclic_generators(n) + [QubitPermutation(n, tuple((n - i) % n for i in range(n)))]


def trivial_generators(n: int) -> list[QubitPermutation]:
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
    if n > _PRESET_QUBIT_CAP:
        raise CapacityError(f"preset {name!r} on {n} qubits exceeds the cap of {_PRESET_QUBIT_CAP} qubits")
    return generate_group(n, PRESETS[name](n), name=name)


def group_from_spec(spec: dict) -> SymmetryGroup:
    """Build a group from the JSON specification.

    Shape: {"n": 3, "generators": [{"perm": [1, 0, 2]},
    {"unitary": [[[re, im], ...], ...]}]}.  A preset name may stand in
    for the generator list; presets resolve to plain generators before
    closure, so files and presets share one code path and one qubit cap
    (CapacityError above it).  Any other shape raises ValueError.
    """
    n = spec.get("n") if isinstance(spec, dict) else None
    if type(n) is not int:
        raise ValueError(f"symmetry spec needs an integer 'n', got {n!r}")
    if n < 1:
        raise ValueError(f"symmetry spec 'n' must be at least 1, got {n}")
    if n > _PRESET_QUBIT_CAP:
        raise CapacityError(f"symmetry spec on {n} qubits exceeds the cap of {_PRESET_QUBIT_CAP} qubits")
    raw = spec.get("generators", [])
    if isinstance(raw, str):
        return preset_group(raw, n)
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"symmetry spec 'generators' must be a preset name or a list, got {raw!r}")
    gens = []
    for entry in raw:
        perm = entry.get("perm") if isinstance(entry, dict) else None
        if isinstance(perm, (list, tuple)) and all(type(i) is int for i in perm):
            gens.append(QubitPermutation(n, tuple(perm)))
        elif isinstance(entry, dict) and "unitary" in entry:
            gens.append(matrix_from_pairs(entry["unitary"]))
        else:
            raise ValueError(f"generator entry needs 'perm' (a list of wires) or 'unitary': {entry!r}")
    return generate_group(n, gens)


def load_group(path) -> SymmetryGroup:
    with open(path, encoding="utf-8") as fh:
        return group_from_spec(json.load(fh))
