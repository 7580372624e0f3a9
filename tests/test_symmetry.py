"""Group construction, matrix realization, and the invariance condition."""

import json
import math
import pickle
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsu import (
    CapacityError,
    DimensionError,
    GroupClosureError,
    NotUnitaryError,
    PauliString,
    PauliSum,
    QubitPermutation,
    SymmetryGroup,
    build_basis,
    connectedness_path,
    exp_generator,
    generate_group,
    group_from_spec,
    is_invariant,
    load_group,
    matrix_to_pairs,
    pauli_orbit,
    preset_group,
    random_invariant,
    symmetrize,
    symmetry_defect,
)
from symsu.basis import _cycle_counts
from symsu.symmetry import (
    DEFAULT_CLOSURE_CAP,
    PRESETS,
    _PRESET_QUBIT_CAP,
    _close_images,
    _compose,
    _defects,
    _move_masks,
    _moved_keys,
    _permutation_defects,
    _phase_key,
    _state_maps,
    full_swap_generators,
)

from conftest import (
    breadth_first_closure,
    conjugate_pauli,
    dense_label,
    fro,
    generator_sets,
    inverse,
    permute_mask,
    transposition_defects,
)

SWAP = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)

GL32_CNOTS = ((0, 1), (1, 2), (2, 0))


def cnot_map(control: int, target: int, n: int) -> tuple:
    """Basis-index map of CNOT: flip the target bit where the control bit is set."""
    return tuple(b ^ (((b >> control) & 1) << target) for b in range(1 << n))


def index_map_matrix(image: tuple) -> np.ndarray:
    m = np.zeros((len(image), len(image)))
    m[list(image), range(len(image))] = 1.0
    return m


def index_map_closure(maps, size: int) -> set:
    """The group the index maps on range(size) generate, by exact tuple
    closure; g after f is tuple(g[b] for b in f)."""
    seen = {tuple(range(size))}
    frontier = list(seen)
    while frontier:
        products = {tuple(g[b] for b in f) for f in frontier for g in maps}
        frontier = list(products - seen)
        seen |= products
    return seen


def gl32_group():
    return generate_group(3, [index_map_matrix(cnot_map(c, t, 3)) for c, t in GL32_CNOTS])


def validate(n: int, elements):
    """Oracle of a group's element list: the identity, every inverse and
    every product are in it, equal up to a global phase (`_phase_key`);
    raises GroupClosureError naming what is missing.  Quadratic in the
    group order."""
    keys = {_phase_key(e) for e in elements}
    if _phase_key(QubitPermutation.identity(n)) not in keys:
        raise GroupClosureError("identity element missing")
    for a in elements:
        if _phase_key(inverse(a) if isinstance(a, QubitPermutation) else a.conj().T.copy()) not in keys:
            raise GroupClosureError(f"inverse of {a!r} missing")
        for b in elements:
            if _phase_key(_compose(a, b)) not in keys:
                raise GroupClosureError(f"product {a!r} * {b!r} missing")


class TestQubitPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            QubitPermutation(3, (0, 0, 2))

    @pytest.mark.parametrize("n", [0, -1])
    def test_qubit_count_below_one_refused(self, n):
        with pytest.raises(ValueError, match=f"qubit count must be >= 1, got {n}"):
            QubitPermutation(n, ())
        with pytest.raises(ValueError, match=f"qubit count must be >= 1, got {n}"):
            SymmetryGroup(n, [])

    def test_compose_applies_right_operand_first(self):
        rot = QubitPermutation(3, (1, 2, 0))
        swap01 = QubitPermutation.transposition(3, 0, 1)
        # qubit 0: swap01 sends it to 1, then rot sends 1 to 2
        assert rot.compose(swap01).image == (2, 1, 0)
        with pytest.raises(DimensionError, match="qubit counts differ: 3 vs 2"):
            rot.compose(QubitPermutation.identity(2))

    def test_inverse(self):
        rot = QubitPermutation(4, (1, 2, 3, 0))
        assert rot.compose(inverse(rot)) == QubitPermutation.identity(4)

    def test_cycle_count(self):
        rows = np.array([QubitPermutation.identity(4).image, (1, 2, 3, 0), (0, 3, 2, 1)])
        assert _cycle_counts(rows).tolist() == [4, 1, 3]


class TestPermutationMatrix:
    def test_swap_matrix(self):
        m = QubitPermutation.transposition(2, 0, 1).to_matrix()
        assert np.array_equal(m, SWAP)

    def test_identity(self):
        m = QubitPermutation.identity(3).to_matrix()
        assert np.array_equal(m, np.eye(8))

    def test_transposition_involution(self):
        m = QubitPermutation.transposition(3, 0, 2).to_matrix()
        assert np.array_equal(m @ m, np.eye(8))

    def test_bit_reversal_on_three_qubits(self):
        # (02) maps basis index b2 b1 b0 to b0 b1 b2
        m = QubitPermutation.transposition(3, 0, 2).to_matrix()
        for idx in range(8):
            b0, b1, b2 = idx & 1, (idx >> 1) & 1, (idx >> 2) & 1
            out = (b0 << 2) | (b1 << 1) | b2
            assert m[out, idx] == 1

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.permutations(range(n))))
    def test_matches_scalar_mask_moves(self, image):
        p = QubitPermutation(len(image), image)
        expected = np.zeros((1 << p.n, 1 << p.n), dtype=complex)
        for b in range(1 << p.n):
            expected[permute_mask(p, b), b] = 1.0
        assert np.array_equal(p.to_matrix(), expected)

    # Odd widths included: there the high half is the wider one, and to_matrix moves n-bit keys.
    @pytest.mark.parametrize("width", range(1, 21))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_moved_keys_are_every_key_moved(self, width, data):
        row = data.draw(st.permutations(range(width)))
        assert np.array_equal(_moved_keys(width, row), _move_masks(np.arange(1 << width), row))


class TestGroupGeneration:
    def test_adjacent_transpositions_generate_s3(self):
        g = generate_group(3, [QubitPermutation.transposition(3, 0, 1),
                               QubitPermutation.transposition(3, 1, 2)])
        assert len(g) == 6

    def test_square_symmetries(self):
        g = generate_group(4, [QubitPermutation(4, (1, 2, 3, 0)),
                               QubitPermutation(4, (0, 3, 2, 1))])
        assert len(g) == 8

    def test_identity_only(self):
        g = generate_group(3, [QubitPermutation.identity(3)])
        assert len(g) == 1

    def test_contains_identity_and_inverses(self):
        rows = [tuple(r) for r in preset_group("cyclic", 4).images.tolist()]
        assert rows[0] == (0, 1, 2, 3)
        for r in rows:
            assert inverse(QubitPermutation(4, r)).image in rows

    def test_closure_exhaustive_small(self):
        rows = [QubitPermutation(4, r) for r in preset_group("dihedral", 4).images.tolist()]
        images = {p.image for p in rows}
        for a in rows:
            for b in rows:
                assert a.compose(b).image in images

    @settings(max_examples=40, deadline=None)
    @given(generator_sets(6))
    def test_rows_match_tuple_closure(self, case):
        n, images = case
        group = generate_group(n, [QubitPermutation(n, tuple(im)) for im in images])
        rows = [tuple(r) for r in group.images.tolist()]
        assert rows == sorted(index_map_closure([tuple(im) for im in images], n))
        assert tuple(range(n)) in rows
        for r in rows:
            assert tuple(sorted(range(n), key=r.__getitem__)) in rows  # the inverse of r
        assert len(group) == len(rows)
        assert [e.image for e in group.elements] == rows

    @pytest.mark.parametrize("n", range(1, 9))
    def test_preset_orders(self, n):
        assert len(preset_group("full_swap", n)) == math.factorial(n)
        assert len(preset_group("cyclic", n)) == n
        assert len(preset_group("dihedral", n)) == (2 * n if n > 2 else n)

    def test_validate_accepts_generated_groups(self):
        validate(3, preset_group("full_swap", 3).elements)
        cz = np.diag([1.0, 1.0, 1.0, -1.0])
        validate(2, generate_group(2, [QubitPermutation.transposition(2, 0, 1), cz]).elements)

    def test_validate_rejects_non_closed_set(self):
        swap = QubitPermutation.transposition(3, 0, 1)
        rot = QubitPermutation(3, (1, 2, 0))
        with pytest.raises(GroupClosureError):
            validate(3, (QubitPermutation.identity(3), swap, rot))

    def test_generator_order_irrelevant(self):
        gens = [QubitPermutation.transposition(4, 0, 1),
                QubitPermutation(4, (1, 2, 3, 0))]
        g1 = generate_group(4, gens)
        g2 = generate_group(4, gens[::-1])
        assert np.array_equal(g1.images, g2.images)

    def test_cap_exceeded(self):
        # an irrational rotation never closes
        theta = 1.0
        rz = np.diag([1.0, np.exp(1j * theta)])
        group = generate_group(1, [rz])  # built, not closed
        with pytest.raises(GroupClosureError,
                           match=f"raw-unitary group exceeded the cap of {DEFAULT_CLOSURE_CAP} elements"):
            len(group)

    def test_raw_unitary_phase_dedup(self):
        phased_swap = np.exp(0.7j) * SWAP
        g = generate_group(2, [phased_swap])
        assert len(g) == 2  # identity and the swap itself

    def test_cnot_generates_order_two_group(self):
        cnot = np.zeros((4, 4))
        for idx in range(4):
            cnot[idx ^ ((idx & 1) << 1), idx] = 1
        g = generate_group(2, [cnot])
        assert len(g) == 2

    def test_cnots_generate_gl32(self):
        maps = [cnot_map(c, t, 3) for c, t in GL32_CNOTS]
        assert len(index_map_closure(maps, 8)) == 168
        group = gl32_group()
        # a CNOT moves a wire's basis state onto two wires: it stays a raw generator
        assert not any(isinstance(g, QubitPermutation) for g in group.generators)
        assert group.images is None and len(group) == 168

    def test_phased_hadamard_and_s_generate_clifford_group(self):
        # The single-qubit Clifford group modulo phase has order 24.
        h = np.exp(0.37j) * np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        s = np.diag([1, 1j])
        assert len(generate_group(1, [h, s])) == 24

    def test_off_grid_phase_rotation_has_order_seven(self):
        # Entries of diag(1, e^{2 pi i/7}) are not multiples of 1e-9.
        rot = np.kron(np.eye(2), np.diag([1, np.exp(2j * np.pi / 7)]))
        assert len(generate_group(2, [rot])) == 7

    def test_validate_accepts_gl32_quickly(self):
        elements = gl32_group().elements
        start = time.perf_counter()
        validate(3, elements)
        assert time.perf_counter() - start < 1.0

    def test_validate_rejects_raw_set_missing_a_product(self):
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        # swap * cz is missing; every element here is its own inverse.
        with pytest.raises(GroupClosureError, match="product"):
            validate(2, (QubitPermutation.identity(2), SWAP, cz))

    @staticmethod
    def raw_builds(n, m):
        """The group of the one raw generator m on n qubits, built by
        SymmetryGroup, generate_group and group_from_spec."""
        spec = {"n": n, "generators": [{"unitary": matrix_to_pairs(m)}]}
        return (lambda: SymmetryGroup(n, [m]), lambda: generate_group(n, [m]), lambda: group_from_spec(spec))

    def test_non_unitary_raw_element_rejected(self):
        # [[1, 1], [0, 1]] is invertible but not unitary: it is refused on
        # entry, not reported later as a group past the closure cap.
        for m in (np.array([[1, 1], [0, 1]]), 2 * SWAP, SWAP + 1e-9):
            for build in self.raw_builds(m.shape[0].bit_length() - 1, m):
                with pytest.raises(NotUnitaryError, match="not unitary"):
                    build()

    def test_non_finite_raw_element_rejected(self):
        for m in (np.full((2, 2), np.nan), np.diag([1.0, np.inf])):
            build_direct, build_generated, build_spec = self.raw_builds(1, m)
            for build in (build_direct, build_generated):
                with pytest.raises(NotUnitaryError, match="non-finite"):
                    build()
            with pytest.raises(ValueError, match="must be finite"):  # JSON data is refused on load
                build_spec()

    def test_transposed_view_closes_like_its_copy(self):
        # Neither matrix is symmetric: CNOT(0, 1) CNOT(1, 2), of order 4 in
        # GL(3, 2), and SWAP after a phase on qubit 0, whose columns land on
        # single wires, so the validator also compares its phase key with the swap's.
        cnots = index_map_matrix(cnot_map(0, 1, 3)) @ index_map_matrix(cnot_map(1, 2, 3))
        phased_swap = SWAP @ np.diag([1, 1j, 1, 1j])
        for a, order in ((cnots, 4), (phased_swap, 8)):
            view, copy = a.T, a.T.copy()
            assert not view.flags.c_contiguous and copy.flags.c_contiguous and not np.array_equal(a, view)
            n = len(a).bit_length() - 1
            for build in (SymmetryGroup, generate_group):
                from_view, from_copy = build(n, [view]), build(n, [copy])
                assert len(from_view) == len(from_copy) == order
                assert [_phase_key(e) for e in from_view.elements] == [_phase_key(e) for e in from_copy.elements]
                assert from_view.generators[0].flags.c_contiguous and not from_view.generators[0].flags.writeable

    def test_mismatched_generator_dimension(self):
        for build in (generate_group, SymmetryGroup):
            with pytest.raises(DimensionError, match="generator acts on 2 qubits, group is on 3"):
                build(3, [QubitPermutation.transposition(2, 0, 1)])
        # A raw generator's qubit count is read off its shape.
        for m, message in ((np.eye(3), "matrix dimension 3 is not a power of two"),
                           (np.eye(6), "matrix dimension 6 is not a power of two"),
                           (np.eye(8)[::-1].copy(), "generator acts on 3 qubits, group is on 2")):
            for build in self.raw_builds(2, m):
                with pytest.raises(DimensionError, match=message):
                    build()
        with pytest.raises(ValueError, match="must be square"):
            SymmetryGroup(1, [np.eye(2)[:1]])

    def test_empty_generator_matrix_rejected(self):
        with pytest.raises(DimensionError, match="matrix dimension 0 is not a power of two"):
            SymmetryGroup(1, [np.zeros((0, 0))])

    def test_constructor_coerces_every_generator_form(self):
        # SWAP as a permutation, a complex or real array or a transposed view;
        # e^{0.7i} SWAP as an array or a view.  Every list, in either order or
        # with the phased swap alone, is the swap group.
        perm = QubitPermutation.transposition(2, 0, 1)
        swaps = (perm, SWAP, SWAP.real, SWAP.T)
        phased = (np.exp(0.7j) * SWAP, (np.exp(0.7j) * SWAP).T)
        lists = [[a, b] for a in swaps for b in phased] + [[b, a] for a in swaps for b in phased]
        for gens in lists + [[b] for b in phased]:
            direct, generated = SymmetryGroup(2, gens), generate_group(2, gens)
            assert ([isinstance(g, QubitPermutation) for g in direct.generators]
                    == [isinstance(g, QubitPermutation) for g in generated.generators] == [True] * len(gens))
            assert direct.images.tolist() == generated.images.tolist() == [[0, 1], [1, 0]]
            assert direct._perm_images.tolist() == [[1, 0]] * len(gens) and not direct._raw
            assert not direct._perm_images.flags.writeable


class TestCosetClosure:
    """_close_images (coset enumeration) against the breadth-first oracle,
    array for array: the same sorted int64 rows."""

    @staticmethod
    def assert_matches_oracle(n, rows):
        generators = np.array(rows, dtype=np.int64).reshape(len(rows), n)
        closed = _close_images(n, generators)
        expected = breadth_first_closure(n, generators)
        assert closed.dtype == expected.dtype == np.int64
        assert closed.shape == expected.shape and np.array_equal(closed, expected)
        return closed

    @settings(max_examples=60, deadline=None)
    @given(generator_sets(6))
    def test_drawn_generator_sets(self, case):
        n, images = case
        self.assert_matches_oracle(n, images)

    def test_no_generators(self):
        for n in (1, 3, 16):
            assert self.assert_matches_oracle(n, []).tolist() == [list(range(n))]

    def test_identity_and_repeated_generators(self):
        rot, swap = [1, 2, 3, 0], [1, 0, 2, 3]
        assert len(self.assert_matches_oracle(4, [[0, 1, 2, 3]])) == 1
        assert len(self.assert_matches_oracle(4, [rot, rot, rot])) == 4
        assert len(self.assert_matches_oracle(4, [[0, 1, 2, 3], swap, rot, swap])) == 24

    def test_one_qubit(self):
        for count in range(3):
            assert self.assert_matches_oracle(1, [[0]] * count).tolist() == [[0]]

    @pytest.mark.parametrize("blocks", [(2, 2, 2, 2), (3, 2, 3), (1, 4, 1), (5, 3)])
    def test_young_subgroups(self, blocks):
        # Adjacent transpositions inside each block of wires generate S_b1 x S_b2 x ...
        n, rows, start = sum(blocks), [], 0
        for b in blocks:
            for i in range(start, start + b - 1):
                rows.append(QubitPermutation.transposition(n, i, i + 1).image)
            start += b
        closed = self.assert_matches_oracle(n, rows)
        assert len(closed) == math.prod(math.factorial(b) for b in blocks)

    @pytest.mark.parametrize("preset", ["cyclic", "dihedral"])
    @pytest.mark.parametrize("n", [16, 20])
    def test_python_int_keys(self, preset, n):
        closed = self.assert_matches_oracle(n, [g.image for g in PRESETS[preset](n)])
        assert len(closed) == (n if preset == "cyclic" else 2 * n)

    def test_groups_past_the_cap_name_it(self):
        # S_9, and S_8 x S_2 on 10 wires, whose last level is two cosets of S_8
        s8 = [QubitPermutation(10, (*g.image, 8, 9)) for g in full_swap_generators(8)]
        s8_s2 = generate_group(10, s8 + [QubitPermutation.transposition(10, 8, 9)])
        message = "permutation group exceeded the cap of 40320 elements (the order of S_8)"
        for group in (preset_group("full_swap", 9), s8_s2):
            with pytest.raises(GroupClosureError, match=f"^{re.escape(message)}$"):
                len(group)


class TestLazyClosure:
    def test_generator_readers_do_not_close(self):
        group = preset_group("full_swap", 4)
        is_invariant(np.eye(16), group)
        pauli_orbit(PauliString.from_label("XZII"), group)
        symmetrize(PauliString.from_label("XYII"), group)
        build_basis(4, group)
        assert "images" not in vars(group) and "elements" not in vars(group)
        assert len(group) == 24

    @pytest.mark.parametrize("n", [9, 10])
    def test_groups_past_the_cap_build_and_refuse_when_listed(self, n):
        group = preset_group("full_swap", n)
        assert repr(group) == f"SymmetryGroup(n={n}, name='full_swap', generators={n - 1})"
        for _ in range(2):  # a failed closure is not cached: every read raises again
            with pytest.raises(GroupClosureError, match="exceeded the cap of 40320 elements"):
                len(group)
        assert "images" not in vars(group) and "elements" not in vars(group)

    @pytest.mark.parametrize("make", [lambda: preset_group("dihedral", 5), gl32_group], ids=["dihedral", "gl32"])
    def test_cached_forms_are_read_once_and_frozen(self, make):
        group = make()
        for name in ("_perm_maps", "images", "elements"):
            first = getattr(group, name)
            assert getattr(group, name) is first and vars(group)[name] is first
        arrays = [group._perm_images, group._perm_maps, *group._raw]
        arrays += [e for e in group.elements if isinstance(e, np.ndarray)]
        if group._raw:  # a raw-unitary group has no image rows, and keeps that too
            assert group.images is None and "images" in vars(group)
        else:
            arrays.append(group.images)
        assert not any(a.flags.writeable for a in arrays)

    def test_ten_qubit_invariance_and_path(self):
        group = preset_group("full_swap", 10)
        h = (0.7 * symmetrize(PauliString.from_label("XZ" + "I" * 8), group)
             + 0.3 * symmetrize(PauliString.from_label("YY" + "I" * 8), group))
        u = exp_generator(h, 1.1)
        flag, defect = is_invariant(u, group)
        assert flag and defect < 1e-10
        assert is_invariant(connectedness_path(u, 0.5).matrix, group, 1e-8)[0]
        assert "images" not in vars(group) and "elements" not in vars(group)


class TestPickle:
    @pytest.mark.parametrize("make", [lambda: preset_group("full_swap", 4), gl32_group,
                                      lambda: generate_group(2, [SWAP, np.diag([1, 1, 1, -1])], "mixed")],
                             ids=["full_swap", "gl32", "mixed"])
    def test_round_trip_rebuilds_a_read_only_group(self, make):
        group = make()
        size, maps = len(group), group._perm_maps
        twin = pickle.loads(pickle.dumps(group))
        assert set(vars(twin)) == {"n", "generators", "name", "_perm_images", "_raw"}  # no cached form
        assert (twin.n, twin.name, len(twin)) == (group.n, group.name, size)
        assert np.array_equal(twin._perm_images, group._perm_images) and np.array_equal(twin._raw, group._raw)
        assert np.array_equal(twin._perm_maps, maps)
        if group.images is None:
            assert twin.images is None
        else:
            assert np.array_equal(twin.images, group.images) and not twin.images.flags.writeable
        assert not any(a.flags.writeable for a in (twin._perm_images, twin._perm_maps, *twin._raw))
        assert repr(twin) == repr(group)


class TestConjugatePauli:
    def test_swap_moves_letter(self):
        p = QubitPermutation.transposition(2, 0, 1)
        assert conjugate_pauli(p, PauliString.from_label("XI")) == PauliString.from_label("IX")

    def test_symmetric_string_fixed(self):
        p = QubitPermutation.transposition(2, 0, 1)
        s = PauliString.from_label("XX")
        assert conjugate_pauli(p, s) == s

    def test_rotation_shifts_letters(self):
        rot = QubitPermutation(4, (1, 2, 3, 0))
        s = PauliString.from_label("XIIZ")  # X on qubit 3, Z on qubit 0
        out = conjugate_pauli(rot, s)
        assert out.to_label() == "IIZX"
        # dense-conjugation oracle
        pm = rot.to_matrix()
        assert fro(dense_label(out.to_label()) - pm @ dense_label("XIIZ") @ pm.conj().T) < 1e-13

    def test_phase_preserved(self):
        p = QubitPermutation.transposition(2, 0, 1)
        s = PauliString.from_label("XY", phase_exp=3)
        assert conjugate_pauli(p, s).phase_exp == 3

    def test_realization_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            image = rng.permutation(n)
            p = QubitPermutation(n, tuple(int(i) for i in image))
            s = PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
            pm = p.to_matrix()
            left = dense_label(conjugate_pauli(p, s).to_label())
            right = pm @ dense_label(s.to_label()) @ pm.conj().T
            assert np.max(np.abs(left - right)) < 1e-13


class TestDefectAndInvariance:
    def test_identity_has_zero_defect(self, s2):
        for el in s2.elements:
            assert symmetry_defect(np.eye(4), el) == 0

    def test_element_commutes_with_itself(self):
        assert symmetry_defect(SWAP, SWAP) == 0

    def test_xi_defect_value(self):
        assert symmetry_defect(dense_label("XI"), SWAP) == pytest.approx(2 * np.sqrt(2))
        # permutation fast path agrees with the dense route
        perm = QubitPermutation.transposition(2, 0, 1)
        assert symmetry_defect(dense_label("XI"), perm) == pytest.approx(2 * np.sqrt(2))

    def test_symmetric_string_invariant(self, s2):
        flag, residual = is_invariant(dense_label("XX"), s2, 1e-12)
        assert flag and residual < 1e-14

    def test_symmetrized_exponential_invariant(self, s2):
        u = exp_generator(PauliSum.from_labels(2, [("XI", 1), ("IX", 1)]), 0.3)
        flag, residual = is_invariant(u.matrix, s2, 1e-12)
        assert flag and residual < 1e-12

    def test_lopsided_exponential_not_invariant(self, s2):
        u = exp_generator(PauliSum.from_labels(2, [("XI", 1)]), 0.3)
        flag, residual = is_invariant(u.matrix, s2, 1e-12)
        assert not flag
        assert residual == pytest.approx(2 * np.sqrt(2) * np.sin(0.15), rel=1e-10)
        assert residual > 0.1

    def test_generator_sufficiency(self, s3):
        for seed in range(5):
            u = random_invariant(3, s3, seed=seed, depth=5)
            _, gen_res = is_invariant(u.matrix, s3, 1e-10)
            full_res = _defects(u.matrix, s3).max()
            assert gen_res < 1e-12
            assert full_res < 1e-10

    def test_composition_bounded_by_three_tol(self, s2):
        tol = 1e-10
        for seed in range(10):
            u1 = random_invariant(2, s2, seed=seed, depth=4)
            u2 = random_invariant(2, s2, seed=seed + 100, depth=4)
            f1, _ = is_invariant(u1.matrix, s2, tol)
            f2, _ = is_invariant(u2.matrix, s2, tol)
            assert f1 and f2
            flag, _ = is_invariant(u2.matrix @ u1.matrix, s2, 3 * tol)
            assert flag

    def test_dimension_mismatch(self, s2):
        with pytest.raises(DimensionError):
            symmetry_defect(np.eye(8), s2.elements[0])

    @pytest.mark.parametrize("name, n", [(name, n)
                                         for name in ("full_swap", "cyclic", "dihedral", "trivial")
                                         for n in range(1, 7)] + [("dihedral", 7)])
    def test_sweep_is_elementwise_maximum(self, name, n):
        group = preset_group(name, n)
        u = random_invariant(n, group, seed=n, depth=2).matrix
        noisy = u + 1e-3 * np.random.default_rng(n).normal(size=u.shape)
        for m in (u, noisy):
            assert _defects(m, group).tolist() == [symmetry_defect(m, e) for e in group.elements]
            worst = max((symmetry_defect(m, e) for e in group.generators), default=0.0)
            assert is_invariant(m, group) == (worst < 1e-10, worst)

    def test_raw_sweep_is_elementwise_maximum(self):
        group = gl32_group()
        rng = np.random.default_rng(4)
        for m in (np.eye(8) + 0.5 * np.ones((8, 8)), rng.normal(size=(8, 8))):
            assert _defects(m, group).tolist() == [symmetry_defect(m, e) for e in group.elements]
            worst = max(symmetry_defect(m, e) for e in group.generators)
            assert is_invariant(m, group) == (worst < 1e-10, worst)

    # Every preset, trivial (no generators) included, and a raw-unitary group.
    INPUT_CHECK_GROUPS = [(name, n) for name in ("full_swap", "cyclic", "dihedral", "trivial")
                          for n in (1, 2, 3)]

    def test_sweep_dimension_mismatch(self):
        for group in [preset_group(*case) for case in self.INPUT_CHECK_GROUPS] + [gl32_group()]:
            for m in (np.eye(1 << (group.n + 1)), np.eye(2, 4)):
                with pytest.raises(DimensionError):
                    is_invariant(m, group)

    def test_nan_matrix_is_not_invariant(self):
        for group in [preset_group(*case) for case in self.INPUT_CHECK_GROUPS] + [gl32_group()]:
            for bad in (np.nan, np.inf):
                m = np.eye(1 << group.n, dtype=complex)
                m[-1, 0] = bad
                flag, worst = is_invariant(m, group)
                assert not flag and np.isnan(worst)


class TestPermutationDefectKernel:
    """The axis-permutation kernel against the dense product S U - U S."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 6), count=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle(self, n, count, seed):
        rng = np.random.default_rng(seed)
        images = np.array([rng.permutation(n) for _ in range(count)], dtype=np.int64)
        dim = 1 << n
        # distinct weights on the wires: no wire permutation but the identity commutes
        weighted = [("I" * (n - 1 - i) + "Z" + "I" * i, 0.3 + 0.4 * i) for i in range(n)]
        lopsided = exp_generator(PauliSum.from_labels(n, weighted + [("X" * n, 0.5)]), 1.1).matrix
        for m in (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), lopsided):
            oracle = [fro(s @ m - m @ s) for s in
                      (QubitPermutation(n, row).to_matrix() for row in images.tolist())]
            got = _permutation_defects(m, images)
            assert np.allclose(got, oracle, rtol=1e-12, atol=1e-14)
            moved = (images != np.arange(n)).any(axis=1)
            assert (got[moved] > 1e-3).all() and (got[~moved] == 0).all()


class TestGatherKernel:
    """The basis-state gather kernel against the tensor-transposition reference,
    bit for bit.  The reference sums an F-ordered U's entries in the memory
    order numpy gives its transposed difference; the kernel sums in row order
    for every layout, as the reference does on U's C-ordered copy."""

    LAYOUTS = ["C", "F", "strided", "real", "real strided"]

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 7), count=st.integers(0, 6), layout=st.sampled_from(LAYOUTS),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_transposition_reference(self, n, count, layout, seed):
        rng = np.random.default_rng(seed)
        dim = 1 << n
        images = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(count)], dtype=np.int64)
        big = rng.normal(size=(2 * dim, 3 * dim)) + 1j * rng.normal(size=(2 * dim, 3 * dim))
        m = {"C": big[:dim, :dim].copy(), "F": np.asfortranarray(big[:dim, :dim]), "strided": big[::2, 1::3],
             "real": big.real[:dim, :dim].copy(), "real strided": big.real[::2, 1::3]}[layout]
        got = _permutation_defects(m, images)
        assert got[0] == 0.0  # the identity row
        assert np.array_equal(got, transposition_defects(np.ascontiguousarray(m), images))
        if layout == "F":
            assert np.allclose(got, transposition_defects(m, images), rtol=1e-14, atol=0)
        else:
            assert np.array_equal(got, transposition_defects(m, images))

    def test_no_rows(self):
        for n in (1, 3):
            got = _permutation_defects(np.eye(1 << n, dtype=complex), np.empty((0, n), dtype=np.int64))
            assert got.shape == (0,) and got.dtype == float
        assert is_invariant(np.eye(8), preset_group("trivial", 3)) == (True, 0.0)

    def test_tables_are_built_in_chunks(self):
        rng = np.random.default_rng(5)
        images = rng.random((40_320, 4)).argsort(axis=1)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        tracemalloc.start()
        try:
            got = _permutation_defects(m, images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a table of all 40 320 rows would hold 5.2 MB, their inverse images 1.3 MB
        assert peak < 1_000_000
        assert np.array_equal(got[::97], transposition_defects(m, images[::97]))

    @pytest.mark.parametrize("name, n", [("full_swap", 5), ("dihedral", 6), ("trivial", 3)])
    def test_generator_maps_are_kept(self, name, n):
        group = preset_group(name, n)
        rng = np.random.default_rng(n)
        m = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
        first = is_invariant(m, group)
        maps = group._perm_maps
        assert not maps.flags.writeable and np.array_equal(maps, _state_maps(group._perm_images))
        assert is_invariant(m, group) == first and group._perm_maps is maps
        assert first[1] == max(transposition_defects(m, group._perm_images).tolist(), default=0.0)


class TestSpecsAndPresets:
    def test_preset_sizes(self):
        assert len(preset_group("full_swap", 1)) == 1
        assert len(preset_group("full_swap", 4)) == 24
        assert len(preset_group("cyclic", 5)) == 5
        assert len(preset_group("dihedral", 4)) == 8
        assert len(preset_group("trivial", 3)) == 1

    def test_preset_qubit_cap(self, monkeypatch):
        # refused before any generator row is built, also through a spec file
        cap = _PRESET_QUBIT_CAP
        assert len(preset_group("cyclic", cap).generators) == 1
        built = []
        for name in PRESETS:
            monkeypatch.setitem(PRESETS, name, built.append)
        for name in PRESETS:
            for make in (lambda: preset_group(name, cap + 1),
                         lambda: group_from_spec({"n": cap + 1, "generators": name})):
                with pytest.raises(CapacityError, match=f"on {cap + 1} qubits exceeds the cap of {cap} qubits"):
                    make()
        assert built == []
        # explicit lists share the cap and are refused before any entry is read
        for generators in ([], [{"perm": list(range(1, cap + 1)) + [0]}], [{"bogus": 1}]):
            with pytest.raises(CapacityError, match=f"spec on {cap + 1} qubits exceeds the cap of {cap} qubits"):
                group_from_spec({"n": cap + 1, "generators": generators})
        assert group_from_spec({"n": cap, "generators": []}).n == cap

    @pytest.mark.parametrize("name", sorted(PRESETS))
    @pytest.mark.parametrize("n", [0, -1])
    def test_preset_below_one_qubit_refused(self, name, n):
        with pytest.raises(ValueError, match=f"qubit count must be >= 1, got {n}"):
            preset_group(name, n)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_group("octahedral", 3)

    def test_spec_with_perm_and_unitary(self):
        spec = {
            "n": 2,
            "generators": [
                {"perm": [1, 0]},
                {"unitary": [[[1, 0], [0, 0], [0, 0], [0, 0]],
                             [[0, 0], [1, 0], [0, 0], [0, 0]],
                             [[0, 0], [0, 0], [1, 0], [0, 0]],
                             [[0, 0], [0, 0], [0, 0], [-1, 0]]]},
            ],
        }
        g = group_from_spec(spec)
        assert g.n == 2
        assert len(g) == 4  # {1, swap, cz, swap*cz}

    def test_spec_preset_shorthand(self):
        g = group_from_spec({"n": 3, "generators": "full_swap"})
        assert len(g) == 6 and g.name == "full_swap"

    def test_spec_file_round_trip(self, tmp_path):
        path = tmp_path / "sym.json"
        path.write_text(json.dumps({"n": 2, "generators": [{"perm": [1, 0]}]}))
        g = load_group(path)
        assert len(g) == 2

    def test_shipped_square_example(self):
        from importlib.resources import files

        data = json.loads(files("symsu").joinpath("data/square_dihedral.json").read_text())
        g = group_from_spec(data)
        assert g.n == 4 and len(g) == 8

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            group_from_spec({"generators": []})
        with pytest.raises(ValueError):
            group_from_spec({"n": 2, "generators": [{"rotation": 3}]})
        with pytest.raises(ValueError):
            group_from_spec({"n": 2, "generators": "not_a_preset"})
