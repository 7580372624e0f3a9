"""Orbit symmetrization, dimension counts, and algebraic closure."""

import functools
import itertools
import json
import math
import pickle
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsu import (
    PRESETS,
    CapacityError,
    DimensionError,
    InvariantBasis,
    PauliString,
    PauliSum,
    QubitPermutation,
    SymmetryGroup,
    build_basis,
    burnside_dimension,
    closure_report,
    generate_group,
    group_from_spec,
    in_span,
    is_invariant,
    pauli_orbit,
    preset_group,
    random_invariant,
    sum_commutator,
    sum_to_matrix,
    symmetrize,
    symmetry_defect,
    UnsupportedSymmetryError,
)
from symsu import paulis
from symsu.basis import _cycle_counts, _generator_images, _orbit_table

from conftest import (basis_from_sums, conjugate_pauli, dict_closure, generator_sets, has_identity_term, orbit_members,
                      permute_mask, phase_free, reference_closure, split_orbit_table)


def P(label):
    return PauliString.from_label(label)


class TestOrbits:
    def test_xi_orbit(self, s2):
        assert pauli_orbit(P("XI"), s2) == {P("XI"), P("IX")}

    def test_symmetric_singleton(self, s2):
        assert pauli_orbit(P("XX"), s2) == {P("XX")}

    def test_three_letter_orbit(self, s3):
        orbit = pauli_orbit(P("XYI"), s3)
        expected = {PauliString.from_label("".join(p))
                    for p in itertools.permutations("XYI")}
        assert orbit == expected and len(orbit) == 6

    def test_orbit_size_divides_group_order(self, s3):
        for z in range(8):
            for x in range(8):
                size = len(pauli_orbit(PauliString(3, x, z), s3))
                assert len(s3) % size == 0

    def test_orbits_partition_all_strings(self, s3):
        seen = set()
        for z in range(8):
            for x in range(8):
                s = PauliString(3, x, z)
                orbit = pauli_orbit(s, s3)
                if s in seen:
                    assert orbit <= seen
                else:
                    assert not (orbit & seen)
                    seen |= orbit
        assert len(seen) == 64

    def test_raw_unitary_group_rejected(self):
        cz = np.diag([1.0, 1.0, 1.0, -1.0])
        g = generate_group(2, [cz])
        with pytest.raises(UnsupportedSymmetryError):
            pauli_orbit(P("XI"), g)
        with pytest.raises(UnsupportedSymmetryError):
            burnside_dimension(2, g)
        with pytest.raises(UnsupportedSymmetryError):
            build_basis(2, g)


class TestOrbitEngineProperties:
    """The generator-driven orbit engine against the element-wise oracle:
    conjugating by every element of the closed group, which must also fix
    every basis element."""

    @settings(max_examples=30, deadline=None)
    @given(generator_sets(5), st.integers(0, 3))
    def test_orbits_match_element_oracle(self, case, phase_exp):
        n, images = case
        group = generate_group(n, [QubitPermutation(n, tuple(im)) for im in images])
        strings = [PauliString(n, x, z, phase_exp)
                   for z in range(1 << n) for x in range(1 << n) if z or x]
        oracle = {s: frozenset(conjugate_pauli(e, s) for e in group.elements)
                  for s in strings}
        basis = build_basis(n, group)
        found = [orbit_members(basis, i) for i in range(len(basis))]
        members = [p for orbit in found for p in orbit]
        assert len(members) == len(set(members)) == 4 ** n - 1
        assert {frozenset(orbit) for orbit in found} == {
            frozenset(phase_free(p) for p in orbit) for orbit in oracle.values()}
        assert len(basis) == burnside_dimension(n, group)
        for s in strings:
            assert pauli_orbit(s, group) == oracle[s]
        elements = tuple(basis.elements)  # each read of basis.elements[k] builds a PauliSum
        for e in group.elements:
            for element in elements:
                conjugated = tuple((conjugate_pauli(e, p), c) for p, c in element.terms)
                assert PauliSum(n, conjugated) == element


def scalar_orbit(z, x, moves):
    """Orbit of the mask pair (z, x) by breadth-first search over the
    generators' mask maps (mask -> permuted mask), one pair at a time: the
    reference for the array orbit engine of build_basis and pauli_orbit."""
    seen = {(z, x)}
    frontier = [(z, x)]
    while frontier:
        nxt = []
        for mz, mx in frontier:
            for move in moves:
                q = (move(mz), move(mx))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def scalar_orbits(n, group):
    """Every non-identity orbit as a sorted list of keys z << n | x, in the
    order of their smallest keys."""
    moves = [functools.partial(permute_mask, e) for e in group.generators]
    size = 1 << n
    orbits, placed = [], {0}
    for key in range(1, size * size):
        if key not in placed:
            orbit = sorted(mz << n | mx for mz, mx in scalar_orbit(key >> n, key & (size - 1), moves))
            placed.update(orbit)
            orbits.append(orbit)
    return orbits


def assert_matches_scalar_orbits(n, group, pauli_orbit_stride=1):
    """build_basis (table and elements) and pauli_orbit against scalar_orbits."""
    orbits = scalar_orbits(n, group)
    basis = build_basis(n, group)
    table = np.full(4 ** n, -1)
    for k, orbit in enumerate(orbits):
        table[orbit] = k
    assert np.array_equal(basis.orbit_of, table)
    # Canonical term order is (z, x) order, which is key order.
    assert [(e.z << n | e.x).tolist() for e in basis.elements] == orbits
    assert all(np.array_equal(e.coeffs, np.ones(len(e), dtype=complex)) for e in basis.elements)
    size = 1 << n
    for orbit in orbits[::pauli_orbit_stride]:
        strings = {PauliString(n, key & (size - 1), key >> n, 3) for key in orbit}
        assert pauli_orbit(min(strings), group) == strings


class TestScalarOrbitOracle:
    """The array orbit engine against the scalar breadth-first walk."""

    @pytest.mark.parametrize("preset", ["full_swap", "cyclic", "dihedral", "trivial"])
    def test_presets_up_to_six_qubits(self, preset):
        for n in range(1, 7):
            assert_matches_scalar_orbits(n, preset_group(preset, n))

    def test_trivial_eight_qubits(self):
        assert_matches_scalar_orbits(8, preset_group("trivial", 8), pauli_orbit_stride=97)

    def test_shipped_square_example(self):
        group = group_from_spec(json.loads(files("symsu").joinpath("data/square_dihedral.json").read_text()))
        assert_matches_scalar_orbits(group.n, group)

    @settings(max_examples=30, deadline=None)
    @given(generator_sets(5))
    def test_drawn_generator_sets(self, case):
        n, images = case
        assert_matches_scalar_orbits(n, generate_group(n, [QubitPermutation(n, tuple(im)) for im in images]))

    @pytest.mark.parametrize("label", ["XXXYYYZZZI", "XXYYZZIIII", "XYZIIIIIII"])
    def test_ten_qubit_orbit_sizes_are_multinomials(self, label):
        counts = [label.count(letter) for letter in "IXYZ"]
        multinomial = math.factorial(10) // math.prod(math.factorial(c) for c in counts)
        orbit = pauli_orbit(P(label), preset_group("full_swap", 10))
        assert len(orbit) == multinomial
        assert all(sorted(p.to_label()) == sorted(label) for p in orbit)

    def test_orbit_above_62_qubits(self):
        # Masks are Python ints there; the orbit is every rotation and its reflection.
        label = "XY" + "I" * 67 + "ZZ" + "I" * 3
        n = len(label)
        turns = {label[k:] + label[:k] for k in range(n)}
        for preset, expected in (("cyclic", turns), ("dihedral", turns | {t[::-1] for t in turns})):
            orbit = pauli_orbit(PauliString.from_label(label, 1), preset_group(preset, n))
            assert {p.to_label() for p in orbit} == expected
            assert {p.phase_exp for p in orbit} == {1}


class TestOrbitTableWidth:
    """The orbit engine on width-bit keys: 2n-bit string keys, moved whole,
    and n-bit basis states."""

    @pytest.mark.parametrize("preset", ["full_swap", "cyclic", "dihedral"])
    @pytest.mark.parametrize("n", [7, 8])
    def test_string_keys_match_split_moves(self, preset, n):
        group = preset_group(preset, n)
        images = _generator_images(group)
        assert np.array_equal(_orbit_table(2 * n, images.tolist()), split_orbit_table(n, images[:, :n].tolist()))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_dihedral_rotation_and_reflection_match_split_moves(self, n):
        """A rotation, which keeps its push, and a self-inverse reflection, which skips it."""
        images = _generator_images(preset_group("dihedral", n))
        assert np.array_equal(_orbit_table(2 * n, images.tolist()), split_orbit_table(n, images[:, :n].tolist()))

    @pytest.mark.parametrize("perms", [
        [[1, 2, 0, 3, 4], [0, 1, 2, 4, 3]],  # a 3-cycle and a transposition
        [[1, 2, 0, 3, 4], [1, 2, 0, 3, 4], [0, 1, 3, 4, 2]],  # a repeated 3-cycle
        [[0, 1, 2, 3, 4], [1, 2, 3, 4, 0], [1, 0, 2, 3, 4]],  # an identity row, a 5-cycle and a transposition
    ], ids=["3-cycle-and-transposition", "repeated-3-cycle", "identity-row"])
    def test_mixed_spec_generators_match_split_moves(self, perms):
        group = group_from_spec({"n": 5, "generators": [{"perm": p} for p in perms]})
        images = _generator_images(group)
        assert np.array_equal(_orbit_table(10, images.tolist()), split_orbit_table(5, images[:, :5].tolist()))

    @pytest.mark.parametrize("spec", [{"n": 8, "generators": "cyclic"}, {"n": 7, "generators": "dihedral"},
                                      {"n": 5, "generators": [{"perm": [1, 2, 0, 3, 4]}, {"perm": [0, 1, 2, 4, 3]}]}],
                             ids=["cyclic-8", "dihedral-7", "3-cycle-and-transposition"])
    def test_rounds_match_split_moves(self, monkeypatch, spec):
        """A self-inverse row's push changes no label, so skipping it keeps every round
        the reference's; a row that is not self-inverse needs its push to keep them."""
        rounds, array_equal = [], np.array_equal  # one comparison per round in each
        monkeypatch.setattr(np, "array_equal", lambda a, b: rounds.append(1) or array_equal(a, b))
        n, images = spec["n"], _generator_images(group_from_spec(spec))
        _orbit_table(2 * n, images.tolist())
        ours = len(rounds)
        split_orbit_table(n, images[:, :n].tolist())
        assert ours == len(rounds) - ours > 1

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_state_orbits_match_burnside(self, preset):
        """m state orbits, key 0 labelled -1, against the average of 2^cycles."""
        for n in range(1, 7):
            group = preset_group(preset, n)
            m = int(_orbit_table(n, _generator_images(group)[:, :n].tolist()).max()) + 2
            bins = np.bincount(_cycle_counts(group.images), minlength=n + 1).tolist()
            total = sum(rows * 2 ** c for c, rows in enumerate(bins))
            assert total % len(group) == 0 and m == total // len(group)
            if preset == "full_swap":
                assert m == n + 1  # the Dicke states


class TestSymmetrize:
    def test_xi(self, s2):
        assert symmetrize(P("XI"), s2) == PauliSum.from_labels(2, [("XI", 1), ("IX", 1)])

    def test_xy(self, s2):
        assert symmetrize(P("XY"), s2) == PauliSum.from_labels(2, [("XY", 1), ("YX", 1)])

    def test_zzi(self, s3):
        expected = PauliSum.from_labels(3, [("ZZI", 1), ("ZIZ", 1), ("IZZ", 1)])
        assert symmetrize(P("ZZI"), s3) == expected

    def test_fixed_point_exact(self, s3):
        s = symmetrize(P("XZI"), s3)
        for el in s3.elements:
            conjugated = PauliSum(3, tuple((conjugate_pauli(el, p), c) for p, c in s.terms))
            assert conjugated == s


class TestBuildBasis:
    def test_two_qubit_swap_basis(self, s2):
        basis = build_basis(2, s2)
        produced = {frozenset(p.to_label() for p, _ in e.terms) for e in basis.elements}
        expected = {
            frozenset({"XX"}), frozenset({"YY"}), frozenset({"ZZ"}),
            frozenset({"XI", "IX"}), frozenset({"YI", "IY"}), frozenset({"ZI", "IZ"}),
            frozenset({"XY", "YX"}), frozenset({"XZ", "ZX"}), frozenset({"YZ", "ZY"}),
        }
        assert produced == expected

    def test_single_qubit_trivial(self, trivial1):
        basis = build_basis(1, trivial1)
        assert [e.to_line() for e in basis.elements] == ["(1,0) X", "(1,0) Z", "(1,0) Y"]

    def test_three_qubit_dimension(self, s3):
        assert len(build_basis(3, s3)) == 19

    def test_elements_hermitian_traceless_invariant(self, s3):
        basis = build_basis(3, s3)
        for e in basis.elements:
            assert e.is_hermitian()
            assert not has_identity_term(e)
            m = sum_to_matrix(e)
            assert np.trace(m) == 0
            flag, _ = is_invariant(m, s3, 1e-12)
            assert flag

    def test_elements_orthogonal_disjoint_orbits(self, s3):
        basis = build_basis(3, s3)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                members_i = set(orbit_members(basis, i))
                members_j = set(orbit_members(basis, j))
                assert not (members_i & members_j)

    def test_capacity_cap(self, trivial1):
        # The one qubit cap is the dense realization's, 10 qubits.
        g = preset_group("trivial", 11)
        with pytest.raises(CapacityError, match="cap of 10 qubits"):
            build_basis(11, g)

    def test_basis_on_another_qubit_count_rejected(self, s2, s3):
        # A group on another qubit count, or a table of other than 4^n
        # labels, is refused; build_basis refuses the mismatch too.
        two, three = build_basis(2, s2).orbit_of, build_basis(3, s3).orbit_of
        for n, group, table in ((3, s2, two), (1, s2, two), (2, s2, three), (3, s3, two)):
            with pytest.raises(DimensionError):
                InvariantBasis(n, group, table)
        with pytest.raises(DimensionError):
            build_basis(3, s2)
        with pytest.raises(DimensionError, match="string on 3 qubits, group on 2"):
            pauli_orbit(P("XII"), s2)
        with pytest.raises(DimensionError, match="sum on 3 qubits, basis on 2"):
            in_span(PauliSum.from_label("XII"), build_basis(2, s2))

    @pytest.mark.parametrize("preset", ["full_swap", "cyclic", "dihedral", "trivial"])
    def test_table_rebuilds_the_basis(self, preset):
        for n in range(1, 5):
            group = preset_group(preset, n)
            built = build_basis(n, group)
            rebuilt = InvariantBasis(n, group, built.orbit_of)
            assert rebuilt == built and hash(rebuilt) == hash(built)

    def test_table_is_copied_and_frozen(self, s3):
        table = build_basis(3, s3).orbit_of.copy()
        basis = InvariantBasis(3, s3, table)
        table[:] = -1
        assert basis == build_basis(3, s3) and len(basis) == 19
        for name in ("orbit_of", "x", "z", "offsets"):
            assert not getattr(basis, name).flags.writeable

    def test_pickle_rebuilds_a_read_only_basis(self):
        group = preset_group("full_swap", 4)
        basis = build_basis(4, group)
        random_invariant(4, group, 0, 1, basis)  # keeps one element's eigenpairs on the basis
        assert len(basis._spectra) == 1
        twin = pickle.loads(pickle.dumps(basis))
        assert len(twin) == len(basis) == 34 and not twin._spectra
        for name in ("orbit_of", "x", "z", "offsets"):
            assert np.array_equal(getattr(twin, name), getattr(basis, name))
            assert not getattr(twin, name).flags.writeable
        assert np.array_equal(twin.group.images, group.images) and not twin.group.images.flags.writeable
        assert not twin.group._perm_images.flags.writeable

    @pytest.mark.parametrize("preset, n", [("full_swap", 9), ("full_swap", 10), ("cyclic", 9)])
    def test_closed_form_sizes_past_eight_qubits(self, preset, n):
        assert len(build_basis(n, preset_group(preset, n))) == closed_form_dimension(preset, n)

    def test_builds_no_pauli_sum(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("build_basis built a PauliSum")

        monkeypatch.setattr(PauliSum, "_canonical", refuse)
        assert len(build_basis(8, preset_group("cyclic", 8))) == 8229

    def test_elements_read_like_a_tuple(self, s3):
        basis = build_basis(3, s3)
        elements = basis.elements
        as_tuple = tuple(elements)
        assert len(elements) == len(as_tuple) == 19 and list(elements) == list(as_tuple)
        assert elements[-1] == as_tuple[-1] and elements[2:7:2] == as_tuple[2:7:2]
        assert elements[::-1] == as_tuple[::-1] and elements[5:2] == ()
        assert isinstance(elements[1:3], tuple) and elements[4] in elements
        with pytest.raises(IndexError):
            elements[19]
        with pytest.raises(TypeError):
            elements[0] = elements[1]
        assert not elements[0].x.flags.writeable and not basis.x.flags.writeable


class TestBasisValidation:
    """The basis constructor refuses orbit tables that would give in_span
    and closure_report a zero orbit size or an identity element."""

    @pytest.fixture
    def table(self, s2):
        return build_basis(2, s2).orbit_of.copy()

    def test_empty_element(self, s2, table):
        table[table >= 1] += 1  # no string keeps label 1
        with pytest.raises(ValueError, match="basis element 1 is empty"):
            InvariantBasis(2, s2, table)

    def test_identity_string(self, s2, table):
        table[0] = 2
        with pytest.raises(ValueError, match="basis element 2 holds the identity string"):
            InvariantBasis(2, s2, table)

    def test_label_below_minus_one(self, s2, table):
        table[5] = -2
        with pytest.raises(ValueError, match="got -2"):
            InvariantBasis(2, s2, table)


def relisted(group):
    """The same group from a generator list no preset has (the identity
    first), so that burnside_dimension counts it by listing."""
    return SymmetryGroup(group.n, [QubitPermutation.identity(group.n), *group.generators])


def closed_form_dimension(preset, n):
    """Orbits of the 4^n strings under the preset, minus the identity, from
    the closed forms: multisets of n letters (full_swap), necklaces (cyclic),
    bracelets (dihedral) and words (trivial) over 4 letters."""
    totient = [sum(math.gcd(i, d) == 1 for i in range(1, d + 1)) for d in range(n + 1)]
    necklaces = sum(totient[d] * 4 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
    reflected = 5 * 4 ** (n // 2) // 2 if n % 2 == 0 else 4 ** ((n + 1) // 2)
    return {"full_swap": math.comb(n + 3, 3),
            "cyclic": necklaces,
            "dihedral": (necklaces + reflected) // 2,
            "trivial": 4 ** n}[preset] - 1


@pytest.mark.parametrize("call", [
    lambda s3: burnside_dimension(5, s3),
    lambda s3: random_invariant(5, s3, 0, 0, basis=build_basis(3, s3)),
    lambda s3: random_invariant(5, s3, 0, 2, basis=build_basis(3, s3)),
], ids=["burnside", "random_depth_0", "random_depth_2"])
def test_group_on_another_qubit_count_rejected(s3, call):
    with pytest.raises(DimensionError, match="group acts on 3 qubits, basis requested for 5"):
        call(s3)


class TestBurnside:
    def test_s3_arithmetic(self, s3):
        # (64 + 3*16 + 2*4) / 6 - 1
        assert burnside_dimension(3, s3) == 19

    def test_s2_arithmetic(self, s2):
        assert burnside_dimension(2, s2) == 9

    def test_matches_enumeration_for_square_group(self):
        g = preset_group("dihedral", 4)
        assert burnside_dimension(4, g) == len(build_basis(4, g)) == 54

    @pytest.mark.parametrize("preset,ns", [
        ("trivial", (1, 2, 3, 5)),
        ("full_swap", (1, 2, 3, 4, 5)),
        ("cyclic", (2, 3, 4, 5)),
        ("dihedral", (3, 4, 5)),
    ])
    def test_dimension_consistency(self, preset, ns):
        for n in ns:
            g = preset_group(preset, n)
            assert len(build_basis(n, g)) == burnside_dimension(n, g)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_closed_forms_up_to_eight_qubits(self, preset):
        # the listing route is the cycle index's oracle: the same group from a generator list no preset has
        for n in range(1, 9):
            group = preset_group(preset, n)
            listed = relisted(group)
            assert (burnside_dimension(n, group) == burnside_dimension(n, listed) == len(build_basis(n, group))
                    == closed_form_dimension(preset, n))
            assert "images" not in vars(group) and "images" in vars(listed)

    @pytest.mark.parametrize("preset", ["cyclic", "dihedral"])
    def test_closed_forms_past_int64_closure_keys(self, preset):
        # _close_images keys its rows by Python ints from n = 16 on; the listing
        # route reads them, the cycle index does not
        listed = {n: relisted(preset_group(preset, n)) for n in (15, 16, 20)}
        dims = [burnside_dimension(n, g) for n, g in listed.items()]
        assert [len(g.images) for g in listed.values()] == [(1 if preset == "cyclic" else 2) * n for n in listed]
        assert dims == [closed_form_dimension(preset, n) for n in (15, 16, 20)]
        assert dims == [burnside_dimension(n, preset_group(preset, n)) for n in (15, 16, 20)]
        assert dims == {"cyclic": [71_582_943, 268_439_589, 54_975_633_975],
                        "dihedral": [35_824_239, 134_301_714, 27_489_127_707]}[preset]

    def test_preset_count_never_lists(self, monkeypatch):
        def listing(group):
            raise AssertionError("a preset was listed to be counted")

        monkeypatch.setattr(SymmetryGroup, "images", property(listing))
        for preset in PRESETS:
            for n in (1, 2, 3, 4, 9, 10, 40):
                spelled = group_from_spec({"n": n, "generators": [
                    {"perm": list(g.image)} for g in PRESETS[preset](n)]})
                for group in (preset_group(preset, n), spelled):
                    assert burnside_dimension(n, group) == closed_form_dimension(preset, n)
        with pytest.raises(AssertionError, match="listed"):
            burnside_dimension(3, relisted(preset_group("cyclic", 3)))

    def test_group_named_as_a_preset_is_listed(self):
        # the generator rows, not the name, pick the cycle-index route
        named = SymmetryGroup(3, [QubitPermutation.transposition(3, 0, 1)], "full_swap")
        assert burnside_dimension(3, named) == 39 == (64 + 16) // 2 - 1
        assert "images" in vars(named)

    def test_closed_forms_at_eight_qubits(self):
        assert [closed_form_dimension(p, 8) for p in ("full_swap", "cyclic", "dihedral")] == [
            164, 8229, 4434]

    def test_phased_raw_swap_is_absorbed(self):
        # e^{0.7i} SWAP conjugates as the swap does, so it is coerced to the swap
        # permutation, in any generator order and without the swap beside it
        swap = QubitPermutation.transposition(2, 0, 1)
        raw = np.exp(0.7j) * swap.to_matrix()
        full = preset_group("full_swap", 2)
        for gens in ([swap, raw], [raw, swap], [raw]):
            mixed = generate_group(2, gens)
            assert all(isinstance(g, QubitPermutation) for g in mixed.generators)
            assert mixed.images.tolist() == [[0, 1], [1, 0]]
            assert ([e.to_line() for e in build_basis(2, mixed).elements]
                    == [e.to_line() for e in build_basis(2, full).elements])
            assert burnside_dimension(2, mixed) == burnside_dimension(2, full) == 9

    def test_subgroup_monotonicity(self):
        dims = [burnside_dimension(4, preset_group(name, 4))
                for name in ("trivial", "cyclic", "dihedral", "full_swap")]
        assert dims == sorted(dims, reverse=True)
        assert dims[0] == 4 ** 4 - 1


class TestInSpan:
    def test_basis_elements_have_zero_residual(self, s2):
        basis = build_basis(2, s2)
        for e in basis.elements:
            assert in_span(e, basis) == 0

    def test_commutators_stay_in_span(self, s2):
        basis = build_basis(2, s2)
        for i in range(len(basis)):
            for j in range(len(basis)):
                c = sum_commutator(basis.elements[i], basis.elements[j])
                assert in_span(c, basis) < 1e-12

    def test_lopsided_sum_has_large_residual(self, s2):
        basis = build_basis(2, s2)
        residual = in_span(PauliSum.from_labels(2, [("XI", 1)]), basis)
        assert residual == pytest.approx(np.sqrt(0.5))
        assert residual > 0.5

    def test_identity_term_is_outside_span(self, s2):
        basis = build_basis(2, s2)
        assert in_span(PauliSum.from_labels(2, [("II", 1)]), basis) == 1.0

    def test_scaled_combinations_stay_inside(self, s3):
        basis = build_basis(3, s3)
        combo = 0.3 * basis.elements[0] + (-2.0) * basis.elements[5]
        assert in_span(combo, basis) == 0


def split_orbit(basis, k):
    """A broken basis: orbit k replaced, in place, by its two halves."""
    terms = basis.elements[k].terms
    half = len(terms) // 2
    elements = (basis.elements[:k]
                + (PauliSum(basis.n, terms[:half]), PauliSum(basis.n, terms[half:]))
                + basis.elements[k + 1:])
    return basis_from_sums(basis.n, basis.group, elements)


def assert_matches_scalar(basis):
    report = closure_report(basis)
    count, worst, worst_pair = dict_closure(basis)
    assert report.pair_count == count
    assert report.max_residual == pytest.approx(worst, rel=1e-12, abs=0)
    assert report.worst_pair == worst_pair
    assert report.passed == (worst < report.tolerance)
    return report


def assert_matches_reference(basis, budgets):
    """closure_report at each pair budget against the reference kernel, bit for bit."""
    want = reference_closure(basis)
    for block in budgets:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(paulis, "_PAIR_BLOCK", block)
            got = closure_report(basis)
        assert got.pair_count == want.pair_count and got.passed == want.passed
        assert got.max_residual.hex() == want.max_residual.hex()
        assert got.worst_pair == want.worst_pair
        assert got.worst_pair is None or all(type(v) is int for v in got.worst_pair)


class TestClosureReport:
    def test_two_qubit_swap(self, s2):
        report = closure_report(build_basis(2, s2), tol=1e-12)
        assert report.pair_count == 36
        assert report.passed and report.max_residual < 1e-12

    def test_three_qubit_swap(self, s3):
        report = closure_report(build_basis(3, s3), tol=1e-10)
        assert report.pair_count == 171
        assert report.passed

    def test_single_qubit_trivial(self, trivial1):
        report = closure_report(build_basis(1, trivial1))
        assert report.pair_count == 3 and report.passed

    @pytest.mark.parametrize("n, pairs", [(4, 561), (5, 1485)])
    def test_full_swap_closes(self, n, pairs):
        report = closure_report(build_basis(n, preset_group("full_swap", n)))
        assert report.pair_count == pairs
        assert report.passed and report.max_residual == 0 and report.worst_pair is None

    @pytest.mark.parametrize("name, n, k, worst_pair, residual", [
        ("full_swap", 3, 1, (1, 4), 4 / np.sqrt(3)),
        ("dihedral", 4, 7, (7, 23), 8.0),
        ("cyclic", 3, 16, (6, 16), 2 * np.sqrt(2)),  # 4 / sqrt(3) at (0, 16) if every product sign were +2
    ])
    def test_split_orbit_fails(self, name, n, k, worst_pair, residual):
        broken = split_orbit(build_basis(n, preset_group(name, n)), k)
        report = assert_matches_scalar(broken)
        assert not report.passed
        assert report.worst_pair == worst_pair
        assert report.max_residual == pytest.approx(residual, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(generator_sets(4), st.integers(0, 1 << 16))
    def test_matches_scalar_oracle(self, case, pick):
        n, images = case
        basis = build_basis(n, generate_group(n, [QubitPermutation(n, tuple(im)) for im in images]))
        report = assert_matches_scalar(basis)
        assert report.passed and report.worst_pair is None
        splittable = [k for k in range(len(basis)) if len(basis.elements[k]) > 1]
        if splittable:
            assert_matches_scalar(split_orbit(basis, splittable[pick % len(splittable)]))

    @settings(max_examples=25, deadline=None)
    @given(generator_sets(4), st.integers(0, 1 << 16))
    def test_matches_reference_kernel_at_any_pair_budget(self, case, pick):
        # Budgets of 1 and 3 pairs cut a block at every orbit j; 2^11 and the default hold many orbits.
        n, images = case
        basis = build_basis(n, generate_group(n, [QubitPermutation(n, tuple(im)) for im in images]))
        splittable = [k for k in range(len(basis)) if len(basis.elements[k]) > 1]
        broken = [split_orbit(basis, splittable[pick % len(splittable)])] if splittable else []
        for b in [basis] + broken:
            assert_matches_reference(b, (1, 3, 1 << 11, paulis._PAIR_BLOCK))

    @pytest.mark.parametrize("name, n", [("full_swap", 5), ("dihedral", 5), ("full_swap", 6)])
    def test_split_matches_reference_kernel(self, name, n):
        basis = build_basis(n, preset_group(name, n))
        broken = split_orbit(basis, int(np.argmax(np.diff(basis.offsets))))  # the largest orbit
        assert_matches_reference(broken, (1 << 11, paulis._PAIR_BLOCK))

    def test_commutators_commute_with_group_matrices(self, s2):
        basis = build_basis(2, s2)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                c = sum_commutator(basis.elements[i], basis.elements[j])
                if not len(c):
                    continue
                cm = sum_to_matrix(c)
                for el in s2.elements:
                    assert symmetry_defect(cm, el) < 1e-12
