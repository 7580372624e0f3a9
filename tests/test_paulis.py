"""Symbolic Pauli algebra against hand values and the dense oracle."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symsu import (
    CapacityError,
    DimensionError,
    PauliString,
    PauliSum,
    pauli_commutator,
    pauli_multiply,
    pauli_to_matrix,
    paulis_commute,
    sum_commutator,
    sum_to_matrix,
)

from symsu import paulis

from conftest import coefficient, dense_label, dense_sum, fro, is_identity, pairs_commutator, string_product, weight


def P(label, phase_exp=0):
    return PauliString.from_label(label, phase_exp)


pauli_strings = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
        st.integers(0, 3),
    )
).map(lambda t: PauliString(*t))


def string_pairs():
    return st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1), st.integers(0, 3)),
            st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1), st.integers(0, 3)),
        ).map(lambda ab: (PauliString(n, *ab[0]), PauliString(n, *ab[1])))
    )


def dict_merge(pairs):
    """Canonical terms by a plain dict merge: phase folded into the
    coefficient, equal strings summed in input order from 0j, |c| < 1e-12
    dropped, sorted by (z_mask, x_mask)."""
    merged = {}
    for p, c in pairs:
        key = PauliString(p.n, p.x_mask, p.z_mask)
        merged[key] = merged.get(key, 0j) + complex(c) * (1, 1j, -1, -1j)[p.phase_exp]
    kept = [(p, c) for p, c in merged.items() if abs(c) >= 1e-12]
    return tuple(sorted(kept, key=lambda t: (t[0].z_mask, t[0].x_mask)))


# A few strings per example, drawn with repeats, so that duplicates merge;
# coefficients from a small signed set, so that some cancel exactly.
raw_term_lists = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
             min_size=1, max_size=4, unique=True),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                       st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.1, -0.1, 2j, -2j, 0.3 - 0.7j])),
             max_size=12),
)).map(lambda t: (t[0], [(PauliString(t[0], *t[1][k % len(t[1])], phase), c)
                         for k, phase, c in t[2]]))


class TestPauliString:
    def test_label_round_trip(self):
        for label in ("X", "XIZ", "YYIX", "IIII"):
            assert P(label).to_label() == label

    def test_label_bit_placement(self):
        p = P("XIZ")  # X on qubit 2, Z on qubit 0
        assert p.x_mask == 0b100
        assert p.z_mask == 0b001

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            PauliString(2, 0b100, 0)

    def test_weight(self):
        assert weight(P("XIZ")) == 2
        assert weight(P("III")) == 0

    def test_x_times_y_is_i_z(self):
        p = pauli_multiply(P("X"), P("Y"))
        assert (p.x_mask, p.z_mask, p.phase_exp) == (0, 1, 1)

    def test_x_squared_is_identity(self):
        p = pauli_multiply(P("X"), P("X"))
        assert is_identity(p) and p.phase_exp == 0

    def test_disjoint_supports(self):
        p = pauli_multiply(P("XI"), P("IZ"))
        assert p.to_label() == "XZ" and p.phase_exp == 0

    def test_single_qubit_table(self):
        # full sign table of the two-letter products
        expected = {
            ("X", "Y"): ("Z", 1), ("Y", "X"): ("Z", 3),
            ("Y", "Z"): ("X", 1), ("Z", "Y"): ("X", 3),
            ("Z", "X"): ("Y", 1), ("X", "Z"): ("Y", 3),
        }
        for (a, b), (lab, phase) in expected.items():
            p = pauli_multiply(P(a), P(b))
            assert (p.to_label(), p.phase_exp) == (lab, phase)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            pauli_multiply(P("X"), P("XX"))

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        *(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1),
                    st.integers(0, 3)).map(lambda t: PauliString(n, *t))
          for _ in range(3)))))
    @settings(max_examples=100, deadline=None)
    def test_multiplication_associative(self, triple):
        a, b, c = triple
        assert pauli_multiply(pauli_multiply(a, b), c) == pauli_multiply(a, pauli_multiply(b, c))

    @given(string_pairs())
    @settings(max_examples=200, deadline=None)
    def test_realization_homomorphism(self, pair):
        a, b = pair
        product = pauli_to_matrix(pauli_multiply(a, b))
        oracle = pauli_to_matrix(a) @ pauli_to_matrix(b)
        assert np.max(np.abs(product - oracle)) < 1e-14

    @given(string_pairs())
    @settings(max_examples=100, deadline=None)
    def test_commute_flag_matches_dense(self, pair):
        a, b = pair
        am, bm = pauli_to_matrix(a), pauli_to_matrix(b)
        assert paulis_commute(a, b) == (fro(am @ bm - bm @ am) < 1e-12)


class TestCommutator:
    def test_x_y_commutator(self):
        c = pauli_commutator(P("X"), P("Y"))
        assert len(c) == 1
        (p, coeff), = c.terms
        assert p.to_label() == "Z" and coeff == 2j

    def test_self_commutator_empty(self):
        assert len(pauli_commutator(P("X"), P("X"))) == 0

    def test_xx_yy_commutator_empty(self):
        # both products equal -(Z kron Z)
        assert len(pauli_commutator(P("XX"), P("YY"))) == 0

    @given(string_pairs())
    @settings(max_examples=100, deadline=None)
    def test_commutator_matches_dense(self, pair):
        a, b = pair
        am, bm = pauli_to_matrix(a), pauli_to_matrix(b)
        realized = sum_to_matrix(pauli_commutator(a, b))
        assert fro(realized - (am @ bm - bm @ am)) < 1e-12


class TestPauliSum:
    def test_duplicates_merge(self):
        s = PauliSum(1, ((P("X"), 1.0), (P("X"), 1.0)))
        assert s.terms == ((P("X"), 2.0 + 0j),)

    def test_cancellation_drops_term(self):
        s = PauliSum(1, ((P("X"), 1.0), (P("X"), -1.0)))
        assert len(s) == 0

    def test_phase_folds_into_coefficient(self):
        s = PauliSum(1, ((P("Z", phase_exp=2), 1.0),))
        assert s.terms == ((P("Z"), -1.0 + 0j),)

    def test_term_order_is_z_then_x(self):
        s = PauliSum.from_labels(2, [("ZI", 1), ("IX", 1), ("XX", 1)])
        assert [p.to_label() for p, _ in s.terms] == ["IX", "XX", "ZI"]

    def test_canonicalize_idempotent(self):
        # Sums are canonical on construction: rebuilding from the terms is a no-op.
        s = PauliSum.from_labels(2, [("XY", 0.5), ("YX", -0.5)])
        assert PauliSum(s.n, s.terms) == s
        assert PauliSum(s.n, PauliSum(s.n, s.terms).terms) == s

    @given(st.permutations([("XI", 1.0), ("IX", 2.0), ("ZZ", -1.0), ("XI", 0.25)]))
    def test_canonicalize_order_independent(self, pairs):
        s = PauliSum.from_labels(2, pairs)
        assert s == PauliSum.from_labels(
            2, [("XI", 1.0), ("IX", 2.0), ("ZZ", -1.0), ("XI", 0.25)]
        )
        assert PauliSum(s.n, s.terms) == s

    def test_hermitian_flag(self):
        assert PauliSum.from_labels(2, [("XY", 1.0), ("YX", 1.0)]).is_hermitian()
        assert not PauliSum.from_labels(2, [("XY", 1j)]).is_hermitian()

    def test_hermitian_realization(self):
        s = PauliSum.from_labels(2, [("XY", 0.3), ("ZI", -1.2), ("YY", 2.0)])
        m = sum_to_matrix(s)
        assert fro(m - m.conj().T) < 1e-14

    def test_traceless_without_identity_term(self):
        s = PauliSum.from_labels(2, [("XY", 0.3), ("ZI", -1.2)])
        assert np.trace(sum_to_matrix(s)) == 0

    def test_mismatched_term_rejected(self):
        with pytest.raises(DimensionError):
            PauliSum(2, ((P("X"), 1.0),))

    @settings(max_examples=200, deadline=None)
    @given(raw_term_lists)
    def test_canonical_form_matches_dict_merge(self, case):
        n, pairs = case
        for order in (pairs, pairs[::-1]):
            s = PauliSum(n, order)
            expected = dict_merge(order)
            assert s.terms == expected
            assert len(s) == len(expected)
            assert s == PauliSum(n, expected)
            assert [p.to_label() for p, _ in s.terms] == [p.to_label() for p, _ in expected]

    def test_wider_than_int64_masks(self):
        # 70 qubits: the masks are Python ints, the sum still canonical.
        a = "XYZI" * 17 + "ZX"
        b = "Y" + "I" * 68 + "Z"
        pairs = [(P(a), 0.5), (P(b, 2), 1.5), (P(a), 0.25), (P(b), 1.5)]
        s = PauliSum(70, pairs)
        assert s.terms == dict_merge(pairs) == ((P(a), 0.75 + 0j),)
        t = PauliSum.from_labels(70, [(a, 1.0), (b, -2.0)])
        assert [p.to_label() for p, _ in t.terms] == [a, b]  # b has the larger z mask, bit 69
        assert coefficient(t, P(b)) == -2.0 and coefficient(t, P("Z" * 70)) == 0
        assert PauliSum.from_line(t.to_line()) == t

    def test_seventy_letter_label_round_trip(self):
        label = "XYZIZYXXIY" * 7
        s = PauliSum.from_label(label)
        assert s.to_line() == f"(1,0) {label}"
        assert PauliSum.from_line(s.to_line()) == s
        assert PauliSum.from_text(s.to_text()) == s
        (p, c), = s.terms
        assert p == P(label) and c == 1

    def test_immutable_and_copyable(self):
        s = PauliSum.from_labels(2, [("XY", 0.5), ("ZI", -1j)])
        with pytest.raises(AttributeError):
            s.n = 3
        with pytest.raises(ValueError):
            s.coeffs[0] = 2.0
        for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert twin == s and twin.terms == s.terms

    def test_arithmetic(self):
        s = PauliSum.from_label("X") + PauliSum.from_label("Y")
        assert len(s) == 2
        assert len(s - s) == 0
        assert coefficient(2.0 * s, P("X")) == 2.0 + 0j


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def _random_sums(n, values=st.one_of(st.sampled_from([1.0, -1.0, 0.5, 2j, -0.1 + 0.3j]),
                                     st.builds(complex, finite, finite))):
    """Two sums on n qubits drawn over a shared pool of strings, so that their
    terms merge and some cancel; coefficients from a signed set or arbitrary."""
    pool = st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
                    min_size=1, max_size=5, unique=True)
    picks = st.lists(st.tuples(st.integers(0, 4), values), max_size=6)
    return pool.flatmap(lambda strings: st.tuples(*[picks.map(lambda ks: PauliSum(n, [
        (PauliString(n, *strings[k % len(strings)]), c) for k, c in ks]))] * 2))


scalars = st.one_of(finite, finite.map(lambda v: complex(0.0, v)), st.builds(complex, finite, finite),
                    st.sampled_from([0, 3, -1.0, 1j, 1.2 - 0.7j]))
sum_pairs = st.sampled_from([1, 2, 3, 4, 64]).flatmap(_random_sums)


def same_arrays(s, t):
    return s.n == t.n and all(np.array_equal(getattr(s, k), getattr(t, k)) for k in ("x", "z", "coeffs"))


class TestArrayArithmetic:
    """+, -, * and hash work on the mask arrays; the (PauliString, complex)
    pairs route is their oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(sum_pairs, scalars)
    def test_matches_pairs_route(self, ab, scalar):
        a, b = ab
        n = a.n
        assert same_arrays(a + b, PauliSum(n, a.terms + b.terms))
        assert same_arrays(a - b, PauliSum(n, a.terms + tuple((p, c * -1.0) for p, c in b.terms)))
        scaled = PauliSum(n, [(p, c * scalar) for p, c in a.terms])
        assert same_arrays(a * scalar, scaled) and same_arrays(scalar * a, scaled)
        assert (a + b).x.dtype == (np.int64 if n <= 62 else object)

    @settings(max_examples=100, deadline=None)
    @given(sum_pairs)
    def test_equal_sums_hash_equal(self, ab):
        a, b = ab
        assert a + b == b + a and hash(a + b) == hash(b + a)
        for twin in (PauliSum(a.n, a.terms), pickle.loads(pickle.dumps(a)), a * 1, a + PauliSum.zero(a.n)):
            assert twin == a and hash(twin) == hash(a)

    def test_complex_scalar_is_cpython_product(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(500, 2)) @ [1, 1j]
        s = PauliSum(6, [(PauliString(6, k & 63, k >> 6), c) for k, c in enumerate(values.tolist(), 1)])
        scalar = 1.2 - 0.7j
        assert (s * scalar).coeffs.tolist() == [c * scalar for c in s.coeffs.tolist()]

    def test_arithmetic_never_reads_terms(self, monkeypatch):
        a = PauliSum.from_labels(3, [("XYZ", 0.5), ("ZZI", -1j), ("IIX", 2.0)])
        b = PauliSum.from_labels(3, [("ZZI", 1j), ("YII", 0.25)])

        def refuse(self):
            raise AssertionError("arithmetic read PauliSum.terms")

        monkeypatch.setattr(PauliSum, "terms", property(refuse))
        results = (a + b, a - b, a * 2.0, 1j * a, a * (0.5 - 1j))
        assert len(results[0]) == 3 and len(results[1]) == 4 and hash(a) != hash(b)  # ZZI cancels in a + b

    @pytest.mark.parametrize("build", [
        lambda: PauliSum.from_label("XZ", float("nan")),
        lambda: PauliSum.from_labels(2, [("XZ", 1.0), ("ZX", complex(0.0, float("inf")))]),
        lambda: PauliSum.from_label("XZ", 1e300) * 1e300,
        lambda: PauliSum.from_label("XZ") * float("nan"),
        lambda: PauliSum.from_label("XZ", 1.5e308) + PauliSum.from_label("XZ", 1.5e308),
        lambda: pickle.loads(pickle.dumps(PauliSum.from_label("XZ")).replace(
            np.float64(1.0).tobytes(), np.float64("nan").tobytes())),
    ])
    def test_non_finite_coefficient_refused(self, build):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            build()


# Widths on both sides of the int64 masks (62 qubits) and of 64-bit counts.
WIDTHS = [1, 2, 3, 4, 64, 100]
I_POWERS = (1, 1j, -1, -1j)


def masks(n):
    return st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))


class TestProductRule:
    """pauli_multiply, paulis_commute and the mask-array kernel behind them
    against the letter-matrix oracle string_product."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(WIDTHS).flatmap(
        lambda n: st.tuples(st.just(n), masks(n), masks(n), st.integers(0, 3), st.integers(0, 3))))
    def test_strings_match_letter_oracle(self, case):
        n, a, b, pa, pb = case
        p, q = PauliString(n, *a, pa), PauliString(n, *b, pb)
        coeff, key = string_product(n, a, b)
        product = pauli_multiply(p, q)
        assert (product.x_mask, product.z_mask) == key and isinstance(product.phase_exp, int)
        assert I_POWERS[product.phase_exp] == coeff * I_POWERS[(pa + pb) % 4]
        assert paulis_commute(p, q) == (coeff == string_product(n, b, a)[0])

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(WIDTHS).flatmap(lambda n: st.tuples(
        st.just(n), *[st.lists(masks(n), min_size=1, max_size=6)] * 2)))
    def test_array_kernel_matches_letter_oracle(self, case):
        # Every pair of a column of strings against a row of them, by broadcasting.
        n, left, right = case
        dtype = np.int64 if n <= 62 else object
        (ax, az), (bx, bz) = ((np.array(v, dtype=dtype) for v in zip(*side)) for side in (left, right))
        anti = paulis._anticommutes(ax[:, None], az[:, None], bx, bz)
        x, z, power = paulis._product(ax[:, None], az[:, None], bx, bz)
        assert anti.shape == x.shape == power.shape == (len(left), len(right))
        assert x.dtype == z.dtype == dtype and power.dtype == np.int64
        for r, a in enumerate(left):
            for c, b in enumerate(right):
                coeff, key = string_product(n, a, b)
                assert (int(x[r, c]), int(z[r, c])) == key and I_POWERS[power[r, c]] == coeff
                assert anti[r, c] == (coeff != string_product(n, b, a)[0])


def same_bytes(s, t):
    """The same masks (and mask dtype) and the same coefficient bytes."""
    return (s.n == t.n and s.x.dtype == t.x.dtype and s.x.tolist() == t.x.tolist()
            and s.z.tolist() == t.z.tolist() and s.coeffs.tobytes() == t.coeffs.tobytes())


coefficient_kinds = {"real": finite.map(complex), "imaginary": finite.map(lambda v: complex(0.0, v)),
                     "complex": st.builds(complex, finite, finite)}


class TestSumCommutator:
    @pytest.mark.parametrize("kind", sorted(coefficient_kinds))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_pairs_route_bit_for_bit(self, kind, data):
        n = data.draw(st.sampled_from(WIDTHS))
        a, b = data.draw(_random_sums(n, coefficient_kinds[kind]))
        block = data.draw(st.sampled_from([1, 3, paulis._PAIR_BLOCK]))  # pairs per block: rows of a at a time
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(paulis, "_PAIR_BLOCK", block)
            assert same_bytes(sum_commutator(a, b), pairs_commutator(a, b))
            assert same_bytes(sum_commutator(b, a), pairs_commutator(b, a))

    def test_overflow_refused_as_pairs_route(self):
        a, b = PauliSum.from_label("XZ", 1e300), PauliSum.from_label("ZZ", 1e300)
        for route in (sum_commutator, pairs_commutator):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                route(a, b)

    def test_never_reads_terms(self, monkeypatch):
        a = PauliSum.from_labels(3, [("XYZ", 0.5), ("ZZI", -1j), ("IIX", 2.0)])
        b = PauliSum.from_labels(3, [("ZZI", 1j), ("YII", 0.25), ("IIZ", 1.0 - 2j)])
        expected = pairs_commutator(a, b), pairs_commutator(b, a)

        def refuse(self):
            raise AssertionError("sum_commutator read PauliSum.terms")

        monkeypatch.setattr(PauliSum, "terms", property(refuse))
        assert same_bytes(sum_commutator(a, b), expected[0]) and same_bytes(sum_commutator(b, a), expected[1])
        assert len(expected[0]) == 3
        assert pauli_commutator(P("XY"), P("ZX")) == PauliSum.zero(2) and len(pauli_commutator(P("XY"), P("ZY"))) == 1

    def test_symmetrized_pair(self):
        a = PauliSum.from_labels(2, [("XI", 1), ("IX", 1)])
        b = PauliSum.from_labels(2, [("ZI", 1), ("IZ", 1)])
        c = sum_commutator(a, b)
        expected = PauliSum.from_labels(2, [("YI", -2j), ("IY", -2j)])
        assert c == expected
        # dense-oracle route
        oracle = dense_sum([("XI", 1), ("IX", 1)]) @ dense_sum([("ZI", 1), ("IZ", 1)])
        oracle = oracle - dense_sum([("ZI", 1), ("IZ", 1)]) @ dense_sum([("XI", 1), ("IX", 1)])
        assert fro(sum_to_matrix(c) - oracle) < 1e-12

    def test_self_commutator_empty(self):
        s = PauliSum.from_labels(2, [("XY", 0.5), ("ZI", -2.0)])
        assert len(sum_commutator(s, s)) == 0

    def test_xx_zz_commute(self):
        a, b = PauliSum.from_label("XX"), PauliSum.from_label("ZZ")
        assert len(sum_commutator(a, b)) == 0
        oracle = dense_label("XX") @ dense_label("ZZ") - dense_label("ZZ") @ dense_label("XX")
        assert fro(oracle) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), *(
        st.lists(st.tuples(st.text("IXYZ", min_size=n, max_size=n),
                           st.complex_numbers(max_magnitude=2.0)), min_size=1, max_size=6)
        for _ in range(2)))))
    def test_matches_dense_commutator(self, case):
        n, a_pairs, b_pairs = case
        a, b = PauliSum.from_labels(n, a_pairs), PauliSum.from_labels(n, b_pairs)

        def dense(s):  # terms below 1e-12 are dropped, so the bound allows 36 of them
            return dense_sum([(p.to_label(), coeff) for p, coeff in s.terms] or [("I" * n, 0)])

        am, bm = dense(a), dense(b)
        assert fro(dense(sum_commutator(a, b)) - (am @ bm - bm @ am)) < 1e-9

    def test_antisymmetry(self):
        a = PauliSum.from_labels(2, [("XI", 0.7), ("YZ", 1.0)])
        b = PauliSum.from_labels(2, [("ZI", -0.2), ("XY", 3.0)])
        assert sum_commutator(a, b) == (-1.0) * sum_commutator(b, a)


class TestMatrices:
    def test_single_letters(self):
        assert np.array_equal(pauli_to_matrix(P("X")), np.array([[0, 1], [1, 0]]))
        assert np.array_equal(pauli_to_matrix(P("Y")), np.array([[0, -1j], [1j, 0]]))
        assert np.array_equal(pauli_to_matrix(P("Z")), np.array([[1, 0], [0, -1]]))

    def test_phase_prefactor(self):
        assert np.array_equal(pauli_to_matrix(P("Z", phase_exp=1)), 1j * dense_label("Z"))

    def test_xi_plus_ix(self):
        m = sum_to_matrix(PauliSum.from_labels(2, [("XI", 1), ("IX", 1)]))
        expected = np.zeros((4, 4))
        for i, j in [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (2, 0), (1, 3), (3, 1)]:
            expected[i, j] = 1
        assert np.array_equal(m, expected)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            pauli_to_matrix(PauliString(11, 0, 0))
        with pytest.raises(CapacityError):
            sum_to_matrix(PauliSum(11, ((PauliString(11, 1, 0), 1.0),)))

    @given(pauli_strings)
    @settings(max_examples=50, deadline=None)
    def test_matrix_matches_oracle(self, p):
        phase = (1, 1j, -1, -1j)[p.phase_exp]
        assert np.array_equal(pauli_to_matrix(p), phase * dense_label(p.to_label()))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_string_and_phase_matches_oracle(self, n):
        for x in range(1 << n):
            for z in range(1 << n):
                for k, phase in enumerate((1, 1j, -1, -1j)):
                    p = PauliString(n, x, z, k)
                    oracle = phase * dense_label(p.to_label())
                    assert np.array_equal(sum_to_matrix(PauliSum(n, ((p, 1.0),))), oracle)
                    assert np.array_equal(pauli_to_matrix(p), oracle)

    def test_weighted_sum_matches_oracle_exactly(self):
        # Same terms added in the same order: every entry is bit-identical.
        n = 6
        rng = np.random.default_rng(6)
        keys = rng.choice(4 ** n, size=300, replace=False)
        s = PauliSum(n, tuple((PauliString(n, int(k) % (1 << n), int(k) >> n),
                               complex(*rng.normal(size=2))) for k in keys))
        oracle = dense_sum([(p.to_label(), c) for p, c in s.terms])
        assert np.array_equal(sum_to_matrix(s), oracle)


class TestSerialization:
    def test_term_lines(self):
        s = PauliSum.from_labels(2, [("XI", 1.5), ("IX", -0.25j)])
        text = s.to_text()
        assert text.splitlines() == ["(0,-0.25) IX", "(1.5,0) XI"]
        assert PauliSum.from_text(text) == s

    def test_one_line_form(self):
        s = PauliSum.from_labels(2, [("XY", 1.0), ("YX", 1.0)])
        assert PauliSum.from_line(s.to_line()) == s

    def test_seventeen_digit_round_trip(self):
        c = 0.1234567890123456789
        s = PauliSum.from_labels(1, [("X", c)])
        assert coefficient(PauliSum.from_text(s.to_text()), P("X")).real == c

    def test_special_coefficients_match_per_term_format(self):
        # A PauliSum holds neither -0.0 nor a non-finite value, so the formatter gets the arrays as given.
        nan, inf = float("nan"), float("inf")
        coeffs = np.array([complex(-0.0, 0.0), 0j, complex(0.0, -0.0), complex(nan, -0.0), complex(inf, -inf),
                           0.1 + 2j, complex(-3e-300, 1e300), 1 / 3, complex(-0.0, nan)])
        x, z = np.arange(9, dtype=np.int64), np.full(9, 5, dtype=np.int64)
        expected = [f"({c.real:.17g},{c.imag:.17g}) {PauliString(4, xm, zm).to_label()}"
                    for xm, zm, c in zip(x.tolist(), z.tolist(), coeffs.tolist())]
        assert expected[:5] == ["(-0,0) IZIZ", "(0,0) IZIY", "(0,-0) IZXZ", "(nan,-0) IZXY", "(inf,-inf) IYIZ"]
        assert paulis._sum_texts(4, x, z, coeffs, (0, 9), "\n") == ["\n".join(expected)]
        assert paulis._sum_texts(4, x, z, coeffs, (0, 9), " + ") == [" + ".join(expected)]

    def test_blocks_of_sums_match_per_sum_lines(self, monkeypatch):
        # Blocks of up to three terms hold whole sums, up to four of them; a longer sum is alone.
        monkeypatch.setattr(paulis, "_TEXT_BLOCK", 3)
        rng = np.random.default_rng(5)
        sums = [PauliSum(3, [(PauliString(3, int(k) & 7, int(k) >> 3), complex(*rng.integers(-2, 3, 2)))
                             for k in rng.choice(64, size=size, replace=False)])
                for size in (1, 5, 2, 1, 0, 0, 1, 3, 0, 4, 1, 1, 1)]
        expected = [" + ".join(f"({c.real:.17g},{c.imag:.17g}) {p.to_label()}" for p, c in s.terms)
                    for s in sums]
        x, z, coeffs = (np.concatenate([getattr(s, name) for s in sums]) for name in ("x", "z", "coeffs"))
        assert paulis._sum_texts(3, x, z, coeffs, np.cumsum([0] + [len(s) for s in sums]), " + ") == expected

    def test_labels_above_62_qubits(self):
        label = "XY" + "I" * 66 + "ZX"
        s = PauliSum.from_labels(70, [(label, 0.5), (label[::-1], -1)])
        assert s.x.dtype == object
        assert s.to_text().splitlines() == [f"(-1,0) {label[::-1]}", f"(0.5,0) {label}"]

    def test_malformed_text(self):
        with pytest.raises(ValueError):
            PauliSum.from_text("(1,0) XQ")
        with pytest.raises(ValueError):
            PauliSum.from_text("1.0 * XI")
        with pytest.raises(ValueError):
            PauliSum.from_text("")


def xor_span(masks) -> set:
    """Every XOR of a subset of the masks, by closure: the oracle for the
    elimination in paulis._flip_cosets."""
    span = {0}
    for x in masks:
        span |= {s ^ x for s in span}
    return span


@st.composite
def flip_sums(draw):
    """Random sums on n <= 7 qubits whose x masks span anything from {0} to all
    of GF(2)^n: x masks drawn from a few generators, odd Y counts included."""
    n = draw(st.integers(1, 7))
    gens = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 1))
    count = draw(st.integers(1, 6))
    terms = []
    for _ in range(count):
        x = 0
        for g in gens:
            if draw(st.booleans()):
                x ^= g
        z = draw(st.integers(0, (1 << n) - 1))
        terms.append((PauliString(n, x, z), draw(st.floats(-2, 2).filter(lambda c: abs(c) > 0.1))))
    return PauliSum(n, terms)


class TestFlipCosets:
    """The realization of a sum vanishes between the cosets of its x-mask span."""

    @given(flip_sums())
    @settings(max_examples=120, deadline=None)
    @example(PauliSum.from_labels(5, [("ZZIZI", 0.7), ("IIZZZ", -1.2)]))  # x = 0: 32 blocks
    @example(PauliSum.from_labels(4, [("IIII", 0.5), ("YZIX", 1.1), ("IYYI", 0.3)]))  # identity term, odd Y
    @example(PauliSum.from_labels(6, [(f"{'I' * (5 - q)}X{'I' * q}", 1.0) for q in range(6)]))  # full rank
    @example(PauliSum.zero(3))
    def test_cosets_partition_the_states(self, s):
        cosets = paulis._flip_cosets(s)
        span = xor_span(s.x.tolist())
        assert cosets.shape == ((1 << s.n) // len(span), len(span))
        assert np.array_equal(np.sort(cosets, axis=None), np.arange(1 << s.n))
        for row in cosets.tolist():
            assert set(row) == {row[0] ^ v for v in span}
        same = np.zeros((1 << s.n,) * 2, dtype=bool)
        same[cosets[:, :, None], cosets[:, None, :]] = True
        assert not np.any(sum_to_matrix(s)[~same])
