"""Gate-level synthesis of Pauli exponentials and circuit evaluation."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from symsu import (
    Circuit,
    Gate,
    PauliString,
    PauliSum,
    ProductFormulaError,
    build_basis,
    circuit_to_matrix,
    exp_generator,
    is_invariant,
    preset_group,
    symmetrize,
    synthesize_pauli_exponential,
    synthesize_sum_exponential,
    two_pauli_condition,
)
from symsu import paulis
from symsu.circuits import H_MATRIX, SDG_MATRIX, S_MATRIX, rz_matrix

from conftest import dense_label, dense_sum, fro, orbit_terms_commute, string_product, weight


def P(label):
    return PauliString.from_label(label)


def term_sum(label, coeff=1.0):
    return PauliSum.from_labels(len(label), [(label, coeff)])


def test_y_axis_conjugation_identity():
    # the basis-change convention: (H S+) Y (H S+)+ = Z
    v = H_MATRIX @ SDG_MATRIX
    assert fro(v @ dense_label("Y") @ v.conj().T - dense_label("Z")) < 1e-15


class TestGateAndCircuitTypes:
    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("CNOT", (1, 1))
        with pytest.raises(ValueError):
            Gate("H", (0, 1))
        with pytest.raises(ValueError):
            Gate("H", (0,), angle=0.3)
        with pytest.raises(ValueError):
            Gate("RZ", (0,))
        with pytest.raises(ValueError):
            Gate("T", (0,))

    def test_circuit_index_range(self):
        with pytest.raises(ValueError):
            Circuit(1, (Gate("H", (1,)),))

    def test_text_round_trip(self):
        c = Circuit(3, (Gate("H", (0,)), Gate("SDG", (2,)), Gate("CNOT", (0, 1)),
                        Gate("RZ", (1,), 0.7853981633974483), Gate("S", (2,))))
        text = c.to_text()
        assert text.splitlines()[0] == "QUBITS 3"
        assert "RZ 1 0.78539816339744828" in text
        assert Circuit.from_text(text) == c

    def test_malformed_text(self):
        with pytest.raises(ValueError):
            Circuit.from_text("H 0")  # missing header
        with pytest.raises(ValueError):
            Circuit.from_text("QUBITS 2\nCNOT 0")
        with pytest.raises(ValueError):
            Circuit.from_text("QUBITS 2\nRX 0 0.5")

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(ValueError, match=f"RZ angle must be finite, got {angle}"):
            Circuit.from_text(f"QUBITS 1\nRZ 0 {angle}")
        with pytest.raises(ValueError, match="RZ angle must be finite"):
            Gate("RZ", (0,), float(angle))


class TestTwoPauliCondition:
    def test_xx_plus_yy(self):
        s = PauliSum.from_labels(2, [("XX", 1), ("YY", 1)])
        assert two_pauli_condition(s)

    def test_xy_plus_yx(self):
        s = PauliSum.from_labels(2, [("XY", 1), ("YX", 1)])
        assert two_pauli_condition(s)

    def test_three_letter_symmetrization(self, s3):
        assert not two_pauli_condition(symmetrize(P("XYZ"), s3))

    def test_single_letter(self):
        assert two_pauli_condition(term_sum("XXI"))

    def test_two_letters_with_identity(self, s3):
        # the letter count ignores identities, so this still passes
        assert two_pauli_condition(symmetrize(P("XZI"), s3))


class TestSinglePauliExponential:
    def test_z_is_one_rz(self):
        c = synthesize_pauli_exponential(P("Z"), 0.4)
        assert [g.to_text() for g in c.gates] == ["RZ 0 0.40000000000000002"]

    def test_x_is_h_rz_h(self):
        c = synthesize_pauli_exponential(P("X"), 0.4)
        assert [g.kind for g in c.gates] == ["H", "RZ", "H"]
        oracle = expm(-0.2j * dense_label("X"))
        assert fro(circuit_to_matrix(c).matrix - oracle) < 1e-12

    def test_zz_ladder_structure(self):
        c = synthesize_pauli_exponential(P("ZZ"), 0.9)
        kinds = [(g.kind, g.qubits) for g in c.gates]
        assert kinds == [("CNOT", (0, 1)), ("RZ", (1,)), ("CNOT", (0, 1))]
        oracle = expm(-0.45j * dense_label("ZZ"))
        assert fro(circuit_to_matrix(c).matrix - oracle) < 1e-12

    def test_phaseful_string_rejected(self):
        with pytest.raises(ValueError):
            synthesize_pauli_exponential(PauliString.from_label("Z", phase_exp=1), 0.4)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            synthesize_pauli_exponential(P("III"), 0.4)

    def test_gate_counts(self):
        rng = np.random.default_rng(0)
        for label in ("XY", "XZY", "YYXZ", "ZIYX", "IYZI"):
            c = synthesize_pauli_exponential(P(label), float(rng.uniform(0, 2 * np.pi)))
            w = weight(P(label))
            assert c.count("CNOT") == 2 * (w - 1)
            assert c.count("RZ") == 1
            basis_changes = c.count("H") + c.count("S") + c.count("SDG")
            assert basis_changes <= 4 * w  # at most two per side per active qubit

    def test_round_trip_random_strings(self):
        rng = np.random.default_rng(17)
        labels = ["X", "Y", "ZX", "YY", "XYZ", "ZIZ", "YXIZ", "IXYI", "YYYY"]
        for label in labels:
            for alpha in rng.uniform(0, 2 * np.pi, size=20):
                c = synthesize_pauli_exponential(P(label), float(alpha))
                u = exp_generator(term_sum(label), float(alpha))
                assert fro(circuit_to_matrix(c).matrix - u.matrix) < 1e-10


class TestSumExponential:
    def test_single_letter_orbit_factorizes(self):
        alpha = 0.7
        s = PauliSum.from_labels(2, [("XI", 1), ("IX", 1)])
        c = synthesize_sum_exponential(s, alpha)
        co, si = np.cos(alpha / 2), np.sin(alpha / 2)
        rx = np.array([[co, -1j * si], [-1j * si, co]])
        assert fro(circuit_to_matrix(c).matrix - np.kron(rx, rx)) < 1e-12

    def test_xx_plus_yy(self):
        alpha = 1.3
        s = PauliSum.from_labels(2, [("XX", 1), ("YY", 1)])
        c = synthesize_sum_exponential(s, alpha)
        oracle = expm(-0.5j * alpha * dense_sum([("XX", 1), ("YY", 1)]))
        assert fro(circuit_to_matrix(c).matrix - oracle) < 1e-9

    def test_coefficients_scale_angles(self):
        s = PauliSum.from_labels(2, [("ZI", 0.5), ("IZ", -2.0)])
        c = synthesize_sum_exponential(s, 0.8)
        angles = sorted(g.angle for g in c.gates if g.kind == "RZ")
        assert angles == [pytest.approx(-1.6), pytest.approx(0.4)]

    def test_commuting_three_letter_sum_compiles(self):
        # XYZ and ZYX differ on two anticommuting wires, so they commute
        s = PauliSum.from_labels(3, [("XYZ", 1.0), ("ZYX", 1.0)])
        c = synthesize_sum_exponential(s, 0.7)
        assert fro(circuit_to_matrix(c).matrix - exp_generator(s, 0.7).matrix) < 1e-10

    def test_three_letter_element_refused(self, s3):
        with pytest.raises(ProductFormulaError):
            synthesize_sum_exponential(symmetrize(P("XYZ"), s3), 0.3)

    def test_noncommuting_two_letter_orbit_refused(self, s3):
        with pytest.raises(ProductFormulaError):
            synthesize_sum_exponential(symmetrize(P("XZI"), s3), 0.3)

    def test_noncommuting_free_sum_refused(self):
        s = PauliSum.from_labels(1, [("X", 1), ("Z", 1)])
        with pytest.raises(ProductFormulaError):
            synthesize_sum_exponential(s, 0.3)

    @pytest.mark.parametrize("block", [1, 2, 1 << 16])
    def test_refusal_names_first_pair_in_combinations_order(self, block, monkeypatch):
        # Canonical order IXX, XII, IZZ, ZII: IXX commutes with all three and XII
        # with IZZ, so the first anticommuting pair is (1, 3), in the second row.
        monkeypatch.setattr(paulis, "_PAIR_BLOCK", block)  # pairs per block: 1 or 2 rows, or all
        s = PauliSum.from_labels(3, [("ZII", 1.0), ("IZZ", 0.5), ("XII", -1.0), ("IXX", 2.0)])
        assert [p.to_label() for p, _ in s.terms] == ["IXX", "XII", "IZZ", "ZII"]
        with pytest.raises(ProductFormulaError, match=r"\(XII and ZII anticommute\)$"):
            synthesize_sum_exponential(s, 0.3)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
                             .filter(any), min_size=1, max_size=8, unique=True),
        st.sampled_from([1, 3, 1 << 16]))))
    def test_refusal_matches_combinations_oracle(self, case):
        # The letter-matrix oracle decides each pair, in itertools.combinations order.
        n, keys, block = case
        s = PauliSum(n, [(PauliString(n, x, z), 1.0) for x, z in keys])
        keys = [(p.x_mask, p.z_mask) for p, _ in s.terms]
        first = next(((a, b) for a, b in itertools.combinations(keys, 2)
                      if string_product(n, a, b)[0] != string_product(n, b, a)[0]), None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(paulis, "_PAIR_BLOCK", block)
            if first is None:
                assert len(synthesize_sum_exponential(s, 0.3)) > 0
            else:
                a, b = (PauliString(n, *k).to_label() for k in first)
                with pytest.raises(ProductFormulaError, match=rf"\({a} and {b} anticommute\)$"):
                    synthesize_sum_exponential(s, 0.3)

    def test_refusal_memory_is_bounded(self):
        # The 2520-term full_swap n=8 element of two X, two Y, two Z and two I
        # letters: a whole term-by-term int64 array would hold 50 MB.
        basis = build_basis(8, preset_group("full_swap", 8))
        element = next(e for e in basis.elements if len(e) == 2520)
        tracemalloc.start()
        try:
            with pytest.raises(ProductFormulaError):
                synthesize_sum_exponential(element, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_complex_coefficients_rejected(self):
        s = PauliSum.from_labels(2, [("XX", 1j)])
        with pytest.raises(ValueError):
            synthesize_sum_exponential(s, 0.3)

    def test_empty_sum_gives_empty_circuit(self):
        c = synthesize_sum_exponential(PauliSum.zero(2), 0.3)
        assert len(c) == 0
        assert fro(circuit_to_matrix(c).matrix - np.eye(4)) == 0

    def test_identity_term_rejected(self):
        s = PauliSum.from_labels(2, [("II", 1.0), ("XX", 1.0)])
        with pytest.raises(ValueError):
            synthesize_sum_exponential(s, 0.3)

    def test_refusal_is_sound(self, s3):
        # the concatenation really does miss the exponential here
        s = symmetrize(P("XZI"), s3)
        alpha = 0.7
        product = np.eye(8, dtype=complex)
        for p, c in s.terms:
            block = circuit_to_matrix(synthesize_pauli_exponential(p, alpha * c.real))
            product = block.matrix @ product
        exact = exp_generator(s, alpha)
        assert fro(product - exact.matrix) > 0.1

    def test_compiled_basis_elements_invariant(self):
        for n in (2, 3):
            group = preset_group("full_swap", n)
            basis = build_basis(n, group)
            for e in basis.elements:
                rep = min(p.to_label() for p, _ in e.terms)
                if not orbit_terms_commute(rep):
                    with pytest.raises(ProductFormulaError):
                        synthesize_sum_exponential(e, 0.9)
                    continue
                c = synthesize_sum_exponential(e, 0.9)
                u = circuit_to_matrix(c)
                assert fro(u.matrix - exp_generator(e, 0.9).matrix) < 1e-9
                flag, _ = is_invariant(u.matrix, group, 1e-9)
                assert flag


class TestCircuitToMatrix:
    def test_empty_circuit(self):
        assert fro(circuit_to_matrix(Circuit(2, ())).matrix - np.eye(4)) == 0

    def test_cnot_matrix(self):
        c = Circuit(2, (Gate("CNOT", (0, 1)),))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[2, 2] = 1  # control bit 0 clear
        expected[3, 1] = expected[1, 3] = 1  # control bit 0 set flips bit 1
        assert np.array_equal(circuit_to_matrix(c).matrix, expected)

    def test_h_rz_h_closed_form(self):
        alpha = 0.6
        c = Circuit(1, (Gate("H", (0,)), Gate("RZ", (0,), alpha), Gate("H", (0,))))
        co, si = np.cos(alpha / 2), np.sin(alpha / 2)
        expected = np.array([[co, -1j * si], [-1j * si, co]])
        assert fro(circuit_to_matrix(c).matrix - expected) < 1e-12

    def test_gate_order_is_left_first(self):
        c = Circuit(1, (Gate("H", (0,)), Gate("S", (0,))))
        assert fro(circuit_to_matrix(c).matrix - S_MATRIX @ H_MATRIX) < 1e-15

    def test_rz_convention(self):
        assert fro(rz_matrix(0.5) - expm(-0.25j * dense_label("Z"))) < 1e-15
