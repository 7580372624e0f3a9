"""Command-line interface: outputs, exit codes, determinism."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symsu import (
    Circuit,
    build_basis,
    circuit_to_matrix,
    exp_generator,
    PauliString,
    PauliSum,
    QubitPermutation,
    load_group,
    matrix_from_pairs,
    matrix_to_pairs,
    preset_group,
    save_matrix,
    symmetrize,
    synthesize_pauli_exponential,
)
from symsu import cli, symmetry, unitary_ops
from symsu.cli import main

from conftest import dense_label, fro


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_rejected(capsys, *argv):
    """Exit 2, nothing on stdout, and a one-line error on stderr."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestBasisCommand:
    def test_two_qubit_listing(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "2", "--symmetry", "full_swap")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 10
        assert lines[-1] == "dim 9"
        assert "(1,0) IX + (1,0) XI" in lines

    def test_single_qubit_trivial(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "1", "--symmetry", "trivial")
        assert code == 0
        assert out.strip().splitlines() == ["(1,0) X", "(1,0) Z", "(1,0) Y", "dim 3"]

    def test_three_qubit_dim(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "3", "--symmetry", "full_swap")
        assert code == 0 and out.strip().endswith("dim 19")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "2", "--symmetry", "full_swap",
                           "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["dimension"] == 9 and len(data["elements"]) == 9

    @pytest.mark.parametrize("preset, n", [("dihedral", 4), ("full_swap", 5), ("trivial", 2)])
    def test_text_and_json_match_per_term_forms(self, capsys, preset, n):
        basis = build_basis(n, preset_group(preset, n))
        lines = [" + ".join(f"({c.real:.17g},{c.imag:.17g}) {p.to_label()}" for p, c in e.terms)
                 for e in basis.elements]
        _, out, _ = run(capsys, "basis", "--n", str(n), "--symmetry", preset)
        assert out == "\n".join(lines + [f"dim {len(basis)}"]) + "\n"
        data = {"n": n, "group": preset, "dimension": len(basis),
                "elements": [[[c.real, c.imag, p.to_label()] for p, c in e.terms] for e in basis.elements]}
        _, out, _ = run(capsys, "basis", "--n", str(n), "--symmetry", preset, "--format", "json")
        assert out == json.dumps(data, indent=2) + "\n"

    @staticmethod
    def old_json(basis) -> str:
        """The JSON listing as json.dumps(indent=2) of one [1.0, 0.0, label] list per term."""
        labels = [PauliString(basis.n, x, z).to_label() for x, z in zip(basis.x.tolist(), basis.z.tolist())]
        bounds = basis.offsets.tolist()
        return json.dumps({"n": basis.n, "group": basis.group.name, "dimension": len(basis),
                           "elements": [[[1.0, 0.0, label] for label in labels[lo:hi]]
                                        for lo, hi in zip(bounds, bounds[1:])]}, indent=2) + "\n"

    @pytest.mark.parametrize("preset", sorted(symmetry.PRESETS))
    def test_json_matches_json_dumps(self, capsys, preset):
        for n in range(1, 6):
            _, out, _ = run(capsys, "basis", "--n", str(n), "--symmetry", preset, "--format", "json")
            # Compared as line lists, which pytest explains without a slow full-text diff.
            assert out.split("\n") == self.old_json(build_basis(n, preset_group(preset, n))).split("\n")

    def test_spec_file_json_matches_json_dumps(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 4, "generators": [{"perm": [1, 2, 0, 3]}, {"perm": [0, 1, 3, 2]}]}))
        _, out, _ = run(capsys, "basis", "--symmetry", str(spec), "--format", "json")
        assert out.split("\n") == self.old_json(build_basis(4, load_group(spec))).split("\n")

    def test_elements_parse_back(self, capsys):
        _, out, _ = run(capsys, "basis", "--n", "2", "--symmetry", "full_swap")
        for line in out.strip().splitlines()[:-1]:
            assert len(PauliSum.from_line(line)) >= 1

    def test_zero_qubits_rejected(self, capsys):
        assert_rejected(capsys, "basis", "--n", "0", "--symmetry", "full_swap")

    def test_spec_with_zero_qubits_rejected(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 0, "generators": []}))
        err = assert_rejected(capsys, "basis", "--symmetry", str(spec))
        assert "symmetry spec 'n' must be at least 1, got 0" in err

    def test_spec_with_negative_qubits_rejected(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": -2, "generators": []}))
        err = assert_rejected(capsys, "basis", "--symmetry", str(spec))
        assert "symmetry spec 'n' must be at least 1, got -2" in err

    @pytest.mark.parametrize("spec", [
        {"n": 2, "generators": [5]},
        {"n": 2, "generators": [{"perm": 5}]},
        {"n": 2, "generators": None},
        {"n": 2, "generators": [{"unitary": 3}]},
        {"n": 2, "generators": [{"unitary": [[1, 0], [0, 1]]}]},
        {"n": 2.7, "generators": []},
    ])
    def test_malformed_spec_rejected(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert_rejected(capsys, "basis", "--symmetry", str(path))

    def test_full_swap_eight_qubits(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "8", "--symmetry", "full_swap")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 165 and lines[-1] == "dim 164"
        assert sum(line.count(" + ") + 1 for line in lines[:-1]) == 4 ** 8 - 1


    # SHA-256 of the stdout of `basis`, pinned from the PauliSum-per-element
    # formatter that the array form replaced.
    GOLDEN = {
        ("full_swap", 8, "text"): "01fc294302c3f2e2d4d3644bfb1f6b29333238cf22f7310e8c053c8d337ae199",
        ("cyclic", 8, "text"): "ef9da36344ab974fa25f9085b857fa571131c34b44fb39e8b9ee4d65bd5fbe70",
        ("dihedral", 8, "text"): "c3ea4add07316d7aeba883bf7b96b93ea1561bae6b83edf21cbea9b95c5ee6a1",
        ("cyclic", 5, "json"): "f4246c05c46df13e346da8d9f9212fca00592d83b5f0f49ed1a5addf1853ca21",
        ("full_swap", 4, "json"): "3eb1161a7f6528ae342a4c3485473bb4ee143834f14428e0670a91f6e1696827",
    }

    @pytest.mark.parametrize("preset, n, fmt", list(GOLDEN))
    def test_golden_bytes(self, capsys, preset, n, fmt):
        code, out, _ = run(capsys, "basis", "--n", str(n), "--symmetry", preset, "--format", fmt)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[preset, n, fmt]

    def test_text_builds_no_pauli_sum(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("basis text built a PauliSum")

        monkeypatch.setattr(PauliSum, "_canonical", refuse)
        code, out, _ = run(capsys, "basis", "--n", "8", "--symmetry", "cyclic")
        assert code == 0 and out.endswith("\ndim 8229\n")

    def test_nine_qubits(self, capsys):
        code, out, _ = run(capsys, "basis", "--n", "9", "--symmetry", "full_swap")
        assert code == 0 and out.endswith("\ndim 219\n")

    def test_past_the_cap_rejected(self, capsys):
        err = assert_rejected(capsys, "basis", "--n", "11", "--symmetry", "full_swap")
        assert "cap of 10 qubits" in err


class TestDimCommand:
    def test_swap_table(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "1,2,3,4,5", "--symmetry", "full_swap",
                           "--no-header")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "n,group,dimension"
        assert [r.split(",")[2] for r in rows[1:]] == ["3", "9", "19", "34", "55"]

    def test_header_has_timestamp_comment(self, capsys):
        _, out, err = run(capsys, "dim", "--n", "2", "--symmetry", "cyclic")
        assert err.splitlines()[0].startswith("# symsu dim ")
        assert out == "n,group,dimension\n2,cyclic,9\n"  # stdout does not change with the clock

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "dim", "--n", "two", "--symmetry", "full_swap")
        assert code == 2 and "error" in err

    def test_zero_qubits_rejected(self, capsys):
        assert_rejected(capsys, "dim", "--n", "0", "--symmetry", "full_swap")

    def test_negative_qubits_rejected(self, capsys):
        assert_rejected(capsys, "dim", "--n", "-1", "--symmetry", "full_swap")

    def test_full_swap_eight_qubits(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "8", "--symmetry", "full_swap", "--no-header")
        assert code == 0 and out.splitlines() == ["n,group,dimension", "8,full_swap,164"]

    def test_full_swap_past_the_listing_cap(self, capsys):
        code, out, _ = run(capsys, "dim", "--n", "9,10", "--symmetry", "full_swap", "--no-header")
        assert code == 0 and out.splitlines() == ["n,group,dimension", "9,full_swap,219", "10,full_swap,285"]

    def test_full_swap_nine_qubits_names_the_bound(self, capsys, tmp_path):
        # S_9 from (0 1) and the 9-cycle is no preset's generator list, so it is listed
        path = tmp_path / "s9.json"
        path.write_text(json.dumps({"n": 9, "generators": [
            {"perm": [1, 0, 2, 3, 4, 5, 6, 7, 8]}, {"perm": [(i + 1) % 9 for i in range(9)]}]}))
        err = assert_rejected(capsys, "dim", "--n", "9", "--symmetry", str(path))
        assert "exceeded the cap of 40320 elements" in err

    def test_preset_qubit_cap(self, capsys, monkeypatch, tmp_path):
        code, out, _ = run(capsys, "dim", "--n", "1024", "--symmetry", "cyclic", "--no-header")
        assert code == 0 and out.splitlines()[1].startswith("1024,cyclic,")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n": 1024, "generators": []}))
        code, out, _ = run(capsys, "dim", "--n", "1024", "--symmetry", str(spec), "--no-header")
        assert code == 0 and out.splitlines()[1] == f"1024,custom,{4 ** 1024 - 1}"
        for generators in ([], [{"perm": list(range(1, 1025)) + [0]}]):  # explicit lists share the cap
            spec.write_text(json.dumps({"n": 1025, "generators": generators}))
            err = assert_rejected(capsys, "dim", "--n", "1025", "--symmetry", str(spec))
            assert "symmetry spec on 1025 qubits exceeds the cap of 1024 qubits" in err
        built = []
        for name in symmetry.PRESETS:
            monkeypatch.setitem(symmetry.PRESETS, name, built.append)
        for command in ("dim", "basis", "random", "verify"):
            for name in ("full_swap", "cyclic"):
                err = assert_rejected(capsys, command, "--n", "1025", "--symmetry", name)
                assert "exceeds the cap of 1024 qubits" in err
        assert built == []

    def test_infinite_raw_group_names_the_bound(self, capsys, tmp_path):
        rz = [[[1, 0], [0, 0]], [[0, 0], [np.cos(1.0), np.sin(1.0)]]]
        path = tmp_path / "rz.json"
        path.write_text(json.dumps({"n": 1, "generators": [{"unitary": rz}]}))
        err = assert_rejected(capsys, "dim", "--n", "1", "--symmetry", str(path))
        assert "qubit-permutation groups only; group has 1 raw unitary generator(s)" in err
        # diag(1, e^i) never closes; dim refuses it unclosed, path sweeps the
        # generator, check lists the elements and names the cap
        diag = tmp_path / "diag.json"
        save_matrix(diag, np.diag([1.0, np.exp(0.4j)]))
        code, out, _ = run(capsys, "path", str(diag), "--symmetry", str(path),
                           "--samples", "2", "--no-header")
        rows = out.strip().splitlines()[1:]
        assert code == 0 and len(rows) == 3 and all(float(row.split(",")[1]) < 1e-12 for row in rows)
        err = assert_rejected(capsys, "check", str(diag), "--symmetry", str(path))
        assert "exceeded the cap of 10000 elements" in err


class TestCheckCommand:
    def test_invariant_file(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        code, _, _ = run(capsys, "random", "--n", "2", "--symmetry", "full_swap",
                         "--seed", "5", "--depth", "6", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "check", str(path), "--symmetry", "full_swap")
        assert code == 0 and "invariant" in out

    def test_non_invariant_matrix(self, capsys, tmp_path):
        path = tmp_path / "xi.json"
        save_matrix(path, dense_label("XI"))
        code, out, _ = run(capsys, "check", str(path), "--symmetry", "full_swap")
        assert code == 1
        assert "not invariant" in out
        assert "2.8284271247461903" in out

    def test_identity_matrix(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        save_matrix(path, np.eye(4))
        code, out, _ = run(capsys, "check", str(path), "--symmetry", "full_swap")
        assert code == 0 and " 0" in out

    def test_non_unitary_warns_but_reports(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, 0.5 * np.eye(4))
        code, out, err = run(capsys, "check", str(path), "--symmetry", "full_swap")
        assert code == 0  # scalar matrices still commute with everything
        assert "warning" in err

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "xi.json"
        save_matrix(path, dense_label("XI"))
        code, out, _ = run(capsys, "check", str(path), "--symmetry", "full_swap",
                           "--format", "json")
        data = json.loads(out)
        assert code == 1 and data["invariant"] is False
        assert data["max_defect"] == pytest.approx(2 * np.sqrt(2))
        assert isinstance(data["wall_s"], float) and data["wall_s"] >= 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tmp_path, tol):
        path = tmp_path / "eye.json"
        save_matrix(path, np.eye(4))
        err = assert_rejected(capsys, "check", str(path), "--symmetry", "full_swap", "--tol", tol)
        assert "--tol must be a positive finite number" in err

    @pytest.mark.parametrize("raw", [False, True])
    def test_labels_are_the_element_labels(self, capsys, tmp_path, raw):
        # permutation groups label their image rows directly; the labels and
        # their order are those of group.elements
        spec = {"n": 3, "generators": [{"perm": [1, 2, 0]}, {"perm": [1, 0, 2]}]}
        if raw:
            spec["generators"].append({"unitary": matrix_to_pairs(np.diag([1.0, 1, 1, 1, 1, 1, 1, -1]))})
        spec_path, path = tmp_path / "spec.json", tmp_path / "xi.json"
        spec_path.write_text(json.dumps(spec))
        save_matrix(path, dense_label("XII"))
        code, out, _ = run(capsys, "check", str(path), "--symmetry", str(spec_path))
        expected = ["perm" + str(list(e.image)).replace(" ", "") if isinstance(e, QubitPermutation)
                    else "unitary(dim=8)" for e in load_group(spec_path).elements]
        assert code == 1 and [line.split()[1] for line in out.splitlines()[:-1]] == expected
        assert len(expected) == (12 if raw else 6) and any(lab.startswith("unitary") for lab in expected) == raw
        _, out, _ = run(capsys, "check", str(path), "--symmetry", str(spec_path), "--format", "json")
        assert [d["element"] for d in json.loads(out)["defects"]] == expected

    def test_text_format_has_no_wall_time(self, capsys, tmp_path):
        # the wall time is JSON-only, so the default output stays byte-stable
        path = tmp_path / "xi.json"
        save_matrix(path, dense_label("XI"))
        outs = [run(capsys, "check", str(path), "--symmetry", "full_swap")[1] for _ in range(2)]
        assert outs[0] == outs[1] and "wall" not in outs[0]


class TestMatrixFileInput:
    """`check` and `path` take the qubit count from the matrix file."""

    @pytest.mark.parametrize("command", ["check", "path"])
    def test_non_finite_matrix_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "nan.json"
        save_matrix(path, np.full((2, 2), np.nan))
        err = assert_rejected(capsys, command, str(path), "--symmetry", "trivial")
        assert "finite" in err

    def test_non_finite_raw_generator_rejected(self, capsys, tmp_path):
        spec = tmp_path / "nan_spec.json"
        spec.write_text(json.dumps({"n": 1, "generators": [{"unitary": [[[np.nan, 0], [0, 0]],
                                                                        [[0, 0], [1, 0]]]}]}))
        path = tmp_path / "eye.json"
        save_matrix(path, np.eye(2))
        err = assert_rejected(capsys, "check", str(path), "--symmetry", str(spec))
        assert "finite" in err

    @pytest.mark.parametrize("command", ["check", "path"])
    def test_one_by_one_matrix_names_its_dimension(self, capsys, tmp_path, command):
        path = tmp_path / "scalar.json"
        save_matrix(path, np.eye(1))
        err = assert_rejected(capsys, command, str(path), "--symmetry", "trivial")
        assert "matrix dimension 1" in err and "--n" not in err

    @pytest.mark.parametrize("command", ["check", "path"])
    def test_spec_size_mismatch_names_the_matrix(self, capsys, tmp_path, command):
        spec = tmp_path / "swap.json"
        spec.write_text(json.dumps({"n": 2, "generators": [{"perm": [1, 0]}]}))
        path = tmp_path / "eye.json"
        save_matrix(path, np.eye(2))
        err = assert_rejected(capsys, command, str(path), "--symmetry", str(spec))
        assert "symmetry file is for n=2, but the matrix is 2x2 (n=1)" in err and "--n" not in err


class TestPathCommand:
    def test_identity_input(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        save_matrix(path, np.eye(4))
        code, out, _ = run(capsys, "path", str(path), "--symmetry", "full_swap",
                           "--samples", "4", "--no-header")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "t,invariance_defect,unitarity_residual"
        assert len(rows) == 6
        assert all(float(r.split(",")[1]) == 0 for r in rows[1:])

    def test_header_goes_to_stderr(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        save_matrix(path, np.eye(4))
        argv = ("path", str(path), "--symmetry", "full_swap", "--samples", "2")
        _, out, err = run(capsys, *argv)
        assert err.startswith("# symsu path ") and err.count("\n") == 1
        assert (out, "") == run(capsys, *argv, "--no-header")[1:]

    def test_random_invariant_stays_invariant(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        run(capsys, "random", "--n", "2", "--symmetry", "full_swap",
            "--seed", "7", "--out", str(path))
        code, out, _ = run(capsys, "path", str(path), "--symmetry", "full_swap",
                           "--samples", "10", "--no-header")
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            assert float(row.split(",")[1]) < 1e-8

    def test_first_row_is_identity_defect(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        run(capsys, "random", "--n", "2", "--symmetry", "full_swap",
            "--seed", "3", "--out", str(path))
        code, out, _ = run(capsys, "path", str(path), "--symmetry", "full_swap",
                           "--samples", "5", "--no-header")
        first = out.strip().splitlines()[1].split(",")
        assert float(first[0]) == 0 and float(first[1]) < 1e-12

    def test_non_unitary_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        save_matrix(path, 0.5 * np.eye(4))
        code, _, err = run(capsys, "path", str(path), "--symmetry", "full_swap")
        assert code == 2 and "error" in err

    def test_endpoint_defect_matches_check(self, capsys, tmp_path):
        # a non-invariant unitary: path at t=1 reports the same defect as check
        path = tmp_path / "u.json"
        save_matrix(path, exp_generator(PauliSum.from_labels(2, [("XI", 1)]), 0.3).matrix)
        _, check_out, _ = run(capsys, "check", str(path), "--symmetry", "full_swap")
        verdict = check_out.strip().splitlines()[-1].split()
        check_defect = float(verdict[verdict.index("max_defect") + 1])
        code, path_out, _ = run(capsys, "path", str(path), "--symmetry", "full_swap",
                                "--samples", "4", "--no-header")
        assert code == 0
        end_defect = float(path_out.strip().splitlines()[-1].split(",")[1])
        assert end_defect == pytest.approx(check_defect, abs=1e-12)

    def test_zero_samples_rejected(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        save_matrix(path, np.eye(4))
        assert_rejected(capsys, "path", str(path), "--symmetry", "full_swap", "--samples", "0")

    def test_negative_samples_rejected(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        save_matrix(path, np.eye(4))
        assert_rejected(capsys, "path", str(path), "--symmetry", "full_swap", "--samples", "-2")

    def test_full_swap_nine_qubits_sweeps_the_generators(self, capsys, tmp_path):
        # path reads the 8 transpositions only; check lists all 9! elements and refuses
        group = preset_group("full_swap", 9)
        h = (0.7 * symmetrize(PauliString.from_label("XZ" + "I" * 7), group)
             + 0.3 * symmetrize(PauliString.from_label("YY" + "I" * 7), group))
        path = tmp_path / "u9.json"
        save_matrix(path, exp_generator(h, 1.1).matrix)
        code, out, _ = run(capsys, "path", str(path), "--symmetry", "full_swap",
                           "--samples", "2", "--no-header")
        rows = out.strip().splitlines()[1:]
        assert code == 0 and len(rows) == 3
        assert all(float(row.split(",")[1]) < 1e-8 for row in rows)
        err = assert_rejected(capsys, "check", str(path), "--symmetry", "full_swap")
        assert "exceeded the cap of 40320 elements" in err


class TestSynthCommand:
    def test_single_string(self, capsys):
        code, out, _ = run(capsys, "synth", "--pauli", "Z", "--alpha", "0.5")
        assert code == 0
        assert out.strip().splitlines() == ["QUBITS 1", "RZ 0 0.5"]

    def test_three_letter_string(self, capsys):
        code, out, _ = run(capsys, "synth", "--pauli", "XZY", "--alpha", "0.7")
        assert code == 0
        circuit = Circuit.from_text(out)
        exact = exp_generator(PauliSum.from_label("XZY"), 0.7)
        assert fro(circuit_to_matrix(circuit).matrix - exact.matrix) < 1e-10

    def test_seventy_letter_string(self, capsys):
        # Wider than an int64 mask: the sum's Python-int masks give the
        # same circuit as the string itself.
        label = "XYZIZYXXIYZZIXYIIZXY" * 3 + "XYZIZYXXIY"
        code, out, _ = run(capsys, "synth", "--pauli", label, "--alpha", "0.3")
        assert code == 0
        assert out == synthesize_pauli_exponential(PauliString.from_label(label), 0.3).to_text() + "\n"
        circuit = Circuit.from_text(out)
        weight = 70 - label.count("I")
        assert circuit.n == 70 and circuit.count("CNOT") == 2 * (weight - 1)
        rz, = [g for g in circuit.gates if g.kind == "RZ"]
        assert rz.qubits == (69 - min(label.index(ch) for ch in "XYZ"),)

    def test_circuit_parses_and_matches(self, capsys, tmp_path):
        sum_path = tmp_path / "sum.txt"
        s = PauliSum.from_labels(2, [("XX", 1.0), ("YY", 1.0)])
        sum_path.write_text(s.to_text())
        code, out, _ = run(capsys, "synth", "--sum-file", str(sum_path), "--alpha", "0.9")
        assert code == 0
        circuit = Circuit.from_text(out)
        assert fro(circuit_to_matrix(circuit).matrix - exp_generator(s, 0.9).matrix) < 1e-9

    def test_refusal_exit_code(self, capsys, tmp_path):
        sum_path = tmp_path / "sum.txt"
        s = PauliSum.from_labels(3, [("XZI", 1.0), ("ZIX", 1.0)])
        sum_path.write_text(s.to_text())
        code, _, err = run(capsys, "synth", "--sum-file", str(sum_path), "--alpha", "0.9")
        assert code == 1 and "refused" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "synth", "--alpha", "0.5")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_non_finite_angle_rejected(self, capsys, tmp_path, alpha):
        err = assert_rejected(capsys, "synth", "--pauli", "XX", f"--alpha={alpha}")
        assert f"angle alpha must be finite, got {alpha}" in err
        sum_path = tmp_path / "zero.txt"  # no term survives, so no gate carries the angle
        sum_path.write_text("(0,0) XX\n")
        err = assert_rejected(capsys, "synth", "--sum-file", str(sum_path), f"--alpha={alpha}")
        assert f"angle alpha must be finite, got {alpha}" in err

    @pytest.mark.parametrize("text", ["(1,0) XZ\n(nan,0) ZX\n", "(inf,0) XZ\n", "(1,0) XZ\n(0,-inf) XZ\n"])
    def test_non_finite_coefficient_rejected(self, capsys, tmp_path, text):
        sum_path = tmp_path / "sum.txt"
        sum_path.write_text(text)
        err = assert_rejected(capsys, "synth", "--sum-file", str(sum_path), "--alpha", "0.5")
        assert "coefficients must be finite" in err


class TestRandomCommand:
    def test_output_is_invariant_unitary(self, capsys, tmp_path):
        path = tmp_path / "u.json"
        code, _, _ = run(capsys, "random", "--n", "2", "--symmetry", "full_swap",
                         "--seed", "9", "--depth", "8", "--out", str(path))
        assert code == 0
        m = matrix_from_pairs(json.loads(path.read_text()))
        assert fro(m @ m.conj().T - np.eye(4)) < 1e-12

    def test_determinism_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "random", "--n", "2", "--symmetry", "full_swap",
            "--seed", "4", "--out", str(a))
        run(capsys, "random", "--n", "2", "--symmetry", "full_swap",
            "--seed", "4", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_negative_depth_rejected(self, capsys):
        assert_rejected(capsys, "random", "--n", "2", "--symmetry", "full_swap", "--depth", "-1")

    def test_negative_seed_rejected(self, capsys):
        err = assert_rejected(capsys, "random", "--n", "2", "--symmetry", "full_swap", "--seed", "-1")
        assert "--seed must be at least 0, got -1" in err

    def test_stdout_and_file_are_one_dump_of_the_pairs(self, capsys, tmp_path):
        # the matrix is written a row at a time; the bytes are one json.dumps and a newline
        path = tmp_path / "sub" / "u.json"
        argv = ["random", "--n", "3", "--symmetry", "cyclic", "--seed", "2", "--depth", "3"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and run(capsys, *argv, "--out", str(path))[0] == 0
        m = matrix_from_pairs(json.loads(out))
        assert out == path.read_text(encoding="utf-8") == json.dumps(matrix_to_pairs(m)) + "\n"

    def test_nine_qubits(self, capsys, tmp_path):
        path = tmp_path / "u9.json"
        code, _, _ = run(capsys, "random", "--n", "9", "--symmetry", "full_swap", "--depth", "1",
                         "--out", str(path))
        assert code == 0 and path.read_text().startswith("[[[")  # 512 rows of [re, im] pairs


class TestVerifyCommand:
    # stdout of each case, byte for byte, as recorded before the sample loops ran on stacks.
    GOLDEN = json.loads((Path(__file__).parent / "verify_stdout.json").read_text(encoding="utf-8"))

    @pytest.mark.parametrize("argv", list(GOLDEN))
    def test_stdout_matches_the_recorded_bytes(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0 and out == self.GOLDEN[argv]

    def test_two_qubit_swap_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--symmetry", "full_swap",
                           "--pairs", "10", "--paths", "3")
        assert code == 0
        assert out.count("PASS") == 4
        assert "all suites passed" in out

    def test_single_qubit_trivial_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "1", "--symmetry", "trivial",
                           "--pairs", "5", "--paths", "2")
        assert code == 0 and out.count("PASS") == 4

    def test_square_group_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "4", "--symmetry", "dihedral",
                           "--pairs", "3", "--paths", "2", "--depth", "4")
        assert code == 0 and out.count("PASS") == 4

    def test_six_qubit_full_swap_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6", "--symmetry", "full_swap",
                           "--pairs", "5", "--paths", "2")
        assert code == 0 and out.count("PASS") == 4
        assert out.splitlines()[-1] == "verify: all suites passed"

    def test_zero_sample_suites_skipped(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--symmetry", "full_swap",
                           "--pairs", "0", "--paths", "0")
        verdicts = {line.split()[0]: line.split()[1] for line in out.splitlines()[:-1]}
        assert code == 0
        assert verdicts == {"composition": "SKIP", "closure": "PASS",
                            "exp_invariance": "PASS", "path": "SKIP"}
        assert out.splitlines()[-1] == (
            "verify: no failures; skipped with no samples: composition, path")

    def test_depth_zero_draws_no_samples(self, capsys):
        # At depth 0 every drawn unitary is the identity: the two suites that draw report no samples.
        code, out, _ = run(capsys, "verify", "--n", "3", "--symmetry", "full_swap",
                           "--pairs", "3", "--paths", "2", "--depth", "0")
        lines = out.splitlines()
        verdicts = {line.split()[0]: line.split()[1] for line in lines[:-1]}
        assert code == 0
        assert verdicts == {"composition": "SKIP", "closure": "PASS", "exp_invariance": "PASS", "path": "SKIP"}
        assert lines[0] == "composition     SKIP  pairs=3 max_defect=0.000e+00 tol=3.0e-10"
        assert lines[3] == "path            SKIP  paths=2 max_defect=0.000e+00 tol=1.0e-08"
        assert lines[-1] == "verify: no failures; skipped with no samples: composition, path"

    def test_failures_reported(self, capsys):
        # Float error of about 1e-14 fails a 1e-300 tolerance; closure's exact zero passes, and
        # the path suite keeps its own 1e-8 bound.
        code, out, _ = run(capsys, "verify", "--n", "3", "--symmetry", "full_swap", "--tol", "1e-300",
                           "--pairs", "2", "--paths", "1")
        verdicts = {line.split()[0]: line.split()[1] for line in out.splitlines()[:-1]}
        assert code == 1
        assert verdicts == {"composition": "FAIL", "closure": "PASS", "exp_invariance": "FAIL", "path": "PASS"}
        assert out.splitlines()[-1] == "verify: FAILURES present"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, tol):
        err = assert_rejected(capsys, "verify", "--n", "2", "--symmetry", "full_swap", "--tol", tol)
        assert "--tol must be a positive finite number" in err

    def test_negative_seed_rejected(self, capsys):
        err = assert_rejected(capsys, "verify", "--n", "2", "--symmetry", "full_swap", "--seed", "-1")
        assert "--seed must be at least 0, got -1" in err

    def test_each_element_realized_once_per_command(self, capsys, monkeypatch):
        # The eigenpairs kept for each basis element die with the command's
        # basis: a second identical command realizes every element again.  An element is realized
        # alone by sum_to_matrix, or in a stack of `count` by _realize.
        realized = []
        to_matrix, realize = unitary_ops.sum_to_matrix, unitary_ops._realize
        monkeypatch.setattr(unitary_ops, "sum_to_matrix", lambda s: realized.append(1) or to_matrix(s))
        monkeypatch.setattr(unitary_ops, "_realize", lambda *a: realized.append(a[-1]) or realize(*a))
        dim = len(build_basis(5, preset_group("dihedral", 5)))
        argv = ("verify", "--n", "5", "--symmetry", "dihedral")
        for command in (1, 2):
            assert run(capsys, *argv)[0] == 0
            assert sum(realized) == command * dim == command * 135


class TestParserReuse:
    """One parser serves every main call in a process; no call leaves state for the next."""

    DIM = ("dim", "--n", "2,3", "--symmetry", "cyclic", "--no-header")

    def test_command_looked_up_at_call_time(self, capsys, monkeypatch):
        # Spans and spies rebind cli.cmd_* after the parser is built; the rebound function must run.
        code, out, _ = run(capsys, *self.DIM)
        calls = []
        original = cli.cmd_dim
        monkeypatch.setattr(cli, "cmd_dim", lambda args: calls.append(args.n) or original(args))
        assert run(capsys, *self.DIM) == (code, out, "") and calls == ["2,3"]
        assert cli._build_parser() is cli._build_parser()

    def test_format_default_restored(self, capsys):
        argv = ("basis", "--n", "2", "--symmetry", "full_swap")
        assert run(capsys, *argv, "--format", "json")[1].startswith("{")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.splitlines()[-1] == "dim 9"

    def test_usage_error_then_valid_command(self, capsys):
        for argv in (["basis", "--n"], ["dim", "--symmetry", "cyclic"], ["nope"], []):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2 and capsys.readouterr().out == ""
            assert run(capsys, *self.DIM) == (0, "n,group,dimension\n2,cyclic,9\n3,cyclic,23\n", "")

    def test_help_text_stable(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        cli._build_parser.cache_clear()  # the first help below comes from a new parser

        def helps():
            texts = []
            for argv in (["--help"], *([command, "--help"] for command in
                                       ("basis", "dim", "check", "path", "synth", "random", "verify"))):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 0
                texts.append(capsys.readouterr().out)
            return texts

        first = helps()
        run(capsys, "basis", "--n", "2", "--symmetry", "full_swap", "--format", "json")
        run(capsys, "verify", "--n", "2", "--symmetry", "full_swap", "--tol", "-1")
        assert helps() == first and all(text.startswith("usage: symsu") for text in first)

    @pytest.mark.parametrize("command", ["check", "path"])
    def test_matrix_commands_see_no_n(self, capsys, monkeypatch, tmp_path, command):
        path = tmp_path / "u.json"
        assert run(capsys, "random", "--n", "2", "--symmetry", "full_swap", "--out", str(path))[0] == 0
        seen = []
        original = getattr(cli, "cmd_" + command)
        monkeypatch.setattr(cli, "cmd_" + command, lambda args: seen.append(args.n) or original(args))
        assert run(capsys, "basis", "--n", "3", "--symmetry", "full_swap")[0] == 0
        assert run(capsys, command, str(path), "--symmetry", "full_swap")[0] == 0
        assert seen == [None]


class TestMiscellaneous:
    def test_unknown_symmetry_exit_two(self, capsys):
        code, _, err = run(capsys, "basis", "--n", "2", "--symmetry", "nope")
        assert code == 2 and "error" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, _ = run(capsys, "check", "/nonexistent.json", "--symmetry", "full_swap")
        assert code == 2

    def test_preset_needs_n(self, capsys):
        code, _, err = run(capsys, "basis", "--symmetry", "full_swap")
        assert code == 2 and "needs --n" in err

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SYMSU_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "random", "--n", "1", "--symmetry", "trivial",
                         "--out", "sub/u.json")
        assert code == 0
        assert (tmp_path / "sub" / "u.json").exists()

    def test_symmetry_file_used_by_basis(self, capsys, tmp_path):
        spec = tmp_path / "square.json"
        spec.write_text(json.dumps(
            {"n": 4, "generators": [{"perm": [1, 2, 3, 0]}, {"perm": [0, 3, 2, 1]}]}
        ))
        code, out, _ = run(capsys, "basis", "--symmetry", str(spec))
        assert code == 0 and out.strip().endswith("dim 54")

    def test_public_names(self):
        import symsu

        assert len(symsu.__all__) == 49 and {"pauli_orbit", "PRESETS", "SymsuError"} <= set(symsu.__all__)
        assert not any(inspect.ismodule(getattr(symsu, name)) for name in symsu.__all__)

    def test_module_entry_point(self):
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "symsu", "dim", "--n", "2", "--symmetry",
             "full_swap", "--no-header"],
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().splitlines()[-1] == "2,full_swap,9"
