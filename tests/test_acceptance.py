"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Criteria 6 and 7 assert the exact commutation boundary of the full_swap
basis for n <= 4 (65 elements).  The terms of an orbit commute pairwise
iff its representative has one distinct non-identity letter, or two
letters and no identity; `orbit_terms_commute` in conftest.py predicts
this from letter counts alone.  Orbits that mix two letters with an
identity (IXZ, ...) and all three-letter orbits contain anticommuting
pairs; criterion 7 prints one such pair per orbit.  Criterion 6 compiles
every commuting element and checks the round trip, and expects every
other element to be refused, each refusal shown sound because the
concatenated term circuits miss the exponential of the sum.
"""

import subprocess
import sys
import time

import numpy as np

from symsu import (
    ProductFormulaError,
    build_basis,
    burnside_dimension,
    circuit_to_matrix,
    closure_report,
    compose,
    connectedness_path,
    exp_generator,
    is_invariant,
    pauli_commutator,
    preset_group,
    project_to_su,
    random_invariant,
    sum_to_matrix,
    symmetry_defect,
    synthesize_pauli_exponential,
    synthesize_sum_exponential,
)
from symsu.symmetry import _defects

from conftest import orbit_terms_commute, weight


def _full_sweep(m, group) -> float:
    """Worst defect over every group element, the oracle for `is_invariant`,
    which checks the generators only: the sweep `symsu check` prints."""
    return float(_defects(m, group).max())


def _line(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {num} [{name}]: {status}{suffix}")


SWAP_DIMS = {1: 3, 2: 9, 3: 19, 4: 34, 5: 55}

# full_swap orbits over two letters and at least one identity, n = 3 then 4
IDENTITY_MIXED_ORBITS = sorted([
    "IXY", "IXZ", "IYZ",
    "IIXY", "IXXY", "IXYY", "IIXZ", "IXXZ", "IXZZ", "IIYZ", "IYYZ", "IYZZ",
])


def test_criterion_1_dimension_table():
    started = time.perf_counter()
    failures = []
    table = []
    for n, expected in SWAP_DIMS.items():
        table.append(("full_swap", n, expected))
    table.append(("dihedral", 4, None))
    for n in (1, 2, 3):
        table.append(("trivial", n, 4 ** n - 1))
    for n, expected in ((3, 23), (4, 69), (5, 207)):
        table.append(("cyclic", n, expected))
    for preset, n, expected in table:
        group = preset_group(preset, n)
        enumerated = len(build_basis(n, group))
        counted = burnside_dimension(n, group)
        if enumerated != counted:
            failures.append(f"{preset} n={n}: enumeration {enumerated} != count {counted}")
        if expected is not None and enumerated != expected:
            failures.append(f"{preset} n={n}: got {enumerated}, expected {expected}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    _line(1, "dimension table", not failures, f"{len(table)} rows, {elapsed:.2f}s")
    assert not failures, failures


def test_criterion_2_basis_invariance_exhaustive():
    failures = []
    combos = [("full_swap", n) for n in (1, 2, 3, 4)]
    combos += [("dihedral", 4), ("trivial", 1), ("trivial", 2), ("trivial", 3),
               ("cyclic", 3), ("cyclic", 4)]
    checked = 0
    for preset, n in combos:
        group = preset_group(preset, n)
        basis = build_basis(n, group)
        for idx, element in enumerate(basis.elements):
            m = sum_to_matrix(element)
            for el in group.elements:
                checked += 1
                defect = symmetry_defect(m, el)
                if defect >= 1e-12:
                    failures.append(f"{preset} n={n} element {idx}: defect {defect:.3e}")
    _line(2, "basis invariance", not failures, f"{checked} defects checked")
    assert not failures, failures[:10]


def test_criterion_3_closure():
    started = time.perf_counter()
    failures = []
    for n, expected_pairs in ((2, 36), (3, 171)):
        group = preset_group("full_swap", n)
        report = closure_report(build_basis(n, group), tol=1e-10)
        if report.pair_count != expected_pairs:
            failures.append(f"n={n}: {report.pair_count} pairs, expected {expected_pairs}")
        if not report.passed:
            failures.append(
                f"n={n}: max residual {report.max_residual:.3e} at pair {report.worst_pair}"
            )
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 10s")
    _line(3, "commutator closure", not failures, f"207 pairs, {elapsed:.2f}s")
    assert not failures, failures


def test_criterion_4_composition():
    tol = 1e-10
    failures = 0
    pair_plan = [(1, 67), (2, 67), (3, 66)]
    total = 0
    for n, pairs in pair_plan:
        group = preset_group("full_swap", n)
        basis = build_basis(n, group)
        for k in range(pairs):
            total += 1
            u1 = random_invariant(n, group, seed=2 * k, depth=6, basis=basis)
            u2 = random_invariant(n, group, seed=2 * k + 1, depth=6, basis=basis)
            product = compose(u1, u2).matrix
            ok1, _ = is_invariant(u1.matrix, group, tol)
            ok2, _ = is_invariant(u2.matrix, group, tol)
            ok, _ = is_invariant(product, group, 3 * tol)
            swept = (_full_sweep(u1.matrix, group) < tol and _full_sweep(u2.matrix, group) < tol
                     and _full_sweep(product, group) < 3 * tol)
            if not (ok1 and ok2 and ok and swept):
                failures += 1
    _line(4, "composition", failures == 0, f"{total} pairs, {failures} failures")
    assert failures == 0


def test_criterion_5_connectedness_path():
    failures = []
    plan = [(1, 34), (2, 33), (3, 33)]
    grid = np.linspace(0.0, 1.0, 11)
    total = 0
    for n, count in plan:
        group = preset_group("full_swap", n)
        basis = build_basis(n, group)
        eye = np.eye(1 << n)
        for k in range(count):
            total += 1
            u = random_invariant(n, group, seed=5000 + k, depth=6, basis=basis)
            start = np.linalg.norm(connectedness_path(u, 0.0).matrix - eye)
            end = np.linalg.norm(connectedness_path(u, 1.0).matrix - u.matrix)
            if start >= 1e-9 or end >= 1e-9:
                failures.append(f"n={n} seed={5000 + k}: endpoints {start:.2e}, {end:.2e}")
            for t in grid:
                point = connectedness_path(u, float(t)).matrix
                ok, defect = is_invariant(point, group, 1e-8)
                swept = _full_sweep(point, group)
                if not ok or swept >= 1e-8:
                    failures.append(f"n={n} seed={5000 + k} t={t:.1f}: defect {defect:.2e}, "
                                    f"full sweep {swept:.2e}")
            projected = project_to_su(u)
            det_err = abs(np.linalg.det(projected.matrix) - 1)
            _, before = is_invariant(u.matrix, group, 1e-8)
            _, after = is_invariant(projected.matrix, group, 1e-8)
            if det_err >= 1e-10:
                failures.append(f"n={n} seed={5000 + k}: |det-1| {det_err:.2e}")
            for b, a in ((before, after), (_full_sweep(u.matrix, group), _full_sweep(projected.matrix, group))):
                if abs(b - a) >= 1e-12:
                    failures.append(f"n={n} seed={5000 + k}: defect changed {abs(b - a):.2e}")
    _line(5, "connectedness path", not failures, f"{total} unitaries, 11-point grid")
    assert not failures, failures[:10]


def _concatenated_terms(element, alpha: float) -> np.ndarray:
    """Product of the term circuits, the would-be product formula."""
    product = np.eye(1 << element.n, dtype=complex)
    for p, c in element.terms:
        block = circuit_to_matrix(synthesize_pauli_exponential(p, alpha * c.real))
        product = block.matrix @ product
    return product


def test_criterion_6_circuit_round_trip():
    failures = []
    compiled_elements = 0
    compiled = 0
    refused_three_letter = 0
    refused_identity_mixed = []
    min_gap = np.inf
    rng = np.random.default_rng(99)
    for n in (1, 2, 3, 4):
        group = preset_group("full_swap", n)
        basis = build_basis(n, group)
        for element in basis.elements:
            rep = min(p.to_label() for p, _ in element.terms)
            if not orbit_terms_commute(rep):
                try:
                    synthesize_sum_exponential(element, 0.7)
                except ProductFormulaError:
                    pass
                else:
                    failures.append(f"n={n} {rep}: non-commuting element was not refused")
                    continue
                if len(set(rep) - {"I"}) == 3:
                    refused_three_letter += 1
                else:
                    refused_identity_mixed.append(rep)
                gap = np.linalg.norm(_concatenated_terms(element, 0.7)
                                     - exp_generator(element, 0.7).matrix)
                min_gap = min(min_gap, gap)
                if gap <= 0.1:
                    failures.append(f"n={n} {rep}: refusal unsound, concatenation "
                                    f"misses the exponential by only {gap:.3e}")
                continue
            compiled_elements += 1
            for alpha in rng.uniform(0.0, 2.0 * np.pi, size=3):
                try:
                    circuit = synthesize_sum_exponential(element, float(alpha))
                except ProductFormulaError as exc:
                    failures.append(f"n={n} {rep}: commuting element refused ({exc})")
                    break
                compiled += 1
                u = circuit_to_matrix(circuit)
                mismatch = np.linalg.norm(u.matrix - exp_generator(element, float(alpha)).matrix)
                if mismatch >= 1e-9:
                    failures.append(f"n={n} {rep}: round-trip mismatch {mismatch:.3e}")
                ok, _ = is_invariant(u.matrix, group, 1e-9)
                if not ok or _full_sweep(u.matrix, group) >= 1e-9:
                    failures.append(f"n={n} {rep}: compiled circuit not invariant")
                expected_cnots = sum(2 * (weight(p) - 1) for p, _ in element.terms)
                if circuit.count("CNOT") != expected_cnots:
                    failures.append(f"n={n} {rep}: CNOT count {circuit.count('CNOT')}"
                                    f" != {expected_cnots}")
    if (compiled, compiled_elements) != (144, 48):
        failures.append(f"{compiled} circuits from {compiled_elements} elements, "
                        "expected 144 from 48")
    if refused_three_letter != 5:
        failures.append(f"{refused_three_letter} three-letter refusals, expected 5")
    if sorted(refused_identity_mixed) != IDENTITY_MIXED_ORBITS:
        failures.append(f"identity-mixed refusals {refused_identity_mixed}, "
                        f"expected {IDENTITY_MIXED_ORBITS}")
    _line(6, "circuit round trip", not failures,
          f"{compiled} circuits from {compiled_elements} elements, "
          f"{refused_three_letter} three-letter and {len(refused_identity_mixed)} "
          f"identity-mixed refusals, concatenation off by >= {min_gap:.2f}")
    assert not failures, failures


def test_criterion_7_commutation_mechanism():
    failures = []
    elements = 0
    pairs_checked = 0
    witnesses = []
    for n in (1, 2, 3, 4):
        group = preset_group("full_swap", n)
        basis = build_basis(n, group)
        for element in basis.elements:
            elements += 1
            members = [p for p, _ in element.terms]
            rep = min(p.to_label() for p in members)
            witness = None
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    pairs_checked += 1
                    if witness is None and len(pauli_commutator(members[i], members[j])) != 0:
                        witness = f"[{members[i].to_label()}, {members[j].to_label()}] != 0"
            predicted = orbit_terms_commute(rep)
            if predicted and witness is not None:
                failures.append(f"n={n} orbit of {rep}: predicted to commute, but {witness}")
            elif not predicted and witness is None:
                failures.append(f"n={n} orbit of {rep}: predicted not to commute, "
                                "but all pairs commute")
            elif witness is not None:
                witnesses.append(f"{rep}: {witness}")
    if elements != 65:
        failures.append(f"{elements} elements, expected 65")
    _line(7, "commutation mechanism", not failures,
          f"{elements} elements, {pairs_checked} orbit pairs, "
          f"{len(witnesses)} non-commuting: " + "; ".join(witnesses))
    assert not failures, failures


def test_criterion_8_verify_command():
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "symsu", "verify", "--n", "2", "--symmetry", "full_swap"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - started
    ok = proc.returncode == 0 and elapsed < 60.0
    _line(8, "verify command", ok, f"exit {proc.returncode}, {elapsed:.1f}s")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
