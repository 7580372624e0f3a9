"""Compiling invariant generators into CNOT-ladder circuits.

A single Pauli exponential becomes basis changes + a CNOT chain + one RZ.
A symmetrized sum becomes the concatenation of its term circuits, which
is exact precisely when the terms commute; the synthesizer checks that
and refuses otherwise instead of emitting a wrong circuit.
"""

import numpy as np

from symsu import (
    PauliString,
    PauliSum,
    ProductFormulaError,
    build_basis,
    circuit_to_matrix,
    exp_generator,
    is_invariant,
    preset_group,
    synthesize_pauli_exponential,
    sum_commutator,
    synthesize_sum_exponential,
    two_pauli_condition,
)

print("one string: exp(-i a/2 * YZX) as a gate list")
circuit = synthesize_pauli_exponential(PauliString.from_label("YZX"), 0.8)
print(circuit.to_text())
u = circuit_to_matrix(circuit)
exact = exp_generator(PauliSum.from_label("YZX"), 0.8)
print(f"round-trip error: {np.linalg.norm(u.matrix - exact.matrix):.3e}")

print("\ncompiling the invariant basis of three interchangeable wires")
group = preset_group("full_swap", 3)
basis = build_basis(3, group)
for element in basis.elements:
    rep = min(p.to_label() for p, _ in element.terms)
    try:
        c = synthesize_sum_exponential(element, 0.8)
    except ProductFormulaError as exc:
        kind = ("two letters mixed with identity" if two_pauli_condition(element)
                else "three distinct letters")
        print(f"  orbit {rep}: {kind}, refused: {exc}")
        continue
    mismatch = np.linalg.norm(circuit_to_matrix(c).matrix - exp_generator(element, 0.8).matrix)
    flag, _ = is_invariant(circuit_to_matrix(c).matrix, group, 1e-9)
    print(f"  orbit {rep}: {c.count('CNOT')} CNOTs, {c.count('RZ')} RZs, "
          f"error {mismatch:.1e}, invariant={flag}")

print("\nwhy the identity-mixed orbits refuse: a concrete anticommuting pair")
a, b = "XZI", "ZIX"
print(f"  [{a}, {b}] = {sum_commutator(PauliSum.from_label(a), PauliSum.from_label(b))}")
