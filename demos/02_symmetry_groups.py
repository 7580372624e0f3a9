"""Symmetry groups on qubits and the invariance condition S U S+ = U.

Builds the two-wire swap, the symmetry group of a square of four wires
(from the shipped JSON spec), and measures invariance defects of a few
matrices.
"""

import json
from importlib.resources import files

import numpy as np

from symsu import (
    PauliSum,
    QubitPermutation,
    exp_generator,
    group_from_spec,
    is_invariant,
    preset_group,
    symmetry_defect,
)

print("the swap of two wires as a matrix")
swap01 = QubitPermutation.transposition(2, 0, 1)
print(swap01.to_matrix().real)

print("\nfull_swap preset closes the adjacent transpositions into the symmetric group")
for n in (2, 3, 4):
    print(f"  n={n}: |S_{n}| = {len(preset_group('full_swap', n))}")

print("\nthe square of four wires: rotation + reflection close to 8 elements,")
print("each listed by its wire images (qubit i goes to wire image[i])")
spec = json.loads(files("symsu").joinpath("data/square_dihedral.json").read_text())
square = group_from_spec(spec)
for el in square.elements:
    print("  ", list(el.image))

print("\ninvariance under exchange of two wires")
s2 = preset_group("full_swap", 2)
balanced = exp_generator(PauliSum.from_labels(2, [("XI", 1), ("IX", 1)]), 0.3)
lopsided = exp_generator(PauliSum.from_labels(2, [("XI", 1)]), 0.3)
for name, u in (("exp(-i 0.3/2 (XI+IX))", balanced), ("exp(-i 0.3/2 XI)", lopsided)):
    flag, defect = is_invariant(u.matrix, s2, 1e-10)
    print(f"  {name}: invariant={flag} max_defect={defect:.3e}")

print("\nper-element defects of the lopsided rotation")
for el in s2.elements:
    print(f"  {list(el.image)}: {symmetry_defect(lopsided.matrix, el):.6f}")
