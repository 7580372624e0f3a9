"""Pauli strings, products, commutators, and their dense realizations.

Pauli strings are stored as bit masks with an exact i-power, so all the
algebra below is symbolic; matrices only appear at the end for checking.
"""

import numpy as np

from symsu import (
    PauliString,
    PauliSum,
    pauli_multiply,
    sum_commutator,
    sum_to_matrix,
)

X = PauliString.from_label("X")
Y = PauliString.from_label("Y")
Z = PauliString.from_label("Z")

print("single-qubit products")
print("  X * Y =", pauli_multiply(X, Y))
print("  Y * X =", pauli_multiply(Y, X))
print("  X * X =", pauli_multiply(X, X))

print("\ncommutators")
for a, b in (("X", "Y"), ("X", "X"), ("XX", "YY")):
    print(f"  [{a}, {b}] =", sum_commutator(PauliSum.from_label(a), PauliSum.from_label(b)))

print("\nsums canonicalize: phases fold into coefficients, duplicates merge")
s = PauliSum(1, ((X, 1.0), (X, 1.0), (PauliString.from_label("Z", phase_exp=2), 1.0)))
print("  X + X + (i^2)Z =", s)

print("\nbilinear commutator of symmetrized sums")
a = PauliSum.from_labels(2, [("XI", 1), ("IX", 1)])
b = PauliSum.from_labels(2, [("ZI", 1), ("IZ", 1)])
c = sum_commutator(a, b)
print("  [XI+IX, ZI+IZ] =", c)

print("\nthe symbolic result matches the dense matrices")
am, bm = sum_to_matrix(a), sum_to_matrix(b)
print("  |realized - (AB - BA)| =", np.linalg.norm(sum_to_matrix(c) - (am @ bm - bm @ am)))

print("\ndense realization of Y, for reference")
print(sum_to_matrix(PauliSum.from_label("Y")))
