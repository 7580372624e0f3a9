"""The invariant set behaves like a group and is path-connected.

Numerically exercises three structural facts about symmetry-invariant
unitaries: products stay invariant, exponentials of symmetrized
generators are invariant, and every invariant unitary is joined to the
identity by a path that stays invariant the whole way.  Each defect is
the worst over the group's generators, as is_invariant measures it: an
element that is a word of k generators has a defect of at most k times it.
"""

import numpy as np

from symsu import (
    build_basis,
    compose,
    connectedness_path,
    eig_unitary,
    exp_generator,
    is_invariant,
    preset_group,
    project_to_su,
    random_invariant,
)

n = 3
group = preset_group("full_swap", n)
basis = build_basis(n, group)

print("products of invariant unitaries stay invariant")
worst = 0.0
for seed in range(20):
    u1 = random_invariant(n, group, seed=seed, depth=5, basis=basis)
    u2 = random_invariant(n, group, seed=100 + seed, depth=5, basis=basis)
    _, defect = is_invariant(compose(u1, u2).matrix, group, 1e-9)
    worst = max(worst, defect)
print(f"  20 products, worst defect {worst:.3e}")

print("\nexponentials of symmetrized generators are invariant (all basis elements)")
worst = 0.0
for element in basis.elements:
    _, defect = is_invariant(exp_generator(element, 0.7).matrix, group, 1e-9)
    worst = max(worst, defect)
print(f"  {len(basis)} exponentials, worst defect {worst:.3e}")

print("\nthe eigenphase path from the identity to a random invariant unitary")
u = random_invariant(n, group, seed=7, depth=6, basis=basis)
dec = eig_unitary(u)
print(f"  eigenphase clusters: {[stop - start for start, stop in dec.clusters]}")
print("  t      defect        |A(t)A(t)+ - 1|")
for t in np.linspace(0, 1, 6):
    point = connectedness_path(u, float(t))
    _, defect = is_invariant(point.matrix, group, 1e-8)
    print(f"  {t:.1f}  {defect:.3e}    {point.unitarity_residual:.3e}")
print(f"  endpoint error |A(1) - A| = {np.linalg.norm(connectedness_path(u, 1.0).matrix - u.matrix):.3e}")

print("\nrescaling onto determinant one does not move the defect")
phased = project_to_su(u)
print(f"  |det - 1| after projection: {abs(np.linalg.det(phased.matrix) - 1):.3e}")
