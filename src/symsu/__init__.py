"""Symmetry-restricted subalgebras of su(2^n).

Build the invariant subalgebra of a finite qubit symmetry group by orbit
symmetrization of Pauli strings, check the invariance condition
S U S+ = U numerically, walk the eigenphase path connecting any invariant
unitary to the identity, and compile invariant generators into CNOT-ladder
circuits.
"""

from .basis import (
    ClosureReport,
    InvariantBasis,
    build_basis,
    burnside_dimension,
    closure_report,
    in_span,
    pauli_orbit,
    symmetrize,
)
from .circuits import (
    Circuit,
    Gate,
    circuit_to_matrix,
    synthesize_pauli_exponential,
    synthesize_sum_exponential,
    two_pauli_condition,
)
from .errors import (
    CapacityError,
    DimensionError,
    GroupClosureError,
    NotUnitaryError,
    NumericError,
    ProductFormulaError,
    SymsuError,
    UnsupportedSymmetryError,
)
from .paulis import (
    PauliString,
    PauliSum,
    pauli_commutator,
    pauli_multiply,
    pauli_to_matrix,
    paulis_commute,
    sum_commutator,
    sum_to_matrix,
)
from .serialize import load_matrix, matrix_from_pairs, matrix_to_pairs, save_matrix
from .symmetry import (
    PRESETS,
    QubitPermutation,
    SymmetryElement,
    SymmetryGroup,
    conjugate_pauli,
    generate_group,
    group_from_spec,
    is_invariant,
    load_group,
    preset_group,
    symmetry_defect,
)
from .unitary_ops import (
    EigDecomposition,
    Unitary,
    compose,
    connectedness_path,
    eig_unitary,
    exp_generator,
    identity_unitary,
    project_to_su,
    random_invariant,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Circuit",
    "ClosureReport",
    "DimensionError",
    "EigDecomposition",
    "Gate",
    "GroupClosureError",
    "InvariantBasis",
    "NotUnitaryError",
    "NumericError",
    "PauliString",
    "PauliSum",
    "PRESETS",
    "ProductFormulaError",
    "QubitPermutation",
    "SymmetryElement",
    "SymmetryGroup",
    "SymsuError",
    "Unitary",
    "UnsupportedSymmetryError",
    "build_basis",
    "burnside_dimension",
    "circuit_to_matrix",
    "closure_report",
    "compose",
    "conjugate_pauli",
    "connectedness_path",
    "eig_unitary",
    "exp_generator",
    "generate_group",
    "group_from_spec",
    "identity_unitary",
    "in_span",
    "is_invariant",
    "load_group",
    "load_matrix",
    "matrix_from_pairs",
    "matrix_to_pairs",
    "pauli_commutator",
    "pauli_multiply",
    "pauli_orbit",
    "pauli_to_matrix",
    "paulis_commute",
    "preset_group",
    "project_to_su",
    "random_invariant",
    "save_matrix",
    "sum_commutator",
    "sum_to_matrix",
    "symmetrize",
    "symmetry_defect",
    "synthesize_pauli_exponential",
    "synthesize_sum_exponential",
    "two_pauli_condition",
]
