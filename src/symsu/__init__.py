"""Symmetry-restricted subalgebras of su(2^n).

Build the invariant subalgebra of a finite qubit symmetry group by orbit
symmetrization of Pauli strings, check the invariance condition
S U S+ = U numerically, walk the eigenphase path connecting any invariant
unitary to the identity, and compile invariant generators into CNOT-ladder
circuits.
"""

from types import ModuleType as _ModuleType

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
    SymmetryGroup,
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
    project_to_su,
    random_invariant,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules are not part of it.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
