"""Exact engines for Littlewood-Richardson, Kronecker, and Heisenberg
structure constants, stability certification of partition triples, and
generation of certified stable triples from additive matrices."""

from .partitions import (
    Composition,
    Dominance,
    NotAPartitionError,
    Partition,
    add,
    dominates,
    is_dominated_by,
    partitions_of,
    pi_sequence,
    scale,
)
from .symfun import (
    character,
    class_size,
    dimension,
    kostka,
    kostka_by_enumeration,
    schur_in_h_basis,
)
from .coefficients import (
    Decomposition,
    clear_caches,
    h_basis_heisenberg_product,
    h_basis_kron_product,
    heisenberg_coeff,
    heisenberg_coeff_oracle,
    heisenberg_component,
    heisenberg_product,
    kron_coeff,
    kron_coeff_oracle,
    lr_coeff,
    lr_coeff_hive,
)
from .stability import (
    Kind,
    NotATripleError,
    StabilityReport,
    Triple,
    Verdict,
    classify_triple,
    detect_stable_limit,
    stability_check,
    stabilization_sequence,
)
from .additivity import (
    AdditivityCertificate,
    BudgetExceededError,
    CertifiedTriple,
    ConstraintMatrix,
    HeisenbergMatrix,
    KroneckerMatrix,
    MatrixParseError,
    MinimalityResult,
    build_constraint_matrix,
    check_certificate,
    flatten,
    heisenberg_matrices,
    heisenberg_stable_triple,
    integer_minimality_check,
    is_additive,
    kronecker_matrices,
    kronecker_stable_triple,
    margin_class,
    margin_matrices,
    parse_matrix,
    stable_triple,
)
from .ratfeas import solve_strict

__version__ = "0.1.0"
