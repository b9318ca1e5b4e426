"""Exact engines for Littlewood-Richardson, Kronecker, and Heisenberg
structure constants, stability certification of partition triples, and
generation of certified stable triples from additive matrices.

Importing the package loads none of its modules.  Each public name below
loads its submodule on first access (PEP 562), and so does each submodule
name (`heisenstab.coefficients`), so that a CLI query answered from the
cache loads only what it uses.  `from heisenstab import *` binds every
name of `__all__`.
"""

__version__ = "0.1.0"

# The submodule that defines each public name.
_EXPORTS = {
    **dict.fromkeys((
        "Composition", "NotAPartitionError", "Partition", "add",
        "is_dominated_by", "partitions_of", "pi_sequence", "scale",
    ), "partitions"),
    **dict.fromkeys((
        "character", "class_size", "dimension", "kostka", "schur_in_h_basis",
    ), "symfun"),
    **dict.fromkeys((
        "Decomposition", "clear_caches", "heisenberg_coeff",
        "heisenberg_coeff_oracle", "heisenberg_component", "heisenberg_product",
        "kron_coeff", "kron_coeff_oracle", "lr_coeff", "lr_coeff_hive",
    ), "coefficients"),
    **dict.fromkeys((
        "Kind", "NotATripleError", "StabilityReport", "Triple", "Verdict",
        "classify_triple", "detect_stable_limit", "stability_check",
        "stabilization_sequence",
    ), "stability"),
    **dict.fromkeys((
        "AdditivityCertificate", "BudgetExceededError", "CertifiedTriple",
        "HeisenbergMatrix", "KroneckerMatrix", "MatrixParseError",
        "build_constraint_matrix", "check_certificate", "flatten",
        "heisenberg_matrices", "heisenberg_stable_triple",
        "integer_minimality_check", "is_additive", "kronecker_matrices",
        "kronecker_stable_triple", "margin_class", "margin_matrices",
        "parse_matrix", "stable_triple",
    ), "additivity"),
    "solve_strict": "ratfeas",
}

__all__ = list(_EXPORTS)


def _submodule(name: str):
    # __import__, unlike importlib.import_module, is logged by -X importtime;
    # it binds the submodule as an attribute of this package
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(_submodule(_EXPORTS[name]), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _EXPORTS.values():
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
