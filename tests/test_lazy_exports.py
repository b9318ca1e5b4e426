"""The package's public names load their submodule on first access and are
the submodule's own objects."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import heisenstab

# Every name the package exports, by the submodule that defines it.
EXPORTS = {
    "partitions": (
        "Composition", "NotAPartitionError", "Partition", "add",
        "is_dominated_by", "partitions_of", "pi_sequence", "scale"),
    "symfun": (
        "character", "class_size", "dimension", "kostka", "schur_in_h_basis"),
    "coefficients": (
        "Decomposition", "clear_caches", "heisenberg_coeff",
        "heisenberg_coeff_oracle", "heisenberg_component", "heisenberg_product",
        "kron_coeff", "kron_coeff_oracle", "lr_coeff", "lr_coeff_hive"),
    "stability": (
        "Kind", "NotATripleError", "StabilityReport", "Triple", "Verdict",
        "classify_triple", "detect_stable_limit", "stability_check",
        "stabilization_sequence"),
    "additivity": (
        "AdditivityCertificate", "BudgetExceededError", "CertifiedTriple",
        "HeisenbergMatrix", "KroneckerMatrix", "MatrixParseError",
        "build_constraint_matrix", "check_certificate", "flatten",
        "heisenberg_matrices", "heisenberg_stable_triple",
        "integer_minimality_check", "is_additive", "kronecker_matrices",
        "kronecker_stable_triple", "margin_class", "margin_matrices",
        "parse_matrix", "stable_triple"),
    "ratfeas": ("solve_strict",),
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_the_exports():
    assert len(NAMES) == 52
    assert sorted(heisenstab.__all__) == sorted(NAMES)
    assert heisenstab.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_export_is_its_submodules_object(module):
    sub = importlib.import_module(f"heisenstab.{module}")
    for name in EXPORTS[module]:
        assert getattr(heisenstab, name) is getattr(sub, name), name


def test_additivity_reexports_the_matrix_errors_of_partitions():
    from heisenstab import additivity, partitions

    assert additivity.MatrixParseError is partitions.MatrixParseError
    assert additivity.BudgetExceededError is partitions.BudgetExceededError


def test_dir_lists_the_exports():
    assert set(NAMES) <= set(dir(heisenstab))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        heisenstab.no_such_name
    with pytest.raises(ImportError):
        from heisenstab import no_such_name  # noqa: F401


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from heisenstab import *", namespace)
    for name in NAMES:
        assert namespace[name] is getattr(heisenstab, name), name


def test_a_bare_import_loads_no_submodule_yet_reaches_each():
    code = ("import json, sys\n"
            "import heisenstab\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('heisenstab.'))\n"
            f"subs = {sorted(EXPORTS)!r}\n"
            "reached = [getattr(heisenstab, m) is sys.modules['heisenstab.' + m]"
            " for m in subs]\n"
            "print(json.dumps([loaded, reached]))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(heisenstab.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, reached = json.loads(proc.stdout)
    assert loaded == []
    assert reached == [True] * len(EXPORTS)
