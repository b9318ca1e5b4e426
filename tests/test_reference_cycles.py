"""The engines and enumerators leave no cyclic garbage behind.

A self-recursive closure that outlives its call is a reference cycle: it
keeps its working state alive until the cyclic collector runs.  With the
collector off, each call below must leave nothing for `gc.collect()` to
find, also when a consumer stops an enumeration early."""

import gc

import pytest

from heisenstab import (
    HeisenbergMatrix,
    clear_caches,
    heisenberg_coeff,
    heisenberg_product,
    kostka,
    kron_coeff,
    lr_coeff,
    lr_coeff_hive,
    margin_matrices,
)
from support import kostka_by_enumeration

CALLS = {
    "heisenberg_product": lambda: heisenberg_product((4, 3, 2, 1), (3, 2, 1)),
    "heisenberg_coeff": lambda: heisenberg_coeff((4, 3, 2, 1), (3, 2, 1), (3, 2, 1)),
    "kron_coeff": lambda: kron_coeff((3, 2, 1), (3, 2, 1), (4, 2)),
    "kostka": lambda: kostka((3, 2, 1), (2, 2, 1, 1)),
    "kostka_by_enumeration": lambda: kostka_by_enumeration((3, 2, 1), (2, 2, 1, 1)),
    "lr_coeff": lambda: lr_coeff((8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2), (5, 4, 3, 2, 1, 1)),
    "lr_coeff_hive": lambda: lr_coeff_hive((4, 3, 2, 1), (3, 2), (2, 1, 1, 1)),
    "margin_matrices": lambda: list(margin_matrices(HeisenbergMatrix, (2, 1), (2, 1))),
    "margin_matrices_stopped": lambda: next(margin_matrices(HeisenbergMatrix, (2, 1), (2, 1))),
}


@pytest.mark.parametrize("name", list(CALLS))
def test_call_leaves_no_cyclic_garbage(name):
    gc.disable()
    try:
        clear_caches()
        gc.collect()
        CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()
