"""The one-pass degree engine behind `heisenberg_component`: its Schur
products, its agreement with the pointwise quintuple formula and the
h-basis oracle, its one pointwise spot check per degree, and a global
dimension identity at sizes the pointwise engines do not reach."""

from functools import lru_cache
from math import factorial

import pytest

import heisenstab
from heisenstab import coefficients, partitions, symfun
from heisenstab.coefficients import (
    _lr_product,
    _lr_run,
    clear_caches,
    heisenberg_coeff,
    heisenberg_coeff_oracle,
    heisenberg_component,
    heisenberg_product,
    kron_coeff,
    lr_coeff,
    lr_coeff_hive,
)
from heisenstab.partitions import Partition, partitions_of, partitions_up_to, subpartitions_of_size
from support import (
    heisenberg_by_characters,
    heisenberg_component_by_characters,
    hook_length_dimension,
)


def _splits(outer, a, b):
    """`_split_table` flat, as (x, y, c^outer_{x y}) triples."""
    return tuple((x, y, c) for x, ys in coefficients._split_table(outer, a, b).items() for y, c in ys)


def test_lr_product_matches_lr_coeff():
    small = list(partitions_up_to(5))
    for mu in small:
        for nu in small:
            size = mu.size + nu.size
            expected = {lam: c for lam in partitions_of(size) if (c := lr_coeff(lam, mu, nu))}
            assert _lr_product(mu, nu) == expected, (mu, nu)
            assert _lr_product(nu, mu) == expected, (nu, mu)


def test_lr_product_of_a_long_column_needs_no_recursion():
    # one frame per row would pass the default recursion limit of 1000
    column = Partition((1,) * 1100)
    assert _lr_product(column, Partition((1,))) == {(2,) + (1,) * 1099: 1, (1,) * 1101: 1}


def test_weighted_runs_match_lr_coeff(monkeypatch):
    # every run of every component with |mu|, |nu| <= 4, the second
    # recombination's one run per rho of its weights among them, against
    # sum_tau w_tau c^lam_{tau rho} from the LR fillings of lr_coeff, which
    # share no code with the strip walk; checked as it is made, before the
    # component's own spot check
    letters_run = set()

    def checked(start, letters):
        got = _lr_run(start, letters)
        if start:
            size = sum(letters) + sum(next(iter(start)))
            expected = {lam: c for lam in partitions_of(size) if (c := sum(
                w * lr_coeff(lam, tau, letters) for tau, w in start.items()))}
            assert got == expected, (start, letters)
        letters_run.add(letters)
        return got

    monkeypatch.setattr(coefficients, "_lr_run", checked)
    clear_caches()
    small = list(partitions_up_to(4))
    for mu in small:
        for nu in small:
            big, little = (mu, nu) if (mu.size, mu) >= (nu.size, nu) else (nu, mu)
            for l in range(big.size, mu.size + nu.size + 1):
                q, r = mu.size + nu.size - l, l - big.size
                letters_run.clear()
                heisenberg_component(mu, nu, l)
                # every rho of the weights gets its run
                rhos = {rho for _, rho, _ in _splits(little, q, r)}
                assert rhos <= letters_run, (mu, nu, l)


def test_split_table_matches_brute_force():
    # every x |- a and y |- b, not only those inside outer
    for outer in partitions_up_to(7):
        for a in range(outer.size + 1):
            b = outer.size - a
            table = _splits(outer, a, b)
            assert type(table) is tuple
            expected = [(x, y, c) for x in partitions_of(a) for y in partitions_of(b)
                        if (c := lr_coeff(outer, x, y))]
            assert sorted(table) == sorted(expected), (outer, a, b)


def test_split_tables_of_both_orientations_are_transposes():
    for outer in partitions_up_to(7):
        for a in range(outer.size + 1):
            b = outer.size - a
            table = _splits(outer, a, b)
            swapped = {(y, x, c) for x, y, c in _splits(outer, b, a)}
            assert len(set(table)) == len(table) and set(table) == swapped, (outer, a, b)


@pytest.mark.parametrize("first", ["bigger_x", "smaller_x"])
def test_one_traversal_serves_both_orientations(monkeypatch, first):
    outer, small, big = Partition((4, 3, 2, 1)), 3, 7
    orders = [(big, small), (small, big)]
    if first == "smaller_x":
        orders.reverse()
    traversals = []
    fillings = coefficients._lr_fillings

    def counting(outer, inner, content=None):
        traversals.append(inner)
        return fillings(outer, inner, content)

    monkeypatch.setattr(coefficients, "_lr_fillings", counting)
    clear_caches()
    _splits(outer, *orders[0])
    # the table of the bigger x is filled: one traversal per x |- 7 inside outer
    assert sorted(traversals) == sorted(subpartitions_of_size(outer, big))
    traversals.clear()
    _splits(outer, *orders[1])
    assert traversals == []


def test_split_table_matches_hive_counts():
    # lr_coeff and _split_table share one filling kernel; the hive model is
    # independent of it
    for outer in partitions_up_to(8):
        for a in range(outer.size + 1):
            b = outer.size - a
            expected = [(x, y, c) for x in partitions_of(a) for y in partitions_of(b)
                        if (c := lr_coeff_hive(outer, x, y))]
            assert sorted(_splits(outer, a, b)) == sorted(expected), (outer, a, b)


def test_component_matches_pointwise_formula():
    small = list(partitions_up_to(4))
    for mu in small:
        for nu in small:
            for l in range(max(mu.size, nu.size), mu.size + nu.size + 1):
                expected = {lam: h for lam in partitions_of(l)
                            if (h := heisenberg_coeff(lam, mu, nu))}
                assert heisenberg_component(mu, nu, l).terms == expected, (mu, nu, l)


def test_component_matches_h_basis_oracle():
    small = list(partitions_up_to(3))
    for mu in small:
        for nu in small:
            for l in range(max(mu.size, nu.size), mu.size + nu.size + 1):
                expected = {lam: h for lam in partitions_of(l)
                            if (h := heisenberg_coeff_oracle(lam, mu, nu))}
                assert heisenberg_component(mu, nu, l).terms == expected, (mu, nu, l)


def test_component_asks_the_pointwise_engine_once_per_degree(monkeypatch):
    mu, nu = (3, 2, 1), (2, 2)
    expected = {l: {lam: h for lam in partitions_of(l) if (h := heisenberg_coeff(lam, mu, nu))}
                for l in range(6, 11)}
    clear_caches()
    asked = []

    def pointwise(lam, *args):
        asked.append(lam)
        return heisenberg_coeff(lam, *args)

    monkeypatch.setattr(coefficients, "heisenberg_coeff", pointwise)
    for l, terms in expected.items():
        assert heisenberg_component(mu, nu, l).terms == terms
    # one spot check per degree, on its lexicographically largest term
    assert asked == [max(terms) for terms in expected.values()]
    assert len(coefficients._HEIS_CACHE) == len(expected)
    assert heisenberg_product(mu, nu).terms == {k: v for t in expected.values() for k, v in t.items()}
    assert len(asked) == 2 * len(expected) and len(coefficients._HEIS_CACHE) == len(expected)


def test_component_refuses_a_term_the_pointwise_engine_disagrees_with(monkeypatch):
    monkeypatch.setattr(coefficients, "heisenberg_coeff", lambda *args: 0)
    with pytest.raises(RuntimeError, match="disagree"):
        heisenberg_component((3, 2, 1), (2, 2), 8)


@pytest.mark.parametrize("pairs, count", [
    ([(mu, nu) for mu in partitions_up_to(5) for nu in partitions_up_to(5) if mu and nu], 1355),
    ([(Partition((4, 3, 2, 1)),) * 2], 11),
], ids=["sizes to 5", "(4,3,2,1)^2"])
def test_whole_components_agree_with_the_character_route(pairs, count):
    # every term of every degree, against restriction and induction of characters
    queries = [(mu, nu, l) for mu, nu in pairs
               for l in range(max(mu.size, nu.size), mu.size + nu.size + 1)]
    assert len(queries) == count
    for q in queries:
        assert heisenberg_component(*q).terms == heisenberg_component_by_characters(*q), q


def test_single_coefficients_agree_with_the_character_route():
    # every query with |mu|, |nu| <= 4, empty factors included, at each
    # degree max(|mu|, |nu|) <= |lam| <= |mu| + |nu|
    queries = [(lam, mu, nu) for mu in partitions_up_to(4) for nu in partitions_up_to(4)
               for l in range(max(mu.size, nu.size), mu.size + nu.size + 1)
               for lam in partitions_of(l)]
    assert len(queries) == 3824
    for q in queries:
        assert heisenberg_by_characters(*q) == heisenberg_coeff(*q), q
    # outside the degree range both read zero
    assert heisenberg_by_characters((1,), (2,), (1,)) == heisenberg_coeff((1,), (2,), (1,)) == 0
    assert heisenberg_by_characters((4,), (2,), (1,)) == heisenberg_coeff((4,), (2,), (1,)) == 0


def test_heisenberg_dimension_identity_to_size_six():
    # sum_lam h^lam_{mu nu} f^lam = f^mu f^nu l!/(p! q! r!) at every degree
    # l, with p = l - |nu|, q = |mu| + |nu| - l, r = l - |mu|
    cases = 0
    for mu in partitions_up_to(6):
        for nu in partitions_up_to(6):
            m, n = mu.size, nu.size
            for l in range(max(m, n), m + n + 1):
                p, q, r = l - n, m + n - l, l - m
                terms = heisenberg_component(mu, nu, l).terms
                lhs = sum(h * hook_length_dimension(lam) for lam, h in terms.items())
                rhs = (hook_length_dimension(mu) * hook_length_dimension(nu)
                       * factorial(l) // (factorial(p) * factorial(q) * factorial(r)))
                assert lhs == rhs, (mu, nu, l)
                cases += 1
    assert cases == 4175


def _memos(module):
    """Every *_CACHE dict and every lru_cache the module defines."""
    for name, value in vars(module).items():
        if name.endswith("_CACHE") and isinstance(value, dict):
            yield name, len(value)
        elif hasattr(value, "cache_info") and value.__module__ == module.__name__:
            yield name, value.cache_info().currsize


def test_clear_caches_empties_every_memo():
    assert heisenstab.clear_caches is clear_caches
    heisenberg_product((2, 1), (2, 1))
    heisenberg_coeff((2, 1), (2, 1), (1, 1))
    heisenberg_coeff_oracle((2, 1), (2, 1), (1, 1))
    kron_coeff((2, 2), (2, 2), (2, 2))  # the size-3 keys above all take closed forms
    lr_coeff((2, 1), (1,), (1, 1))
    lr_coeff_hive((2, 1), (1,), (1, 1))
    symfun.kostka((2, 1), (1, 1, 1))
    symfun.schur_in_h_basis((2, 1))
    filled = dict(_memos(coefficients)) | dict(_memos(symfun))
    assert {"_LR_CACHE", "_KRON_CACHE", "_HEIS_CACHE", "_LR_PRODUCT_CACHE",
            "_split_table", "_strips", "_hive_plan", "_h_expansion",
            "_MN_CACHE", "_KOSTKA_CACHE",
            "_schur_in_h", "cycle_types", "class_sizes"} <= set(filled)
    assert all(filled.values()), filled
    clear_caches()
    emptied = dict(_memos(coefficients)) | dict(_memos(symfun))
    assert set(emptied) == set(filled)
    assert not any(emptied.values()), emptied


def test_every_module_dict_is_a_memo_under_the_rule():
    # clear_caches empties the dicts named *_CACHE, so no other dict may hold state
    for module in (partitions, symfun, coefficients):
        dicts = [name for name, value in vars(module).items()
                 if isinstance(value, dict) and not name.startswith("__")]
        assert all(name.endswith("_CACHE") for name in dicts), (module.__name__, dicts)


def test_clear_caches_empties_a_memo_added_under_the_rule(monkeypatch):
    probe_dict = {(1,): 1}
    probe = lru_cache(maxsize=None)(abs)
    monkeypatch.setattr(symfun, "_PROBE_CACHE", probe_dict, raising=False)
    monkeypatch.setattr(symfun, "_probe", probe, raising=False)
    probe(-1)
    clear_caches()
    assert not probe_dict
    assert probe.cache_info().currsize == 0
