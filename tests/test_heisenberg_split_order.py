"""The pointwise Heisenberg formula on every order of its triple LR split,
against the independent h-basis oracle.

`_heis_by_formula` splits lam into (alpha |- p, delta |- q, rho |- r) by
two LR splits in a row, the larger of alpha and rho first: alpha first
when p > r, rho first otherwise.  At the lowest degree, r = 0, the
second split is the identity and lam's first split is the triple factor.
The value pin covers sizes <= 5 only, so each case here has sizes 6 to 8
and is checked at every lam |- l."""

import pytest

from heisenstab import coefficients
from heisenstab.coefficients import clear_caches, heisenberg_coeff, heisenberg_coeff_oracle
from heisenstab.partitions import partitions_of

# (mu, nu, l), with |mu| >= |nu| so that p, q, r = l - |nu|, |mu| + |nu| - l, l - |mu|
CASES = [
    ((3, 2, 1), (2, 2, 1), 7),   # 2, 4, 1: alpha first, q largest
    ((5, 2), (3, 1), 9),         # 5, 2, 2: alpha first, p largest
    ((3, 2, 1), (2, 1), 6),      # 3, 3, 0: alpha first, r = 0
    ((3, 2, 1), (4,), 8),        # 4, 2, 2: alpha first, nu has no rho = (1, 1)
    ((3, 3), (2, 2, 2), 8),      # 2, 4, 2: rho first, p = r
    ((4, 2), (3, 3), 9),         # 3, 3, 3: rho first, p = q = r
    ((6,), (3, 2, 1), 8),        # 2, 4, 2: rho first, mu has no alpha = (1, 1)
    ((3, 2, 1), (2, 2, 2), 6),   # 0, 6, 0: rho first, the Kronecker degree
    ((4, 2), (2, 1), 6),         # 3, 3, 0: alpha first, r = 0, p = q
    ((3, 3, 1), (3, 2, 1), 7),   # 1, 6, 0: alpha first, r = 0, q largest
    ((5, 2, 1), (2,), 8),        # 6, 2, 0: alpha first, r = 0, p largest
]


def test_cases_cover_both_split_orders():
    orders = set()
    for mu, nu, l in CASES:
        m, n = sum(mu), sum(nu)
        assert 6 <= m <= 8 and m >= n
        p, r = l - n, l - m
        orders.add("alpha first" if p > r else "rho first")
    assert orders == {"alpha first", "rho first"}


@pytest.mark.parametrize("mu, nu, l", CASES)
def test_formula_matches_h_basis_oracle_at_every_lam(mu, nu, l):
    clear_caches()
    values = {lam: heisenberg_coeff(lam, mu, nu) for lam in partitions_of(l)}
    assert values == {lam: heisenberg_coeff_oracle(lam, mu, nu) for lam in partitions_of(l)}
    assert any(values.values())


def test_lowest_degree_splits_no_rest_of_lam(monkeypatch):
    # p, q, r = 5, 3, 0: the split tables of mu, nu (both orientations) and
    # lam's first split, and no table of a rest of lam
    lam, mu, nu = (4, 3, 1), (5, 2, 1), (2, 1)
    clear_caches()
    calls = []
    split_table = coefficients._split_table

    def counted(outer, a, b):
        calls.append((outer, a, b))
        return split_table(outer, a, b)

    monkeypatch.setattr(coefficients, "_split_table", counted)
    assert heisenberg_coeff(lam, mu, nu) == heisenberg_coeff_oracle(lam, mu, nu)
    assert {outer for outer, _, _ in calls} <= {lam, mu, nu}
    assert sorted(calls) == sorted([(mu, 5, 3), (nu, 0, 3), (nu, 3, 0), (lam, 5, 3)])
