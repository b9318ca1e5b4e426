"""A third engine for the lowest degree, |lam| = |mu| >= |nu|: Pieri's rule
over horizontal strips with g from the Kronecker oracle
(`support.heisenberg_lowest_by_pieri`), against the quintuple formula,
which contracts lam's first split directly there (b = min(p, r) = 0)."""

import itertools

from heisenstab import heisenberg_coeff
from heisenstab.partitions import partitions_of, partitions_up_to

from support import heisenberg_lowest_by_pieri, horizontal_strips


def lowest_degree_queries(max_size: int):
    """Every (lam, mu, nu) with |lam| = |mu| >= |nu| and 1 <= |mu| <= max_size."""
    for size in range(1, max_size + 1):
        shapes = list(partitions_of(size))
        for lam, mu, nu in itertools.product(shapes, shapes, partitions_up_to(size)):
            yield lam, mu, nu


def test_horizontal_strips_are_the_interlacing_shapes():
    for nu in partitions_up_to(5):
        for p in range(5):
            strips = sorted(horizontal_strips(nu, p))
            assert len(set(strips)) == len(strips)
            # kappa/nu is a horizontal strip iff kappa_1 >= nu_1 >= kappa_2 >= nu_2 >= ...
            assert strips == sorted(
                tuple(kappa) for kappa in partitions_of(nu.size + p)
                if all(kappa.part(i) >= nu.part(i) >= kappa.part(i + 1)
                       for i in range(len(kappa) + len(nu))))


def test_pieri_sum_matches_the_formula_on_every_small_lowest_degree_query():
    queries = list(lowest_degree_queries(6))
    assert len(queries) == 4942
    unequal = 0  # nonzero values with p != q, where lam's first split read
    for lam, mu, nu in queries:  # transposed would be another table
        h = heisenberg_lowest_by_pieri(lam, mu, nu)
        assert heisenberg_coeff(lam, mu, nu) == h, (lam, mu, nu)
        unequal += h > 0 and mu.size - nu.size != nu.size
    assert unequal == 2321


def test_pieri_sum_matches_the_lowest_degree_scan():
    # the scaled queries of `heisenstab stable 4,1 3,2 1,1,1`: p, q, r = 2n, 3n, 0
    for n in range(1, 9):
        lam, mu, nu = (4 * n, n), (3 * n, 2 * n), (n, n, n)
        assert heisenberg_coeff(lam, mu, nu) == heisenberg_lowest_by_pieri(lam, mu, nu) == 1, n
