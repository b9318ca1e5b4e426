import random
import sys
from math import factorial

import pytest

from heisenstab import clear_caches, heisenberg_coeff, heisenberg_product, symfun
from heisenstab.additivity import kronecker_matrices
from heisenstab.partitions import Partition, _bounded_vectors, is_dominated_by, partitions_of
from heisenstab.symfun import (
    character,
    character_vector,
    class_size,
    class_sizes,
    cycle_types,
    dimension,
    kostka,
    schur_in_h_basis,
    zee,
)
from support import (
    hook_length_dimension,
    kostka_by_enumeration,
    mn_character,
    schur_in_h_by_permutations,
)


def test_trivial_character_is_one():
    assert character((3,), (2, 1)) == 1
    for rho in partitions_of(5):
        assert character((5,), rho) == 1


def test_sign_character():
    # the all-ones column gives the sign of the class
    assert character((1, 1, 1), (2, 1)) == -1
    for rho in partitions_of(4):
        sign = (-1) ** (4 - len(rho))
        assert character((1, 1, 1, 1), rho) == sign


def test_dimension_matches_hook_lengths():
    assert character((2, 1), (1, 1, 1)) == 2
    for n in range(7):
        for lam in partitions_of(n):
            assert dimension(lam) == hook_length_dimension(lam)


def test_character_reads_the_cycle_type_in_any_order():
    assert character((2, 1), (1, 2)) == character((2, 1), (2, 1))
    assert character((3, 1), (1, 1, 2)) == character((3, 1), (2, 1, 1)) == 1
    assert character((3, 1), [1, 3]) == character((3, 1), (3, 1)) == 0


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


def test_class_sizes():
    assert class_size((1, 1, 1)) == 1
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2
    for n in range(1, 7):
        assert sum(class_size(rho) for rho in partitions_of(n)) == factorial(n)


def test_class_sizes_fill_no_list_of_cycle_types():
    clear_caches()
    sizes = [class_sizes(n) for n in range(15)]
    assert symfun.cycle_types.cache_info().currsize == 0
    assert sizes == [tuple(map(class_size, cycle_types(n))) for n in range(15)]


def test_zee_times_class_size():
    for n in range(1, 7):
        for rho in partitions_of(n):
            assert zee(rho) * class_size(rho) == factorial(n)


def test_first_orthogonality_at_identity():
    for n in range(1, 7):
        assert sum(dimension(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_character_table_rows_are_orthonormal():
    # sum_rho chi^lam(rho) chi^mu(rho) / z_rho = delta_{lam mu}, times n!
    for n in range(11):
        sizes = class_sizes(n)
        rows = {lam: character_vector(lam) for lam in partitions_of(n)}
        for lam, a in rows.items():
            for mu, b in rows.items():
                total = sum(s * x * y for s, x, y in zip(sizes, a, b))
                assert total == (factorial(n) if lam == mu else 0), (lam, mu)


def test_character_vector_matches_the_per_class_recursion():
    for n in range(13):
        classes = cycle_types(n)
        for lam in map(tuple, partitions_of(n)):
            assert character_vector(lam) == tuple(mn_character(lam, rho) for rho in classes), lam


def test_character_matches_the_per_class_recursion():
    pairs = [(lam, rho) for n in range(9) for lam in map(tuple, partitions_of(n))
             for rho in map(tuple, partitions_of(n))]
    # small largest parts against n: a class vector here has thousands of entries
    pairs += [((20, 10, 5), (7,) * 5), ((8, 8, 8, 8), (10, 10, 10, 2))]
    for lam, rho in pairs:
        assert character(lam, rho) == mn_character(lam, rho), (lam, rho)


def test_a_single_character_builds_no_class_vector():
    clear_caches()
    character((20, 10, 5), (7,) * 5)
    assert not symfun._MN_CACHE


def test_mn_vector_keeps_the_longest_suffix_of_each_shape(monkeypatch):
    clear_caches()
    exact, k_max = symfun._mn_vector, {}

    def recording(lam, k):  # the recursion reads the module's name too
        k_max[lam] = max(k, k_max.get(lam, k))
        return exact(lam, k)

    monkeypatch.setattr(symfun, "_mn_vector", recording)
    requests = [(tuple(lam), k) for n in range(1, 9) for lam in partitions_of(n)
                for k in range(1, n + 1)]
    random.Random(43).shuffle(requests)
    for lam, k in requests:
        want = tuple(character(lam, rho) for rho in cycle_types(sum(lam)) if rho[0] <= k)
        assert symfun._mn_vector(lam, k) == want, (lam, k)
    assert ({lam: len(v) for lam, v in symfun._MN_CACHE.items()}
            == {lam: symfun._class_counts(sum(lam))[k] for lam, k in k_max.items()})


def test_mn_vector_grows_a_suffix_by_the_missing_blocks_only(monkeypatch):
    clear_caches()
    lam = (3, 2, 1)
    short = symfun._mn_vector(lam, 2)
    strips, blocks = symfun._border_strip_removals, []

    def recording(shape, j):
        if shape == lam:
            blocks.append(j)
        return strips(shape, j)

    monkeypatch.setattr(symfun, "_border_strip_removals", recording)
    full = symfun._mn_vector(lam, 6)
    assert blocks == [5, 4, 3]  # the longest hook is 5, so block 6 is zero
    assert full == tuple(character(lam, rho) for rho in cycle_types(6))
    assert symfun._mn_vector(lam, 2) == short == full[-len(short):]
    assert symfun._MN_CACHE[lam] is full


def test_class_counts_match_the_partitions_and_need_no_recursion():
    for m in range(13):
        tops = [max(lam, default=0) for lam in partitions_of(m)]
        assert symfun._class_counts(m) == tuple(sum(1 for top in tops if top <= k)
                                                for k in range(m + 1)), m
    clear_caches()
    assert sys.getrecursionlimit() <= 1000
    assert symfun._class_counts(500)[500] == 2300165032574323995027  # p(500)
    assert symfun._class_counts(1100)[2] == 551


def test_dimension_of_a_large_shape_needs_no_class_list():
    # p(60) = 966,467 classes: the identity class alone is read
    assert dimension((30, 20, 10)) == hook_length_dimension((30, 20, 10))


def test_dimension_and_kostka_of_a_long_row_stay_within_the_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    assert dimension((990,)) == 1
    assert kostka((1100,), (1,) * 1100) == 1


def test_long_shapes_of_every_enumerator_stay_within_the_recursion_limit():
    # each enumerator walks one stack level per part, row or cap
    assert sys.getrecursionlimit() <= 1000
    assert heisenberg_coeff((1,) * 1100, (1,) * 1000, (1,) * 100) == 1
    assert heisenberg_product((1,) * 1200, (1,)).terms == {
        (2,) + (1,) * 1198: 1, (1,) * 1200: 1, (2,) + (1,) * 1199: 1, (1,) * 1201: 1}
    assert kostka((1099, 1), (1,) * 1100) == 1099
    assert [A.rows for A in kronecker_matrices((1,) * 1100, (1100,))] == [((1,),) * 1100]
    assert next(_bounded_vectors(3, (1,) * 1100)) == (0,) * 1097 + (1, 1, 1)


def test_character_table_columns_are_orthogonal():
    # sum_lam chi^lam(rho) chi^lam(sigma) = z_rho [rho = sigma]
    n = 14
    columns = list(zip(*(character_vector(tuple(lam)) for lam in partitions_of(n))))
    classes = cycle_types(n)
    for i, a in enumerate(columns):
        for j in range(i, len(columns)):
            total = sum(x * y for x, y in zip(a, columns[j]))
            assert total == (zee(classes[i]) if i == j else 0), (classes[i], classes[j])


def test_kostka_examples():
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((1, 1), (2,)) == 0


def test_kostka_diagonal_is_one():
    for n in range(7):
        for lam in partitions_of(n):
            assert kostka(lam, lam) == 1


def test_kostka_matches_enumeration():
    for n in range(6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert kostka(lam, mu) == kostka_by_enumeration(lam, mu), (lam, mu)


def test_kostka_positive_iff_dominates():
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert (kostka(lam, mu) > 0) == is_dominated_by(mu, lam)


def test_kostka_invariant_under_content_permutation():
    assert kostka((3, 2, 1), (1, 2, 3)) == kostka((3, 2, 1), (3, 2, 1))
    assert kostka((2, 2), (1, 0, 2, 1)) == kostka((2, 2), (2, 1, 1))


def test_kostka_size_mismatch():
    with pytest.raises(ValueError):
        kostka((2, 1), (2, 2))


# a cycle type and a content are flat sequences of integers: a string entry
# or a nested row is refused with ValueError, not summed or compared
def test_character_rejects_a_string_part():
    with pytest.raises(ValueError):
        character((1,), ("1",))


def test_kostka_rejects_a_string_part():
    with pytest.raises(ValueError):
        kostka((1,), ("1",))


# the brute-force oracle refuses what kostka refuses, instead of counting
# fillings against a float, negative or bool content
@pytest.mark.parametrize("mu", [(1.5, 0.5), (3, -1), (True, True)])
def test_kostka_by_enumeration_rejects_what_kostka_rejects(mu):
    with pytest.raises(ValueError):
        kostka((2,), mu)
    with pytest.raises(ValueError):
        kostka_by_enumeration((2,), mu)


def test_character_rejects_nested_input():
    with pytest.raises(ValueError):
        character((2,), [[1], [1]])


def test_kostka_rejects_nested_input():
    with pytest.raises(ValueError):
        kostka((2,), [[1], [1]])


def test_schur_in_h_single_row():
    assert schur_in_h_basis((4,)) == {Partition((4,)): 1}


def test_schur_in_h_column():
    assert schur_in_h_basis((1, 1)) == {Partition((1, 1)): 1, Partition((2,)): -1}


def test_schur_in_h_matches_the_permutation_expansion():
    for n in range(9):
        for lam in partitions_of(n):
            assert schur_in_h_basis(lam) == schur_in_h_by_permutations(lam), lam


def test_schur_in_h_of_a_column_is_the_elementary_expansion():
    # s_{1^n} = e_n = sum over mu |- n of (-1)^(n - l(mu)) l(mu)! / prod_i m_i(mu)! h_mu
    for n in range(13):
        expected = {}
        for mu in partitions_of(n):
            multiplicities = [mu.count(p) for p in set(mu)]
            coef = factorial(len(mu))
            for m in multiplicities:
                coef //= factorial(m)
            expected[mu] = (-1) ** (n - len(mu)) * coef
        assert schur_in_h_basis((1,) * n) == expected, n


def test_schur_in_h_round_trip_is_identity():
    # applying h_delta = sum_eps K_{eps,delta} s_eps to the expansion of
    # s_lam must recover exactly s_lam
    for n in range(7):
        parts = list(partitions_of(n))
        for lam in parts:
            expansion = schur_in_h_basis(lam)
            recovered = {}
            for delta, coef in expansion.items():
                for eps in parts:
                    k = kostka(eps, delta)
                    if k:
                        recovered[eps] = recovered.get(eps, 0) + coef * k
            recovered = {k: v for k, v in recovered.items() if v}
            assert recovered == {lam: 1}, lam
