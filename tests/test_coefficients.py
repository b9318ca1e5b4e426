import itertools
from collections import Counter

import pytest

from heisenstab import additivity, coefficients
from heisenstab.additivity import HeisenbergMatrix, KroneckerMatrix, margin_matrices
from heisenstab.coefficients import (
    _h_expansion,
    clear_caches,
    heisenberg_coeff,
    heisenberg_coeff_oracle,
    heisenberg_component,
    heisenberg_product,
    kron_coeff,
    kron_coeff_oracle,
    lr_coeff,
    lr_coeff_hive,
)
from heisenstab.partitions import Partition, partitions_of, partitions_up_to
from support import hook_length_dimension

P = Partition


# ---------------------------------------------------------------------------
# Littlewood-Richardson


def test_lr_identity_factor():
    lam = P((3, 1))
    assert lr_coeff(lam, lam, ()) == 1
    assert lr_coeff(lam, (), lam) == 1


def test_lr_single_box_cases():
    assert lr_coeff((2, 1), (1,), (1, 1)) == 1
    assert lr_coeff((2, 1), (1, 1), (1,)) == 1
    assert lr_coeff((3,), (1,), (1, 1)) == 0


def test_lr_multiplicity_two():
    assert lr_coeff((3, 2, 1), (2, 1), (2, 1)) == 2


def test_lr_size_mismatch_yields_zero():
    assert lr_coeff((2,), (1,), (1, 1)) == 0
    assert lr_coeff((4, 1), (2,), (1,)) == 0


def test_lr_symmetric_in_factors():
    for n in range(7):
        for lam in partitions_of(n):
            for m in range(n + 1):
                for mu in partitions_of(m):
                    for nu in partitions_of(n - m):
                        assert lr_coeff(lam, mu, nu) == lr_coeff(lam, nu, mu)


def test_pieri_rule_rows():
    # multiplying by a single row adds a horizontal strip
    lam = P((3, 2))
    for k in range(4):
        for target in partitions_of(lam.size + k):
            rows = max(len(target), len(lam)) + 1
            expected = int(
                all(target.part(i) >= lam.part(i) >= target.part(i + 1)
                    for i in range(rows))
            )
            assert lr_coeff(target, lam, (k,) if k else ()) == expected


def test_hive_unit_split():
    assert lr_coeff_hive((2, 2, 1), (2, 1), (2,)) == 1


def test_hive_size_mismatch():
    assert lr_coeff_hive((2,), (1,), (1, 1)) == 0


def test_hive_matches_tableau_count_exhaustively_small():
    for n in range(7):
        for lam in partitions_of(n):
            for m in range(n + 1):
                for mu in partitions_of(m):
                    for nu in partitions_of(n - m):
                        assert lr_coeff_hive(lam, mu, nu) == lr_coeff(lam, mu, nu), (lam, mu, nu)


def test_hive_plan_holds_every_unit_rhombus_once():
    # a unit rhombus is two unit triangles that share an edge, its short
    # diagonal; each one with a free vertex (0 < j < i < k) is in the plan
    # once, and the others, found at k = 2 only, are implied by the size test
    def at(i, j):
        return i * (i + 1) // 2 + j

    for k in range(1, 13):
        tri = [{(i, j), (i + 1, j), (i + 1, j + 1)} for i in range(k) for j in range(i + 1)]
        tri += [{(i, j), (i, j + 1), (i + 1, j + 1)} for i in range(k) for j in range(i)]
        rhombi = [(s & t, s ^ t) for s, t in itertools.combinations(tri, 2) if len(s & t) == 2]
        free = [r for r in rhombi if any(0 < j < i < k for i, j in r[0] | r[1])]
        fixed = [r for r in rhombi if r not in free]
        want = sorted((sorted(at(*x) for x in short), sorted(at(*x) for x in long))
                      for short, long in free)
        got = []
        for v, (lows, highs) in coefficients._hive_plan(k):
            got += [(sorted((v, r)), sorted((p, q))) for p, q, r in lows]
            got += [(sorted((p, q)), sorted((v, r))) for p, q, r in highs]
        assert sorted(got) == want, k
        assert bool(fixed) == (k == 2), k
        # the size-2 boundary of (lam_1; mu_1, nu_1) with lam_1 = mu_1 + nu_1
        for (mu1, nu1), (short, long) in itertools.product(
                itertools.product(range(5), repeat=2), fixed):
            H = {(0, 0): 0, (1, 0): mu1, (2, 0): mu1, (2, 1): mu1 + nu1,
                 (1, 1): mu1 + nu1, (2, 2): mu1 + nu1}
            assert sum(H[x] for x in short) >= sum(H[x] for x in long), (mu1, nu1)


# One loop step per cell, not one stack frame: a skew shape of 1200 cells and
# a hive with 990 free cells are past Python's default recursion limit.
def test_lr_counts_a_skew_shape_of_1200_cells():
    assert lr_coeff((2400,), (1200,), (1200,)) == 1


def test_hive_counts_a_triple_of_46_parts():
    assert lr_coeff_hive((1,) * 46, (1,) * 23, (1,) * 23) == 1
    # the columns above run on their one-row conjugates; these hooks have
    # 45 rows and 46 columns, so the hive keeps its 990 free cells
    assert lr_coeff_hive((46,) + (1,) * 44, (45,) + (1,) * 44, (1,)) == 1


# Past the exhaustive range: the triple that took the row-major hive search
# seconds (c = 392), and triples of sizes 12-30 with c >= 2, among them the
# ray N(3,2,1; 2,1, 2,1) whose coefficient is N + 1.
LARGER_LR = [
    ((8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2), (5, 4, 3, 2, 1, 1)),
    ((6, 4, 2), (4, 2), (4, 2)),
    ((9, 6, 3), (6, 3), (6, 3)),
    ((12, 8, 4), (8, 4), (8, 4)),
    ((15, 10, 5), (10, 5), (10, 5)),
    ((5, 4, 3, 2, 1), (4, 3, 2, 1), (3, 2)),
    ((6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1), (3, 2, 1)),
    ((4, 4, 3, 2, 1), (3, 3, 2, 1), (2, 2, 1)),
    ((7, 5, 4, 3, 2, 1), (5, 4, 2, 1), (4, 3, 2, 1)),
]


@pytest.mark.parametrize("lam, mu, nu", LARGER_LR)
def test_hive_matches_tableau_count_on_larger_triples(lam, mu, nu):
    c = lr_coeff(lam, mu, nu)
    assert c >= 2
    assert lr_coeff_hive(lam, mu, nu) == c


# ---------------------------------------------------------------------------
# Kronecker


def test_kron_examples():
    assert kron_coeff((3,), (2, 1), (2, 1)) == 1
    assert kron_coeff((2, 1), (2, 1), (2, 1)) == 1
    assert kron_coeff((2,), (1, 1), (1, 1)) == 1
    assert kron_coeff((1, 1, 1), (1, 1, 1), (1, 1, 1)) == 0


def test_kron_trivial_component_detects_equality():
    for n in range(1, 6):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                assert kron_coeff((n,), mu, nu) == int(mu == nu)


def test_kron_size_mismatch_raises():
    with pytest.raises(ValueError):
        kron_coeff((2,), (1,), (1,))


def test_kron_dimension_identity():
    for n in range(1, 5):
        parts = list(partitions_of(n))
        dims = {lam: hook_length_dimension(lam) for lam in parts}
        for mu in parts:
            for nu in parts:
                total = sum(kron_coeff(lam, mu, nu) * dims[lam] for lam in parts)
                assert total == dims[mu] * dims[nu]


def test_kron_oracle_matches_and_is_symmetric():
    for n in range(1, 5):
        for lam, mu, nu in itertools.product(partitions_of(n), repeat=3):
            v = kron_coeff(lam, mu, nu)
            assert kron_coeff_oracle(lam, mu, nu) == v
            assert kron_coeff_oracle(mu, nu, lam) == v


@pytest.mark.parametrize("triple", [
    ((2, 1), (2, 1), (3,)),
    ((1, 1, 1), (2, 1), (3,)),
    ((2, 1), (2, 1), (2, 1)),
    ((2, 2), (3, 1), (2, 1, 1)),
])
def test_kron_memo_has_one_entry_per_unordered_triple(triple):
    lam, mu, nu = (P(x) for x in triple)
    expected = kron_coeff_oracle(lam, mu, nu)
    clear_caches()
    for order in itertools.permutations((lam, mu, nu)):
        assert coefficients._kron(*order) == expected, order
    assert list(coefficients._KRON_CACHE) == [tuple(sorted((lam, mu, nu)))]


def test_kron_memo_key_is_the_ascending_triple():
    clear_caches()
    triples = [t for n in range(5) for t in itertools.product(partitions_of(n), repeat=3)]
    for t in triples:
        coefficients._kron(*t)
    assert set(coefficients._KRON_CACHE) == {tuple(sorted(t)) for t in triples}


@pytest.fixture
def fresh_memos():
    """Every memo empty before and after, so a faulty engine's values reach
    no other test."""
    clear_caches()
    yield
    clear_caches()


def test_kron_refuses_a_character_sum_that_is_not_an_integer(fresh_memos, monkeypatch):
    exact = coefficients._mn_vector

    def off_at_identity(lam, k):  # the identity class (1^n) comes last
        chi = exact(lam, k)
        return chi[:-1] + (chi[-1] + 1,)

    monkeypatch.setattr(coefficients, "_mn_vector", off_at_identity)
    with pytest.raises(RuntimeError, match="not an integer"):
        kron_coeff((2, 2), (2, 2), (2, 2))  # the sum is 43, not a multiple of 4! = 24


def test_kron_oracle_refuses_a_negative_multiplicity(fresh_memos, monkeypatch):
    monkeypatch.setattr(coefficients, "_kostka", lambda lam, theta: -1)
    with pytest.raises(ArithmeticError, match="negative multiplicity"):
        kron_coeff_oracle((1,), (1,), (1,))


# ---------------------------------------------------------------------------
# Heisenberg


def test_heisenberg_smallest_cases():
    assert heisenberg_coeff((1,), (1,), (1,)) == 1
    assert heisenberg_coeff((2,), (1,), (1,)) == 1
    assert heisenberg_coeff((1, 1), (1,), (1,)) == 1


def test_heisenberg_unit_law():
    for lam in partitions_up_to(4):
        assert heisenberg_coeff(lam, lam, ()) == 1
        assert heisenberg_product(lam, ()).terms == {lam: 1}
        assert heisenberg_product((), lam).terms == {lam: 1}


def test_heisenberg_out_of_range_is_zero():
    assert heisenberg_coeff((4,), (1,), (1,)) == 0
    assert heisenberg_coeff((1,), (2,), (2,)) == 0


def test_heisenberg_multiplicity_two():
    assert heisenberg_coeff((2, 1), (1, 1), (1, 1)) == 2


def test_component_degree_range_enforced():
    with pytest.raises(ValueError):
        heisenberg_component((1,), (1,), 3)
    with pytest.raises(ValueError):
        heisenberg_component((2, 1), (1,), 2)


def test_component_top_degree_is_induction_product():
    for mu in partitions_up_to(3):
        for nu in partitions_up_to(3):
            top = mu.size + nu.size
            got = heisenberg_component(mu, nu, top).terms
            expected = {}
            for lam in partitions_of(top):
                c = lr_coeff(lam, mu, nu)
                if c:
                    expected[lam] = c
            assert got == expected, (mu, nu)


def test_component_bottom_degree_is_kronecker_at_equal_sizes():
    for n in range(4):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                got = heisenberg_component(mu, nu, n).terms
                expected = {}
                for lam in partitions_of(n):
                    g = kron_coeff(lam, mu, nu)
                    if g:
                        expected[lam] = g
                assert got == expected, (mu, nu)


def test_product_of_two_boxes():
    product = heisenberg_product((1,), (1,))
    assert product.terms == {P((1,)): 1, P((2,)): 1, P((1, 1)): 1}
    assert product.degree_range == (1, 2)


def test_product_column_times_box():
    product = heisenberg_product((1, 1), (1,))
    assert product.terms == {P((2,)): 1, P((1, 1)): 1, P((2, 1)): 1, P((1, 1, 1)): 1}


def test_heisenberg_symmetric_in_factors():
    for mu in partitions_up_to(3):
        for nu in partitions_up_to(3):
            assert heisenberg_product(mu, nu).terms == heisenberg_product(nu, mu).terms


def _sharp(terms_a: dict, terms_b: dict) -> Counter:
    out = Counter()
    for lam, m in terms_a.items():
        for sigma, k in terms_b.items():
            for tau, h in heisenberg_product(lam, sigma).terms.items():
                out[tau] += m * k * h
    return out


def test_associativity_small():
    small = list(partitions_up_to(2))
    for mu, nu, xi in itertools.product(small, repeat=3):
        left = _sharp(heisenberg_product(mu, nu).terms, {xi: 1})
        right = _sharp({mu: 1}, heisenberg_product(nu, xi).terms)
        assert left == right, (mu, nu, xi)


# ---------------------------------------------------------------------------
# h-basis products and the second route


def _h_product(cls, beta, gamma):
    """h_beta h_gamma in the class-`cls` product: {pi(A): count} over the
    matrices A of that class with margins (beta, gamma)."""
    return Counter(A.pi for A in margin_matrices(cls, beta, gamma))


def test_h_basis_kron_products():
    assert _h_product(KroneckerMatrix, (1,), (1,)) == Counter({P((1,)): 1})
    assert _h_product(KroneckerMatrix, (1, 1), (1, 1)) == Counter({P((1, 1)): 2})
    assert _h_product(KroneckerMatrix, (2,), (1, 1)) == Counter({P((1, 1)): 1})
    # a one-row Schur function is its h: s_2 * s_2 = s_2 and s_3 * s_3 = s_3
    for n in (2, 3):
        assert _h_expansion(KroneckerMatrix, P((n,)), P((n,))) == ((P((n,)), 1),)


def test_h_basis_heisenberg_products():
    assert _h_product(HeisenbergMatrix, (1,), (1,)) == Counter(
        {P((1,)): 1, P((1, 1)): 1})
    assert dict(_h_expansion(HeisenbergMatrix, P((1,)), P((1,)))) == {
        P((1,)): 1, P((1, 1)): 1}
    for lam in partitions_up_to(3):
        assert _h_product(HeisenbergMatrix, (), lam) == Counter({lam: 1})
        assert _h_product(HeisenbergMatrix, lam, ()) == Counter({lam: 1})


def test_bottom_degree_of_the_heisenberg_expansion_is_the_kronecker_one():
    # a cornered matrix of entry total |beta| = |gamma| has an empty first
    # row and column, so in degree |mu| the class is the only difference
    for n in range(5):
        for mu, nu in itertools.product(partitions_of(n), repeat=2):
            heis = {theta: v for theta, v in _h_expansion(HeisenbergMatrix, mu, nu)
                    if sum(theta) == n}
            assert heis == dict(_h_expansion(KroneckerMatrix, mu, nu)), (mu, nu)


def test_the_h_basis_route_builds_no_matrix(monkeypatch):
    # the route reads the enumerator's rows; only margin_matrices builds
    # matrix objects, each through _trusted_matrix
    calls = []
    validated_rows = additivity._validated_rows
    monkeypatch.setattr(additivity, "_validated_rows",
                        lambda rows: calls.append(rows) or validated_rows(rows))
    trusted_matrix = additivity._trusted_matrix
    monkeypatch.setattr(additivity, "_trusted_matrix",
                        lambda cls, rows: calls.append(rows) or trusted_matrix(cls, rows))
    clear_caches()
    assert coefficients._kron_route(P((30, 30)), P((40, 20)), P((45, 15))) \
        is coefficients._kron_by_h_basis
    assert kron_coeff((30, 30), (40, 20), (45, 15)) == 0
    assert kron_coeff_oracle((4, 1, 1), (3, 2, 1), (3, 3)) == 1
    assert kron_coeff_oracle((2, 2, 2, 2), (4, 4), (4, 1, 1, 1, 1)) == 1
    assert heisenberg_coeff_oracle((4, 3, 2, 1), (3, 2, 1), (2, 1, 1)) == 3
    assert heisenberg_coeff_oracle((1,) * 11, (1,) * 10, (1,)) == 1
    assert coefficients._h_expansion.cache_info().currsize == 5
    assert calls == []
    matrices = list(margin_matrices(HeisenbergMatrix, (2, 1), (2, 1)))
    assert len(calls) == len(matrices) > 0
    assert all(type(A) is HeisenbergMatrix for A in matrices)


def test_oracle_agrees_exhaustively_small():
    for mu in partitions_up_to(3):
        for nu in partitions_up_to(3):
            lo, hi = max(mu.size, nu.size), mu.size + nu.size
            for l in range(lo, hi + 1):
                for lam in partitions_of(l):
                    assert heisenberg_coeff_oracle(lam, mu, nu) == \
                        heisenberg_coeff(lam, mu, nu), (lam, mu, nu)


def test_oracle_agrees_at_the_extreme_degrees():
    # |lam| = |mu| + |nu| and |lam| = max(|mu|, |nu|): the degrees where the
    # oracle may run on a conjugate orientation
    for mu in partitions_up_to(4):
        for nu in partitions_up_to(4):
            for l in {mu.size + nu.size, max(mu.size, nu.size)}:
                for lam in partitions_of(l):
                    assert heisenberg_coeff_oracle(lam, mu, nu) == \
                        heisenberg_coeff(lam, mu, nu), (lam, mu, nu)


def test_long_column_oracles_expand_one_row_factors(monkeypatch):
    clear_caches()
    expanded, plans = [], []
    schur_in_h, hive_plan = coefficients._schur_in_h, coefficients._hive_plan
    monkeypatch.setattr(coefficients, "_schur_in_h",
                        lambda lam: expanded.append(lam) or schur_in_h(lam))
    monkeypatch.setattr(coefficients, "_hive_plan", lambda k: plans.append(k) or hive_plan(k))
    ones = lambda n: (1,) * n  # noqa: E731
    # q = 0, where all three shapes are conjugated, then r = 0, where lam and mu are
    for lam, mu, nu in ((ones(1001), ones(1000), (1,)), (ones(1000), (1,), ones(1000)),
                        (ones(1000), ones(1000), (1,)), (ones(600), ones(600), (2,))):
        assert heisenberg_coeff_oracle(lam, mu, nu) == heisenberg_coeff(lam, mu, nu) == 1
    assert sorted(set(expanded)) == [(1,), (2,), (600,), (1000,)]
    assert lr_coeff_hive(ones(1001), ones(1000), (1,)) == lr_coeff(ones(1001), ones(1000), (1,)) == 1
    assert plans == [2]


def test_oracle_unit_law():
    for lam in partitions_up_to(3):
        assert heisenberg_coeff_oracle(lam, lam, ()) == 1


def test_oracles_answer_outside_the_size_pattern_without_expanding():
    clear_caches()
    # |lam| below max(|mu|,|nu|), then above |mu|+|nu|
    assert heisenberg_coeff_oracle((1,), (4, 3, 2), (3, 2, 1)) == 0
    assert heisenberg_coeff_oracle((4, 3), (2,), (3, 1)) == 0
    assert _h_expansion.cache_info().currsize == 0
    with pytest.raises(ValueError) as primary:
        kron_coeff((3,), (2,), (2, 1))
    with pytest.raises(ValueError) as oracle:
        kron_coeff_oracle((3,), (2,), (2, 1))
    assert str(oracle.value) == str(primary.value)


def test_heisenberg_dimension_identity():
    # sum_lam h^lam_{mu nu} f^lam = f^mu f^nu l!/(p! q! r!) at every degree
    # l, with p = l - |nu|, q = |mu| + |nu| - l, r = l - |mu|: a global check
    # at sizes the pointwise oracles do not reach
    from math import factorial

    cases = 0
    for mu in partitions_up_to(4):
        for nu in partitions_up_to(4):
            m, n = mu.size, nu.size
            for l in range(max(m, n), m + n + 1):
                p, q, r = l - n, m + n - l, l - m
                terms = heisenberg_component(mu, nu, l).terms
                lhs = sum(h * hook_length_dimension(lam) for lam, h in terms.items())
                rhs = (hook_length_dimension(mu) * hook_length_dimension(nu)
                       * factorial(l) // (factorial(p) * factorial(q) * factorial(r)))
                assert lhs == rhs, (mu, nu, l)
                cases += 1
    assert cases == 454
