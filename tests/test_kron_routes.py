"""The Kronecker routes: the closed forms, the character sum by class
blocks and the h-basis route, each checked against the per-class oracle of
`support`, against one another, and for the choice between them: a pure
function of the query, with the oracle always on a route the primary did
not take; and whole rows past the h-basis route's size cut, by character
identities that share no code with the character sum."""

import itertools
import json
import random

import pytest

from heisenstab import coefficients
from heisenstab.cli import main
from heisenstab.coefficients import clear_caches, kron_coeff, kron_coeff_oracle
from heisenstab.partitions import Partition, partitions_of
from heisenstab.stability import Kind
from support import direction_triples, kron_by_class_sum, kronecker_row_sides

P = Partition
ROUTES = ("_kron_closed_form", "_kron_by_characters", "_kron_by_h_basis")


def conjugate(lam):
    return P([sum(1 for p in lam if p > c) for c in range(lam[0] if lam else 0)])


@pytest.fixture
def ran(monkeypatch):
    """Fresh memos, and each route recorded as (route name, ascending key)
    when it runs."""
    clear_caches()
    log = []
    for name in ROUTES:
        real = getattr(coefficients, name)

        def recording(*key, _name=name, _real=real):
            log.append((_name, tuple(key)))
            return _real(*key)

        monkeypatch.setattr(coefficients, name, recording)
    yield log
    clear_caches()


def test_kron_matches_the_plain_character_sum_up_to_size_8():
    for n in range(9):
        for triple in itertools.combinations_with_replacement(list(partitions_of(n)), 3):
            assert kron_coeff(*triple) == kron_by_class_sum(*triple), triple


def test_closed_forms_for_one_row_and_one_column_up_to_size_10():
    for n in range(1, 11):
        parts = list(partitions_of(n))
        row, column = P((n,)), P((1,) * n)
        for mu, nu in itertools.product(parts, repeat=2):
            for args in ((row, mu, nu), (mu, row, nu), (mu, nu, row)):
                assert kron_coeff(*args) == (mu == nu), args
            for args in ((column, mu, nu), (mu, column, nu), (mu, nu, column)):
                assert kron_coeff(*args) == (mu == conjugate(nu)), args
        for mu in parts[:: max(1, len(parts) // 6)]:  # the formulas against the oracle
            assert kron_by_class_sum(row, mu, mu) == 1 == kron_by_class_sum(column, mu, conjugate(mu))
            if n > 1:
                assert kron_by_class_sum(row, mu, parts[0] if mu != parts[0] else parts[-1]) == 0
        # one cell off a row or a column: the branching-rule forms, every key against the oracle
        for shape in {P((n - 1, 1)), conjugate(P((n - 1, 1)))} if n > 1 else ():
            for mu, nu in itertools.combinations_with_replacement(parts, 2):
                want = kron_by_class_sum(shape, mu, nu)
                key = tuple(sorted((shape, mu, nu)))
                assert coefficients._kron_route(*key) is coefficients._kron_closed_form, key
                for args in set(itertools.permutations((shape, mu, nu))):
                    assert kron_coeff(*args) == want, args


def scaled_queries():
    """Every scaled query n * t, n = 1..6, of the Kronecker triples t of size
    <= 4, as ascending keys."""
    triples = {tuple(sorted(t)) for t in direction_triples(Kind.KRONECKER, 4)}
    return sorted({tuple(sorted(P([n * p for p in x]) for x in t))
                   for t in triples for n in range(1, 7)})


def test_both_routes_agree_on_every_scaled_kronecker_query():
    queries = scaled_queries()
    assert max(sum(k[0]) for k in queries) == 24
    for key in queries:
        by_characters = coefficients._kron_by_characters(*key)
        assert coefficients._kron_by_h_basis(*key) == by_characters, key
        n = sum(key[0])
        if len(key[2]) < 2 or key[2][0] >= n - 1 or len(key[0]) >= n - 1:
            assert coefficients._kron_closed_form(*key) == by_characters, key
        assert kron_coeff(*key) == kron_coeff_oracle(*key) == by_characters, key


def test_each_route_is_taken_where_it_is_cheapest(ran):
    kron_coeff((3, 1), (2, 2), (4,))  # one row
    kron_coeff((2, 1, 1), (1, 1, 1, 1), (3, 1))  # one column
    kron_coeff((3, 1), (2, 2), (2, 1, 1))  # one cell off a row
    kron_coeff((3, 2), (2, 1, 1, 1), (2, 2, 1))  # one cell off a column
    kron_coeff((2, 2), (2, 2), (2, 2))
    kron_coeff((6, 6), (8, 4), (10, 2))  # two rows each, below the crossover
    kron_coeff((12, 12), (16, 8), (20, 4))
    kron_coeff((4,) * 6, (2,) * 12, (2,) * 12)  # two columns: conjugated
    assert [name for name, _ in ran] == [
        "_kron_closed_form", "_kron_closed_form", "_kron_closed_form", "_kron_closed_form",
        "_kron_by_characters", "_kron_by_characters", "_kron_by_h_basis", "_kron_by_h_basis"]


def test_routes_and_values_do_not_depend_on_query_order(ran):
    rng = random.Random(7)
    queries = [q for n in (5, 7) for q in itertools.product(list(partitions_of(n)), repeat=3)]
    queries = rng.sample(queries, 400) + [tuple(reversed(k)) for k in scaled_queries()]

    def run(order):
        clear_caches()
        ran.clear()
        values = {q: kron_coeff(*q) for q in order}
        return values, dict((key, name) for name, key in ran), set(coefficients._KRON_CACHE)

    first = run(queries)
    shuffled = list(queries)
    rng.shuffle(shuffled)
    assert run(shuffled) == first
    assert set(first[1].values()) == set(ROUTES)


@pytest.mark.parametrize("query, route", [
    (((4,), (3, 1), (3, 1)), "_kron_closed_form"),
    (((2, 2, 1), (3, 1, 1), (3, 2)), "_kron_by_characters"),
    (((24, 24), (32, 16), (40, 8)), "_kron_by_h_basis"),
    (((2, 2), (2, 1, 1), (3, 1)), "_kron_closed_form"),  # one cell off a row
    (((2, 1, 1, 1), (2, 2, 1), (3, 2)), "_kron_closed_form"),  # one cell off a column
])
def test_the_oracle_takes_a_route_the_primary_did_not(ran, query, route):
    value = kron_coeff(*query)
    assert {name for name, _ in ran} == {route}
    ran.clear()
    assert kron_coeff_oracle(*query) == value
    taken = {name for name, _ in ran}
    assert taken and route not in taken


def test_large_h_basis_query_is_cross_checked_by_the_character_sum(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEIS_CACHE", str(tmp_path / "cache.jsonl"))
    assert main(["coeff", "kron", "24,24", "32,16", "40,8", "--oracle"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["engine"] == "both" and rec["value"] == 1


def test_a_wrong_closed_form_fails_the_oracle_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEIS_CACHE", str(tmp_path / "cache.jsonl"))
    clear_caches()
    monkeypatch.setattr(coefficients, "_kron_closed_form", lambda lam, mu, nu: 1 - (lam == mu))
    try:
        assert main(["coeff", "kron", "3", "2,1", "2,1", "--oracle"]) == 4
        assert "mismatch" in capsys.readouterr().err
        # the row and column forms alone, read on a shape one cell off a row:
        # g((3,1)^3) = corners(3,1) - 1 = 1, where they give [(3,1) = (2,1,1)] = 0
        clear_caches()
        monkeypatch.setattr(coefficients, "_kron_closed_form",
                            lambda lam, mu, nu: int(lam == mu if len(nu) < 2 else mu == tuple(conjugate(nu))))
        assert main(["coeff", "kron", "3,1", "3,1", "3,1", "--oracle"]) == 4
        assert "mismatch" in capsys.readouterr().err
    finally:
        clear_caches()


# Whole rows g(lam, mu, .) of sizes 20 to 26, past the h-basis route's size
# cut, where a value has a second engine only pointwise: (lam, mu, the
# routes besides the closed forms that the row's queries take).  Both
# (19, 2, 1) and (18, 2, 1, 1) have a border strip of 21 cells, so the
# classes with a 21-cycle count in their row; the row of (10, 10) with
# itself meets the closed form g(lam, lam, 1^n).
ROWS = (((19, 2, 1), (18, 2, 1, 1), {"_kron_by_characters"}),
        ((12, 10), (9, 7, 6), {"_kron_by_characters", "_kron_by_h_basis"}),
        ((10, 10), (10, 10), {"_kron_by_h_basis"}),
        ((12, 12), (14, 10), {"_kron_by_h_basis"}),
        ((13, 13), (14, 12), {"_kron_by_h_basis"}))


def test_whole_rows_past_the_size_cut_meet_two_character_identities(ran):
    for lam, mu, routes in ROWS:
        del ran[:]
        for lhs, rhs in kronecker_row_sides(lam, mu):
            assert lhs == rhs, (lam, mu)
        assert {name for name, _ in ran} - {"_kron_closed_form"} == routes, (lam, mu)
