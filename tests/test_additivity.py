import itertools
import json
import random
from collections import Counter
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest

from heisenstab import additivity
from heisenstab.additivity import (
    AdditivityCertificate,
    BudgetExceededError,
    HeisenbergMatrix,
    KroneckerMatrix,
    MATRIX_KINDS,
    MatrixParseError,
    build_constraint_matrix,
    check_budget,
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
    _strict_system,
    _trade,
)
from heisenstab.partitions import Partition, is_dominated_by, partitions_up_to
from heisenstab.ratfeas import solve_strict
from support import certificate_by_all_pairs, exact_rank

P = Partition

WORKED = HeisenbergMatrix([(0, 4, 6, 1), (4, 5, 7, 2), (2, 3, 5, 0)])
WORKED_POTENTIALS = AdditivityCertificate(
    x=(F(0), F(1), F(-1)), y=(F(0), F(1), F(3), F(-2)))


# ---------------------------------------------------------------------------
# Matrix containers and parsing


def test_worked_matrix_views():
    assert WORKED.row_margins == (18, 10)
    assert WORKED.col_margins == (12, 18, 3)
    assert WORKED.pi == (7, 6, 5, 5, 4, 4, 3, 2, 2, 1)
    assert WORKED.total == 39


def test_matrix_repr_names_its_class():
    assert repr(KroneckerMatrix([[1]])) == "KroneckerMatrix([[1]])"
    assert repr(WORKED) == "HeisenbergMatrix([[0, 4, 6, 1], [4, 5, 7, 2], [2, 3, 5, 0]])"


def test_matrix_parsing():
    A = parse_matrix("0 1\n1 0\n", "h")
    assert isinstance(A, HeisenbergMatrix) and A.rows == ((0, 1), (1, 0))
    B = parse_matrix("2 0\n0 1\n", "k")
    assert isinstance(B, KroneckerMatrix) and B.rows == ((2, 0), (0, 1))


def test_matrix_parsing_rejects_bad_input():
    with pytest.raises(MatrixParseError):
        parse_matrix("1 1\n1 0\n", "h")  # nonzero corner
    with pytest.raises(MatrixParseError):
        parse_matrix("1 x\n", "k")
    with pytest.raises(MatrixParseError):
        parse_matrix("1 2\n3\n", "k")  # ragged
    with pytest.raises(MatrixParseError):
        parse_matrix("-1 1\n", "k")


# ---------------------------------------------------------------------------
# Enumeration


def test_kronecker_matrix_enumeration_counts():
    assert sum(1 for _ in kronecker_matrices((1, 1), (1, 1))) == 2
    ms = list(kronecker_matrices((2,), (2,)))
    assert len(ms) == 1 and ms[0].rows == ((2,),)
    assert list(kronecker_matrices((2,), (1,))) == []


def test_kronecker_class_filter():
    hits = list(margin_class(KroneckerMatrix, (2, 1), (2, 1), (2, 1)))
    assert all(A.pi == (2, 1) for A in hits)
    assert len(hits) == 1  # only the corner-heavy table sorts to (2,1)


def _brute_force_margin_matrices(cls, beta, gamma):
    """Every matrix of the class's shape, cell by cell: corner cells are 0,
    any other cell ranges up to the margins of its row and column (a cell
    outside the margins has only the other one).  Kept when the sums of
    the margin rows and columns are beta and gamma."""
    k = cls.corner
    row_cap = (None,) * k + tuple(beta)
    col_cap = (None,) * k + tuple(gamma)
    n_rows, n_cols = len(row_cap), len(col_cap)
    caps = [min((c for c in (rc, cc) if c is not None), default=0)
            for rc in row_cap for cc in col_cap]
    found = set()
    for values in itertools.product(*(range(c + 1) for c in caps)):
        rows = tuple(values[i * n_cols:(i + 1) * n_cols] for i in range(n_rows))
        if all(sum(rows[k + i]) == b for i, b in enumerate(beta)) and all(
                sum(row[k + j] for row in rows) == g for j, g in enumerate(gamma)):
            found.add(rows)
    return found


@pytest.mark.parametrize("cls", [KroneckerMatrix, HeisenbergMatrix])
def test_margin_matrices_match_brute_force(cls):
    margins = [c for length in range(3) for c in itertools.product(range(3), repeat=length)]
    for beta in margins:
        for gamma in margins:
            got = list(margin_matrices(cls, beta, gamma))
            assert all(type(A) is cls for A in got)
            rows = [A.rows for A in got]
            expected = _brute_force_margin_matrices(cls, beta, gamma)
            assert len(rows) == len(set(rows)) == len(expected), (beta, gamma)
            assert set(rows) == expected, (beta, gamma)


@pytest.mark.parametrize("cls", [KroneckerMatrix, HeisenbergMatrix])
def test_margin_matrices_come_in_row_order(cls):
    # rows top down, each (inner block for a cornered class) by its sum,
    # then first entry smallest first
    margins = [c for length in range(4) for c in itertools.product(range(3), repeat=length)
               if sum(c) <= 3]
    k = cls.corner
    for beta in margins:
        for gamma in margins:
            expected = sorted(_brute_force_margin_matrices(cls, beta, gamma), key=lambda rows: [
                (sum(row[k:]), row[k:]) for row in rows[k:]])
            assert [A.rows for A in margin_matrices(cls, beta, gamma)] == expected, (beta, gamma)


def test_heisenberg_matrix_enumeration_small():
    ms = list(heisenberg_matrices((1,), (1,)))
    assert len(ms) == 2
    assert sorted(A.pi for A in ms) == [(1,), (1, 1)]


def test_heisenberg_enumeration_degenerate_margins():
    ms = list(heisenberg_matrices((), ()))
    assert [A.rows for A in ms] == [((0,),)]
    for lam in partitions_up_to(3):
        ms = list(heisenberg_matrices((), lam))
        assert len(ms) == 1 and ms[0].pi == lam


def test_class_sizes_match_h_basis_product_multiset():
    # h_beta h_gamma = sum of h_pi(A) over the cornered matrices A with
    # margins (beta, gamma); its margin classes split that multiset
    for beta in partitions_up_to(3):
        for gamma in partitions_up_to(3):
            grouped = Counter(A.pi for A in heisenberg_matrices(beta, gamma))
            assert grouped == Counter(
                A.pi for A in margin_matrices(HeisenbergMatrix, beta, gamma))
            for alpha, size in grouped.items():
                assert sum(1 for _ in margin_class(HeisenbergMatrix, beta, gamma, alpha)) == size


def test_budget_guard():
    check_budget(HeisenbergMatrix, (2, 1), (3,))
    check_budget(KroneckerMatrix, (12,), (12,))  # total exactly 24
    check_budget(HeisenbergMatrix, (1, 1, 1, 1), (1, 1, 1, 1))  # exactly 5x5
    with pytest.raises(BudgetExceededError):
        check_budget(HeisenbergMatrix, (18, 10), (12, 18, 3))
    with pytest.raises(BudgetExceededError):
        check_budget(HeisenbergMatrix, (1, 1, 1, 1, 1), (5,))  # 6 rows > 5
    with pytest.raises(BudgetExceededError, match="margin total 26 exceeds budget 24"):
        check_budget(KroneckerMatrix, (13,), (13,))
    with pytest.raises(BudgetExceededError, match="margin total 25 exceeds budget 24"):
        check_budget(KroneckerMatrix, (13,), (12,))


# ---------------------------------------------------------------------------
# Additivity


def test_single_cell_matrix_is_additive():
    assert is_additive(KroneckerMatrix([(5,)])) is not None


def test_constant_matrix_is_additive():
    cert = is_additive(KroneckerMatrix([(2, 2), (2, 2)]))
    assert cert is not None
    assert check_certificate(KroneckerMatrix([(2, 2), (2, 2)]), cert)


def test_permutation_matrix_is_not_additive():
    assert is_additive(KroneckerMatrix([(1, 0), (0, 1)])) is None


def test_distinct_diagonal_is_not_additive():
    # potential sums over a grid satisfy s11 + s22 = s12 + s21, so a strict
    # diagonal cannot beat both off-diagonal zeros
    assert is_additive(KroneckerMatrix([(2, 0), (0, 1)])) is None


def test_worked_matrix_is_additive_and_known_potentials_verify():
    assert check_certificate(WORKED, WORKED_POTENTIALS)
    cert = is_additive(WORKED)
    assert cert is not None
    assert check_certificate(WORKED, cert)


def test_broken_potentials_fail():
    bad = AdditivityCertificate(x=(F(0), F(1), F(-1)), y=(F(0), F(1), F(3), F(2)))
    assert not check_certificate(WORKED, bad)


def test_zero_cornered_matrix_trivially_additive():
    A = HeisenbergMatrix([(0, 0), (0, 0)])
    cert = is_additive(A)
    assert cert is not None
    zero = AdditivityCertificate(x=(F(0), F(0)), y=(F(0), F(0)))
    assert check_certificate(A, zero)


def test_zero_potentials_verify_iff_no_strict_pairs():
    flat = KroneckerMatrix([(1, 1), (1, 1)])
    zeros = AdditivityCertificate(x=(F(0), F(0)), y=(F(0), F(0)))
    assert check_certificate(flat, zeros)
    assert not check_certificate(KroneckerMatrix([(2, 0), (0, 1)]), zeros)
    # every strict pair of these has its larger entry last in reading order
    assert not check_certificate(HeisenbergMatrix([(0, 0), (0, 1)]), zeros)
    assert not check_certificate(KroneckerMatrix([(0, 1)]),
                                 AdditivityCertificate(x=(F(0),), y=(F(0), F(0))))


def test_cornered_inner_permutation_block_not_additive():
    A = HeisenbergMatrix([(0, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert is_additive(A) is None


def test_certificate_dimension_mismatch():
    with pytest.raises(ValueError):
        check_certificate(WORKED, AdditivityCertificate(x=(F(0),), y=(F(0),)))


def test_the_level_check_agrees_with_all_pairs():
    # solver certificates, the same scaled to integers, each perturbed at
    # one potential, and small integer potentials, whose sums tie often
    rng = random.Random(20261020)
    margins = list(partitions_up_to(4))
    verdicts = Counter()
    for cls in (KroneckerMatrix, HeisenbergMatrix):
        for beta, gamma in itertools.product(margins, repeat=2):
            for A in margin_matrices(cls, beta, gamma):
                n_rows, n_cols = A.shape
                certs = [AdditivityCertificate(
                    x=tuple(rng.randint(-1, 1) for _ in range(n_rows)),
                    y=tuple(rng.randint(-1, 1) for _ in range(n_cols))) for _ in range(2)]
                cert = is_additive(A)
                if cert is not None:
                    scale = lcm(*(v.denominator for v in cert.x + cert.y))
                    certs += [cert, AdditivityCertificate(x=tuple(int(v * scale) for v in cert.x),
                                                          y=tuple(int(v * scale) for v in cert.y))]
                    for _ in range(4 if A.rows else 0):
                        x, y = list(cert.x), list(cert.y)
                        side = rng.choice((x, y))
                        side[rng.randrange(len(side))] += rng.choice((1, -1)) * rng.choice(
                            (F(1, 2), 1, 2, 3))
                        certs.append(AdditivityCertificate(x=tuple(x), y=tuple(y)))
                for c in certs:
                    verdict = certificate_by_all_pairs(A, c)
                    assert check_certificate(A, c) == verdict, (A, c)
                    verdicts[verdict] += 1
    assert min(verdicts.values()) > 1000, verdicts


def test_the_matrix_class_decides_additivity():
    rows = ((0, 1), (1, 0))
    plain, cornered = KroneckerMatrix(rows), HeisenbergMatrix(rows)
    assert is_additive(plain) is None
    cert = is_additive(cornered)
    assert cert is not None and check_certificate(cornered, cert)
    assert stable_triple(cornered).as_partitions() == ((1, 1), (1,), (1,))
    for A in (plain, cornered):
        assert kronecker_stable_triple(A) == heisenberg_stable_triple(A) == stable_triple(A)


def test_bad_solver_point_is_rejected(monkeypatch):
    # the re-validation must raise, also under python -O
    monkeypatch.setattr(additivity, "solve_strict", lambda rows, n: (F(0),) * n)
    with pytest.raises(RuntimeError, match="re-validation"):
        is_additive(WORKED)


# ---------------------------------------------------------------------------
# Threshold encoding against the consecutive-level pair encoding


def _pair_rows(A):
    """Reference encoding: one row s(a) - s(b) >= 1 per cell pair (a, b) on
    consecutive value levels, over the free potentials only."""
    cornered = isinstance(A, HeisenbergMatrix)
    n_rows, n_cols = len(A.rows), len(A.rows[0])
    skip = 1 if cornered else 0
    num_vars = n_rows + n_cols - 2 * skip

    def potential_sum(i, j):
        v = [0] * num_vars
        if i >= skip:
            v[i - skip] += 1
        if j >= skip:
            v[n_rows - skip + j - skip] += 1
        return v

    levels = {}
    for i, row in enumerate(A.rows):
        for j, e in enumerate(row):
            if not (cornered and i == j == 0):
                levels.setdefault(e, []).append((i, j))
    values = sorted(levels, reverse=True)
    rows = {tuple(p - q for p, q in zip(potential_sum(*a), potential_sum(*b)))
            for hi, lo in zip(values, values[1:])
            for a in levels[hi] for b in levels[lo]}
    return sorted(rows), num_vars


def _same_verdict(A, decide):
    return (solve_strict(*_pair_rows(A)) is not None) == (decide(A) is not None)


def test_threshold_encoding_matches_pair_encoding_cornered():
    matrices = list(heisenberg_matrices((2, 2, 2), (2, 2, 2)))
    assert len(matrices) == 451
    assert all(_same_verdict(A, is_additive) for A in matrices)


def test_threshold_encoding_matches_pair_encoding_plain():
    margins = [c for k in (1, 2, 3) for c in itertools.product((1, 2), repeat=k)]
    seen = additive = 0
    for beta, gamma in itertools.product(margins, repeat=2):
        for A in kronecker_matrices(beta, gamma):
            assert _same_verdict(A, is_additive), A
            seen += 1
            additive += is_additive(A) is not None
    assert seen > 200 and 0 < additive < seen


def test_heavy_matrix_system_is_small_and_not_additive():
    # 11 ones and 13 zeros: 143 cell pairs, one threshold row per cell
    A = HeisenbergMatrix(((0, 1, 1, 1, 1), (1, 0, 0, 1, 0), (1, 1, 0, 0, 0),
                          (1, 0, 1, 0, 0), (1, 0, 0, 0, 0)))
    rows, num_vars = _strict_system(A)
    assert len(rows) <= 40 and num_vars == 9
    assert is_additive(A) is None


# ---------------------------------------------------------------------------
# The 2 x 2 trade stage before Fourier-Motzkin


def _is_trade(A, trade):
    """Solver-free check of a trade: the upper and lower cells use the same
    row and column indices, no cell is the corner, and each upper cell is
    strictly larger than its partner."""
    upper, lower = trade
    if len(upper) != len(lower) or not upper:
        return False
    if any(sorted(c[axis] for c in upper) != sorted(c[axis] for c in lower) for axis in (0, 1)):
        return False
    if A.corner and (0, 0) in upper + lower:
        return False
    return all(A.rows[i][j] > A.rows[k][l] for (i, j), (k, l) in zip(upper, lower))


def _all_3x3(cls):
    for v in itertools.product(range(3), repeat=9):
        if not (cls.corner and v[0]):
            yield cls((v[0:3], v[3:6], v[6:9]))


def _sorted_form(A):
    """A matrix in A's orbit under transposition and the permutations of
    the rows and columns that the margins cover, all of which keep
    additivity: the lesser of A and its transpose, each with those columns,
    then those rows, sorted."""
    k = A.corner

    def sort_lines(rows):
        cols = list(zip(*rows))
        rows = list(zip(*(cols[:k] + sorted(cols[k:]))))
        return tuple(rows[:k] + sorted(rows[k:]))

    return type(A)(min(sort_lines(A.rows), sort_lines(tuple(zip(*A.rows)))))


def test_trades_are_sound_and_refute_every_non_additive_3x3_matrix():
    # every plain and cornered 3 x 3 matrix with entries 0..2: each trade
    # passes the solver-free check and Fourier-Motzkin agrees that the
    # matrix is not additive; each matrix without a trade is additive
    # (decided once per sorted form), so no non-additive matrix escapes
    refuted = total = 0
    unrefuted = set()
    for cls in (KroneckerMatrix, HeisenbergMatrix):
        for A in _all_3x3(cls):
            total += 1
            trade = _trade(A)
            if trade is None:
                unrefuted.add(_sorted_form(A))
                continue
            assert _is_trade(A, trade), (A, trade)
            assert solve_strict(*_strict_system(A)) is None, A
            refuted += 1
    assert (total, refuted) == (26244, 20734)
    for A in unrefuted:
        assert _trade(A) is None and is_additive(A) is not None, A


def test_trade_checker_rejects_non_trades():
    # each rejected pair below is strictly larger cell by cell, apart from
    # the reversed trade
    A = HeisenbergMatrix([(0, 1, 0), (3, 2, 0), (0, 1, 1)])
    assert _is_trade(A, (((1, 1), (2, 2)), ((2, 1), (1, 2))))
    assert not _is_trade(A, (((2, 1), (1, 2)), ((1, 1), (2, 2))))  # reversed
    assert not _is_trade(A, (((0, 1), (1, 0)), ((0, 0), (1, 1))))  # the corner
    assert not _is_trade(A, (((1, 0), (2, 2)), ((1, 1), (2, 0))))  # columns differ


def test_trade_skips_the_corner():
    # as a plain matrix the corner cell's 0 < 1 completes a trade; cornered,
    # the corner is never compared and the matrix is additive
    rows = ((0, 1), (1, 0))
    assert _trade(KroneckerMatrix(rows)) is not None
    assert _trade(HeisenbergMatrix(rows)) is None
    assert _trade(KroneckerMatrix([])) is None and _trade(KroneckerMatrix([(4,)])) is None


# Increasing rows and columns with distinct entries 0..8: no two rows or
# columns cross, yet no potentials order all nine cells.  These are the six
# such 3 x 3 tableaux that are not additive.
NO_TRADE_NOT_ADDITIVE = [
    ((0, 1, 4), (2, 5, 6), (3, 7, 8)),
    ((0, 1, 5), (2, 3, 6), (4, 7, 8)),
    ((0, 1, 5), (2, 4, 6), (3, 7, 8)),
    ((0, 2, 3), (1, 4, 7), (5, 6, 8)),
    ((0, 2, 3), (1, 5, 7), (4, 6, 8)),
    ((0, 2, 4), (1, 3, 7), (5, 6, 8)),
]


@pytest.mark.parametrize("rows", NO_TRADE_NOT_ADDITIVE)
def test_fourier_motzkin_refutes_what_no_trade_does(rows, monkeypatch):
    A = KroneckerMatrix(rows)
    assert _trade(A) is None
    calls = []
    monkeypatch.setattr(additivity, "solve_strict",
                        lambda *args: calls.append(1) or solve_strict(*args))
    assert is_additive(A) is None
    assert calls == [1]


def test_staircase_without_trade_is_certified():
    A = KroneckerMatrix([(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    assert _trade(A) is None
    cert = is_additive(A)
    assert cert is not None and check_certificate(A, cert)


def test_committed_verdict_table_is_rederived():
    # bench/verdicts.json lists the additive matrices of 46 margin classes
    # and of the whole (2,2,2,1)^2 cornered class; the file is only read
    path = Path(__file__).resolve().parents[1] / "bench" / "verdicts.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    assert len(table["classes"]) == 46
    for entry in table["classes"] + [table["sample"]]:
        cls = MATRIX_KINDS[entry["kind"]]
        matrices = list(margin_matrices(cls, entry["beta"], entry["gamma"]))
        assert len(matrices) == entry["matrices"], entry["beta"]
        additive = {A.rows for A in matrices if is_additive(A) is not None}
        assert additive == {tuple(map(tuple, m)) for m in entry["additive"]}, entry["beta"]
    assert table["sample"]["matrices"] == 3896


# ---------------------------------------------------------------------------
# Constraint matrix, flattening, permutohedron


def test_constraint_matrix_2_3_bit_exact():
    assert build_constraint_matrix(2, 3) == (
        (0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
        (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1),
    )


def test_constraint_matrix_rows_independent():
    for p in range(1, 5):
        for q in range(1, 5):
            assert exact_rank(build_constraint_matrix(p, q)) == p + q


# the constraint matrices above never put two nonzero entries in a pivot
# column, so only these rows run the elimination step
@pytest.mark.parametrize("rows, rank", [
    ([(1, 2), (2, 4)], 1),
    ([(2, 1, 0), (1, 1, 1), (3, 2, 1)], 2),
    ([(0, 3, 1), (2, 1, 1), (4, 5, 3)], 2),
    ([(1, 1), (1, -1)], 2),
])
def test_exact_rank_eliminates_rows_that_share_a_pivot_column(rows, rank):
    assert exact_rank(rows) == rank


def test_constraint_matrix_reproduces_margins():
    for beta in partitions_up_to(3):
        for gamma in partitions_up_to(3):
            if not beta or not gamma:
                continue
            M = build_constraint_matrix(len(beta), len(gamma))
            for A in heisenberg_matrices(beta, gamma):
                phi = flatten(A)
                out = tuple(sum(m * v for m, v in zip(row, phi)) for row in M)
                assert out == tuple(beta) + tuple(gamma)


def test_flatten_worked_matrix():
    assert flatten(WORKED) == (4, 6, 1, 4, 5, 7, 2, 2, 3, 5, 0)


def test_flatten_zero_matrix():
    assert flatten(HeisenbergMatrix([(0, 0), (0, 0)])) == (0, 0, 0)


def test_flatten_keeps_every_entry_of_a_plain_matrix():
    # only a cornered matrix has a corner to skip
    assert flatten(KroneckerMatrix([(1, 2), (3, 4)])) == (1, 2, 3, 4)
    assert flatten(KroneckerMatrix([])) == ()


def test_permutohedron_membership():
    # x lies in the permutohedron of a iff x is majorized by a (Rado)
    a = (3, 1, 0)
    assert is_dominated_by(a, a)
    for perm in itertools.permutations(a):
        assert is_dominated_by(perm, a)
    mean = (F(4, 3), F(4, 3), F(4, 3))
    assert is_dominated_by(mean, a)
    assert not is_dominated_by((3, 1, 0), (2, 1, 1))


# ---------------------------------------------------------------------------
# Minimality and stable triples


def test_additive_implies_integer_minimal_small():
    for beta in partitions_up_to(3):
        for gamma in partitions_up_to(3):
            for A in heisenberg_matrices(beta, gamma):
                if is_additive(A) is not None:
                    assert integer_minimality_check(A) is None, A


def test_minimality_budget_refusal():
    with pytest.raises(BudgetExceededError):
        integer_minimality_check(WORKED)


def test_minimality_spots_a_witness():
    # the flat inner block is majorized by nothing; the spread-out matrix
    # with the same margins and total majorizes down to it
    dominated = HeisenbergMatrix([(0, 0, 0), (0, 2, 0), (0, 0, 2)])
    witness = integer_minimality_check(dominated)
    assert witness is not None
    assert witness.total == dominated.total


def test_plain_singleton_class_is_minimal():
    # the plain class of margins (2), (2) holds [[2]] alone; the cornered
    # class with the same margins is no witness against it
    assert integer_minimality_check(KroneckerMatrix([[2]])) is None


def test_degree_separated_classes_both_minimal():
    inner = HeisenbergMatrix([(0, 0), (0, 1)])
    outer = HeisenbergMatrix([(0, 1), (1, 0)])
    assert integer_minimality_check(inner) is None
    assert integer_minimality_check(outer) is None


def test_worked_matrix_generates_certified_triple():
    t = heisenberg_stable_triple(WORKED)
    assert t is not None
    assert t.alpha == (7, 6, 5, 5, 4, 4, 3, 2, 2, 1)
    assert tuple(t.beta) == (18, 10)
    assert tuple(t.gamma) == (12, 18, 3)
    assert t.as_partitions() == ((7, 6, 5, 5, 4, 4, 3, 2, 2, 1), (18, 10), (18, 12, 3))
    assert check_certificate(WORKED, t.certificate)


def test_zero_matrix_generates_degenerate_triple():
    t = heisenberg_stable_triple(HeisenbergMatrix([(0,)]))
    assert t is not None
    assert t.as_partitions() == ((), (), ())


def test_non_additive_matrix_is_rejected():
    A = HeisenbergMatrix([(0, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert heisenberg_stable_triple(A) is None
    assert kronecker_stable_triple(KroneckerMatrix([(1, 0), (0, 1)])) is None


def test_unit_cell_recovers_classical_triple():
    t = kronecker_stable_triple(KroneckerMatrix([(1,)]))
    assert t is not None
    assert t.as_partitions() == ((1,), (1,), (1,))


def test_scaling_preserves_additivity_with_same_certificate():
    cert = is_additive(WORKED)
    for n in range(1, 4):
        assert check_certificate(WORKED.scaled(n), cert)
    k_cert = is_additive(KroneckerMatrix([(2, 1), (0, 0)]))
    assert k_cert is not None
    for n in range(1, 4):
        assert check_certificate(KroneckerMatrix([(2, 1), (0, 0)]).scaled(n), k_cert)


def test_single_row_matrix_yields_split_style_triple():
    t = kronecker_stable_triple(KroneckerMatrix([(2, 1)]))
    assert t is not None
    assert t.as_partitions() == ((2, 1), (3,), (2, 1))
