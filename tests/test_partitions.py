import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heisenstab.partitions import (
    Composition,
    Dominance,
    NotAPartitionError,
    Partition,
    add,
    dominates,
    is_dominated_by,
    partitions_of,
    pi_sequence,
    scale,
    subpartitions_of_size,
)


def test_construction_normalizes_trailing_zeros():
    assert Partition((3, 1, 0, 0)) == (3, 1)
    assert Partition(()) == ()
    assert Partition((0, 0)) == ()
    assert Partition((5,)).size == 5


def test_construction_rejects_bad_input():
    with pytest.raises(NotAPartitionError):
        Partition((1, 2))
    with pytest.raises(NotAPartitionError):
        Partition((2, -1))


def test_parse_and_str_round_trip():
    assert Partition.parse("7,6,5,5,4,4,3,2,2,1") == (7, 6, 5, 5, 4, 4, 3, 2, 2, 1)
    assert Partition.parse("0") == ()
    assert Partition.parse("") == ()
    assert str(Partition((2, 1))) == "2,1"
    assert str(Partition()) == "0"
    with pytest.raises(NotAPartitionError):
        Partition.parse("2,x")


def test_pi_sequence_of_matrix():
    rows = [(0, 4, 6, 1), (4, 5, 7, 2), (2, 3, 5, 0)]
    assert pi_sequence(rows) == (7, 6, 5, 5, 4, 4, 3, 2, 2, 1)


def test_pi_sequence_zero_matrix_is_empty():
    assert pi_sequence([(0, 0), (0, 0)]) == ()


def test_pi_sequence_of_composition():
    assert pi_sequence(Composition((1, 3, 0, 2))) == (3, 2, 1)


def test_pi_sequence_rejects_negative():
    with pytest.raises(ValueError):
        pi_sequence([(1, -1)])


@pytest.mark.parametrize("data", [("1",), [(1, "1")]], ids=["flat", "matrix"])
def test_pi_sequence_rejects_non_integer_entries(data):
    with pytest.raises(ValueError):
        pi_sequence(data)


def test_add_scale():
    assert add(Partition((2, 1)), Partition((1, 1))) == (3, 2)
    assert scale(3, Partition((2, 1))) == (6, 3)
    assert scale(0, Partition((2, 1))) == ()
    # the operators keep their tuple meaning: concatenation and repetition
    assert Partition((2, 1)) + (0,) == (2, 1, 0)
    assert 2 * Partition((2, 1)) == (2, 1, 2, 1)


def test_dominates_basic_verdicts():
    assert dominates((1, 1, 1), (3, 0, 0)) == Dominance.STRICTLY_DOMINATED
    assert dominates((2, 2), (3, 0, 1)) == Dominance.STRICTLY_DOMINATED
    assert dominates((3, 0, 1), (2, 2)) == Dominance.DOMINATES
    assert dominates((3, 1), (1, 3)) == Dominance.EQUAL_PI
    assert dominates((1,), (2,)) == Dominance.DIFFERENT_SUM
    assert dominates((3, 1, 1, 1), (2, 2, 2)) == Dominance.INCOMPARABLE


def test_dominates_exact_rationals():
    a = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert dominates(a, (1, 0, 0)) == Dominance.STRICTLY_DOMINATED
    assert is_dominated_by(a, a)


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=6))
def test_pi_invariant_under_permutation(entries):
    base = pi_sequence(entries)
    for perm in itertools.islice(itertools.permutations(entries), 24):
        assert pi_sequence(list(perm)) == base


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
       st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5))
def test_dominance_antisymmetry_at_pi_level(xs, ys):
    rel = dominates(xs, ys)
    rev = dominates(ys, xs)
    if rel == Dominance.STRICTLY_DOMINATED:
        assert rev == Dominance.DOMINATES
    if rel == Dominance.EQUAL_PI:
        assert rev == Dominance.EQUAL_PI


def test_dominance_extremes_among_partitions():
    n = 6
    top = Partition((n,))
    bottom = Partition([1] * n)
    for lam in partitions_of(n):
        assert is_dominated_by(lam, top)
        assert is_dominated_by(bottom, lam)


def test_dominance_transitive_on_small_partitions():
    parts = list(partitions_of(6))
    below = {
        lam: {mu for mu in parts if is_dominated_by(mu, lam)} for lam in parts
    }
    for lam in parts:
        for mu in below[lam]:
            assert below[mu] <= below[lam]


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=5).map(
           lambda xs: Partition(sorted(xs, reverse=True))),
       st.lists(st.integers(min_value=1, max_value=9), max_size=5).map(
           lambda xs: Partition(sorted(xs, reverse=True))))
def test_add_sums_sizes_and_parts(a, b):
    s = add(a, b)
    assert s.size == a.size + b.size
    assert s == tuple(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


@given(st.lists(st.integers(min_value=1, max_value=6), max_size=4).map(
           lambda xs: Partition(sorted(xs, reverse=True))),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=4))
def test_scale_distributes(a, m, n):
    assert add(scale(m, a), scale(n, a)) == scale(m + n, a)


def test_partitions_of_counts():
    counts = [len(list(partitions_of(n))) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_subpartitions_of_size():
    inside = set(subpartitions_of_size((3, 2), 3))
    assert inside == {Partition((3,)), Partition((2, 1))}
    # every subpartition is contained and has the right size
    for lam in subpartitions_of_size((4, 2, 1), 5):
        assert lam.size == 5 and len(lam) <= 3
        assert all(p <= q for p, q in zip(lam, (4, 2, 1)))
    assert list(subpartitions_of_size((2, 1), 0)) == [Partition(())]
    assert list(subpartitions_of_size((2, 1), 4)) == []


@pytest.mark.parametrize("data", [[(1, 2), 3], [3, (1, 2)], [[1], 2, [3]]],
                         ids=["row_first", "entry_first", "entry_between_rows"])
def test_pi_sequence_rejects_ragged_mixed_input(data):
    with pytest.raises(ValueError):
        pi_sequence(data)
