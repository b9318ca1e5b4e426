import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heisenstab.additivity import KroneckerMatrix
from heisenstab.partitions import (
    Composition,
    NotAPartitionError,
    Partition,
    _bounded_vectors,
    _inside,
    add,
    is_dominated_by,
    partitions_of,
    pi_sequence,
    scale,
    subpartitions_of_size,
)
from support import PART_FORMS, PART_VALUES, partition_mismatches, transfers_from


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


def test_the_one_pass_loop_agrees_with_the_checks():
    # every list of up to three parts, as a list, a tuple and a generator:
    # the same type and value, or the same error type and message
    assert len(PART_VALUES) == 11 and len(PART_FORMS) == 3
    assert partition_mismatches(3) == []


def test_parse_and_str_round_trip():
    assert Partition.parse("7,6,5,5,4,4,3,2,2,1") == (7, 6, 5, 5, 4, 4, 3, 2, 2, 1)
    assert Partition.parse("0") == ()
    assert Partition.parse("") == ()
    assert str(Partition((2, 1))) == "2,1"
    assert str(Partition()) == "0"
    with pytest.raises(NotAPartitionError):
        Partition.parse("2,x")


# what Partition.parse makes of each token at the commit that made Partition a
# Composition: a value, or the error type and message
PARSED = {
    "3,2": (3, 2), " 3 , 2 ": (3, 2), "": (), "0": (), "0,0": (), "3,0": (3,),
    "3,,2": "cannot parse partition '3,,2'",
    "a": "cannot parse partition 'a'",
    " a ": "cannot parse partition 'a'",
    "1,2": "parts not weakly decreasing: (1, 2)",
    "-1": "cannot parse partition '-1'",
    "+3": "cannot parse partition '+3'",
    "1_0": "cannot parse partition '1_0'",
    "2.0": "cannot parse partition '2.0'",
    "3,2,": "cannot parse partition '3,2,'",
}


@pytest.mark.parametrize("text", list(PARSED))
def test_parse_gives_the_value_or_the_message(text):
    want = PARSED[text]
    if isinstance(want, tuple):
        got = Partition.parse(text)
        assert type(got) is Partition and got == want
    else:
        with pytest.raises(NotAPartitionError) as exc:
            Partition.parse(text)
        assert str(exc.value) == want


def test_a_partition_is_a_composition_with_the_same_repr_and_str():
    assert isinstance(Partition((2, 1)), Composition)
    assert repr(Partition((2, 1))) == "Partition((2, 1))"
    assert repr(Composition((1, 0))) == "Composition((1, 0))"
    assert str(Composition((1, 0, 2))) == "1,0,2"
    assert str(Composition()) == "0"
    assert Partition((2, 1)).size == Composition((1, 0, 2)).size == 3


def test_pi_sequence_of_matrix():
    # pi of a matrix is its .pi: pi_sequence of its entries as one flat sequence
    rows = [(0, 4, 6, 1), (4, 5, 7, 2), (2, 3, 5, 0)]
    assert KroneckerMatrix(rows).pi == pi_sequence(itertools.chain.from_iterable(rows)) \
        == (7, 6, 5, 5, 4, 4, 3, 2, 2, 1)


def test_pi_sequence_zero_matrix_is_empty():
    assert KroneckerMatrix([(0, 0), (0, 0)]).pi == pi_sequence([0, 0, 0, 0]) == ()


def test_pi_sequence_of_composition():
    # a Composition, a list and an iterator of the same entries read alike
    for data in (Composition((1, 3, 0, 2)), [1, 3, 0, 2], iter((1, 3, 0, 2))):
        got = pi_sequence(data)
        assert type(got) is Partition and got == (3, 2, 1)


def test_composition_parse_reads_zero_and_blank_as_empty():
    assert Composition.parse("0") == Composition.parse(" ") == ()


def test_pi_sequence_rejects_negative():
    with pytest.raises(ValueError):
        pi_sequence([1, -1])


# a row is not an entry, ragged or not: pi of a matrix is its .pi
@pytest.mark.parametrize("data", [("1",), [(1, "1")], [[2, 0], [1, 3]], [(1, 2), (3,)]],
                         ids=["flat", "matrix", "rows", "ragged_rows"])
def test_pi_sequence_rejects_non_integer_entries(data):
    with pytest.raises(ValueError, match="non-integer part"):
        pi_sequence(data)


def test_add_scale():
    assert add(Partition((2, 1)), Partition((1, 1))) == (3, 2)
    assert scale(3, Partition((2, 1))) == (6, 3)
    assert scale(0, Partition((2, 1))) == ()
    # the factor is refused before Partition would refuse the negative parts
    with pytest.raises(ValueError, match="scale factor must be nonnegative"):
        scale(-1, (2, 1))
    # both shapes are read through Partition: no bad shape sums or scales to a good one
    for call in (lambda: add((2, -1), (0, 1)), lambda: add((1, 2), (3, 0)),
                 lambda: add((0, 1), (1,)), lambda: scale(2, (True,)),
                 lambda: scale(2, (None,)), lambda: scale(0, (1, 2))):
        with pytest.raises(NotAPartitionError):
            call()
    # the operators keep their tuple meaning: concatenation and repetition
    assert Partition((2, 1)) + (0,) == (2, 1, 0)
    assert 2 * Partition((2, 1)) == (2, 1, 2, 1)


# (a, b, a ⊴ b, b ⊴ a): strictly below, strictly below at unequal lengths,
# equal pi, different sums, incomparable, and with negative entries
DOMINANCE = [
    ((1, 1, 1), (3, 0, 0), True, False),
    ((2, 2), (3, 0, 1), True, False),
    ((3, 1), (1, 3), True, True),
    ((1,), (2,), False, False),
    ((3, 1, 1, 1), (2, 2, 2), False, False),
    ((0, 0), (1, -1), True, False),
]


def test_dominates_basic_verdicts():
    for a, b, below, above in DOMINANCE:
        assert is_dominated_by(a, b) is below, (a, b)
        assert is_dominated_by(b, a) is above, (b, a)


def test_dominates_exact_rationals():
    a = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
    assert is_dominated_by(a, (1, 0, 0)) is True
    assert is_dominated_by((1, 0, 0), a) is False
    assert is_dominated_by(a, a)


@pytest.mark.parametrize("entries", [(0.1, 0.2), (Fraction(1, 10), 0.2), ("1",), (True,), (None,)],
                         ids=["floats", "float_among_fractions", "string", "bool", "none"])
def test_dominance_refuses_entries_that_are_not_exact_rationals(entries):
    # 0.1 + 0.2 != 0.3 in binary floating point, so a float comparison
    # would find the sums different here instead of refusing
    with pytest.raises(ValueError):
        is_dominated_by(entries, (Fraction(3, 10),))
    with pytest.raises(ValueError):
        is_dominated_by((Fraction(3, 10),), entries)
    assert is_dominated_by((Fraction(1, 10), Fraction(2, 10)), (Fraction(3, 10),))


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=6))
def test_pi_invariant_under_permutation(entries):
    base = pi_sequence(entries)
    for perm in itertools.islice(itertools.permutations(entries), 24):
        assert pi_sequence(list(perm)) == base


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
       st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5))
def test_dominance_antisymmetry_at_pi_level(xs, ys):
    both = is_dominated_by(xs, ys) and is_dominated_by(ys, xs)
    assert both == (pi_sequence(xs) == pi_sequence(ys))


def test_dominance_extremes_among_partitions():
    n = 6
    top = Partition((n,))
    bottom = Partition([1] * n)
    for lam in partitions_of(n):
        assert is_dominated_by(lam, top)
        assert is_dominated_by(bottom, lam)


def test_dominance_is_reachability_by_transfers():
    # an oracle that never forms a prefix sum: mu ⊴ lam exactly when moving
    # boxes down from lam reaches mu; 919 pairs of one size
    pairs = 0
    for n in range(9):
        parts = list(partitions_of(n))
        for lam in parts:
            reach = transfers_from(lam)
            for mu in parts:
                assert is_dominated_by(mu, lam) == (mu in reach), (mu, lam)
                pairs += 1
    assert pairs == 919


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


def test_inside_yields_every_subpartition_largest_part_first():
    # brute force: every vector under outer, kept when weakly decreasing;
    # partitions of one size, largest part first, are in descending order
    for n in range(11):
        for outer in partitions_of(n):
            by_size: dict[int, list[tuple[int, ...]]] = {}
            for v in itertools.product(*(range(p + 1) for p in outer)):
                if all(a >= b for a, b in zip(v, v[1:])):
                    by_size.setdefault(sum(v), []).append(tuple(filter(None, v)))
            for size in range(-1, n + 2):
                assert list(_inside(tuple(outer), size)) == sorted(
                    by_size.get(size, []), reverse=True), (outer, size)


def test_bounded_vectors_come_first_entry_smallest_first():
    for caps in itertools.chain.from_iterable(
            itertools.product(range(4), repeat=k) for k in range(5)):
        for total in range(-1, sum(caps) + 2):
            expected = [v for v in itertools.product(*(range(c + 1) for c in caps))
                        if sum(v) == total]
            assert list(_bounded_vectors(total, caps)) == expected, (total, caps)


@pytest.mark.parametrize("data", [[(1, 2), 3], [3, (1, 2)], [[1], 2, [3]]],
                         ids=["row_first", "entry_first", "entry_between_rows"])
def test_pi_sequence_rejects_ragged_mixed_input(data):
    with pytest.raises(ValueError):
        pi_sequence(data)
