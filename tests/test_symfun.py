from math import factorial

import pytest

from heisenstab.partitions import Partition, is_dominated_by, partitions_of
from heisenstab.symfun import (
    character,
    class_size,
    dimension,
    kostka,
    kostka_by_enumeration,
    schur_in_h_basis,
    zee,
)
from support import hook_length_dimension


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


def test_zee_times_class_size():
    for n in range(1, 7):
        for rho in partitions_of(n):
            assert zee(rho) * class_size(rho) == factorial(n)


def test_first_orthogonality_at_identity():
    for n in range(1, 7):
        assert sum(dimension(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


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
