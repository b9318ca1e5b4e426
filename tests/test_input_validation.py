"""Partitions and compositions take exact integer parts only, checked once
at construction; the engines behind the public functions run on the
validated tuples."""

from fractions import Fraction

import pytest

from heisenstab.coefficients import heisenberg_coeff, kron_coeff, lr_coeff
from heisenstab.partitions import Composition, NotAPartitionError, Partition
from heisenstab.stability import ORACLE, PRIMARY, Kind, coefficient


class Three:
    """An integer-like object: operator.index accepts it."""

    def __index__(self):
        return 3


def test_non_integer_parts_are_rejected():
    for bad in ([2.7], [2.0], [True], [2, False], ["3"], [Fraction(2)], [None]):
        with pytest.raises(NotAPartitionError):
            Partition(bad)
        with pytest.raises(ValueError):
            Composition(bad)
    assert Partition([Three(), 1]) == (3, 1)
    assert Composition([0, Three()]) == (0, 3)


def test_parts_are_read_in_one_pass():
    assert Partition(p for p in (3, 1, 0)) == (3, 1)
    assert Composition(p for p in (0, 2, 0)) == (0, 2, 0)
    with pytest.raises(NotAPartitionError):
        Partition(p for p in (2, 1.5))


def test_a_partition_is_not_revalidated():
    lam = Partition((3, 1))
    assert Partition(lam) is lam
    assert type(Partition((3, 1))) is Partition


def test_public_engines_validate_their_arguments():
    for engine in (lr_coeff, kron_coeff, heisenberg_coeff):
        with pytest.raises(NotAPartitionError):
            engine((1, 2), (1,), (1, 1))
        with pytest.raises(NotAPartitionError):
            engine((2,), (1.0,), (1,))
    with pytest.raises(ValueError):
        kron_coeff((2,), (1,), (1,))
    assert lr_coeff((2,), (1,), (2,)) == 0


def test_kind_tables_cover_every_kind():
    assert set(PRIMARY) == set(ORACLE) == set(Kind)
    for kind, (lam, mu, nu) in ((Kind.LR, ((2, 1), (1,), (1,))),
                                (Kind.KRONECKER, ((2, 1), (2, 1), (2, 1))),
                                (Kind.HEISENBERG, ((2, 1), (1, 1), (2,)))):
        value = coefficient(kind, lam, mu, nu)
        assert value == PRIMARY[kind](lam, mu, nu) == ORACLE[kind](lam, mu, nu)


def test_matrix_entries_must_be_integers():
    from heisenstab.additivity import HeisenbergMatrix, KroneckerMatrix, MatrixParseError, parse_matrix

    for bad in (2.7, 2.0, True, False, "3", Fraction(5, 2), Fraction(2), None):
        with pytest.raises(MatrixParseError):
            KroneckerMatrix([[1, bad]])
        with pytest.raises(MatrixParseError):
            HeisenbergMatrix([[0, bad], [1, 1]])
    assert KroneckerMatrix([[Three(), 1]]).rows == ((3, 1),)
    assert HeisenbergMatrix(row for row in ([0, 3], (1, 2))).rows == ((0, 3), (1, 2))
    assert parse_matrix("0 3\n1 2\n", "h").rows == ((0, 3), (1, 2))
    with pytest.raises(MatrixParseError):
        parse_matrix("0 3\n1 2.5\n", "h")


# int() also reads "1_0" as 10, "+3" as 3 and the Arabic-Indic digit three;
# the text parsers take ASCII digits only
NOT_ASCII_DIGITS = ("1_0", "+3", "٣", "-1", "3.0", "")


def test_partition_parse_takes_ascii_digits_only():
    for bad in NOT_ASCII_DIGITS:
        with pytest.raises(NotAPartitionError):
            Partition.parse(f"4,{bad}")
    assert Partition.parse(" 3, 2 ") == (3, 2)
    assert Partition.parse("10,5") == (10, 5)


def test_composition_parse_takes_ascii_digits_only():
    for bad in NOT_ASCII_DIGITS:
        with pytest.raises(ValueError):
            Composition.parse(f"{bad},1")
    assert Composition.parse("0, 2,0") == (0, 2, 0)


def test_parse_matrix_takes_ascii_digits_only():
    from heisenstab.additivity import MatrixParseError, parse_matrix

    for bad in NOT_ASCII_DIGITS[:-1]:
        for kind in ("k", "h"):
            with pytest.raises(MatrixParseError):
                parse_matrix(f"0 {bad}\n1 1\n", kind)
    assert parse_matrix("0 10\n1 1\n", "k").rows == ((0, 10), (1, 1))
    with pytest.raises(ValueError, match="unknown matrix kind"):
        parse_matrix("0 1\n", "x")
