"""Partitions and compositions take exact integer parts only, checked once
at construction; the engines behind the public functions run on the
validated tuples."""

import pytest

from heisenstab.coefficients import heisenberg_coeff, kron_coeff, lr_coeff
from heisenstab.partitions import Composition, NotAPartitionError, Partition
from heisenstab.stability import (
    ORACLE, PRIMARY, Kind, NotATripleError, Triple, classify_triple, coefficient,
    stability_check, stabilization_sequence)
from support import Index


def test_parts_are_read_in_one_pass():
    assert Partition(p for p in (3, 1, 0)) == (3, 1)
    assert Composition(p for p in (0, 2, 0)) == (0, 2, 0)
    with pytest.raises(NotAPartitionError):
        Partition(p for p in (2, 1.5))
    base, direction = ((2,), (1,), (1,)), ((1,), (1,), ())
    seq = stabilization_sequence(Kind.LR, base, direction, (n for n in (Index(3), 2)))
    assert seq == [(3, 1), (2, 1)] and type(seq[0][0]) is int

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
    from heisenstab.additivity import HeisenbergMatrix, MatrixParseError, parse_matrix

    assert HeisenbergMatrix(row for row in ([0, 3], (1, 2))).rows == ((0, 3), (1, 2))
    assert parse_matrix("0 3\n1 2\n", "h").rows == ((0, 3), (1, 2))
    with pytest.raises(MatrixParseError):
        parse_matrix("0 3\n1 2.5\n", "h")


def test_matrix_shapes_and_signs_the_text_format_cannot_write():
    from heisenstab.additivity import HeisenbergMatrix, KroneckerMatrix, MatrixParseError, parse_matrix

    # parse_matrix's tokens are digits, so only a direct call passes a negative entry
    with pytest.raises(MatrixParseError, match="negative entry"):
        KroneckerMatrix([(1, -1)])
    for rows in ([], [()]):
        with pytest.raises(MatrixParseError, match="at least the corner"):
            HeisenbergMatrix(rows)
    assert parse_matrix("0 1\n\n1 0\n", "h").rows == ((0, 1), (1, 0))


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


def test_a_hand_built_triple_is_validated_before_any_engine_runs(monkeypatch):
    asked = []
    monkeypatch.setitem(PRIMARY, Kind.LR, lambda *q: asked.append(q) or 1)

    def hand_built(alpha, beta, gamma):
        return Triple(alpha=alpha, beta=beta, gamma=gamma, kind=Kind.LR,
                      flags=frozenset({Kind.LR}), coefficient=1)

    with pytest.raises(NotAPartitionError):
        stability_check(hand_built([1, 2], [1], [2]))
    with pytest.raises(NotATripleError) as err:
        stability_check(hand_built(Partition((3,)), Partition((1,)), Partition((1,))))
    assert err.value.reason == "size_pattern"
    assert "triple sizes (3; 1, 1) violate the lr pattern" in str(err.value)
    assert asked == []
    monkeypatch.undo()
    # list shapes that are partitions scan as classify_triple's Partitions do
    report = stability_check(hand_built([2, 1], [2], [1]), n_max=3)
    assert report[1:] == stability_check(classify_triple((2, 1), (2,), (1,)), n_max=3)[1:]


def _triple(shapes, kind, flags, coefficient):
    return Triple(*shapes, kind=kind, flags=frozenset(flags), coefficient=coefficient)


def test_a_hand_built_triple_is_read_off_its_shapes():
    # a coefficient the shapes do not have
    with pytest.raises(ValueError, match="triple coefficient 7 is not the lr coefficient 1"):
        stability_check(_triple(((2, 1), (2,), (1,)), Kind.LR, {Kind.LR}, 7))
    # a value 0 at scale 1, refused as classify_triple refuses it
    with pytest.raises(NotATripleError) as err:
        stability_check(_triple(((1, 1), (2,), ()), Kind.LR, {Kind.LR}, 1))
    assert err.value.reason == "zero_coefficient"
    with pytest.raises(NotATripleError) as classified:
        classify_triple((1, 1), (2,), ())
    assert str(err.value) == str(classified.value)
    # a kind and flags that the sizes contradict: the report is classify_triple's
    hand_built = _triple(((2, 1), (2,), (1,)), Kind.HEISENBERG, {Kind.HEISENBERG}, 1)
    report = stability_check(hand_built, n_max=3)
    assert report == stability_check(classify_triple((2, 1), (2,), (1,)), n_max=3)
    assert report.verdict.value == "certified" and report.triple.kind is Kind.LR
    assert report.triple.flags == {Kind.LR, Kind.HEISENBERG}
