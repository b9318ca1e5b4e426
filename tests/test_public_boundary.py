"""Partitions are validated once, at the public boundary: the engines'
memos hold only plain tuples, which the cyclic GC untracks, while every
public result is still a Partition; and a stabilization sequence validates
its shapes once, however many steps it takes."""

import pytest

from heisenstab import coefficients, partitions
from heisenstab.additivity import KroneckerMatrix
from heisenstab.coefficients import clear_caches, heisenberg_product
from heisenstab.partitions import (
    NotAPartitionError,
    Partition,
    partitions_of,
    pi_sequence,
    subpartitions_of_size,
)
from heisenstab.stability import Kind, coefficient, stabilization_sequence
from support import Index


def _partitions_in(obj):
    """Every Partition instance inside nested tuples, lists and dicts."""
    if isinstance(obj, Partition):
        yield obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _partitions_in(key)
            yield from _partitions_in(value)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _partitions_in(item)


def _recording(monkeypatch, name):
    """Route the engines' calls of an lru_cache memo through a recorder of
    the values it returns: every value it stores is returned at least once."""
    memo = getattr(coefficients, name)
    seen = []

    def recorder(*args):
        value = memo(*args)
        seen.append(value)
        return value

    recorder.cache_clear = memo.cache_clear
    monkeypatch.setattr(coefficients, name, recorder)
    return seen


def test_the_engine_memos_hold_no_partition(monkeypatch):
    strips = _recording(monkeypatch, "_strips")
    tables = _recording(monkeypatch, "_split_table")
    clear_caches()
    product = heisenberg_product((4, 3, 2, 1), (3, 2, 1))
    seq = stabilization_sequence(Kind.HEISENBERG, ((3, 1), (2, 1), (2,)),
                                 ((2, 1), (2,), (1,)), range(4))
    assert strips and tables and coefficients._LR_PRODUCT_CACHE
    assert coefficients._KRON_CACHE
    assert not any(_partitions_in(strips))
    assert not any(_partitions_in(tables))
    assert not any(_partitions_in(list(coefficients._LR_PRODUCT_CACHE.values())))
    assert not any(_partitions_in(list(coefficients._KRON_CACHE)))
    # the public results stay Partitions
    assert all(type(lam) is Partition for lam in product.terms)
    assert [n for n, _ in seq] == [0, 1, 2, 3] and all(v > 0 for _, v in seq)
    assert all(type(lam) is Partition for lam in partitions_of(6))
    assert all(type(lam) is Partition for lam in subpartitions_of_size((3, 2, 1), 3))
    assert type(pi_sequence([2, 0, 1, 3])) is Partition
    assert type(KroneckerMatrix([[2, 0], [1, 3]]).pi) is Partition


@pytest.mark.parametrize("kind, base, direction", [
    (Kind.LR, ((2, 1), (1,), (1, 1)), ((2,), (1,), (1,))),
    (Kind.KRONECKER, ((2, 1), (2, 1), (2, 1)), ((1,), (1,), (1,))),
    (Kind.HEISENBERG, ((2, 1), (2, 1), (1, 1)), ((1,), (1,), (1,))),
    # a trailing zero and an __index__ part, which the one-pass loop hands on
    # to the checks; the shapes given as lists are the ones that hold such parts
    (Kind.LR, ([2, 1, 0], [Index(1)], (1, 1)), ((2,), (1,), (1,))),
])
def test_a_sequence_validates_its_shapes_once(monkeypatch, kind, base, direction):
    # each Partition(x) of an x that is not a Partition yet validates x, and
    # `_checked_parts` reads the shapes that the loop hands on
    by_checks = sum(type(x) is list for x in (*base, *direction))
    new = Partition.__new__
    inputs, checked = [], []
    checks = partitions._checked_parts

    def counting(cls, parts=()):
        if type(parts) is not Partition:
            inputs.append(parts)
        return new(cls, parts)

    def counting_checks(parts):
        checked.append(parts)
        return checks(parts)

    monkeypatch.setattr(Partition, "__new__", staticmethod(counting))
    monkeypatch.setattr(partitions, "_checked_parts", counting_checks)
    counts = []
    for ns in (range(2), range(12)):
        clear_caches()
        del inputs[:], checked[:]
        assert [n for n, _ in stabilization_sequence(kind, base, direction, ns)] == list(ns)
        counts.append((len(inputs), len(checked)))
    assert counts[0] == counts[1] == (6, by_checks)


def test_coefficient_still_validates():
    for kind in Kind:
        with pytest.raises(NotAPartitionError):
            coefficient(kind, (1, 2), (1,), (1, 1))
    with pytest.raises(ValueError, match="equal sizes"):
        coefficient(Kind.KRONECKER, (2,), (1,), (1,))
    assert coefficient(Kind.KRONECKER, [2, 1], (2, 1), (2, 1)) == 1
