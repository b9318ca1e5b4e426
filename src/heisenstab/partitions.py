"""Integer partitions, weak compositions, and majorization order.

Partitions are stored as tuples of positive parts in weakly decreasing
order; the empty tuple is the unique partition of 0.  `Partition` is a
tuple under `+` and `*` (concatenation, repetition); the vector
arithmetic `add` and `scale` is coordinatewise with implicit zero
padding.  The dominance comparison works on arbitrary rational vectors,
not just partitions, and is always exact (`fractions.Fraction`).

The package's enumerators: partitions inside a shape (`_inside`; the n x n
box for `partitions_of(n)`), and capped compositions (`_bounded_vectors`),
the rows of margin matrices and the horizontal strips of Kostka numbers.
"""

from __future__ import annotations

import enum
import itertools
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

Rational = Union[int, Fraction]


class NotAPartitionError(ValueError):
    """Raised when parts do not form a partition."""


def _integer_parts(parts: Iterable[int], error: type[ValueError]) -> tuple[int, ...]:
    """The parts as exact ints, in one pass (parts may be a generator).

    Anything `operator.index` refuses (floats, strings, Fractions) and
    bools are rejected instead of being coerced."""
    out = []
    for p in parts:
        if isinstance(p, bool):
            raise error(f"bool part {p!r}")
        try:
            out.append(operator.index(p))
        except TypeError:
            raise error(f"non-integer part {p!r}") from None
    return tuple(out)


def _integer_token(tok: str) -> int:
    """A nonnegative integer in ASCII digits; int() alone would also read
    "1_0" as 10, "+3" and non-ASCII digits."""
    tok = tok.strip()
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"not a nonnegative integer: {tok!r}")
    return int(tok)


class Partition(tuple):
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts  # immutable and already validated
        ps = _integer_parts(parts, NotAPartitionError)
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        for i, p in enumerate(ps):
            if p < 0:
                raise NotAPartitionError(f"negative part {p} in {ps}")
            if i and ps[i - 1] < p:
                raise NotAPartitionError(f"parts not weakly decreasing: {ps}")
        return super().__new__(cls, ps)

    @property
    def size(self) -> int:
        return sum(self)

    def part(self, i: int) -> int:
        """i-th part (0-based), zero beyond the stored length."""
        return self[i] if 0 <= i < len(self) else 0

    def __repr__(self) -> str:
        return f"Partition({tuple(self)})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self) if self else "0"

    @staticmethod
    def parse(text: str) -> "Partition":
        """Parse the comma syntax, e.g. "7,6,5,5,4,4,3,2,2,1"; "" or "0" is empty."""
        text = text.strip()
        if text in ("", "0"):
            return Partition()
        try:
            parts = [_integer_token(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise NotAPartitionError(f"cannot parse partition {text!r}") from exc
        return Partition(parts)


def _trusted(parts: Iterable[int]) -> Partition:
    """A Partition from parts the caller built weakly decreasing and
    positive, without the checks of Partition()."""
    return tuple.__new__(Partition, parts)


class Composition(tuple):
    """Finite sequence of nonnegative integers; order and padding preserved."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Composition":
        ps = _integer_parts(parts, ValueError)
        if any(p < 0 for p in ps):
            raise ValueError(f"negative entry in composition {ps}")
        return super().__new__(cls, ps)

    @property
    def size(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Composition({tuple(self)})"

    @staticmethod
    def parse(text: str) -> "Composition":
        text = text.strip()
        if text in ("", "0"):
            return Composition()
        return Composition(_integer_token(tok) for tok in text.split(","))


def pi_sequence(data) -> Partition:
    """Entries of a matrix (iterable of rows) or a flat sequence, sorted
    weakly decreasingly with trailing zeros dropped."""
    if isinstance(data, (Partition, Composition)):
        entries = data
    else:
        rows = list(data)
        if rows and isinstance(rows[0], (list, tuple)):
            if not all(isinstance(row, (list, tuple)) for row in rows):
                raise ValueError(f"matrix mixes rows and entries: {rows!r}")
            rows = [e for row in rows for e in row]
        entries = _integer_parts(rows, ValueError)
    if any(e < 0 for e in entries):
        raise ValueError(f"negative entry in {list(entries)}")
    return _trusted(e for e in sorted(entries, reverse=True) if e)


def _padded(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    k = max(len(a), len(b))
    return (list(a) + [0] * (k - len(a)), list(b) + [0] * (k - len(b)))


def add(a: Partition, b: Partition) -> Partition:
    xs, ys = _padded(a, b)
    return Partition(x + y for x, y in zip(xs, ys))


def scale(n: int, a: Partition) -> Partition:
    if n < 0:
        raise ValueError("scale factor must be nonnegative")
    return Partition(n * p for p in a)


class Dominance(enum.Enum):
    STRICTLY_DOMINATED = "strictly_dominated"  # a < b in dominance, pi(a) != pi(b)
    EQUAL_PI = "equal_pi"
    DOMINATES = "dominates"                    # a > b
    INCOMPARABLE = "incomparable"
    DIFFERENT_SUM = "different_sum"


def dominates(a: Sequence[Rational], b: Sequence[Rational]) -> Dominance:
    """Majorization comparison of a against b, on sorted entries.

    Returns how `a` relates to `b`: STRICTLY_DOMINATED means a is strictly
    below b (every prefix sum of sorted(a) is <= the one of sorted(b), sums
    equal, sorted entries not all equal)."""
    xs, ys = _padded(tuple(a), tuple(b))
    if sum(xs) != sum(ys):
        return Dominance.DIFFERENT_SUM
    xs = sorted(xs, reverse=True)
    ys = sorted(ys, reverse=True)
    if xs == ys:
        return Dominance.EQUAL_PI
    below = above = True
    px = py = 0
    for x, y in zip(xs, ys):
        px += x
        py += y
        if px > py:
            below = False
        if px < py:
            above = False
    if below:
        return Dominance.STRICTLY_DOMINATED
    if above:
        return Dominance.DOMINATES
    return Dominance.INCOMPARABLE


def is_dominated_by(a: Sequence[Rational], b: Sequence[Rational]) -> bool:
    """a <= b in dominance order (equality of sorted entries allowed)."""
    return dominates(a, b) in (Dominance.STRICTLY_DOMINATED, Dominance.EQUAL_PI)


def _bounded_vectors(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer vectors with the given sum, entry i <= caps[i],
    first entry smallest first."""
    if not caps:
        if total == 0:
            yield ()
    elif 0 <= total <= sum(caps):
        for head in range(min(caps[0], total) + 1):
            for tail in _bounded_vectors(total - head, caps[1:]):
                yield (head,) + tail


def _inside(outer: tuple[int, ...], i: int, rem: int, bound: int,
            acc: list[int]) -> Iterator[Partition]:
    """acc extended by every partition of rem with parts <= bound that fits
    rows i.. of outer, largest part first."""
    if rem == 0:
        yield _trusted(acc)
        return
    if i >= len(outer):
        return
    cap = outer[i] if outer[i] < bound else bound  # not min(): a third faster here
    if cap * (len(outer) - i) < rem:
        return  # not enough room left below
    for part in range(cap if cap < rem else rem, 0, -1):
        acc.append(part)
        yield from _inside(outer, i + 1, rem - part, part, acc)
        acc.pop()


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest part first; none when n < 0.  They are
    the partitions of n inside the n x n box."""
    (n,) = _integer_parts((n,), ValueError)
    return _inside((n,) * n, 0, n, n, [])


def partitions_up_to(n: int) -> Iterator[Partition]:
    (n,) = _integer_parts((n,), ValueError)
    return itertools.chain.from_iterable(partitions_of(m) for m in range(n + 1))


def subpartitions_of_size(outer: Sequence[int], size: int) -> Iterator[Partition]:
    """All partitions of `size` contained in `outer` (coordinatewise)."""
    outer = tuple(outer)
    if 0 <= size <= sum(outer):
        yield from _inside(outer, 0, size, size, [])
