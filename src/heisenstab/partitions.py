"""Integer partitions, weak compositions, and majorization order.

A `Composition` is a tuple of nonnegative parts, and a `Partition` is a
`Composition` whose parts are positive and weakly decreasing; the empty
tuple is the unique partition of 0.  Both share `size`, a `repr` naming
their class, and the comma syntax: `str` writes it ("0" when empty) and
`parse` reads it.  Either is a tuple under `+` and `*` (concatenation,
repetition); the coordinatewise arithmetic `add` and `scale` reads its
shapes through `Partition`, and `add` zero-pads as `_on_ray` does.
`pi_sequence` sorts the entries of one flat sequence into a Partition; pi
of a matrix is the matrix's `.pi`.  The one majorization relation,
`is_dominated_by`, works on arbitrary rational vectors, not just
partitions, and is always exact: its entries are ints and
`fractions.Fraction`s, and a float is refused, never compared.

The package's enumerators, each a loop over an explicit stack: partitions
inside a shape (`_inside`, which yields the plain tuples the engines keep;
its public forms `subpartitions_of_size` and `partitions_of(n)`, the n x n
box, yield Partitions), and capped compositions (`_bounded_vectors`), the
rows of margin matrices and the horizontal strips of Kostka numbers.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

if TYPE_CHECKING:  # a cache hit of the CLI loads this module, not fractions
    from fractions import Fraction

    Rational = Union[int, Fraction]


class NotAPartitionError(ValueError):
    """Raised when parts do not form a partition."""


# The two refusals of the matrix layer (`additivity` re-exports them) and
# its matrix kinds live here with the parse error, so that the CLI maps all
# three errors to exit codes, and offers the kinds, without loading that layer.
class MatrixParseError(ValueError):
    """Malformed matrix text (ragged rows, negative or nonzero corner...)."""


class BudgetExceededError(RuntimeError):
    """Enumeration refused: margins exceed the budget."""


# The keys of additivity.MATRIX_KINDS: "k" Kronecker, "h" Heisenberg.
_MATRIX_KIND_KEYS = ("k", "h")


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
        return f"{type(self).__name__}({tuple(self)})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self) if self else "0"

    @staticmethod
    def parse(text: str) -> "Composition":
        text = text.strip()
        if text in ("", "0"):
            return Composition()
        return Composition(_integer_token(tok) for tok in text.split(","))


def _checked_parts(parts: Iterable[int]) -> tuple[int, ...]:
    """The parts of a partition as `_integer_parts` reads them, trailing
    zeros dropped, checked nonnegative and weakly decreasing."""
    ps = _integer_parts(parts, NotAPartitionError)
    while ps and ps[-1] == 0:
        ps = ps[:-1]
    for i, p in enumerate(ps):
        if p < 0:
            raise NotAPartitionError(f"negative part {p} in {ps}")
        if i and ps[i - 1] < p:
            raise NotAPartitionError(f"parts not weakly decreasing: {ps}")
    return ps


class Partition(Composition):
    """Weakly decreasing composition with no zero parts.

    Parts are read in one pass: exact `int` parts (`type(p) is int`, so no
    bool) that are positive and weakly decreasing pass an inline test,
    which accepts only what `_integer_parts` and the checks of
    `_checked_parts` accept.  At the first part that fails it, the parts
    read so far, that part and the rest go through `_checked_parts`, so
    every other value gets the same result or error as it always did."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:
            return parts  # immutable and already validated
        ps: list[int] = []
        rest = iter(parts)
        for p in rest:
            if type(p) is int and p > 0 and (not ps or p <= ps[-1]):
                ps.append(p)
            else:
                return tuple.__new__(cls, _checked_parts(itertools.chain(ps, (p,), rest)))
        return tuple.__new__(cls, ps)

    def part(self, i: int) -> int:
        """i-th part (0-based), zero beyond the stored length."""
        return self[i] if 0 <= i < len(self) else 0

    @staticmethod
    def parse(text: str) -> "Partition":
        """Parse the comma syntax, e.g. "7,6,5,5,4,4,3,2,2,1"; "" or "0" is empty."""
        try:
            parts = Composition.parse(text)
        except ValueError as exc:
            raise NotAPartitionError(f"cannot parse partition {text.strip()!r}") from exc
        return Partition(parts)


def _trusted(parts: Iterable[int]) -> Partition:
    """A Partition from parts the caller built weakly decreasing and
    positive, without the checks of Partition()."""
    return tuple.__new__(Partition, parts)


# The first Partition seen of each shape on any ray of `_RAY_CACHE`, so that
# the memo keys built from equal shapes share one object.  Its `_CACHE` name
# puts it among the memos that `clear_caches()` empties.
_SHAPE_CACHE: dict[tuple[int, ...], Partition] = {}


# The ray {n: x + n*d} of each pair (x, d) of Partitions, at the n asked for
# so far.  `_on_ray` is the one builder of the shifted shapes of a sequence
# and of the scaled shapes n*x of a scan (the ray from () along x); each
# shape it puts on a ray is the one of its shape in `_SHAPE_CACHE`, so equal
# shapes on different rays are one object.
_RAY_CACHE: dict[tuple[Partition, Partition], dict[int, Partition]] = {}


def _on_ray(x: Partition, d: Partition, ns: Sequence[int]) -> list[Partition]:
    """x + n*d for each nonnegative int n of ns, read from the ray of (x, d),
    which grows by the n it lacks when a read misses.  For n >= 1 every
    part of x + n*d is positive (each position has a positive part of x or
    of d), so it is built unchecked; n = 0 gives x's shape."""
    ray = _RAY_CACHE.get((x, d))
    if ray is None:
        ray = _RAY_CACHE[x, d] = {0: _SHAPE_CACHE.setdefault(x, x)}
    try:
        return [ray[n] for n in ns]
    except KeyError:
        for n in ns:
            if n not in ray:
                shape = _trusted(
                    [a + n * b for a, b in itertools.zip_longest(x, d, fillvalue=0)])
                ray[n] = _SHAPE_CACHE.setdefault(shape, shape)
        return [ray[n] for n in ns]


def _sorted_entries(entries: Iterable[int]) -> Partition:
    """pi_sequence of entries the caller knows are nonnegative ints, unchecked."""
    return _trusted(sorted(filter(None, entries), reverse=True))


def pi_sequence(data: Iterable[int]) -> Partition:
    """The entries of a flat sequence, read as a `Composition`, sorted
    weakly decreasingly with zeros dropped.  pi of a matrix is its `.pi`."""
    return _sorted_entries(Composition(data))


def add(a: Sequence[int], b: Sequence[int]) -> Partition:
    """a + b, each read through `Partition`, zero-padded as `_on_ray` pads."""
    pairs = itertools.zip_longest(Partition(a), Partition(b), fillvalue=0)
    return _trusted([x + y for x, y in pairs])


def scale(n: int, a: Sequence[int]) -> Partition:
    """n * a: n is read first and refused when negative, then a through `Partition`."""
    (n,) = _integer_parts((n,), ValueError)
    if n < 0:
        raise ValueError("scale factor must be nonnegative")
    return _trusted([n * p for p in Partition(a) if n])  # n = 0: a read, no parts


def _rationals(entries: Iterable[Rational]) -> list[Rational]:
    """Fraction entries as they are, and every other entry as _integer_parts
    reads it: a float, string or bool raises ValueError, never coerced."""
    from fractions import Fraction

    return [e if isinstance(e, Fraction) else _integer_parts((e,), ValueError)[0]
            for e in entries]


def is_dominated_by(a: Sequence[Rational], b: Sequence[Rational]) -> bool:
    """a <= b in dominance (majorization) order: padded with zeros to one
    length and sorted decreasingly, a and b have equal sums and every prefix
    sum of a is at most the matching one of b.  Entries are ints or
    Fractions; anything else raises ValueError."""
    xs, ys = _rationals(a), _rationals(b)
    k = max(len(xs), len(ys))
    xs, ys = (sorted(v + [0] * (k - len(v)), reverse=True) for v in (xs, ys))
    return sum(xs) == sum(ys) and all(
        p <= q for p, q in zip(itertools.accumulate(xs), itertools.accumulate(ys)))


def _bounded_vectors(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer vectors with the given sum, entry i <= caps[i],
    first entry smallest first: a stack of (head, what is left) states with
    no dead end, and once nothing is left the zero tail comes at once."""
    stack = [((), total, sum(caps))] if 0 <= total <= sum(caps) else []
    while stack:
        head, rem, room = stack.pop()  # room: what the caps from entry i on hold
        i = len(head)
        if rem == 0:
            yield head + (0,) * (len(caps) - i)
        else:  # pushed largest first, so that the smallest pops first
            room -= caps[i]
            stack.extend([(head + (t,), rem - t, room) for t in
                          range(min(caps[i], rem), max(rem - room, 0) - 1, -1)])


def _inside(outer: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """Every partition of size inside outer, largest part first, as plain
    tuples: the engines keep these in their memos, and the cyclic GC
    untracks a plain tuple of ints, never a Partition.  A stack of (head,
    what is left, bound on the next part) states: the next parts after which
    the rows below could hold the rest, pushed smallest first so the largest
    pops first; a tail of parts 1 comes at once."""
    if size == 0:
        yield ()
    stack = [((), size, size)] if 0 < size <= sum(outer) else []
    while stack:
        head, rem, bound = stack.pop()
        i = len(head)
        cap = outer[i] if outer[i] < bound else bound  # not min(): a third faster here
        if cap == 1:
            yield head + (1,) * rem  # the only way on, and the rows below hold it
            continue
        m = len(outer) - 1 - i  # rows below, each to hold at most min(part, below) of the rest
        below = outer[i + 1] if m else 0
        low = -(-rem // (m + 1))
        if low > below:
            low = rem - below * m
        stack.extend([(head + (part,), rem - part, part)
                      for part in range(low, cap + 1 if cap < rem else rem)])
        if cap >= rem:
            yield head + (rem,)  # the part rem ends the partition, and would pop first


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest part first; none when n < 0.  They are
    the partitions of n inside the n x n box."""
    (n,) = _integer_parts((n,), ValueError)
    return map(_trusted, _inside((n,) * n, n))


def partitions_up_to(n: int) -> Iterator[Partition]:
    (n,) = _integer_parts((n,), ValueError)
    return itertools.chain.from_iterable(partitions_of(m) for m in range(n + 1))


def subpartitions_of_size(outer: Sequence[int], size: int) -> Iterator[Partition]:
    """All partitions of `size` inside the partition `outer`, coordinatewise."""
    (size,) = _integer_parts((size,), ValueError)
    return map(_trusted, _inside(Partition(outer), size))
