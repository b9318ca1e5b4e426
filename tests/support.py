"""Shared helpers for the test suite: triple enumeration by size pattern,
and two independent oracles: a hook-length dimension formula and a
brute-force Kostka count."""

from __future__ import annotations

import itertools
from math import factorial
from typing import Sequence

from heisenstab import Composition, Kind, Partition
from heisenstab.partitions import partitions_up_to
from heisenstab.stability import coefficient, size_pattern_ok


def size_triples(kind: Kind, max_size: int):
    """All (alpha, beta, gamma) partition triples whose sizes are each at
    most max_size and fit the kind's size pattern."""
    everything = list(partitions_up_to(max_size))
    for a, b, c in itertools.product(everything, repeat=3):
        if size_pattern_ok(kind, a, b, c):
            yield a, b, c


def direction_triples(kind: Kind, max_size: int):
    """The valid triples among size_triples: positive coefficient."""
    for a, b, c in size_triples(kind, max_size):
        if coefficient(kind, a, b, c) > 0:
            yield a, b, c


def hook_length_dimension(lam: Partition) -> int:
    """Independent dimension oracle: n! over the product of hook lengths."""
    lam = Partition(lam)
    n = lam.size
    if n == 0:
        return 1
    conj = [sum(1 for p in lam if p > c) for c in range(lam[0])]
    denom = 1
    for r, row in enumerate(lam):
        for c in range(row):
            denom *= (row - c) + (conj[c] - r) - 1
    return factorial(n) // denom


def kostka_by_enumeration(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Brute-force SSYT counter (test oracle): fills the diagram cell by cell
    checking weakly increasing rows, strictly increasing columns, and the
    content budget.  mu is read through `Composition`, as `kostka` reads it."""
    lam = tuple(Partition(lam))
    content = list(Composition(mu))
    if sum(lam) != sum(content):
        raise ValueError("size mismatch")
    cells = [(r, c) for r, row_len in enumerate(lam) for c in range(row_len)]
    fill: dict[tuple[int, int], int] = {}
    remaining = list(content)

    def place(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, fill[(r, c - 1)])
        if r > 0:
            lo = max(lo, fill[(r - 1, c)] + 1)
        total = 0
        for v in range(lo, len(content) + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            fill[(r, c)] = v
            total += place(idx + 1)
            remaining[v - 1] += 1
        return total

    count = place(0)
    del place  # place's closure holds place: break the cycle, free the state now
    return count
