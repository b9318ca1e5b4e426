"""Symmetric-group character kernels and basis data.

Everything here is exact integer arithmetic.  Irreducible characters come
from the Murnaghan-Nakayama border-strip recursion (memoized); Kostka
numbers from the horizontal-strip recursion, with a direct semistandard
tableau enumerator kept as a test oracle; the Schur-to-complete-homogeneous
change of basis from the Jacobi-Trudi determinant.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, Sequence

from .partitions import Composition, Partition, pi_sequence


def multiplicities(rho: Sequence[int]) -> dict[int, int]:
    """m_i = number of parts of rho equal to i."""
    out: dict[int, int] = {}
    for p in rho:
        out[p] = out.get(p, 0) + 1
    return out


def zee(rho: Sequence[int]) -> int:
    """Order of the centralizer of a permutation with cycle type rho."""
    z = 1
    for i, m in multiplicities(rho).items():
        z *= i**m * math.factorial(m)
    return z


def class_size(rho: Sequence[int]) -> int:
    """Number of permutations in S_n with cycle type rho (n = sum of rho)."""
    n = sum(rho)
    return math.factorial(n) // zee(rho)


def _border_strip_removals(lam: tuple[int, ...], k: int) -> list[tuple[tuple[int, ...], int]]:
    """All ways to remove a border strip of size k from lam.

    Returns (remaining shape, strip height) pairs, via first-column hook
    coordinates: beta numbers b_i = lam_i + (L - 1 - i); removing a strip of
    size k means lowering one beta number by k onto an unoccupied value.
    """
    L = len(lam)
    betas = [lam[i] + (L - 1 - i) for i in range(L)]
    occupied = set(betas)
    out = []
    for i, b in enumerate(betas):
        nb = b - k
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new = sorted(betas, reverse=True)
        new.remove(b)
        new.append(nb)
        new.sort(reverse=True)
        shape = tuple(new[j] - (L - 1 - j) for j in range(L))
        shape = tuple(p for p in shape if p > 0)
        out.append((shape, height))
    return out


@lru_cache(maxsize=None)
def _mn_character(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    if not rho:
        return 1 if not lam else 0
    k, rest = rho[0], rho[1:]
    total = 0
    for shape, height in _border_strip_removals(lam, k):
        total += (-1) ** height * _mn_character(shape, rest)
    return total


def character(lam: Sequence[int], rho: Sequence[int]) -> int:
    """Irreducible character value chi^lam at cycle type rho, whose parts
    may come in any order."""
    lam = Partition(lam)
    rho = pi_sequence(Composition(rho))
    if lam.size != rho.size:
        raise ValueError(f"|lam| = {lam.size} but |rho| = {rho.size}")
    return _mn_character(tuple(lam), tuple(rho))


def dimension(lam: Sequence[int]) -> int:
    """Dimension of the irreducible indexed by lam (character at the identity)."""
    lam = Partition(lam)
    return character(lam, Partition([1] * lam.size))


@lru_cache(maxsize=None)
def cycle_types(n: int) -> tuple[tuple[int, ...], ...]:
    """Cycle types of S_n in a fixed order, as plain tuples."""
    from .partitions import partitions_of

    return tuple(tuple(p) for p in partitions_of(n))


@lru_cache(maxsize=None)
def class_sizes(n: int) -> tuple[int, ...]:
    return tuple(class_size(rho) for rho in cycle_types(n))


@lru_cache(maxsize=None)
def character_vector(lam: tuple[int, ...]) -> tuple[int, ...]:
    """chi^lam evaluated on every class of S_{|lam|}, in cycle_types order."""
    n = sum(lam)
    return tuple(_mn_character(lam, rho) for rho in cycle_types(n))


# ---------------------------------------------------------------------------
# Kostka numbers


def _horizontal_strip_shrinks(lam: tuple[int, ...], k: int) -> Iterator[tuple[int, ...]]:
    """Shapes mu with lam/mu a horizontal strip of size k."""
    # row i of mu must satisfy lam_{i+1} <= mu_i <= lam_i
    L = len(lam)

    def gen(i: int, rem: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if i == L:
            if rem == 0:
                yield tuple(p for p in acc if p > 0)
            return
        lo = lam[i + 1] if i + 1 < L else 0
        hi = lam[i]
        # mu_i = hi - t where t boxes removed from row i
        for t in range(min(rem, hi - lo) + 1):
            acc.append(hi - t)
            yield from gen(i + 1, rem - t, acc)
            acc.pop()

    yield from gen(0, k, [])


@lru_cache(maxsize=None)
def _kostka(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1 if not lam else 0
    if len(mu) == 1:
        return 1 if lam == mu else 0
    last = mu[-1]
    rest = mu[:-1]
    return sum(_kostka(shape, rest) for shape in _horizontal_strip_shrinks(lam, last))


def kostka(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    mu may be any weak composition; the count only depends on its sorted
    version, so it is canonicalized first.
    """
    lam = Partition(lam)
    mu_sorted = pi_sequence(Composition(mu))
    if lam.size != mu_sorted.size:
        raise ValueError(f"|lam| = {lam.size} but |mu| = {mu_sorted.size}")
    return _kostka(tuple(lam), tuple(mu_sorted))


def kostka_by_enumeration(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Brute-force SSYT counter (test oracle): fills the diagram cell by cell
    checking weakly increasing rows, strictly increasing columns, and the
    content budget."""
    lam = tuple(Partition(lam))
    content = list(mu)
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

    return place(0)


# ---------------------------------------------------------------------------
# Schur in the complete-homogeneous basis


@lru_cache(maxsize=None)
def _schur_in_h(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    # Jacobi-Trudi: s_lam = det( h_{lam_i - i + j} ), expanded over permutations.
    # h_0 contributes an empty factor, negative indices kill the term.
    L = len(lam)
    if L == 0:
        return (((), 1),)
    coeffs: dict[tuple[int, ...], int] = {}
    for sigma in itertools.permutations(range(L)):
        degrees = []
        dead = False
        for i in range(L):
            d = lam[i] - i + sigma[i]
            if d < 0:
                dead = True
                break
            if d > 0:
                degrees.append(d)
        if dead:
            continue
        sign = 1
        for i in range(L):
            for j in range(i):
                if sigma[j] > sigma[i]:
                    sign = -sign
        key = tuple(sorted(degrees, reverse=True))
        coeffs[key] = coeffs.get(key, 0) + sign
    return tuple((k, v) for k, v in coeffs.items() if v != 0)


def schur_in_h_basis(lam: Sequence[int]) -> dict[Partition, int]:
    """Signed expansion s_lam = sum_delta coef_delta * h_delta."""
    lam = Partition(lam)
    return {Partition(k): v for k, v in _schur_in_h(tuple(lam))}


# the originals, so that a caller who rebinds the module names still clears them
_MEMOS = (_mn_character, character_vector, _kostka, _schur_in_h, cycle_types, class_sizes)


def clear_caches() -> None:
    """Empty every memo of this module."""
    for memo in _MEMOS:
        memo.cache_clear()
