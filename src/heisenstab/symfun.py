"""Symmetric-group character kernels and basis data.

Everything here is exact integer arithmetic.  Irreducible characters come
from the Murnaghan-Nakayama border-strip recursion (memoized); Kostka
numbers from the horizontal-strip recursion over capped compositions; the
Schur-to-complete-homogeneous change of basis from the Jacobi-Trudi
determinant.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import Iterator, Sequence

from .partitions import Composition, Partition, _bounded_vectors, partitions_of, pi_sequence


def zee(rho: Sequence[int]) -> int:
    """Order of the centralizer of a permutation with cycle type rho."""
    z = 1
    for i, m in Counter(rho).items():
        z *= i**m * math.factorial(m)
    return z


def class_size(rho: Sequence[int]) -> int:
    """Number of permutations in S_n with cycle type rho (n = sum of rho)."""
    n = sum(rho)
    return math.factorial(n) // zee(rho)


@lru_cache(maxsize=None)
def _border_strip_removals(lam: tuple[int, ...], k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All ways to remove a border strip of size k from lam.

    Returns (remaining shape, strip height) pairs, via first-column hook
    coordinates: beta numbers b_i = lam_i + (L - 1 - i); removing a strip of
    size k means lowering one beta number b_i by k onto an unoccupied value
    nb >= 0.  The beta numbers decrease strictly, so the h of them between
    nb and b_i belong to rows i+1..i+h, and h is the strip's height.  With
    b_i moved below them nothing needs re-sorting: rows i..i+h-1 take the
    next row's part less one, row i+h takes nb - (L - 1 - i - h), and only
    trailing zeros are dropped.
    """
    L = len(lam)
    betas = [lam[i] + (L - 1 - i) for i in range(L)]
    out = []
    for i, b in enumerate(betas):
        nb = b - k
        if nb < 0:
            continue
        j = i + 1  # ends at row i+h+1, the first whose beta number is not above nb
        while j < L and betas[j] > nb:
            j += 1
        if j < L and betas[j] == nb:
            continue
        shape = lam[:i] + tuple(p - 1 for p in lam[i + 1:j]) + (nb - (L - j),) + lam[j:]
        out.append((shape[:L - shape.count(0)], j - 1 - i))
    return tuple(out)


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
    """Shapes mu with lam/mu a horizontal strip of size k: row i gives up
    t_i <= lam_i - lam_{i+1} boxes, so lam_{i+1} <= mu_i <= lam_i."""
    caps = [a - b for a, b in zip(lam, lam[1:] + (0,))]
    return (tuple(a - t for a, t in zip(lam, ts) if a > t) for ts in _bounded_vectors(k, caps))


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


# ---------------------------------------------------------------------------
# Schur in the complete-homogeneous basis


@lru_cache(maxsize=None)
def _schur_in_h(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    # Jacobi-Trudi: s_lam = det( h_{lam_i - i + j} ), expanded over permutations.
    # h_0 contributes an empty factor, negative indices kill the term.
    coeffs: Counter[tuple[int, ...]] = Counter()
    for sigma in itertools.permutations(range(len(lam))):
        degrees = []
        for i, s in enumerate(sigma):
            d = lam[i] - i + s
            if d < 0:
                break  # the first negative degree kills the term: skip the rest
            if d > 0:
                degrees.append(d)
        else:
            inversions = sum(a > b for a, b in itertools.combinations(sigma, 2))
            coeffs[tuple(sorted(degrees, reverse=True))] += -1 if inversions % 2 else 1
    return tuple((k, v) for k, v in coeffs.items() if v != 0)


def schur_in_h_basis(lam: Sequence[int]) -> dict[Partition, int]:
    """Signed expansion s_lam = sum_delta coef_delta * h_delta."""
    lam = Partition(lam)
    return {Partition(k): v for k, v in _schur_in_h(tuple(lam))}


# the originals, so that a caller who rebinds the module names still clears them
_MEMOS = (_border_strip_removals, _mn_character, character_vector, _kostka, _schur_in_h,
          cycle_types, class_sizes)


def clear_caches() -> None:
    """Empty every memo of this module."""
    for memo in _MEMOS:
        memo.cache_clear()
