"""Symmetric-group character kernels and basis data.

Everything here is exact integer arithmetic.  Irreducible characters come
from the Murnaghan-Nakayama border-strip recursion: whole vectors a block
of classes at a time, from one memo holding one vector per shape, the
longest suffix of its classes asked for so far (`_mn_vector`, which the
Kronecker character sum reads directly, and `character_vector`, which
first reads its shape through `Partition`);
single values (`character`) by a strip walk over the parts of the cycle
type, which builds no vector; dimensions by Frobenius's formula.
Kostka numbers by the horizontal-strip rule on a stack over one memo;
the Schur-to-complete-homogeneous change of basis from the Jacobi-Trudi
determinant as a strip walk over its special rim hooks.  The border-strip
kernel keeps no memo: a stored vector asks each (shape, k) once, as does
one strip walk, and the Jacobi-Trudi walk keeps the hooks it asks for
during one expansion.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations
from operator import add, neg, sub
from typing import Sequence

from .partitions import Partition, _bounded_vectors, _inside, _integer_parts, _trusted, pi_sequence


def zee(rho: Sequence[int]) -> int:
    """Order of the centralizer of a permutation with cycle type rho, read
    as `character` reads it (a float, string or bool part raises ValueError)."""
    return _zee(pi_sequence(rho))


def _zee(rho: tuple[int, ...]) -> int:
    z = 1
    for i, m in Counter(rho).items():
        z *= i**m * math.factorial(m)
    return z


def class_size(rho: Sequence[int]) -> int:
    """Number of permutations in S_n with cycle type rho (n = sum of rho),
    read as `zee` reads it."""
    return _class_size(pi_sequence(rho))


def _class_size(rho: tuple[int, ...]) -> int:
    return math.factorial(sum(rho)) // _zee(rho)


def _border_strip_removals(lam: tuple[int, ...], k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All ways to remove a border strip of size k from lam.  Not memoized:
    `_mn_vector` asks each (lam, k) once per stored vector and `character`
    once per walk, and `_schur_in_h` keeps what it asks for one expansion.

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
def _class_counts(m: int) -> tuple[int, ...]:
    """The number of partitions of m whose parts are all <= k, for k =
    0..m: the usual table, one part size at a time, with no recursion."""
    table, row = [1] + [0] * m, [int(m == 0)]
    for k in range(1, m + 1):
        for s in range(k, m + 1):
            table[s] += table[s - k]
        row.append(table[m])
    return tuple(row)


_MN_CACHE: dict[tuple[int, ...], tuple[int, ...]] = {}


def _mn_vector(lam: tuple[int, ...], k: int) -> tuple[int, ...]:
    """chi^lam on the classes of S_|lam| whose parts are all <= k, in
    cycle_types order, for 0 <= k <= |lam| (k >= 1 unless lam is empty).
    In that order those classes are a suffix, blocks k, ..., 1, where block
    j holds the classes (j, rest) with rest a class of S_{|lam|-j} with
    parts <= j.  By Murnaghan-Nakayama block j is the signed sum, over the
    border strips of size j, of the remaining shape's vector on parts <= j;
    it is zero when lam has no such strip, so every block past the longest
    hook is.

    Block j depends on (lam, j) alone, never on k, so `_MN_CACHE` keeps one
    vector per shape: the longest suffix asked for so far.  A shorter
    request is its tail; a longer one computes only the blocks above it."""
    try:  # a subscript, not .get: this is the character sum's hit path
        have = _MN_CACHE[lam]
    except KeyError:
        have = ()
    n = sum(lam)
    counts = _class_counts(n)
    want = counts[k]
    if len(have) == want:
        return have
    if len(have) > want:
        return have[len(have) - want:]
    if n == 0:
        have = _MN_CACHE[lam] = (1,)
        return have
    top = min(k, lam[0] + len(lam) - 1)  # the longest hook is the (0, 0) one
    out = [0] * (want - max(counts[top], len(have)))
    for j in range(top, 0, -1):
        if counts[j] <= len(have):
            break  # blocks j, ..., 1 are stored
        block = None
        for shape, height in _border_strip_removals(lam, j):
            v = _mn_vector(shape, min(j, n - j))
            if block is None:
                block = list(map(neg, v)) if height & 1 else v
            else:
                block = list(map(sub if height & 1 else add, block, v))
        out.extend([0] * _class_counts(n - j)[min(j, n - j)] if block is None else block)
    out.extend(have)
    have = _MN_CACHE[lam] = tuple(out)
    return have


def character(lam: Sequence[int], rho: Sequence[int]) -> int:
    """Irreducible character value chi^lam at cycle type rho, whose parts
    may come in any order.  Murnaghan-Nakayama one part of rho at a time,
    largest first, over the signed counts of the shapes left after removing
    border strips of those sizes; no class vector is built."""
    lam = Partition(lam)
    rho = pi_sequence(rho)
    if lam.size != rho.size:
        raise ValueError(f"|lam| = {lam.size} but |rho| = {rho.size}")
    counts = {tuple(lam): 1}
    for part in rho:
        left: Counter[tuple[int, ...]] = Counter()
        for shape, c in counts.items():
            for rest, height in _border_strip_removals(shape, part):
                left[rest] += -c if height & 1 else c
        counts = left
    return counts.get((), 0)


def dimension(lam: Sequence[int]) -> int:
    """Dimension of the irreducible indexed by lam, its character at the
    identity, by Frobenius's formula on the beta numbers b_i = lam_i + L -
    1 - i: n! prod_{i<j} (b_i - b_j) / prod_i b_i!.  No strip walk: one
    would visit every shape inside lam."""
    lam = Partition(lam)
    top = len(lam) - 1
    betas = [part + top - i for i, part in enumerate(lam)]
    return (math.factorial(lam.size) * math.prod(a - b for a, b in combinations(betas, 2))
            // math.prod(map(math.factorial, betas)))


# typed: a bool or float key must miss, to be refused, not read as an int's hit
@lru_cache(maxsize=None, typed=True)
def cycle_types(n: int) -> tuple[tuple[int, ...], ...]:
    """Cycle types of S_n in a fixed order, as plain tuples: largest part
    first, so the classes with parts <= k are a suffix.  n is read as
    `partitions_of` reads it (a float, string or bool raises ValueError)."""
    (n,) = _integer_parts((n,), ValueError)
    return tuple(_inside((n,) * n, n))


@lru_cache(maxsize=None, typed=True)
def class_sizes(n: int) -> tuple[int, ...]:
    """The size of each class of S_n, in cycle_types order, read off the
    cycle types as they are enumerated: no list of them is kept, and
    `cycle_types(n)` is not filled.  n is read as `cycle_types` reads it."""
    (n,) = _integer_parts((n,), ValueError)
    return tuple(map(_class_size, _inside((n,) * n, n)))


def character_vector(lam: Sequence[int]) -> tuple[int, ...]:
    """chi^lam evaluated on every class of S_{|lam|}, in cycle_types order:
    `_mn_vector` on parts <= |lam|, which is every class, so the shape's
    whole vector is what its memo holds from then on.  lam is read through
    `Partition`; the engines call `_mn_vector` directly."""
    lam = Partition(lam)
    return _mn_vector(tuple(lam), lam.size)


# ---------------------------------------------------------------------------
# Kostka numbers


_KOSTKA_CACHE: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}


def _kostka(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """K(lam, mu) by the horizontal-strip rule: mu's last letter fills a
    horizontal strip, row i giving up t_i <= lam_i - lam_{i+1} boxes (so
    lam_{i+1} <= nu_i <= lam_i), and K(lam, mu) sums K(nu, mu[:-1]) over
    the shapes nu left.  An explicit stack over `_KOSTKA_CACHE`, keyed by
    (shape, prefix of mu): a state lists its children on its first visit
    and sums them on its second."""
    memo = _KOSTKA_CACHE
    stack = [] if (lam, mu) in memo else [((lam, mu), None)]
    while stack:
        (shape, content), kids = stack.pop()
        if kids is not None:
            memo[shape, content] = sum([memo[kid] for kid in kids])
        elif len(shape) > len(content):
            memo[shape, content] = 0  # a column holds distinct letters, so no filling has more rows
        elif len(shape) <= 1:
            memo[shape, content] = 1  # |lam| = |mu|: a single row (or none) has exactly one filling
        else:
            rest, caps = content[:-1], [a - b for a, b in zip(shape, shape[1:] + (0,))]
            kids = [(tuple([a - t for a, t in zip(shape, ts) if a > t]), rest)
                    for ts in _bounded_vectors(content[-1], caps)]
            stack.append(((shape, content), kids))
            # each pushed once: its siblings differ, and prefixes under them are shorter
            stack += [(kid, None) for kid in kids if kid not in memo]
    return memo[lam, mu]


def kostka(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    mu may be any weak composition; the count only depends on its sorted
    version, so it is canonicalized first.
    """
    lam = Partition(lam)
    mu_sorted = pi_sequence(mu)
    if lam.size != mu_sorted.size:
        raise ValueError(f"|lam| = {lam.size} but |mu| = {mu_sorted.size}")
    return _kostka(tuple(lam), tuple(mu_sorted))


# ---------------------------------------------------------------------------
# Schur in the complete-homogeneous basis


@lru_cache(maxsize=None)
def _schur_in_h(lam: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """s_lam in the h-basis, as (sorted degrees, coefficient) pairs.  Along
    the last column of Jacobi-Trudi's det(h_{lam_i - i + j}) row i holds h_b,
    b = lam_i + L - 1 - i its beta number, and that entry's minor is the one
    of the shape left by moving b to 0 (free: lam_{L-1} > 0), a strip of size
    b that leaves fewer rows, with sign (-1)^(L-1-i), the parity of its
    height.  No lower beta number reaches b, so it is the last strip that
    `_border_strip_removals` lists: special rim hooks (Egecioglu-Remmel).
    States of different degrees share shapes, so one dict, kept for this
    expansion only, holds each shape's hooks: (b, rest, height) per row."""
    counts, out = {(lam, ()): 1}, {}
    hooks: dict[tuple[int, ...], list[tuple[int, tuple[int, ...], int]]] = {}
    while counts:
        left: Counter[tuple[tuple[int, ...], tuple[int, ...]]] = Counter()
        for (shape, degrees), c in counts.items():
            if not shape:
                out[degrees] = c  # a key is reached after len(degrees) strips only
            moves = hooks.get(shape)
            if moves is None:
                top = len(shape) - 1
                moves = hooks[shape] = [(b, *_border_strip_removals(shape, b)[-1])
                                        for b in (part + top - i for i, part in enumerate(shape))]
            for b, rest, height in moves:
                left[rest, tuple(sorted(degrees + (b,), reverse=True))] += -c if height & 1 else c
        counts = {k: v for k, v in left.items() if v}
    return tuple(out.items())


def schur_in_h_basis(lam: Sequence[int]) -> dict[Partition, int]:
    """Signed expansion s_lam = sum_delta coef_delta * h_delta."""
    return {_trusted(k): v for k, v in _schur_in_h(tuple(Partition(lam)))}

