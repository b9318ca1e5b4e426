"""The three structure-constant engines and their cross-check routes.

* Littlewood-Richardson coefficients by direct lattice-word tableau
  counting, with an independent hive-model counter (rhombus inequalities on
  a triangular array) as the second route.  One filling kernel
  (`_lr_fillings`) serves `lr_coeff` with a fixed content and the split
  tables with a free one.
* Kronecker coefficients, each query by its cheapest exact route, chosen
  from the query alone (`_kron_route`): a closed form when one shape is
  one row or one column; the h-basis route (below) from size 20 on when the
  two factors it expands have at most two rows; otherwise the exact
  character sum over conjugacy classes, one class-size-weighted character
  vector against two plain ones.  The oracle runs a route the primary did
  not take.
* Heisenberg coefficients by the quintuple-product formula that splits a
  query into two LR decompositions, one Kronecker factor in the shared
  degree, and two LR recombinations, the larger outer factor split off
  first.
* One h-basis route checks the Heisenberg engine and serves Kronecker
  queries both as a primary route and as the oracle: it expands the Schur
  factors into the complete-homogeneous basis by Jacobi-Trudi, multiplies
  there by summing h_pi(A) over the margin matrices A of one class (plain
  for the Kronecker product, cornered for the Heisenberg product), and
  converts back through Kostka numbers.  The matrix class is its only
  switch and the key of its memo (`_h_expansion`).
* Whole degrees of the Heisenberg product by the same decomposition run
  once per degree, with both recombinations taken as Schur products by the
  LR rule, one letter at a time through one process-wide memo of strip
  steps (`_strips`).  The first recombination, alpha by delta, is memoized
  per pair (`_lr_product`); the second is one weighted run per rho over
  every tau of its weights (`_lr_run`).  Both Heisenberg engines read their
  LR factors from one memoized table of splits (`_split_table`) and share
  the Kronecker memos; only their recombinations differ (LR fillings
  against strip steps).

All values are exact nonnegative integers and every engine memoizes
process-wide: stabilization sequences hammer overlapping subqueries.  The
public functions validate their partitions once, at the boundary, and call
one core per kind (`_lr`, `_kron`, `_heis`; `stability.PRIMARY` maps each
kind to its core), which computes only on a memo miss.  A core takes three
partitions its caller has validated, calls no `Partition()`, and builds
every partition it keeps as an exact tuple, which the cyclic GC untracks
where it never untracks a Partition; only public results are Partitions.
A split table lists only the nonzero LR factors of a shape, grouped
by the first factor, one filling traversal per subdiagram, and one
traversal serves both orientations of a split.  The quintuple formula
splits lam into (alpha |- p, delta |- q, rho |- r) by two LR splits in a
row, the larger of alpha and rho first, in one loop for both orders, and
contracts inside that loop: its Kronecker factor once per (alpha, delta,
rho) within a query, the first time the loop meets it.  At the lowest
degree, r = 0, the second split is the identity, so lam's first split is
the triple factor and no rest is split.  One Kronecker memo
(`_KRON_CACHE`) holds g under any order of its key, as g is symmetric:
`_kron` writes the ascending triple and the two Heisenberg contractions
write the order they ask in, (delta, beta, eta), so each of their hits is
one lookup.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import mul
from typing import Counter as CounterT

from . import partitions, symfun
from .additivity import HeisenbergMatrix, KroneckerMatrix, _fill
from .partitions import Partition, _inside, _integer_parts, _trusted
from .symfun import _kostka, _mn_vector, _schur_in_h, class_sizes, cycle_types

# A partition as the cores hold it: an exact tuple (see the module docstring)
Shape = tuple[int, ...]

_LR_CACHE: dict[tuple, int] = {}
# g under its key in any order: ascending from `_kron`, (delta, beta, eta)
# from the Heisenberg contractions (see the module docstring)
_KRON_CACHE: dict[tuple, int] = {}
_HEIS_CACHE: dict[tuple, int] = {}
_LR_PRODUCT_CACHE: dict[tuple, dict[Shape, int]] = {}


def clear_caches() -> None:
    """Empty every memo of the package: each lru_cache and each dict named
    `*_CACHE` in `partitions`, `symfun` and this module."""
    for namespace in (vars(partitions), vars(symfun), globals()):
        for name, value in namespace.items():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
            elif name.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


# ---------------------------------------------------------------------------
# Littlewood-Richardson


def _lr_fillings(outer: Shape, inner: Shape,
                 content: Shape | None = None) -> dict[Shape, int]:
    """The nonzero LR coefficients c^outer_{inner y} as {y: c}, from one
    traversal of the LR fillings of the skew shape outer/inner; with
    `content`, only the fillings of that content are counted.

    Cells are filled in reverse reading order (rows top to bottom, each row
    right to left) so the lattice condition prunes incrementally: a letter
    v goes in only while fewer v's than (v-1)'s have been read, and, with
    `content`, only while the content has a v left.  Rows weakly increase
    left to right and columns strictly increase downwards, so a cell is
    bounded above by its right neighbour and below by its upper one, both
    filled before it; their slots in `vals` are indexed beforehand.  The
    first cell of row r is bounded by r + 1: no letter of an LR filling
    exceeds its row number."""
    n = sum(outer) - sum(inner)
    if n < 0 or len(inner) > len(outer):
        return {}  # inner is not inside outer
    if n == 0:  # the empty filling of outer/outer
        return {(): 1} if inner == outer else {}
    inner = (*inner, *(0,) * (len(outer) - len(inner)))
    k = len(outer) if content is None else len(content)
    low = n + len(outer)  # slot of the bound 0 above the top row and inner
    vals = [0] * (low + 1)
    right, up = [], []
    base = 0  # the cell above (r, c) has index base - c
    for r, b in enumerate(outer):
        a = inner[r]
        if a > b:
            return {}  # inner is not inside outer
        above = inner[r - 1] if r else b  # (r - 1, c) is a cell iff c >= above
        vals[n + r] = min(r + 1, k)
        row = len(right)
        for c in range(b - 1, a - 1, -1):
            right.append(len(right) - 1 if c < b - 1 else n + r)
            up.append(base - c if c >= above else low)
        base = row + b - 1

    counts = [n + 1] + [0] * k  # counts[0] bounds nothing
    cap = [0] + ([n] * k if content is None else list(content))
    found: dict[tuple[int, ...], int] = {}
    i, last = 0, n - 1  # the cell being filled, and the last one
    letters = iter(range(vals[up[0]] + 1, vals[right[0]] + 1))  # left to try at i
    left = [letters] * n  # those of the cells before i
    while True:
        for v in letters:
            cv = counts[v]
            if cv < cap[v] and cv < counts[v - 1]:
                counts[v] = cv + 1
                if i == last:  # a complete filling
                    key = tuple(counts)
                    found[key] = found.get(key, 0) + 1
                    counts[v] = cv
                    continue
                vals[i], left[i] = v, letters
                i += 1
                letters = iter(range(vals[up[i]] + 1, vals[right[i]] + 1))
                break
        else:
            if i == 0:
                break
            i -= 1
            letters = left[i]
            counts[vals[i]] -= 1  # take back cell i's letter to try the next one
    return {tuple(filter(None, key[1:])): m for key, m in found.items()}


def lr_coeff(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient: multiplicity of the lam-irreducible
    in the induction product of the mu- and nu-irreducibles.  Returns 0 when
    |lam| != |mu| + |nu|."""
    return _lr(Partition(lam), Partition(mu), Partition(nu))


def _lr(lam: Shape, mu: Shape, nu: Shape) -> int:
    """LR core on valid partitions."""
    m, n = sum(mu), sum(nu)
    if sum(lam) != m + n:
        return 0
    # symmetric in (mu, nu): fill the smaller content over the bigger inner shape
    if (m, mu) < (n, nu):
        mu, nu = nu, mu
    key = (lam, mu, nu)
    val = _LR_CACHE.get(key)
    if val is None:
        val = _LR_CACHE[key] = _lr_fillings(lam, mu, nu).get(nu, 0)
    return val


@lru_cache(maxsize=None)
def _split_table(outer: Shape, a: int,
                 b: int) -> dict[Shape, tuple[tuple[Shape, int], ...]]:
    """Every LR split of `outer` grouped by its first factor, as {x: ((y,
    c^outer_{x y}), ...)} with x |- a and y |- b inside `outer` and c > 0,
    for a + b = |outer|: one traversal of outer/x per x, so pairs that give
    zero are never searched.  The one split table of both Heisenberg
    engines.  Since c^outer_{x y} = c^outer_{y x}, the table for a < b is
    the transpose of the one for (b, a), whose traversals fill the smaller
    skew shapes: one traversal serves both orientations.  Callers must not
    mutate the result."""
    if a < b:
        by_y: dict[Shape, list[tuple[Shape, int]]] = {}
        for x, ys in _split_table(outer, b, a).items():
            for y, c in ys:
                by_y.setdefault(y, []).append((x, c))
        return {y: tuple(xs) for y, xs in by_y.items()}
    ys: dict[Shape, Shape] = {}  # equal y's of different x share one object
    return {x: tuple((ys.setdefault(y, y), c) for y, c in _lr_fillings(outer, x).items())
            for x in _inside(outer, a)}


@lru_cache(maxsize=None)
def _strips(shape: Shape, below: tuple[int, ...],
            n: int) -> tuple[tuple[Shape, tuple[int, ...]], ...]:
    """One letter of the LR rule on `shape`: every horizontal strip of n
    cells that keeps the lattice bound, as (new shape, this letter's
    row-cumulative counts).

    The reverse reading word is a lattice word iff, for every row j, the
    number of i's in rows <= j is at most the number of (i-1)'s in rows
    <= j-1.  A letter's counts stop at the row where they reach n, and
    `below` is the previous letter's counts cut the same way (() for the
    first letter, which no letter bounds).  Past the cut the bound never binds:
    the previous letter has at least n cells, as the parts of a partition
    weakly decrease.  From row j on a horizontal strip holds at most
    shape[j-1] cells, so each row takes at least what the rows under it
    cannot.  The rows are walked with an explicit stack of partial strips
    (new rows so far, their counts, cells placed).  Memoized process-wide:
    every Schur product shares its steps."""
    base = shape + (0,)
    caps = (0, *below) if below else ()  # caps[j] bounds the count in rows <= j
    out = []
    stack = [((), (), 0)]
    while stack:
        rows, counts, placed = stack.pop()
        j, left = len(rows), n - placed
        b = base[j]
        lo = left - b if left > b else 0
        hi = left if j == 0 or left < shape[j - 1] - b else shape[j - 1] - b
        if j < len(caps) and caps[j] - placed < hi:
            hi = caps[j] - placed
        for a in range(lo, hi + 1):
            if a == left:
                out.append((rows + (b + a, *shape[j + 1:]), counts + (n,)))
            else:
                stack.append((rows + (b + a,), counts + (placed + a,), placed + a))
    return tuple(out)


def _lr_run(start: dict[Shape, int], nu: Shape) -> dict[Shape, int]:
    """The Schur combination sum_tau w_tau s_tau s_nu as {lam: coefficient},
    from start = {tau: w_tau}, by the LR rule.

    The letters i = 1..k of nu go on as horizontal strips, nu_i cells each
    (`_strips`).  A partial filling matters only through its shape and the
    cut counts of its last letter, so fillings that agree there, whatever
    tau they started from, are counted together; the last letter bounds
    nothing, so its fillings are counted by shape."""
    if not nu:
        return dict(start)
    states = {(tau, ()): w for tau, w in start.items()}
    for n in nu[:-1]:
        grown: dict[tuple[Shape, tuple[int, ...]], int] = {}
        for (shape, below), w in states.items():
            for state in _strips(shape, below, n):
                grown[state] = grown.get(state, 0) + w
        states = grown
    out: dict[Shape, int] = {}
    for (shape, below), w in states.items():
        for lam, _ in _strips(shape, below, nu[-1]):
            out[lam] = out.get(lam, 0) + w
    return out


def _lr_product(mu: Shape, nu: Shape) -> dict[Shape, int]:
    """The Schur product s_mu s_nu as {lam: c^lam_{mu nu}}: the weighted run
    `_lr_run({mu: 1}, nu)` with the smaller factor as the letters.
    Memoized per pair; callers must not mutate the result."""
    if (sum(mu), mu) < (sum(nu), nu):
        mu, nu = nu, mu  # fewer letters to place
    key = (mu, nu)
    out = _LR_PRODUCT_CACHE.get(key)
    if out is None:
        out = _LR_PRODUCT_CACHE[key] = _lr_run({mu: 1}, nu)
    return out


# The three unit rhombi anchored at (i, j), as offsets: short diagonal, then long.
_RHOMBI = (((-1, -1), (0, 0), (0, -1), (-1, 0)),
           ((-1, -1), (0, -1), (0, 0), (-1, -2)),
           ((-1, -1), (-1, 0), (0, 0), (-2, -1)))


@lru_cache(maxsize=None)
def _hive_plan(k: int) -> list:
    """The size-k hive's unit rhombi as a search plan: (v, (lower bounds,
    upper bounds)) per free vertex v in column order.  Vertex (i, j) is
    entry i(i+1)/2 + j of a flat array, free when 0 < j < i < k.  Rhombus
    (a, b, c, d) demands H[a] + H[b] >= H[c] + H[d] and bounds its last free
    vertex, from below on the short diagonal (a, b) and from above on the
    long one.  Bound (p, q, r) is H[p] + H[q] - H[r].  Only the size-2 hive
    has rhombi without a free vertex: the size test enforces them."""
    free = (i * (i + 1) // 2 + j for j in range(1, k - 1) for i in range(j + 1, k))
    rank = {v: t for t, v in enumerate(free)}
    bounds = {v: ([], []) for v in rank}
    for i, j, rhombus in itertools.product(range(k + 1), range(k + 1), _RHOMBI):
        cells = [(i + di, j + dj) for di, dj in rhombus]
        a, b, c, d = ids = [r * (r + 1) // 2 + c for r, c in cells]
        if not all(0 <= c <= r for r, c in cells) or rank.keys().isdisjoint(ids):
            continue  # off the hive, or no free vertex
        v = max(ids, key=lambda x: rank.get(x, -1))
        if v in (a, b):  # the other end of v's diagonal is a + b - v
            bounds[v][0].append((c, d, a + b - v))
        else:
            bounds[v][1].append((a, b, c + d - v))
    if not all(lows and highs for lows, highs in bounds.values()):
        raise RuntimeError(f"a free cell of the size-{k} hive lacks a bound")
    return list(bounds.items())


def lr_coeff_hive(lam, mu, nu) -> int:
    """Same coefficient counted as integer hives, independently of the
    tableau route: triangular arrays with fixed boundary whose unit rhombi
    each sum to at least as much over the short diagonal as over the long,
    filled column by column through one rhombus table per size (`_hive_plan`).
    The involution omega, s_x -> s_x', is a ring map, so c^lam'_{mu' nu'} =
    c^lam_{mu nu}: the hive is built on the three conjugates when they have
    fewer rows, as many as the shapes have columns."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size != mu.size + nu.size:
        return 0
    if max(lam.part(0), mu.part(0), nu.part(0)) < max(len(lam), len(mu), len(nu)):
        lam, mu, nu = (_trusted(_conjugate(x)) for x in (lam, mu, nu))
    k = max(len(lam), len(mu), len(nu)) + 1
    cells = _hive_plan(k)
    # H(i, 0) = mu_1+..+mu_i, H(i, i) = lam_1+..+lam_i and H(k, j) = |mu| +
    # nu_1+..+nu_j; row is the index of (i, 0)
    H = [0] * ((k + 1) * (k + 2) // 2)
    row = 0
    for i in range(1, k + 1):
        row += i
        H[row] = H[row - i] + mu.part(i - 1)
        H[row + i] = H[row - 1] + lam.part(i - 1)
    for j in range(1, k):
        H[row + j] = H[row + j - 1] + nu.part(j - 1)
    tops = [0] * len(cells)  # each filled cell's upper bound
    total, t, fresh = 0, 0, True  # t: the cell to fill next, fresh: from its lower bound
    while t >= 0:
        if t == len(cells):  # a complete hive
            total, t, fresh = total + 1, t - 1, False
            continue
        v, (lows, highs) = cells[t]
        if fresh:
            H[v] = max(H[p] + H[q] - H[r] for p, q, r in lows)
            tops[t] = min(H[p] + H[q] - H[r] for p, q, r in highs)
        else:
            H[v] += 1
        if H[v] <= tops[t]:
            t, fresh = t + 1, True
        else:
            t, fresh = t - 1, False
    return total


# ---------------------------------------------------------------------------
# Kronecker


def kron_coeff(lam, mu, nu) -> int:
    """Kronecker coefficient by the cheapest exact route for the query (see
    `_kron_route`); fully symmetric in its three arguments."""
    lam, mu, nu = _equal_sizes(lam, mu, nu)
    return _kron(lam, mu, nu)


def _equal_sizes(lam, mu, nu) -> tuple[Partition, Partition, Partition]:
    """The three validated, refused unless they are partitions of one size."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if mu.size != lam.size or nu.size != lam.size:
        raise ValueError(f"Kronecker query needs equal sizes, got {lam.size}, {mu.size}, {nu.size}")
    return lam, mu, nu


def _kron(lam: Shape, mu: Shape, nu: Shape) -> int:
    """Kronecker core on valid partitions of one size."""
    # the memo key is the ascending triple; three comparisons cost less than sorted()
    if lam > mu:
        lam, mu = mu, lam
    if mu > nu:
        mu, nu = nu, mu
        if lam > mu:
            lam, mu = mu, lam
    key = (lam, mu, nu)
    val = _KRON_CACHE.get(key)
    if val is None:
        val = _KRON_CACHE[key] = _kron_route(*key)(*key)
    return val


# From this size on, a Kronecker query whose two expanded factors have at
# most two rows takes the h-basis route (see `_kron_route`).  Measured on 2
# vCPUs: over the stabilization sweeps of the benchmark, whose character
# vectors are shared by many queries of one size, the character sum is
# faster on such queries up to size 17 and slower at 18; a single cold
# random query of size 24 takes 29 ms by the character sum and 0.4 ms by
# the h-basis route.
_H_ROUTE_MIN_SIZE = 20


def _kron_route(lam: Shape, mu: Shape, nu: Shape):
    """The primary's route for an ascending triple lam <= mu <= nu of one
    size, a pure function of the query: the closed form when one shape is
    one row, (n), which sorts last, or one column, (1^n), which sorts
    first; the h-basis route from size `_H_ROUTE_MIN_SIZE` on when the two
    factors it expands have at most two rows; the character sum otherwise."""
    if len(nu) < 2 or lam[0] == 1:
        return _kron_closed_form
    if sum(lam) >= _H_ROUTE_MIN_SIZE and max(map(len, _h_orientation(lam, mu, nu)[1:])) <= 2:
        return _kron_by_h_basis
    return _kron_by_characters


def _kron_closed_form(lam: Shape, mu: Shape, nu: Shape) -> int:
    """g((n), mu, nu) = [mu = nu] and g((1^n), mu, nu) = [mu = nu'], on an
    ascending triple whose last shape is (n) or whose first is (1^n)."""
    return int(lam == mu if len(nu) < 2 else mu == _conjugate(nu))


@lru_cache(maxsize=None)
def _weighted_characters(lam: Shape) -> tuple[int, ...]:
    """Class size times chi^lam, class by class: one factor of the
    character sum."""
    n = sum(lam)
    return tuple(map(mul, class_sizes(n), _mn_vector(lam, n)))


def _kron_by_characters(lam: Shape, mu: Shape, nu: Shape) -> int:
    """The exact character sum over the classes of S_n, divided by n!."""
    n = sum(lam)
    total = sum(map(mul, _weighted_characters(lam),
                    map(mul, _mn_vector(mu, n), _mn_vector(nu, n))))
    if total % factorial(n):
        raise RuntimeError("character sum is not an integer")
    return total // factorial(n)


def _conjugate(x: Shape) -> Shape:
    """The transpose of x: column c holds one cell per part above c."""
    return tuple(sum(1 for p in x if p > c) for c in range(x[0] if x else 0))


def _rows_price(a: int, b: int) -> tuple[int, int]:
    """The order in which the h-basis route prefers its two factors' row
    counts a and b, fewest first: the larger count, then the sum."""
    return max(a, b), a + b


def _h_orientation(lam: Shape, mu: Shape, nu: Shape) -> tuple[Shape, Shape, Shape]:
    """The query as (z, x, y) with g(z, x, y) = g(lam, mu, nu), where x and
    y, the two factors the h-basis route expands, have the fewest rows: any
    two of the three, conjugated together or not (g is symmetric, and
    g(z, x, y) = g(z, x', y')).  Fewest rows means the smallest larger row
    count, then the smallest sum; ties go to the first candidate."""
    def rows(candidate):  # a conjugate has as many rows as the shape has columns
        _, x, y, conj = candidate
        a, b = (x[0] if x else 0, y[0] if y else 0) if conj else (len(x), len(y))
        return _rows_price(a, b)

    z, x, y, conj = min(((z, x, y, conj) for z, x, y in ((lam, mu, nu), (mu, lam, nu), (nu, lam, mu))
                         for conj in (False, True)), key=rows)
    return (z, _conjugate(x), _conjugate(y)) if conj else (z, x, y)


def _kron_by_h_basis(lam: Shape, mu: Shape, nu: Shape) -> int:
    """The h-basis route on the orientation that expands the fewest rows."""
    return _from_h_basis(KroneckerMatrix, *_h_orientation(lam, mu, nu))


# ---------------------------------------------------------------------------
# Heisenberg


def heisenberg_coeff(lam, mu, nu) -> int:
    """Multiplicity of the lam-irreducible in the Heisenberg product of the
    mu- and nu-irreducibles.  Zero outside max(|mu|,|nu|) <= |lam| <=
    |mu|+|nu|."""
    return _heis(Partition(lam), Partition(mu), Partition(nu))


def _heis(lam: Shape, mu: Shape, nu: Shape) -> int:
    """Heisenberg core on valid partitions."""
    l, m, n = sum(lam), sum(mu), sum(nu)
    if (m, mu) < (n, nu):
        mu, nu, m, n = nu, mu, n, m  # the product is commutative
    p, q, r = l - n, m + n - l, l - m
    if p < 0 or q < 0 or r < 0:
        return 0
    key = (lam, mu, nu)
    val = _HEIS_CACHE.get(key)
    if val is None:
        val = _HEIS_CACHE[key] = _heis_by_formula(lam, mu, nu, p, q, r)
    return val


def _heis_by_formula(lam: Shape, mu: Shape, nu: Shape, p: int, q: int, r: int) -> int:
    # mu splits into (alpha |- p, beta |- q) and nu into (rho |- r, eta |- q)
    # by LR, both tables grouped by the factor that meets lam; beta and eta
    # meet in a Kronecker factor over delta |- q; lam splits into (alpha,
    # delta, rho) by two LR splits in a row.  The larger outer factor x |- a
    # goes first, lam -> (x, rest |- q + b), so that the second split, rest ->
    # (y |- b, delta) grouped by the other outer factor y, runs over the
    # smaller shapes: x is alpha when p > r, else rho (at p = r, rho first
    # measured faster on the stabilization sweeps).
    #
    # The formula contracts inside the split loop: each (x, delta, y) is
    # contracted once, the first time the loop meets it, g read in call
    # order, and every later path reuses its value.  The contraction is
    # written out in both paths below: a call per contraction costs more.
    betas = _split_table(mu, p, q)
    etas = _split_table(nu, r, q)
    alpha_first = p > r
    a, b, first, second = (p, r, betas, etas) if alpha_first else (r, p, etas, betas)
    kron = _KRON_CACHE
    total = 0
    if b == 0:
        # the lowest degree, r = 0: every rest splits only as (y, delta) =
        # ((), rest) with c = 1, so lam's first split is the triple factor,
        # each (x, delta) met once
        for x, deltas in _split_table(lam, a, q).items():
            if x in first:
                beta_row, eta_row = (betas[x], etas[()]) if alpha_first else (betas[()], etas[x])
                for delta, c in deltas:
                    v = 0
                    for beta, c1 in beta_row:
                        for eta, c2 in eta_row:
                            key = (delta, beta, eta)
                            g = kron.get(key)
                            if g is None:
                                g = kron[key] = _kron(delta, beta, eta)
                            v += c1 * c2 * g
                    total += c * v
        return total
    values: dict[tuple[Shape, Shape, Shape], int] = {}  # the contraction per (x, delta, y)
    for x, rests in _split_table(lam, a, q + b).items():
        if x in first:
            for rest, c in rests:
                for y, deltas in _split_table(rest, b, q).items():
                    if y in second:
                        for delta, c3 in deltas:
                            trio = (x, delta, y)
                            v = values.get(trio)
                            if v is None:
                                v = 0
                                for beta, c1 in betas[x if alpha_first else y]:
                                    for eta, c2 in etas[y if alpha_first else x]:
                                        key = (delta, beta, eta)
                                        g = kron.get(key)
                                        if g is None:
                                            g = kron[key] = _kron(delta, beta, eta)
                                        v += c1 * c2 * g
                                values[trio] = v
                            total += c * c3 * v
    return total


@dataclass
class Decomposition:
    """Multiplicity map of a (part of a) product, with its degree span."""

    terms: dict
    degree_range: tuple[int, int]


def heisenberg_component(mu, nu, degree: int) -> Decomposition:
    """The degree-l piece of the Heisenberg product: all partitions of l with
    their multiplicities.

    One pass over the degree:
    s_mu # s_nu |_l = sum c^mu_{alpha beta} c^nu_{eta rho} g_{delta beta eta}
    s_alpha s_delta s_rho (Aguiar-Ferrer-Moreira), with alpha |- p,
    beta, eta, delta |- q, rho |- r.  The splits and the Kronecker
    contraction are done once, grouped by rho.  Per rho, the first Schur
    products give the weights W[tau] = sum c^tau_{alpha delta} c1 c2 g
    (`_lr_product`, memoized per pair), and one weighted run gives
    sum_tau W[tau] s_tau s_rho (`_lr_run`).  One term is then checked
    against the pointwise formula (`heisenberg_coeff`): the
    lexicographically largest lam, whose few subdiagrams make it the
    cheapest query for that formula.  The check shares `_split_table` and
    `_kron` with this pass, so only the recombinations are independent
    (LR fillings against strip steps).  The independent checks are the
    h-basis oracle (acceptance 01, |mu|, |nu| <= 4) and the dimension
    identity.  The pass works on plain tuples; each term's key becomes a
    Partition once, at the end."""
    mu, nu = Partition(mu), Partition(nu)
    (degree,) = _integer_parts((degree,), ValueError)
    lo, hi = max(mu.size, nu.size), mu.size + nu.size
    if not lo <= degree <= hi:
        raise ValueError(f"degree {degree} outside [{lo}, {hi}]")
    if (mu.size, mu) < (nu.size, nu):
        mu, nu = nu, mu  # the product is commutative
    p, q, r = degree - nu.size, mu.size + nu.size - degree, degree - mu.size

    # inner[rho][(alpha, delta)] = sum c1 c2 g(delta, beta, eta)
    deltas = cycle_types(q)
    kron = _KRON_CACHE
    inner: dict[Shape, dict[tuple[Shape, Shape], int]] = {}
    for alpha, betas in _split_table(mu, p, q).items():
        for rho, etas in _split_table(nu, r, q).items():
            by_pair = inner.setdefault(rho, {})
            for beta, c1 in betas:
                for eta, c2 in etas:
                    for delta in deltas:
                        key = (delta, beta, eta)
                        g = kron.get(key)
                        if g is None:
                            g = kron[key] = _kron(delta, beta, eta)
                        if g:
                            pair = (alpha, delta)
                            by_pair[pair] = by_pair.get(pair, 0) + c1 * c2 * g

    # per rho, the weights W[tau] = sum c^tau_{alpha delta} inner, then lam
    # from one weighted run: rho |- r is never bigger than tau |- p + q
    terms: dict[Shape, int] = {}
    for rho, by_pair in inner.items():
        W: dict[Shape, int] = {}
        for (alpha, delta), v in by_pair.items():
            for tau, c3 in _lr_product(alpha, delta).items():
                W[tau] = W.get(tau, 0) + c3 * v
        for lam, c4 in _lr_run(W, rho).items():
            terms[lam] = terms.get(lam, 0) + c4
    # in partitions_of(degree) order, keyed by Partitions
    terms = {_trusted(lam): h for lam, h in sorted(terms.items(), reverse=True)}
    lam, h = next(iter(terms.items()))
    # the public heisenberg_coeff: bench/test_bench.py counts its calls on `product`
    if heisenberg_coeff(lam, mu, nu) != h:
        raise RuntimeError(f"degree pass and pointwise formula disagree at {lam}")
    return Decomposition(terms=terms, degree_range=(degree, degree))


def heisenberg_product(mu, nu) -> Decomposition:
    """The full Heisenberg product decomposition across all degrees."""
    mu, nu = Partition(mu), Partition(nu)
    lo, hi = max(mu.size, nu.size), mu.size + nu.size
    terms = {}
    for degree in range(lo, hi + 1):
        terms.update(heisenberg_component(mu, nu, degree).terms)
    return Decomposition(terms=terms, degree_range=(lo, hi))


# ---------------------------------------------------------------------------
# The h-basis (complete homogeneous) second route


@lru_cache(maxsize=None)
def _h_expansion(cls: type[KroneckerMatrix], mu: Shape,
                 nu: Shape) -> tuple[tuple[Shape, int], ...]:
    """Signed h-basis coefficients of the product of s_mu and s_nu, grouped
    by sorted margin sequence.  Both factors are expanded by Jacobi-Trudi,
    and each h_delta h_eps is the sum of h_pi(A) over the matrices A of class
    `cls` with margins (delta, eps), read as `_fill`'s rows and not built:
    plain matrices give the Kronecker product, cornered the Heisenberg one."""
    out: CounterT[Shape] = Counter()
    for delta, a in _schur_in_h(mu):
        for eps, b in _schur_in_h(nu):
            w = a * b
            for rows in _fill(cls, delta, eps):
                entries = filter(None, itertools.chain.from_iterable(rows))
                out[tuple(sorted(entries, reverse=True))] += w
    return tuple((theta, v) for theta, v in out.items() if v != 0)


def _from_h_basis(cls: type[KroneckerMatrix], lam: Shape, mu: Shape, nu: Shape) -> int:
    """Multiplicity of s_lam in the class-`cls` product of s_mu and s_nu,
    converted back from the h-basis through Kostka numbers.  The signed
    total must be a nonnegative integer."""
    total, size = 0, sum(lam)
    for theta, w in _h_expansion(cls, mu, nu):
        if sum(theta) == size:
            k = _kostka(lam, theta)
            if k:
                total += w * k
    if total < 0:
        raise ArithmeticError(
            f"h-basis route produced a negative multiplicity {total} "
            f"for ({lam}; {mu}, {nu}): implementation bug")
    return total


def _heis_orientation(lam: Shape, mu: Shape, nu: Shape) -> tuple[Shape, Shape, Shape]:
    """The Heisenberg query (lam; mu, nu), mu the larger factor, as the
    query with the same coefficient whose factors have the fewest
    Jacobi-Trudi rows (`_rows_price`; ties go to the query as given).  With
    p = |lam| - |nu|, q = |mu| + |nu| - |lam| and r = |lam| - |mu|, two
    degrees have a conjugate form:

    * q = 0.  The top degree of the Heisenberg product is the ordinary
      product, so h^lam_{mu nu} = c^lam_{mu nu}.  omega (s_x -> s_x') is a
      ring map, so c^lam'_{mu' nu'} = c^lam_{mu nu}, and (lam'; mu', nu') is
      again a top-degree query: conjugate all three.
    * r = 0.  The quintuple formula with rho empty makes the degree-|mu|
      component sum c^mu_{alpha beta} s_alpha (s_beta * s_nu) over
      alpha |- p and beta |- |nu|, * the Kronecker product.  Littlewood's
      identity (h_p s_nu) * s_mu = sum c^mu_{alpha beta} (h_p * s_alpha)
      (s_nu * s_beta), with h_p * s_alpha = s_alpha, makes that component
      (h_p s_nu) * s_mu.  Pieri's rule gives h_p s_nu = sum s_kappa over the
      kappa with kappa/nu a horizontal strip of p cells, so h^lam_{mu nu} =
      sum_kappa g(lam, mu, kappa).  s_x' = s_(1^|x|) * s_x, and
      s_(1^n) * s_(1^n) = s_(n) is the unit of *, so g(lam', mu', kappa) =
      g(lam, mu, kappa), and (lam'; mu', nu) is again a degree-|mu| query
      with the same kappa: conjugate lam and mu."""
    l, m, n = sum(lam), sum(mu), sum(nu)
    candidates = [(lam, mu, nu)]
    if l == m + n:
        candidates.append((_conjugate(lam), _conjugate(mu), _conjugate(nu)))
    if l == m:
        candidates.append((_conjugate(lam), _conjugate(mu), nu))
    return min(candidates, key=lambda c: _rows_price(len(c[1]), len(c[2])))


def heisenberg_coeff_oracle(lam, mu, nu) -> int:
    """Second, independent route: expand both factors into the h-basis,
    multiply there via cornered matrices, and convert back through Kostka
    numbers, on the orientation of the query that expands the fewest
    Jacobi-Trudi rows (`_heis_orientation`).  Zero outside max(|mu|,|nu|)
    <= |lam| <= |mu|+|nu|, without expanding."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if (mu.size, mu) < (nu.size, nu):
        mu, nu = nu, mu
    if not mu.size <= lam.size <= mu.size + nu.size:
        return 0
    return _from_h_basis(HeisenbergMatrix, *_heis_orientation(lam, mu, nu))


def kron_coeff_oracle(lam, mu, nu) -> int:
    """Second engine for Kronecker coefficients: the route `kron_coeff` did
    not take for this query.  That is the character sum when the primary
    took the h-basis route, and the h-basis route (on the orientation that
    expands the fewest rows) when it took the character sum or a closed
    form."""
    key = sorted(_equal_sizes(lam, mu, nu))
    if _kron_route(*key) is _kron_by_h_basis:
        return _kron_by_characters(*key)
    return _kron_by_h_basis(*key)
