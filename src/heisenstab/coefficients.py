"""The three structure-constant engines and their cross-check routes.

* Littlewood-Richardson coefficients by direct lattice-word tableau
  counting, with an independent hive-model counter (rhombus inequalities on
  a triangular array) as the second route.
* Kronecker coefficients by the exact character sum over conjugacy classes.
* Heisenberg coefficients by the quintuple-product formula that splits a
  query into two LR decompositions, one Kronecker factor in the shared
  degree, and two LR recombinations; the second route expands Schur
  functions into the complete-homogeneous basis and multiplies there, where
  the product is a sum over margin-constrained matrices.
* Whole degrees of the Heisenberg product by the same decomposition run
  once per degree, with both recombinations taken as Schur products by the
  LR rule (`_lr_product`).  Both Heisenberg engines read their LR splits
  from one memoized table (`_splits`) and share `_lr` and `_kron`; only
  their recombinations differ (tableau counts against strip-DP products).

All values are exact nonnegative integers and every engine memoizes
process-wide: stabilization sequences hammer overlapping subqueries.  The
public functions validate their partitions once; the cores behind them
(`_lr`, `_kron`, the quintuple formula) take valid partitions, look up
their memo first and compute only on a miss.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Counter as CounterT

from . import symfun
from .additivity import heisenberg_matrices, kronecker_matrices
from .partitions import (
    Composition,
    Partition,
    _integer_parts,
    _trusted,
    contains,
    partitions_of,
    subpartitions_of_size,
)
from .symfun import (
    character_vector,
    class_sizes,
    kostka,
    schur_in_h_basis,
)

_LR_CACHE: dict[tuple, int] = {}
_KRON_CACHE: dict[tuple, int] = {}
_HEIS_CACHE: dict[tuple, int] = {}
_LR_PRODUCT_CACHE: dict[tuple, dict[Partition, int]] = {}


def clear_caches() -> None:
    """Empty every memo of the package: the engines' memos here and the
    character, Kostka and Jacobi-Trudi memos of `symfun`."""
    _LR_CACHE.clear()
    _KRON_CACHE.clear()
    _HEIS_CACHE.clear()
    _LR_PRODUCT_CACHE.clear()
    _splits.cache_clear()
    _h_expansion.cache_clear()
    symfun.clear_caches()


# ---------------------------------------------------------------------------
# Littlewood-Richardson


def _lr_count(lam: tuple[int, ...], mu: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """Count skew tableaux of shape lam/mu and content nu whose reverse
    reading word is a lattice word.

    Cells are filled in reverse reading order (rows top to bottom, each row
    right to left) so the lattice condition prunes incrementally; rows must
    weakly increase left to right, columns strictly increase downwards."""
    if not contains(lam, mu):
        return 0
    n_vals = len(nu)
    if n_vals == 0:
        return 1  # empty content, empty skew shape (sizes matched upstream)
    rows = []
    for r, lam_r in enumerate(lam):
        inner = mu[r] if r < len(mu) else 0
        if lam_r < inner:
            return 0
        rows.append((r, inner, lam_r))

    grid: dict[tuple[int, int], int] = {}
    counts = [0] * (n_vals + 1)
    remaining = list(nu)

    cells: list[tuple[int, int]] = []
    for r, inner, outer in rows:
        for c in range(outer - 1, inner - 1, -1):
            cells.append((r, c))

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        hi = n_vals
        if (r, c + 1) in grid:
            hi = min(hi, grid[(r, c + 1)])
        lo = 1
        if (r - 1, c) in grid:
            lo = max(lo, grid[(r - 1, c)] + 1)
        total = 0
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            remaining[v - 1] -= 1
            counts[v] += 1
            grid[(r, c)] = v
            total += fill(idx + 1)
            del grid[(r, c)]
            counts[v] -= 1
            remaining[v - 1] += 1
        return total

    return fill(0)


def lr_coeff(lam, mu, nu) -> int:
    """Littlewood-Richardson coefficient: multiplicity of the lam-irreducible
    in the induction product of the mu- and nu-irreducibles.  Returns 0 when
    |lam| != |mu| + |nu|."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size != mu.size + nu.size:
        return 0
    return _lr(lam, mu, nu)


def _lr(lam: Partition, mu: Partition, nu: Partition) -> int:
    """LR core on valid partitions with |lam| = |mu| + |nu|."""
    # symmetric in (mu, nu): fill the smaller content over the bigger inner shape
    if (mu.size, mu) < (nu.size, nu):
        mu, nu = nu, mu
    key = (lam, mu, nu)
    val = _LR_CACHE.get(key)
    if val is None:
        val = _LR_CACHE[key] = _lr_count(lam, mu, nu)
    return val


@lru_cache(maxsize=None)
def _splits(outer: Partition, a: int, b: int) -> tuple[tuple[Partition, Partition, int], ...]:
    """Every LR split of `outer` as (x, y, c^outer_{x y}) with x |- a and
    y |- b inside `outer` and c > 0, for a + b = |outer|.  The one split
    table of both Heisenberg engines."""
    ys = list(subpartitions_of_size(outer, b))
    return tuple((x, y, c) for x in subpartitions_of_size(outer, a)
                 for y in ys if (c := _lr(outer, x, y)))


def _lr_product(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """The Schur product s_mu s_nu as {lam: c^lam_{mu nu}}, by the LR rule.

    The letters i = 1..k of the smaller factor go onto the bigger one as
    horizontal strips, nu_i cells each, row by row.  The reverse reading
    word is a lattice word iff, for every row j, the number of i's in rows
    <= j is at most the number of (i-1)'s in rows <= j-1.  So a partial
    filling matters only through its shape and the row-cumulative counts of
    its last letter, and fillings that agree there are counted together.
    Memoized per pair; callers must not mutate the result."""
    if (mu.size, mu) < (nu.size, nu):
        mu, nu = nu, mu  # fewer letters to place
    key = (mu, nu)
    out = _LR_PRODUCT_CACHE.get(key)
    if out is not None:
        return out
    rows = len(mu) + len(nu)  # each letter opens at most one new row
    # (shape, cumulative counts of the last letter by row) -> fillings; the
    # first letter has no lattice bound, the last one bounds nothing
    states: dict[tuple, int] = {(mu + (0,) * len(nu), None): 1}
    for i, n in enumerate(nu):
        last = i == len(nu) - 1
        grown: dict[tuple, int] = {}
        for (shape, below), c in states.items():
            new, cum = list(shape), [0] * rows

            def place(j: int, placed: int) -> None:
                left = n - placed
                if left == 0:
                    cum[j:] = [n] * (rows - j)
                    state = (tuple(new), None if last else tuple(cum))
                    grown[state] = grown.get(state, 0) + c
                    return
                if j:
                    room = shape[j - 1]
                    if left > room:
                        return  # from row j on a horizontal strip holds shape[j-1] cells
                    top = room - shape[j]
                    if top > left:
                        top = left
                    if below is not None and below[j - 1] - placed < top:
                        top = below[j - 1] - placed
                else:
                    top = left if below is None else 0
                for a in range(top, -1, -1):
                    new[j] = shape[j] + a
                    cum[j] = placed + a
                    place(j + 1, placed + a)
                new[j] = shape[j]

            place(0, 0)
        states = grown
    out = _LR_PRODUCT_CACHE[key] = {
        _trusted(p for p in shape if p): c for (shape, _), c in states.items()}
    return out


def lr_coeff_hive(lam, mu, nu) -> int:
    """Same coefficient counted as integer triangular arrays with fixed
    boundary and rhombus inequalities; independent of the tableau route."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size != mu.size + nu.size:
        return 0
    k = max(len(lam), len(mu), len(nu), 0) + 1

    # H[i][j], 0 <= j <= i <= k.  Boundary: H[i][0] = mu_1+..+mu_i,
    # H[i][i] = lam_1+..+lam_i, H[k][j] = |mu| + nu_1+..+nu_j.
    # Every unit rhombus demands: sum over its short diagonal >= sum over
    # its long diagonal.  Filling row-major, each rhombus is checked at its
    # last-filled vertex, giving one lower and up to two upper bounds.
    mu_ps = [0] * (k + 1)
    lam_ps = [0] * (k + 1)
    nu_ps = [0] * (k + 1)
    for i in range(1, k + 1):
        mu_ps[i] = mu_ps[i - 1] + mu.part(i - 1)
        lam_ps[i] = lam_ps[i - 1] + lam.part(i - 1)
        nu_ps[i] = nu_ps[i - 1] + nu.part(i - 1)

    H = [[0] * (i + 1) for i in range(k + 1)]

    def bounds(i: int, j: int) -> tuple[int | None, int | None]:
        lo = None
        hi = None
        # lower bound: rhombus with last vertex (i,j), short diagonal
        # (i-1,j-1)-(i,j): H[i][j] >= H[i][j-1] + H[i-1][j] - H[i-1][j-1]
        if i >= 1 and 1 <= j <= i - 1:
            lo = H[i][j - 1] + H[i - 1][j] - H[i - 1][j - 1]
        # upper bound 1: short diagonal (i-1,j-1)-(i,j-1):
        # H[i][j] <= H[i-1][j-1] + H[i][j-1] - H[i-1][j-2]
        if i >= 1 and j >= 2:
            b = H[i - 1][j - 1] + H[i][j - 1] - H[i - 1][j - 2]
            hi = b if hi is None else min(hi, b)
        # upper bound 2: short diagonal (i-1,j-1)-(i-1,j):
        # H[i][j] <= H[i-1][j-1] + H[i-1][j] - H[i-2][j-1]
        if i >= 2 and 1 <= j <= i - 1:
            b = H[i - 1][j - 1] + H[i - 1][j] - H[i - 2][j - 1]
            hi = b if hi is None else min(hi, b)
        return lo, hi

    def fixed_value(i: int, j: int) -> int | None:
        if j == 0:
            return mu_ps[i]
        if j == i:
            return lam_ps[i]
        if i == k:
            return mu_ps[k] + nu_ps[j]
        return None

    def fill(i: int, j: int) -> int:
        if i > k:
            return 1
        nj, ni = (j + 1, i) if j < i else (0, i + 1)
        lo, hi = bounds(i, j)
        fv = fixed_value(i, j)
        if fv is not None:
            if (lo is not None and fv < lo) or (hi is not None and fv > hi):
                return 0
            H[i][j] = fv
            return fill(ni, nj)
        if lo is None or hi is None:  # interior cells always have both
            raise AssertionError("unbounded interior hive cell")
        total = 0
        for v in range(lo, hi + 1):
            H[i][j] = v
            total += fill(ni, nj)
        return total

    return fill(0, 0)


# ---------------------------------------------------------------------------
# Kronecker


def kron_coeff(lam, mu, nu) -> int:
    """Kronecker coefficient via the exact character sum; fully symmetric in
    its three arguments."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if mu.size != lam.size or nu.size != lam.size:
        raise ValueError(f"Kronecker query needs equal sizes, got {lam.size}, {mu.size}, {nu.size}")
    return _kron(lam, mu, nu)


def _kron(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Kronecker core on valid partitions of one size."""
    key = tuple(sorted((lam, mu, nu)))
    val = _KRON_CACHE.get(key)
    if val is None:
        n = lam.size
        a, b, c = (character_vector(x) for x in key)
        total = sum(s * x * y * z for s, x, y, z in zip(class_sizes(n), a, b, c))
        if total % factorial(n):
            raise RuntimeError("character sum is not an integer")
        val = _KRON_CACHE[key] = total // factorial(n)
    return val


# ---------------------------------------------------------------------------
# Heisenberg


def heisenberg_coeff(lam, mu, nu) -> int:
    """Multiplicity of the lam-irreducible in the Heisenberg product of the
    mu- and nu-irreducibles.  Zero outside max(|mu|,|nu|) <= |lam| <=
    |mu|+|nu|."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if (mu.size, mu) < (nu.size, nu):
        mu, nu = nu, mu  # the product is commutative
    l, m, n = lam.size, mu.size, nu.size
    p, q, r = l - n, m + n - l, l - m
    if p < 0 or q < 0 or r < 0:
        return 0
    key = (lam, mu, nu)
    val = _HEIS_CACHE.get(key)
    if val is None:
        val = _HEIS_CACHE[key] = _heis_by_formula(lam, mu, nu, p, q, r)
    return val


def _heis_by_formula(lam: Partition, mu: Partition, nu: Partition,
                     p: int, q: int, r: int) -> int:
    # mu splits into (alpha |- p, beta |- q) and nu into (eta |- q, rho |- r)
    # by LR; beta and eta meet in a Kronecker factor over delta |- q; alpha
    # and delta recombine into tau |- p+q, then tau and rho into lam.
    c1_by_alpha: dict[Partition, list[tuple[Partition, int]]] = {}
    for alpha, beta, c1 in _splits(mu, p, q):
        c1_by_alpha.setdefault(alpha, []).append((beta, c1))
    if not c1_by_alpha:
        return 0
    c2_by_rho: dict[Partition, list[tuple[Partition, int]]] = {}
    for eta, rho, c2 in _splits(nu, q, r):
        c2_by_rho.setdefault(rho, []).append((eta, c2))
    taus = list(subpartitions_of_size(lam, p + q))

    total = 0
    for rho, c2_terms in c2_by_rho.items():
        for tau in taus:
            c4 = _lr(lam, tau, rho)
            if not c4:
                continue
            for alpha, delta, c3 in _splits(tau, p, q):
                inner = 0
                for beta, c1 in c1_by_alpha.get(alpha, ()):
                    for eta, c2 in c2_terms:
                        g = _kron(delta, beta, eta)
                        if g:
                            inner += c1 * c2 * g
                total += c4 * c3 * inner
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
    contraction are done once; the two Schur products come from
    `_lr_product`.  One term is then checked against the pointwise
    formula (`heisenberg_coeff`): the lexicographically largest lam, whose
    few subdiagrams make it the cheapest query for that formula.  The check
    shares `_splits`, `_lr` and `_kron` with this pass, so only the
    recombinations are independent (tableau counts against strip-DP
    products).  The independent checks are the h-basis oracle (acceptance
    01, |mu|, |nu| <= 4) and the dimension identity."""
    mu, nu = Partition(mu), Partition(nu)
    (degree,) = _integer_parts((degree,), ValueError)
    lo, hi = max(mu.size, nu.size), mu.size + nu.size
    if not lo <= degree <= hi:
        raise ValueError(f"degree {degree} outside [{lo}, {hi}]")
    if (mu.size, mu) < (nu.size, nu):
        mu, nu = nu, mu  # the product is commutative
    p, q, r = degree - nu.size, mu.size + nu.size - degree, degree - mu.size

    # inner[(alpha, delta)][rho] = sum c1 c2 g(delta, beta, eta)
    deltas = list(partitions_of(q))
    inner: dict[tuple[Partition, Partition], dict[Partition, int]] = {}
    for alpha, beta, c1 in _splits(mu, p, q):
        for eta, rho, c2 in _splits(nu, q, r):
            for delta in deltas:
                g = _kron(delta, beta, eta)
                if g:
                    by_rho = inner.setdefault((alpha, delta), {})
                    by_rho[rho] = by_rho.get(rho, 0) + c1 * c2 * g

    # W[(tau, rho)] = sum c^tau_{alpha delta} inner, then lam from tau and rho
    W: CounterT[tuple[Partition, Partition]] = Counter()
    for (alpha, delta), by_rho in inner.items():
        for tau, c3 in _lr_product(alpha, delta).items():
            for rho, v in by_rho.items():
                W[(tau, rho)] += c3 * v
    terms: CounterT[Partition] = Counter()
    for (tau, rho), w in W.items():
        for lam, c4 in _lr_product(tau, rho).items():
            terms[lam] += c4 * w
    # in partitions_of(degree) order
    terms = dict(sorted(terms.items(), reverse=True))
    lam, h = next(iter(terms.items()))
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


def h_basis_kron_product(beta, gamma) -> CounterT[Partition]:
    """Kronecker product of two h-basis elements: the multiset of sorted
    entry sequences over all matrices with margins (beta, gamma)."""
    beta, gamma = Composition(beta), Composition(gamma)
    if beta.size != gamma.size:
        raise ValueError(f"margin totals differ: {beta.size} != {gamma.size}")
    return Counter(A.pi for A in kronecker_matrices(beta, gamma))


def h_basis_heisenberg_product(beta, gamma) -> CounterT[Partition]:
    """Heisenberg product of two h-basis elements: the multiset of sorted
    entry sequences over all cornered matrices with margins (beta, gamma)."""
    beta, gamma = Composition(beta), Composition(gamma)
    return Counter(A.pi for A in heisenberg_matrices(beta, gamma))


@lru_cache(maxsize=None)
def _h_expansion(product, mu: Partition, nu: Partition) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Signed h-basis coefficients of the product of two Schur elements,
    grouped by sorted margin sequence; `product` is
    `h_basis_heisenberg_product` or `h_basis_kron_product`."""
    out: CounterT[Partition] = Counter()
    for delta, a in schur_in_h_basis(mu).items():
        for eps, b in schur_in_h_basis(nu).items():
            w = a * b
            for theta, mult in product(delta, eps).items():
                out[theta] += w * mult
    return tuple((tuple(k), v) for k, v in out.items() if v != 0)


def _from_h_basis(product, lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of s_lam in the product of s_mu and s_nu, converted back
    from the h-basis through Kostka numbers.  The signed total must be a
    nonnegative integer."""
    total = 0
    for theta, w in _h_expansion(product, mu, nu):
        if sum(theta) == lam.size:
            k = kostka(lam, theta)
            if k:
                total += w * k
    if total < 0:
        raise ArithmeticError(
            f"h-basis route produced a negative multiplicity {total} "
            f"for ({lam}; {mu}, {nu}): implementation bug")
    return total


def heisenberg_coeff_oracle(lam, mu, nu) -> int:
    """Second, independent route: expand both factors into the h-basis,
    multiply there via cornered matrices, and convert back through Kostka
    numbers."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if (mu.size, mu) < (nu.size, nu):
        mu, nu = nu, mu
    return _from_h_basis(h_basis_heisenberg_product, lam, mu, nu)


def kron_coeff_oracle(lam, mu, nu) -> int:
    """h-basis route for Kronecker coefficients (second engine for the CLI
    cross-check)."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if lam.size != mu.size or lam.size != nu.size:
        raise ValueError("Kronecker query needs equal sizes")
    return _from_h_basis(h_basis_kron_product, lam, mu, nu)
