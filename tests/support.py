"""Shared helpers for the test suite: triple enumeration by size pattern,
and independent oracles: `Partition` construction by its checks alone,
with the exhaustive comparison of the two over short lists of parts, a
hook-length dimension formula, both sides of
the Kronecker character identity on whole rows at classes whose characters
need no Murnaghan-Nakayama code (the identity, a transposition, the
n-cycle), the dominance
order by Brylawski's box transfers, a brute-force Kostka count, the
per-class Murnaghan-Nakayama recursion, the plain Kronecker character sum
over it and whole Heisenberg components by restriction and induction of
characters, the Jacobi-Trudi determinant expanded over all permutations,
the rational rank of an integer matrix, the Fourier-Motzkin
back-substitution in `Fraction`s, the all-pairs additivity certificate
check, the first 2 x 2 trade by brute force, a third Heisenberg engine for
the lowest degree, by Pieri's rule over horizontal strips, and the census
of stable triples: each one scanned, and its margin classes searched for an
additive matrix, and the other way round, the triples that additive matrices
generate."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import mul
from typing import Sequence

from heisenstab import Composition, Kind, Partition, ratfeas
from heisenstab.additivity import (
    MATRIX_KINDS,
    check_budget,
    is_additive,
    margin_class,
    margin_matrices,
)
from heisenstab.coefficients import kron_coeff, kron_coeff_oracle
from heisenstab.partitions import (
    BudgetExceededError,
    NotAPartitionError,
    _integer_parts,
    partitions_of,
    partitions_up_to,
)
from heisenstab.symfun import character_vector, class_size, cycle_types, zee
from heisenstab.stability import (
    NotATripleError,
    classify_triple,
    coefficient,
    size_pattern_ok,
    stability_check,
)


class Index:
    """An integer-like object: `operator.index` reads it as n."""

    def __init__(self, n: int):
        self.n = n

    def __index__(self) -> int:
        return self.n


def reference_partition(parts) -> Partition:
    """Partition(parts) by the checks alone, as the constructor ran before
    its one-pass loop: read every part with `_integer_parts`, drop trailing
    zeros, then refuse a negative part or an increase."""
    if type(parts) is Partition:
        return parts
    ps = _integer_parts(parts, NotAPartitionError)
    while ps and ps[-1] == 0:
        ps = ps[:-1]
    for i, p in enumerate(ps):
        if p < 0:
            raise NotAPartitionError(f"negative part {p} in {ps}")
        if i and ps[i - 1] < p:
            raise NotAPartitionError(f"parts not weakly decreasing: {ps}")
    return tuple.__new__(Partition, ps)


# Parts the constructor's loop accepts and each kind of part it hands to
# the checks: zero, negative, increasing, bool, float, Fraction, string,
# None and an `__index__` object.
PART_VALUES = (-1, 0, 1, 2, 3, True, 2.0, Fraction(2), "2", None, Index(2))
PART_FORMS = {"list": list, "tuple": tuple, "generator": lambda ps: (p for p in ps)}


def _outcome(build, parts):
    try:
        value = build(parts)
    except Exception as exc:  # the error's type and message are the outcome
        return type(exc), str(exc)
    return type(value), tuple(value)


def partition_mismatches(max_len: int) -> list:
    """Every list of at most max_len parts from PART_VALUES, passed in each
    of PART_FORMS, on which Partition and reference_partition differ in the
    type and value returned or the type and message raised."""
    bad = []
    for length in range(max_len + 1):
        for parts in itertools.product(PART_VALUES, repeat=length):
            for form, make in PART_FORMS.items():
                got = _outcome(Partition, make(parts))
                want = _outcome(reference_partition, make(parts))
                if got != want:
                    bad.append((form, parts, got, want))
    return bad


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


def content_sum(lam: Sequence[int]) -> int:
    """The sum of the contents j - i of the cells (i, j) of lam."""
    return sum(p * (p - 1) // 2 - i * p for i, p in enumerate(lam))


def kronecker_row_sides(lam, mu) -> list[tuple[int, int]]:
    """Both sides of sum_nu g(lam, mu, nu) chi^nu(rho) = chi^lam(rho) chi^mu(rho),
    over every nu of n = |lam| = |mu|, g by `kron_coeff`, at two classes whose
    characters come from the hook-length formula alone, so that no
    Murnaghan-Nakayama code runs: the identity, chi^nu = f^nu, and a
    transposition, chi^nu = f^nu content_sum(nu) / C(n, 2), whose sides are
    multiplied by C(n, 2)^2 to stay integers.  The first cannot tell nu from
    its conjugate; the second changes sign under conjugation, so it can."""
    n, dims, transpositions = sum(lam), 0, 0
    for nu in partitions_of(n):
        g = kron_coeff(lam, mu, nu)
        if g:
            f = hook_length_dimension(nu)
            dims += g * f
            transpositions += g * f * content_sum(nu)
    f_lam, f_mu = hook_length_dimension(lam), hook_length_dimension(mu)
    return [(dims, f_lam * f_mu),
            (transpositions * comb(n, 2), f_lam * content_sum(lam) * f_mu * content_sum(mu))]


def n_cycle_sides(lam, mu) -> tuple[int, int]:
    """Both sides of the same identity at the n-cycle, n = |lam| = |mu| >= 1,
    where chi^nu is (-1)^k on the hook (n - k, 1^k) and 0 off the hooks: the
    row asks g only on the n hooks."""
    def sign(x):
        return (-1) ** (len(x) - 1) if all(p == 1 for p in x[1:]) else 0

    n = sum(lam)
    return (sum((-1) ** k * kron_coeff(lam, mu, (n - k,) + (1,) * k) for k in range(n)),
            sign(Partition(lam)) * sign(Partition(mu)))


def transfers_from(lam: Sequence[int]) -> set[Partition]:
    """Every partition reached from lam, lam included, by moving one box
    from a row to a row at least two shorter, an empty row below the last
    included (test oracle for the dominance order: Brylawski's moves reach
    exactly the partitions of |lam| that lam dominates)."""
    start = Partition(lam)
    seen, stack = {start}, [start]
    while stack:
        rows = stack.pop() + (0,)
        for i, j in itertools.combinations(range(len(rows)), 2):
            if rows[i] - rows[j] >= 2:
                moved = list(rows)
                moved[i] -= 1
                moved[j] += 1
                mu = Partition(sorted(moved, reverse=True))
                if mu not in seen:
                    seen.add(mu)
                    stack.append(mu)
    return seen


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


@lru_cache(maxsize=None)
def mn_character(lam: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """chi^lam at the cycle type rho, one class at a time (test oracle):
    remove a border strip of size rho_1 in every way and recurse on the
    rest of rho.  A strip moves one beta number b = lam_i + (L - 1 - i) down
    by rho_1 onto a free value; its height is the number of beta numbers it
    jumps over."""
    if not rho:
        return 1 if not lam else 0
    k, L = rho[0], len(lam)
    betas = {p + L - 1 - i for i, p in enumerate(lam)}
    total = 0
    for b in betas:
        if b - k < 0 or b - k in betas:
            continue
        moved = sorted(betas - {b} | {b - k}, reverse=True)
        shape = tuple(x - (L - 1 - i) for i, x in enumerate(moved))
        height = sum(1 for x in betas if b - k < x < b)
        total += (-1) ** height * mn_character(tuple(p for p in shape if p), rho[1:])
    return total


def kron_by_class_sum(lam, mu, nu) -> int:
    """g(lam, mu, nu) as the plain character sum over the classes of S_n,
    each character value from `mn_character` (test oracle)."""
    lam, mu, nu = (tuple(Partition(x)) for x in (lam, mu, nu))
    n = sum(lam)
    total = sum(class_size(rho) * mn_character(lam, rho) * mn_character(mu, rho)
                * mn_character(nu, rho) for rho in map(tuple, partitions_of(n)))
    if total % factorial(n):
        raise ValueError("character sum is not a multiple of n!")
    return total // factorial(n)


def heisenberg_component_by_characters(mu, nu, degree: int) -> dict[tuple[int, ...], int]:
    """The piece of degree l of s_mu # s_nu as {lam: h^lam_{mu nu}}, nonzero
    terms only (test oracle for whole components).  With mu the larger
    factor, as `heisenberg_component` orders them, and p, q, r = l - |nu|,
    |mu| + |nu| - l, l - |mu|, restriction and induction (Aguiar, Ferrer
    Santos and Moreira) give h^lam = sum over a |- p, b |- q, c |- r of
    chi^mu(a u b) chi^nu(b u c) chi^lam(a u b u c) / (z_a z_b z_c).  The
    weights are summed per class a u b u c, scaled by p! q! r!, with chi^mu
    and chi^nu from `mn_character`; each lam |- l is then one dot product
    with `character_vector(lam)`.  Every division must be exact."""
    mu, nu = Partition(mu), Partition(nu)
    if (mu.size, mu) < (nu.size, nu):
        mu, nu = nu, mu
    p, q, r = degree - nu.size, mu.size + nu.size - degree, degree - mu.size

    def exact(n: int, d: int) -> int:
        quotient, rest = divmod(n, d)
        if rest:
            raise ArithmeticError(f"{n} / {d} is not an integer")
        return quotient

    def classes(k: int):  # each class of S_k with k! / z
        return [(tuple(a), exact(factorial(k), zee(a))) for a in partitions_of(k)]

    def union(*parts) -> tuple[int, ...]:
        return tuple(sorted(itertools.chain(*parts), reverse=True))

    weights: Counter[tuple[int, ...]] = Counter()
    for (a, wa), (b, wb), (c, wc) in itertools.product(classes(p), classes(q), classes(r)):
        weights[union(a, b, c)] += (mn_character(tuple(mu), union(a, b))
                                    * mn_character(tuple(nu), union(b, c)) * wa * wb * wc)
    w = [weights[rho] for rho in cycle_types(degree)]
    scale = factorial(p) * factorial(q) * factorial(r)
    terms = {lam: exact(sum(map(mul, w, character_vector(lam))), scale)
             for lam in partitions_of(degree)}
    return {lam: h for lam, h in terms.items() if h}


def schur_in_h_by_permutations(lam: Sequence[int]) -> dict[tuple[int, ...], int]:
    """s_lam in the h-basis as {sorted degrees: coefficient} (test oracle):
    the Jacobi-Trudi determinant det(h_{lam_i - i + j}) expanded over all
    L! permutations, each term signed by its inversion count; h_0 is an
    empty factor and a negative degree kills the term."""
    lam = tuple(Partition(lam))
    coeffs: dict[tuple[int, ...], int] = {}
    for sigma in itertools.permutations(range(len(lam))):
        degrees = [lam[i] - i + s for i, s in enumerate(sigma)]
        if min(degrees, default=0) < 0:
            continue
        inversions = sum(a > b for a, b in itertools.combinations(sigma, 2))
        key = tuple(sorted((d for d in degrees if d), reverse=True))
        coeffs[key] = coeffs.get(key, 0) + (-1) ** inversions
    return {k: v for k, v in coeffs.items() if v}


def exact_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination (test
    oracle for the margin constraint matrix)."""
    m = [[Fraction(e) for e in row] for row in rows]
    rank = 0
    col = 0
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    while rank < n_rows and col < n_cols:
        pivot = next((r for r in range(rank, n_rows) if m[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(n_rows):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        col += 1
    return rank


def solve_strict_by_fractions(rows, num_vars: int):
    """`ratfeas.solve_strict` with its back-substitution in `Fraction`s (test
    oracle): the library's elimination stages, then in reverse elimination
    order each variable between its strict bounds -rest/c, at the midpoint
    of two, one past a single bound, and the point divided by its smallest
    slack."""
    eliminated = ratfeas._eliminate(rows, num_vars)
    if eliminated is None:
        return None
    exact, stages = eliminated
    values = [Fraction(0)] * num_vars
    for k, stage_rows in reversed(stages):
        lo = hi = None
        for r in stage_rows:
            rest = sum(c * values[i] for i, c in enumerate(r) if c and i != k)
            bound = Fraction(-rest, r[k])
            if r[k] > 0:
                if lo is None or bound > lo:
                    lo = bound
            elif hi is None or bound < hi:
                hi = bound
        if lo is not None and hi is not None:
            if not lo < hi:
                raise RuntimeError("Fourier-Motzkin back-substitution interval empty")
            values[k] = (lo + hi) / 2
        elif lo is not None:
            values[k] = lo + 1
        elif hi is not None:
            values[k] = hi - 1
    if not exact:
        return tuple(values)
    low = min(sum(c * v for c, v in zip(row, values)) for row in exact)
    if not low > 0:
        raise RuntimeError("solver produced an invalid assignment")
    return tuple(v / low for v in values)


def certificate_by_all_pairs(A, cert) -> bool:
    """`check_certificate` over every ordered pair of cells (test oracle): a
    strictly larger entry needs a strictly larger potential sum."""
    if (len(cert.x), len(cert.y)) != A.shape:
        raise ValueError("certificate dimensions do not match the matrix")
    n_rows, n_cols = A.shape
    cells = [(i, j) for i in range(n_rows) for j in range(n_cols)
             if not (A.corner and i == j == 0)]
    return all(cert.x[i] + cert.y[j] > cert.x[k] + cert.y[l]
               for (i, j), (k, l) in itertools.permutations(cells, 2)
               if A.rows[i][j] > A.rows[k][l])


def first_trade(A):
    """The 2 x 2 trade `additivity._trade` must return, as (upper cells,
    lower cells), or None (test oracle): row pairs i < k in order, each with
    the first column where row i is strictly larger and the first where it
    is strictly smaller, the corner excluded; the first pair that has both
    gives the trade.  Then column pairs the same way."""
    rows = A.rows
    for lines, cell in ((rows, lambda line, place: (line, place)),
                        (tuple(zip(*rows)), lambda line, place: (place, line))):
        for i, k in itertools.combinations(range(len(lines)), 2):
            order = [(x > y) - (x < y) for x, y in zip(lines[i], lines[k])]
            if A.corner and i == 0 and order:
                order[0] = 0  # the corner is never compared
            if 1 in order and -1 in order:
                up, down = order.index(1), order.index(-1)
                return (cell(i, up), cell(k, down)), (cell(k, up), cell(i, down))
    return None


def horizontal_strips(nu: Sequence[int], p: int):
    """Every kappa with kappa/nu a horizontal strip of p cells (test oracle,
    apart from the library's strip walks): kappa_1 >= nu_1, and below it
    nu_(i-1) >= kappa_i >= nu_i on every row, one row past nu included."""
    nu = tuple(Partition(nu))
    rows_below = [range(low, high + 1) for high, low in zip(nu, nu[1:] + (0,))]
    for rest in itertools.product(*rows_below):
        top = p - (sum(rest) - sum(nu[1:]))  # the cells left for row 1
        if top >= 0:
            yield tuple(k for k in ((nu[0] if nu else 0) + top, *rest) if k)


def heisenberg_lowest_by_pieri(lam, mu, nu) -> int:
    """h^lam_{mu nu} at the lowest degree, |lam| = |mu| >= |nu| (test oracle,
    a third engine).  With r = 0 the quintuple formula has alpha |- p and
    rho empty, and h_p * s_alpha = s_alpha (Kronecker product) for alpha |- p,
    so Littlewood's identity makes the degree-|mu| piece s_mu * (s_nu h_p)
    with p = |mu| - |nu|.  Pieri's rule writes s_nu h_p as the sum of s_kappa
    over the horizontal strips kappa/nu of p cells, so h^lam_{mu nu} is the
    sum of g(lam, mu, kappa) over them, each g from `kron_coeff_oracle`."""
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if not lam.size == mu.size >= nu.size:
        raise ValueError("not a lowest-degree query: need |lam| = |mu| >= |nu|")
    return sum(kron_coeff_oracle(lam, mu, kappa)
               for kappa in horizontal_strips(nu, mu.size - nu.size))


def census(max_size: int, n_max: int) -> dict:
    """The census of stable-triple candidates: every triple of nonempty
    partitions of sizes <= max_size that `classify_triple` gives the
    Kronecker or the Heisenberg kind with coefficient 1, Kronecker triples
    unordered (ascending), Heisenberg triples up to swapping beta and gamma
    ((|beta|, beta) >= (|gamma|, gamma)).  Each is scanned to n_max by
    `stability_check`, and its margin classes are searched for an additive
    matrix under `check_budget`: every distinct order of a Kronecker triple,
    both beta/gamma orders of a Heisenberg triple, its own order first.

    Returns {"max_size", "n_max", "kron": records, "heis": records}, a
    record {"triple", "verdict"} plus the witness [n, value] of a refuted
    triple and the order and matrix rows of a certificate, as JSON values.
    The verdict is refuted, certified, budget_refused (no certificate, and
    the budget refused some order) or uncertified."""
    shapes = [x for x in partitions_up_to(max_size) if x]
    table = {"max_size": max_size, "n_max": n_max, "kron": [], "heis": []}
    for alpha, beta, gamma in itertools.product(shapes, repeat=3):
        try:
            triple = classify_triple(alpha, beta, gamma)
        except NotATripleError:
            continue
        if triple.coefficient != 1:
            continue
        own = (alpha, beta, gamma)
        if triple.kind is Kind.KRONECKER and alpha <= beta <= gamma:
            others = set(itertools.permutations(own))
        elif triple.kind is Kind.HEISENBERG and (beta.size, beta) >= (gamma.size, gamma):
            others = {(alpha, gamma, beta)}
        else:
            continue
        orders = [own] + sorted(others - {own})
        table[triple.kind.value].append(_census_record(triple, orders, n_max))
    return table


def _census_record(triple, orders, n_max: int) -> dict:
    cls = MATRIX_KINDS["k" if triple.kind is Kind.KRONECKER else "h"]
    witness = stability_check(triple, n_max).witness
    refused, certificate = False, {}
    for alpha, beta, gamma in orders:
        try:
            check_budget(cls, beta, gamma)
        except BudgetExceededError:
            refused = True
            continue
        A = next((A for A in margin_class(cls, beta, gamma, alpha) if is_additive(A)), None)
        if A is not None:
            certificate = {"order": [list(alpha), list(beta), list(gamma)],
                           "matrix": [list(row) for row in A.rows]}
            break
    record = {"triple": [list(x) for x in triple[:3]],
              "verdict": ("refuted" if witness else "certified" if certificate
                          else "budget_refused" if refused else "uncertified")}
    if witness:
        record["witness"] = list(witness)
    return record | certificate


CENSUS_VERDICTS = ("refuted", "certified", "uncertified", "budget_refused")


def census_counts(table: dict) -> dict[str, tuple[int, ...]]:
    """Per kind: (total, refuted, certified, uncertified, budget_refused)."""
    return {kind: (len(table[kind]), *(sum(r["verdict"] == v for r in table[kind])
                                       for v in CENSUS_VERDICTS))
            for kind in ("kron", "heis")}


def generated(max_size: int) -> dict:
    """The triples that additive matrices generate (Vallejo): every matrix of
    both families whose margins beta, gamma are nonempty partitions of sizes
    <= max_size and whose sorted entries alpha are nonempty of size <=
    max_size, with no budget.  An additive one gives the triple (alpha;
    beta, gamma) of the first `Kind` its sizes fit, in the census's
    canonical form: a Kronecker triple sorted, any other with
    (|beta|, beta) >= (|gamma|, gamma).

    Returns {(kind value, canonical triple): its coefficient by
    `classify_triple`}; additivity implies the coefficient is 1."""
    shapes = [x for x in partitions_up_to(max_size) if x]
    found = {}
    for cls in MATRIX_KINDS.values():
        for beta, gamma in itertools.product(shapes, repeat=2):
            for A in margin_matrices(cls, beta, gamma):
                alpha = A.pi
                if not 0 < alpha.size <= max_size:
                    continue
                kind = next(k for k in Kind if size_pattern_ok(k, alpha, beta, gamma))
                if kind is Kind.KRONECKER:
                    triple = tuple(sorted((alpha, beta, gamma)))
                else:
                    triple = (alpha, *sorted((beta, gamma), key=lambda x: (x.size, x),
                                             reverse=True))
                if (kind.value, triple) not in found and is_additive(A):
                    found[kind.value, triple] = classify_triple(*triple).coefficient
    return found
