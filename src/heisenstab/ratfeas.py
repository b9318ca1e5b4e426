"""Exact rational feasibility for small systems of strict inequalities.

A system is a list of rows r of ints and `Fraction`s, each demanding
r . z >= 1 (a float, string or bool entry or number of variables raises
ValueError).  Every right-hand side is the same positive constant, so the
system is feasible exactly when the homogeneous strict system r . z > 0
is: a solution of the first satisfies the second, and a solution z of the
second, divided by min(r . z), satisfies the first.  The solver decides
the homogeneous system by Fourier-Motzkin elimination on integer rows (a
row with `Fraction`s is multiplied by the lcm of their denominators), so
the answer is exact: a rational point satisfying every row, or None.

Back-substitution stays in integers too: the values are numerators over
one common denominator, each bound is compared by cross-multiplication,
and `Fraction`s are built only for the returned point.

Every returned point is re-checked against all original rows before it is
handed back; an internal inconsistency raises instead of returning.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import TYPE_CHECKING, Optional, Sequence

from .partitions import _integer_parts, _rationals

if TYPE_CHECKING:  # the engines load this module, not fractions
    from fractions import Fraction

# each stage: (eliminated variable, the integer rows in which it occurred)
Stage = tuple[int, list[tuple[int, ...]]]


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """The row divided by the gcd of its entries (all-zero rows unchanged)."""
    g = gcd(*row)
    return tuple(c // g for c in row) if g > 1 else tuple(row)


def solve_strict(rows: Sequence[Sequence], num_vars: int) -> Optional[tuple[Fraction, ...]]:
    """Find rational z with row . z >= 1 for every row, or None if infeasible."""
    (num_vars,) = _integer_parts((num_vars,), ValueError)
    if num_vars < 0:
        raise ValueError("num_vars must be nonnegative")
    eliminated = _eliminate(rows, num_vars)
    if eliminated is None:
        return None
    exact, stages = eliminated
    numerators = _back_substitute(stages, num_vars)
    from fractions import Fraction

    if not exact:
        return (Fraction(0),) * num_vars
    # the point is numerators / D for some D > 0; dividing by its smallest
    # slack min(row . numerators) / D cancels D
    low = min(sum(map(mul, row, numerators)) for row in exact)
    if not low > 0:
        raise RuntimeError("solver produced an invalid assignment")
    return tuple(Fraction(n, low) for n in numerators)


def _eliminate(rows: Sequence[Sequence], num_vars: int
               ) -> Optional[tuple[list[tuple], list[Stage]]]:
    """The rows as given (a row with a non-int entry as `_rationals` reads
    it) and the Fourier-Motzkin stages of their integer system, in
    elimination order; None when elimination reaches the zero row, 0 > 0."""
    exact = []
    system: set[tuple[int, ...]] = set()
    for row in rows:
        if len(row) != num_vars:
            raise ValueError(f"row length {len(row)} != num_vars {num_vars}")
        if all(type(c) is int for c in row):
            row = tuple(row)
            system.add(_primitive(row))
        else:  # a positive integer multiple keeps the solutions of r . z > 0
            row = tuple(_rationals(row))
            m = lcm(*(c.denominator for c in row))
            system.add(_primitive([c.numerator * (m // c.denominator) for c in row]))
        exact.append(row)

    zero = (0,) * num_vars
    alive = list(range(num_vars))
    stages: list[Stage] = []
    while system:
        if zero in system:  # 0 > 0: infeasible
            return None
        # among the variables still occurring, pick the one minimizing the
        # pos*neg fill-in
        best_k, best_cost = -1, None
        for k in alive:
            pos = neg = 0
            for r in system:
                if r[k] > 0:
                    pos += 1
                elif r[k] < 0:
                    neg += 1
            if pos or neg:
                cost = pos * neg - pos - neg
                if best_cost is None or cost < best_cost:
                    best_k, best_cost = k, cost
        k = best_k
        alive.remove(k)
        pos_rows = [r for r in system if r[k] > 0]
        neg_rows = [r for r in system if r[k] < 0]
        stages.append((k, pos_rows + neg_rows))
        system = {r for r in system if r[k] == 0}
        # |b| * rp + a * rn cancels column k; both multipliers are positive,
        # so the new row holds wherever rp and rn do.
        for rp in pos_rows:
            a = rp[k]
            for rn in neg_rows:
                b = -rn[k]
                system.add(_primitive([b * p + a * n for p, n in zip(rp, rn)]))
    return exact, stages


def _back_substitute(stages: Sequence[Stage], num_vars: int) -> list[int]:
    """Numerators N of a point N / D (D > 0) with every stage row . z > 0.

    Stages are undone in reverse elimination order.  A row c*z_k + rest > 0,
    where rest / D is the part over the variables already chosen, bounds z_k
    strictly by -rest / (c D): from below when c > 0, from above when c < 0.
    Each bound is kept as p / q with q = |c| > 0, which shares the factor
    1 / D with every other bound of the stage, so two bounds compare by
    p1 * q2 against p2 * q1.  Between two bounds z_k is their midpoint;
    with one, the bound plus or minus 1.  Choosing z_k = num / (s D)
    rescales N and D by s, then their gcd is divided out.  Variables no
    stage eliminated stay 0, as does z_k while its stage is read."""
    N = [0] * num_vars
    D = 1
    for k, stage_rows in reversed(stages):
        lo = hi = None  # (p, q): the bound p / (q D)
        for r in stage_rows:
            rest = sum(map(mul, r, N))
            c = r[k]
            if c > 0:
                if lo is None or -rest * lo[1] > lo[0] * c:
                    lo = (-rest, c)
            elif hi is None or rest * hi[1] < hi[0] * -c:
                hi = (rest, -c)
        if lo is not None and hi is not None:
            (lp, lq), (hp, hq) = lo, hi
            if not lp * hq < hp * lq:
                raise RuntimeError("Fourier-Motzkin back-substitution interval empty")
            num, s = lp * hq + hp * lq, 2 * lq * hq
        elif lo is not None:
            num, s = lo[0] + lo[1] * D, lo[1]
        else:
            num, s = hi[0] - hi[1] * D, hi[1]
        if s > 1:
            N = [n * s for n in N]
            D *= s
        N[k] = num
        g = gcd(D, *N)
        if g > 1:
            N = [n // g for n in N]
            D //= g
    return N
