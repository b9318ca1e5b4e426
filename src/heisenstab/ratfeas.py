"""Exact rational feasibility for small systems of strict inequalities.

A system is a list of rational rows r, each demanding r . z >= 1.  Every
right-hand side is the same positive constant, so the system is feasible
exactly when the homogeneous strict system r . z > 0 is: a solution of
the first satisfies the second, and a solution z of the second, divided
by min(r . z), satisfies the first.  The solver decides the homogeneous
system by Fourier-Motzkin elimination on integer rows (rows with
`Fraction` entries are multiplied by the lcm of their denominators), so
the answer is exact: either a rational point satisfying every row, or
None.

Every returned point is re-checked against all original rows before it is
handed back; an internal inconsistency raises instead of returning.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # the engines load this module, not fractions
    from fractions import Fraction


def _primitive(row: Sequence[int]) -> tuple[int, ...]:
    """The row divided by the gcd of its entries (all-zero rows unchanged)."""
    g = gcd(*row)
    return tuple(c // g for c in row) if g > 1 else tuple(row)


def solve_strict(rows: Sequence[Sequence], num_vars: int) -> Optional[tuple[Fraction, ...]]:
    """Find rational z with row . z >= 1 for every row, or None if infeasible."""
    from fractions import Fraction

    exact = []
    system: set[tuple[int, ...]] = set()
    for row in rows:
        if len(row) != num_vars:
            raise ValueError(f"row length {len(row)} != num_vars {num_vars}")
        if all(type(c) is int for c in row):
            row = tuple(row)
            system.add(_primitive(row))
        else:
            # a positive integer multiple keeps the solutions of r . z > 0
            row = tuple(Fraction(c) for c in row)
            m = lcm(*(c.denominator for c in row))
            system.add(_primitive([int(c * m) for c in row]))
        exact.append(row)

    zero = (0,) * num_vars
    alive = list(range(num_vars))
    # each stage: (eliminated variable, the rows in which it occurred)
    stages: list[tuple[int, list[tuple[int, ...]]]] = []
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

    # Back-substitution in reverse elimination order: each row c*z_k + rest > 0
    # bounds z_k strictly by -rest/c, from below when c > 0, above when c < 0.
    # Variables no stage eliminated stay 0.
    values = [Fraction(0)] * num_vars
    for k, stage_rows in reversed(stages):
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
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
