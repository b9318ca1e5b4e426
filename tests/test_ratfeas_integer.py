"""Integer Fourier-Motzkin: Fraction rows, gcd normalisation, exact points."""

import itertools
import random
from fractions import Fraction as F
from math import lcm

from heisenstab.additivity import HeisenbergMatrix, KroneckerMatrix, _strict_system, margin_matrices
from heisenstab.partitions import partitions_up_to
from heisenstab.ratfeas import solve_strict
from support import solve_strict_by_fractions


def _slacks(rows, z):
    return [sum(F(c) * v for c, v in zip(row, z)) for row in rows]


def test_integer_elimination_on_fraction_rows_and_common_factors():
    # Fraction rows, some mixing int entries
    rows = [(F(1, 2), F(-1, 3)), (F(1, 3), F(1, 4)), (-1, F(5, 2))]
    z = solve_strict(rows, 2)
    assert z is not None and all(type(v) is F for v in z)
    assert min(_slacks(rows, z)) >= 1
    assert solve_strict([(F(1, 2),), (F(-1, 3),)], 1) is None

    # eliminating x from the first two rows gives (0, 4), normalised to
    # (0, 1); against (0, -6) -> (0, -1) it cancels to the zero row
    assert solve_strict([(2, 4), (-2, -2), (0, -6)], 2) is None
    rows = [(2, 4), (-2, -2), (0, 6)]
    z = solve_strict(rows, 2)
    assert z is not None and min(_slacks(rows, z)) >= 1

    # a Fraction system and its integer multiple agree, and every point
    # returned satisfies its rows exactly
    rng = random.Random(20261018)
    feasible = 0
    for _ in range(150):
        num_vars = rng.randint(1, 4)
        rows = [tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(num_vars))
                for _ in range(rng.randint(1, 6))]
        scaled = [tuple(int(c * lcm(*(e.denominator for e in row))) * 3 for c in row)
                  for row in rows]
        z = solve_strict(rows, num_vars)
        z_int = solve_strict(scaled, num_vars)
        assert (z is None) == (z_int is None), rows
        if z is not None:
            feasible += 1
            assert min(_slacks(rows, z)) >= 1, (rows, z)
            assert min(_slacks(scaled, z_int)) >= 1, (scaled, z_int)
    assert 0 < feasible < 150


def _same_point(rows, num_vars):
    """solve_strict and the Fraction back-substitution return the same tuple."""
    z = solve_strict(rows, num_vars)
    assert z == solve_strict_by_fractions(rows, num_vars), rows
    assert z is None or all(type(v) is F for v in z)
    return z


def test_integer_back_substitution_matches_fractions_on_margin_classes():
    # every strict system of the plain and cornered classes with margins of
    # size <= 4, refuted by a trade or not
    margins = list(partitions_up_to(4))
    systems = feasible = 0
    for cls in (KroneckerMatrix, HeisenbergMatrix):
        for beta, gamma in itertools.product(margins, repeat=2):
            for A in margin_matrices(cls, beta, gamma):
                systems += 1
                feasible += _same_point(*_strict_system(A)) is not None
    assert (systems, feasible) == (2285, 287)


def test_integer_back_substitution_matches_fractions_on_random_systems():
    rng = random.Random(20261020)
    feasible = 0
    for _ in range(400):
        num_vars = rng.randint(1, 5)
        rows = [tuple(F(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < 0.7 else 0
                      for _ in range(num_vars))
                for _ in range(rng.randint(1, 7))]
        feasible += _same_point(rows, num_vars) is not None
    assert 50 < feasible < 350
