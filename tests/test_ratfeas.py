import itertools
import random
from fractions import Fraction

import pytest

from heisenstab import ratfeas
from heisenstab.ratfeas import solve_strict


def _satisfies(rows, z):
    return all(sum(Fraction(c) * v for c, v in zip(row, z)) >= 1 for row in rows)


def test_empty_system_gives_zero_assignment():
    assert solve_strict([], 0) == ()
    assert solve_strict([], 3) == (0, 0, 0)


def test_direct_contradiction():
    assert solve_strict([(1,), (-1,)], 1) is None


def test_simple_feasible_systems():
    rows = [(1, 0), (0, 1), (1, 1)]
    z = solve_strict(rows, 2)
    assert z is not None and _satisfies(rows, z)

    rows = [(1, -1), (-1, 1)]  # x - y >= 1 and y - x >= 1: impossible
    assert solve_strict(rows, 2) is None


def test_chain_system():
    # x1 > x2 > x3 > x4 with slack, plus a wrap bound keeping it feasible
    rows = [(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)]
    z = solve_strict(rows, 4)
    assert z is not None and _satisfies(rows, z)


def test_row_length_validation():
    with pytest.raises(ValueError):
        solve_strict([(1, 2)], 3)


def _grid_feasible(rows, num_vars, numerator_bound=8, max_denominator=4):
    """Brute-force oracle: search rational points with small numerators and
    denominators."""
    for denom in range(1, max_denominator + 1):
        span = range(-numerator_bound, numerator_bound + 1)
        for nums in itertools.product(span, repeat=num_vars):
            z = tuple(Fraction(v, denom) for v in nums)
            if _satisfies(rows, z):
                return True
    return False


def test_agreement_with_grid_oracle_on_small_systems():
    rng = random.Random(20260810)
    for trial in range(120):
        num_vars = rng.randint(1, 3)
        n_rows = rng.randint(1, 4)
        rows = []
        for _ in range(n_rows):
            row = [0] * num_vars
            for _ in range(rng.randint(1, num_vars)):
                row[rng.randrange(num_vars)] = rng.choice([-2, -1, 1, 2])
            rows.append(tuple(row))
        z = solve_strict(rows, num_vars)
        if z is not None:
            assert _satisfies(rows, z), (rows, z)
        else:
            # infeasible per elimination: the grid must come up empty too
            assert not _grid_feasible(rows, num_vars), rows


def test_soundness_on_random_wider_systems():
    rng = random.Random(7)
    feasible = 0
    for trial in range(60):
        num_vars = rng.randint(2, 6)
        rows = []
        for _ in range(rng.randint(2, 10)):
            row = [rng.choice([-2, -1, 0, 0, 1, 2]) for _ in range(num_vars)]
            if any(row):
                rows.append(tuple(row))
        z = solve_strict(rows, num_vars)
        if z is not None:
            feasible += 1
            assert _satisfies(rows, z)
    assert feasible > 0  # the sweep should not be vacuous


# The two internal-consistency checks raise rather than hand back a wrong
# point; only a broken helper or an inconsistent stage can reach them.
def test_an_empty_back_substitution_interval_raises():
    # z_0 > 0 and z_0 < 0: elimination never hands over such a stage
    with pytest.raises(RuntimeError, match="Fourier-Motzkin back-substitution interval empty"):
        ratfeas._back_substitute([(0, [(1,), (-1,)])], 1)


def test_an_assignment_that_fails_a_row_raises(monkeypatch):
    primitive = ratfeas._primitive
    monkeypatch.setattr(ratfeas, "_primitive", lambda row: tuple(-c for c in primitive(row)))
    with pytest.raises(RuntimeError, match="solver produced an invalid assignment"):
        solve_strict([(1,)], 1)
