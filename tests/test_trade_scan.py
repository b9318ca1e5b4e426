"""The 2 x 2 trade stage: which trade the scan returns, that a trade
keeps a matrix away from Fourier-Motzkin, and the fill that drops a
partial matrix at its first trade (`support.trade_free_matrices`)."""

import itertools
import json
from pathlib import Path

from heisenstab import additivity
from heisenstab.additivity import (
    MATRIX_KINDS,
    HeisenbergMatrix,
    KroneckerMatrix,
    _trade,
    _trusted_matrix,
    is_additive,
    margin_matrices,
)
from heisenstab.partitions import partitions_up_to
from support import first_trade, trade_free_matrices

SAMPLE = ((2, 2, 2, 1), (2, 2, 2, 1))


def test_trade_is_the_first_trade_in_scan_order():
    # every plain and cornered 3 x 3 matrix with entries 0..2 (valid rows,
    # so unchecked), then the whole (2,2,2,1)^2 cornered class
    small = [_trusted_matrix(cls, (v[0:3], v[3:6], v[6:9]))
             for cls in (KroneckerMatrix, HeisenbergMatrix)
             for v in itertools.product(range(3), repeat=9)
             if not (cls.corner and v[0])]
    sample = list(margin_matrices(HeisenbergMatrix, *SAMPLE))
    assert (len(small), len(sample)) == (26244, 3896)
    for A in small + sample:
        assert _trade(A) == first_trade(A), A


def test_only_the_trade_free_sample_matrix_reaches_the_solver(monkeypatch):
    solved = []
    solve_strict = additivity.solve_strict
    monkeypatch.setattr(additivity, "solve_strict",
                        lambda *args: solved.append(args) or solve_strict(*args))
    reached = []
    for A in margin_matrices(HeisenbergMatrix, *SAMPLE):
        before = len(solved)
        is_additive(A)
        if len(solved) > before:
            reached.append(A.rows)
    assert len(solved) == 1
    # the one additive matrix that bench/verdicts.json lists; the file is
    # only read
    path = Path(__file__).resolve().parents[1] / "bench" / "verdicts.json"
    (listed,) = json.loads(path.read_text(encoding="utf-8"))["sample"]["additive"]
    assert reached == [tuple(map(tuple, listed))]


def test_the_trade_free_walk_keeps_exactly_the_trade_free_matrices_in_order():
    # every class of both families whose margins are nonempty partitions of
    # size <= 5: the walk against the whole class filtered by _trade
    shapes = [x for x in partitions_up_to(5) if x]
    kept = total = 0
    for cls in MATRIX_KINDS.values():
        for beta, gamma in itertools.product(shapes, repeat=2):
            every = list(margin_matrices(cls, beta, gamma))
            walked = list(trade_free_matrices(cls, beta, gamma))
            assert walked == [A for A in every if _trade(A) is None], (cls, beta, gamma)
            assert all(type(A) is cls for A in walked)
            kept, total = kept + len(walked), total + len(every)
    assert (kept, total) == (752, 18522)
