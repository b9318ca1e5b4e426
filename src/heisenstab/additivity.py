"""Nonnegative integer matrices with prescribed margins, additivity
certificates, and generation of provably stable triples.

Two matrix families.  A plain margin matrix is any p x q nonnegative
integer matrix with given row-sum and column-sum vectors (a contingency
table); these drive the Kronecker product of h-basis elements.  A cornered
matrix is a (p+1) x (q+1) matrix with a zero top-left corner whose margins
ignore the first row and first column (each margin is still a full row or
column sum); these drive the Heisenberg product.  `margin_matrices` fills
both on a stack, row by row, with capped compositions from `partitions`.

A matrix is additive when row/column potentials x_i + y_j reproduce the
strict order of its entries.  Additivity is decided in two stages: a 2 x 2
trade, found by comparing pairs of rows and pairs of columns, refutes most
non-additive matrices at once; every other matrix is decided exactly by
reducing to rational feasibility (`ratfeas`).  Additive matrices yield
stable triples, with the certificate attached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .partitions import (
    BudgetExceededError,
    Composition,
    MatrixParseError,
    Partition,
    _bounded_vectors,
    _integer_parts,
    _integer_token,
    _MATRIX_KIND_KEYS,
    _rationals,
    _sorted_entries,
    is_dominated_by,
    pi_sequence,
)
from .ratfeas import solve_strict

if TYPE_CHECKING:  # the engines load this module, not fractions
    from fractions import Fraction


MAX_TOTAL = 24  # |beta| + |gamma|
MAX_SIDE = 5    # rows and columns of the full matrix


def _validated_rows(rows) -> tuple[tuple[int, ...], ...]:
    rs = tuple(_integer_parts(row, MatrixParseError) for row in rows)
    if rs:
        width = len(rs[0])
        if any(len(r) != width for r in rs):
            raise MatrixParseError("ragged rows")
    if any(e < 0 for r in rs for e in r):
        raise MatrixParseError("negative entry")
    return rs


class KroneckerMatrix:
    """p x q nonnegative integer matrix, margins = plain row/column sums.
    `corner` leading rows and columns lie outside the margins."""

    __slots__ = ("rows",)
    corner = 0

    def __init__(self, rows):
        self.rows = _validated_rows(rows)

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns); a matrix with no rows has no columns."""
        return len(self.rows), len(self.rows[0]) if self.rows else 0

    @property
    def row_margins(self) -> Composition:
        return Composition(sum(r) for r in self.rows[self.corner:])

    @property
    def col_margins(self) -> Composition:
        return Composition(sum(col) for col in list(zip(*self.rows))[self.corner:])

    @property
    def pi(self) -> Partition:
        return _sorted_entries(itertools.chain.from_iterable(self.rows))

    @property
    def total(self) -> int:
        return sum(sum(r) for r in self.rows)

    def scaled(self, n: int) -> "KroneckerMatrix":
        (n,) = _integer_parts((n,), ValueError)
        if n < 0:
            raise ValueError("scale factor must be nonnegative")
        return _trusted_matrix(type(self), tuple(tuple(n * e for e in r) for r in self.rows))

    def __eq__(self, other):
        return type(other) is type(self) and self.rows == other.rows

    def __hash__(self):
        return hash((type(self).__name__, self.rows))

    def __repr__(self):
        return f"{type(self).__name__}({list(map(list, self.rows))})"

    def to_text(self) -> str:
        return "\n".join(" ".join(str(e) for e in r) for r in self.rows)


class HeisenbergMatrix(KroneckerMatrix):
    """(p+1) x (q+1) nonnegative integer matrix with a zero top-left corner.

    Margins skip the first row and first column: row_margins are the full
    sums of rows 2..p+1, col_margins the full sums of columns 2..q+1."""

    __slots__ = ()
    corner = 1

    def __init__(self, rows):
        super().__init__(rows)
        if not self.rows or not self.rows[0]:
            raise MatrixParseError("cornered matrix needs at least the corner")
        if self.rows[0][0] != 0:
            raise MatrixParseError("top-left corner must be 0")


def _trusted_matrix(cls: type[KroneckerMatrix], rows: tuple[tuple[int, ...], ...]):
    """A class-`cls` matrix of rows the caller built as valid tuples of
    nonnegative ints, without the checks of cls(rows)."""
    A = object.__new__(cls)
    A.rows = rows
    return A


MATRIX_KINDS = dict(zip(_MATRIX_KIND_KEYS, (KroneckerMatrix, HeisenbergMatrix),
                        strict=True))


def parse_matrix(text: str, kind: str) -> KroneckerMatrix:
    """Parse the plain text format: one row per line, space-separated
    nonnegative integers.  kind is a key of MATRIX_KINDS ("k" or "h")."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([_integer_token(tok) for tok in line.split()])
        except ValueError as exc:
            raise MatrixParseError(f"bad line {line!r}") from exc
    if kind not in MATRIX_KINDS:
        raise ValueError(f"unknown matrix kind {kind!r}")
    return MATRIX_KINDS[kind](rows)


# ---------------------------------------------------------------------------
# Enumeration


def margin_matrices(cls: type[KroneckerMatrix], beta: Sequence[int],
                    gamma: Sequence[int]) -> Iterator[KroneckerMatrix]:
    """All matrices of class `cls` with margins (beta, gamma), filled row by
    row against the column room gamma leaves.  A plain row takes exactly
    beta_i, so the room ends empty when |beta| = |gamma| (and there are no
    matrices otherwise).  A cornered row's inner block takes at most beta_i;
    the first column and the first row absorb the slack, so margins hold by
    construction.  The margins are read when it is called, before anything
    is iterated."""
    beta, gamma = Composition(beta), Composition(gamma)
    fills = _fill(cls, beta, gamma) if cls.corner or beta.size == gamma.size else ()
    return (_trusted_matrix(cls, rows) for rows in fills)


def _fill(cls: type[KroneckerMatrix], beta: Sequence[int],
          gamma: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Unvalidated rows of every matrix of margin_matrices(cls, beta, gamma),
    ordered row by row, top down: a row (inner block for a cornered class)
    by its sum, then first entry smallest first.  A stack of (rows so far,
    what they leave of gamma) states, a row's choices over the capped
    compositions of each sum it may take pushed last first, to pop in order."""
    stack = [((), tuple(gamma))]
    while stack:
        rows, room = stack.pop()
        if len(rows) == len(beta):
            yield (((0,) + room, *((b - sum(row),) + row for b, row in zip(beta, rows)))
                   if cls.corner else rows)
            continue
        top = beta[len(rows)]
        stack.extend(reversed([(rows + (row,), tuple([c - r for c, r in zip(room, row)]))
                               for s in range(0 if cls.corner else top, top + 1)
                               for row in _bounded_vectors(s, room)]))


def margin_class(cls: type[KroneckerMatrix], beta, gamma, alpha) -> Iterator[KroneckerMatrix]:
    """The matrices of margin_matrices(cls, beta, gamma) with sorted entries alpha."""
    alpha = Partition(alpha)
    return (A for A in margin_matrices(cls, beta, gamma) if A.pi == alpha)


# Two distinct functions, not aliases of margin_matrices: the package calls
# margin_matrices itself, and only the benchmark calls these and wraps them
# by name.
def kronecker_matrices(beta: Sequence[int], gamma: Sequence[int]) -> Iterator[KroneckerMatrix]:
    return margin_matrices(KroneckerMatrix, beta, gamma)


def heisenberg_matrices(beta: Sequence[int], gamma: Sequence[int]) -> Iterator[HeisenbergMatrix]:
    return margin_matrices(HeisenbergMatrix, beta, gamma)


def check_budget(cls: type[KroneckerMatrix], beta: Sequence[int], gamma: Sequence[int]) -> None:
    """Refuse margins whose class-`cls` matrices exceed the budget."""
    beta, gamma = Composition(beta), Composition(gamma)
    rows = len(beta) + cls.corner
    cols = len(gamma) + cls.corner
    if beta.size + gamma.size > MAX_TOTAL:
        raise BudgetExceededError(
            f"margin total {beta.size + gamma.size} exceeds budget {MAX_TOTAL}")
    if rows > MAX_SIDE or cols > MAX_SIDE:
        raise BudgetExceededError(
            f"dimensions {rows}x{cols} exceed budget {MAX_SIDE}x{MAX_SIDE}")


# ---------------------------------------------------------------------------
# Additivity


@dataclass(frozen=True)
class AdditivityCertificate:
    """Row potentials x and column potentials y witnessing additivity.

    For cornered matrices the first row and first column potentials are
    pinned to zero."""

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]

    def as_json(self) -> dict:
        return {"x": [str(v) for v in self.x], "y": [str(v) for v in self.y]}


def _positions(A: KroneckerMatrix) -> list[tuple[int, int]]:
    n_rows, n_cols = A.shape
    ps = [(i, j) for i in range(n_rows) for j in range(n_cols)]
    if A.corner:
        ps.remove((0, 0))
    return ps


def _strict_system(A: KroneckerMatrix) -> tuple[list[tuple[int, ...]], int]:
    """Rows of the strict system r . z >= 1 that decides additivity of A,
    and the number of variables.

    Variables: the free row potentials, the free column potentials, then
    one threshold t_g for each gap g between consecutive value levels (for
    cornered matrices x_1 = y_1 = 0 is encoded by omitting them).  Writing
    s(i, j) = x_i + y_j, each cell on the level above gap g gets the row
    s(cell) - t_g >= 1 and each cell on the level below gets
    t_g - s(cell) >= 1: one row per cell and gap it borders, instead of one
    per cell pair on consecutive levels.

    The two systems are feasible together.  Threshold rows give
    s(a) - s(b) >= 2 for every a just above a gap and b just below it.
    Conversely, any solution of the pair rows, scaled by 2, leaves a gap of
    at least 2 between the levels at each g, and t_g at its midpoint
    satisfies every threshold row.  Consecutive levels suffice: slack 1 on
    each consecutive pair gives slack >= 2 on pairs two levels apart, so
    the full strict order holds for the same potentials."""
    n_rows, n_cols = A.shape
    skip = A.corner
    n_potentials = n_rows + n_cols - 2 * skip

    by_value: dict[int, list[tuple[int, int]]] = {}
    for i, j in _positions(A):
        by_value.setdefault(A.rows[i][j], []).append((i, j))
    levels = sorted(by_value, reverse=True)
    num_vars = n_potentials + max(len(levels) - 1, 0)

    def cell_row(cell: tuple[int, int], gap: int, sign: int) -> tuple[int, ...]:
        i, j = cell
        coeffs = [0] * num_vars
        if i >= skip:
            coeffs[i - skip] = sign
        if j >= skip:
            coeffs[n_rows + j - 2 * skip] = sign
        coeffs[n_potentials + gap] = -sign
        return tuple(coeffs)

    rows = []
    for gap, (hi, lo) in enumerate(zip(levels, levels[1:])):
        rows.extend(cell_row(cell, gap, 1) for cell in by_value[hi])
        rows.extend(cell_row(cell, gap, -1) for cell in by_value[lo])
    return rows, num_vars


def _first_trade(lines: Sequence[tuple[int, ...]],
                 corner: int) -> Optional[tuple[int, int, int, int]]:
    """The first crossing pair of `lines` as (i, k, up, down), or None:
    lines i < k with lines[i][up] > lines[k][up] and lines[i][down] <
    lines[k][down], up and down each the first such position.  Pairs come
    in itertools.combinations order; a corner at position 0 of line 0 is
    skipped.  A pair's first unequal position is the first of its kind,
    and the first position of the other kind completes the pair, so the
    scan stops there."""
    start = corner
    for i, a in enumerate(lines):
        n = len(a)
        for k in range(i + 1, len(lines)):
            b = lines[k]
            j = start
            while j < n and a[j] == b[j]:
                j += 1
            if j == n:
                continue
            if a[j] > b[j]:
                for down in range(j + 1, n):
                    if a[down] < b[down]:
                        return i, k, j, down
            else:
                for up in range(j + 1, n):
                    if a[up] > b[up]:
                        return i, k, up, j
        start = 0
    return None


def _trade(A: KroneckerMatrix) -> Optional[tuple]:
    """A 2 x 2 trade of A as (upper cells, lower cells), or None.

    Rows i, k and columns j, l with a_ij > a_kj and a_kl > a_il form a trade:
    the upper cells (i, j), (k, l) and the lower cells (k, j), (i, l) share
    their row and column indices, yet each upper cell is strictly larger
    than its partner (the lower cell at the same position).  Potentials
    would need s(i, j) > s(k, j) and s(k, l) > s(i, l); adding these gives
    0 > 0, so A is not additive (Scott's simplest cancellation condition).
    A cornered matrix's corner cell is never compared.

    The scan (`_first_trade`) takes pairs of rows (i, k) in
    itertools.combinations order and, within a pair, the first column j
    where row i is larger and the first column l where it is smaller; it
    stops at the first pair that has both.  Only when no two rows cross
    are pairs of columns searched the same way, pairing cells along rows.

    No graph search is needed for longer cycles of orders forced within one
    row or column: without a 2 x 2 conflict, any two rows (and any two
    columns) are comparable entry by entry, and that order is transitive.
    None does not mean additive; Fourier-Motzkin stays the complete
    decision procedure."""
    found = _first_trade(A.rows, A.corner)
    if found is not None:
        i, k, j, l = found
        return ((i, j), (k, l)), ((k, j), (i, l))
    found = _first_trade(tuple(zip(*A.rows)), A.corner)
    if found is not None:
        j, l, i, k = found
        return ((i, j), (k, l)), ((i, l), (k, j))
    return None


def is_additive(A: KroneckerMatrix) -> Optional[AdditivityCertificate]:
    """Certificate of additivity for a plain or cornered matrix, or None.
    A cornered matrix's corner is in no strict pair; x_1 = y_1 = 0.

    Two stages: a 2 x 2 trade (`_trade`) refutes A without the solver;
    otherwise the strict system is solved by Fourier-Motzkin, which decides
    every remaining matrix, and a solution is re-validated as a certificate."""
    if _trade(A) is not None:
        return None
    rows, num_vars = _strict_system(A)
    z = solve_strict(rows, num_vars)
    if z is None:
        return None
    from fractions import Fraction

    # z holds the free row potentials, the free column potentials, then the
    # thresholds, which are dropped
    n_rows, n_cols = A.shape
    skip = A.corner
    pinned = (Fraction(0),) * skip
    cert = AdditivityCertificate(
        x=pinned + z[: n_rows - skip],
        y=pinned + z[n_rows - skip: n_rows + n_cols - 2 * skip])
    if not check_certificate(A, cert):
        raise RuntimeError("solver certificate failed re-validation")
    return cert


def check_certificate(A: KroneckerMatrix, cert: AdditivityCertificate) -> bool:
    """Independent verification: every strict entry pair must have strictly
    ordered potential sums (ints or `Fraction`s; a float, string or bool
    raises ValueError), over all pairs of cells.  With one sum per cell,
    that holds exactly when at each value level the smallest sum exceeds
    the largest sum of the level below: that sum is at least the level's
    own smallest, so by induction every lower level's sums lie below it."""
    x, y, rows = _rationals(cert.x), _rationals(cert.y), A.rows
    if (len(x), len(y)) != A.shape:
        raise ValueError("certificate dimensions do not match the matrix")
    extremes: dict[int, list] = {}  # value -> [smallest sum, largest sum]
    for i, j in _positions(A):
        s = x[i] + y[j]
        ends = extremes.get(rows[i][j])
        if ends is None:
            extremes[rows[i][j]] = [s, s]
        elif s < ends[0]:
            ends[0] = s
        elif s > ends[1]:
            ends[1] = s
    below = None  # the largest sum of the level below
    for value in sorted(extremes):
        smallest, largest = extremes[value]
        if below is not None and not smallest > below:
            return False
        below = largest
    return True


# ---------------------------------------------------------------------------
# The margin constraint matrix and the flattening map


def build_constraint_matrix(p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """0/1 matrix M with M . flatten(A) = (row margins, col margins) for
    every cornered matrix A of inner size p x q: over flatten's cells, one
    row per margin, marking the cells of row r (r = 1..p), then of column c
    (c = 1..q)."""
    p, q = _integer_parts((p, q), ValueError)
    if p < 1 or q < 1:
        raise ValueError("need p, q >= 1")
    cells = [(i, j) for i in range(p + 1) for j in range(q + 1) if i or j]
    return (tuple(tuple(int(i == r) for i, _ in cells) for r in range(1, p + 1))
            + tuple(tuple(int(j == c) for _, j in cells) for c in range(1, q + 1)))


def flatten(A: KroneckerMatrix) -> tuple[int, ...]:
    """Row-major entries, skipping only a cornered matrix's corner:
    (a_{1,2}..a_{1,q+1}, a_{2,1}..a_{2,q+1}, ..., a_{p+1,1}..a_{p+1,q+1})."""
    return tuple(A.rows[i][j] for i, j in _positions(A))


# ---------------------------------------------------------------------------
# Minimality and stable-triple generation


def integer_minimality_check(A: KroneckerMatrix) -> Optional[KroneckerMatrix]:
    """Search A's margin class, in A's own matrix family, for a witness
    B != A whose sorted entry
    sequence is majorized by A's (equality of sorted sequences counts: the
    class must be a singleton), and return it; None when A is minimal.  Only
    matrices with the same entry total can compare.  Refuses (raises)
    outside the enumeration budget."""
    beta, gamma = A.row_margins, A.col_margins
    check_budget(type(A), beta, gamma)
    target = A.pi
    total = A.total
    for B in margin_matrices(type(A), beta, gamma):
        if B.total == total and B != A and is_dominated_by(B.pi, target):
            return B
    return None


@dataclass(frozen=True)
class CertifiedTriple:
    """Stable triple produced by an additive matrix.

    beta and gamma are the margins exactly as the matrix presents them
    (compositions); sorting them is harmless because permuting rows 2..p+1
    or columns 2..q+1 preserves both the margin class and additivity, so
    `as_partitions` gives the canonical partition triple under the same
    certificate."""

    alpha: Partition
    beta: Composition
    gamma: Composition
    certificate: AdditivityCertificate

    def as_partitions(self) -> tuple[Partition, Partition, Partition]:
        return self.alpha, pi_sequence(self.beta), pi_sequence(self.gamma)


def stable_triple(A: KroneckerMatrix) -> Optional[CertifiedTriple]:
    """If A is additive, (sorted entries; row margins; column margins) is a
    certified stable triple; otherwise None.  A plain matrix's margins share
    one total, so it gives a same-size triple."""
    cert = is_additive(A)
    if cert is None:
        return None
    return CertifiedTriple(alpha=A.pi, beta=A.row_margins,
                           gamma=A.col_margins, certificate=cert)


# Two distinct functions, not aliases of stable_triple: a benchmark tracer
# that wraps functions by name would wrap one shared object twice.
def kronecker_stable_triple(A: KroneckerMatrix) -> Optional[CertifiedTriple]:
    return stable_triple(A)


def heisenberg_stable_triple(A: HeisenbergMatrix) -> Optional[CertifiedTriple]:
    return stable_triple(A)
