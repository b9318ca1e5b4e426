"""Nonnegative integer matrices with prescribed margins, additivity
certificates, and generation of provably stable triples.

Two matrix families.  A plain margin matrix is any p x q nonnegative
integer matrix with given row-sum and column-sum vectors (a contingency
table); these drive the Kronecker product of h-basis elements.  A cornered
matrix is a (p+1) x (q+1) matrix with a zero top-left corner whose margins
ignore the first row and first column (each margin is still a full row or
column sum); these drive the Heisenberg product.  `margin_matrices`
fills both row by row with capped compositions from `partitions`.

A matrix is additive when row/column potentials x_i + y_j reproduce the
strict order of its entries; additivity is decided exactly by reducing to
rational feasibility (`ratfeas`).  Additive matrices yield stable triples,
with the certificate attached.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .partitions import (
    Composition,
    Partition,
    _bounded_vectors,
    _integer_parts,
    _integer_token,
    is_dominated_by,
    pi_sequence,
)
from .ratfeas import solve_strict


class MatrixParseError(ValueError):
    """Malformed matrix text (ragged rows, negative or nonzero corner...)."""


class BudgetExceededError(RuntimeError):
    """Enumeration refused: margins exceed the budget."""


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
        object.__setattr__(self, "rows", _validated_rows(rows))

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
        return pi_sequence(self.rows)

    @property
    def total(self) -> int:
        return sum(sum(r) for r in self.rows)

    def scaled(self, n: int) -> "KroneckerMatrix":
        return type(self)(tuple(tuple(n * e for e in r) for r in self.rows))

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


MATRIX_KINDS = {"k": KroneckerMatrix, "h": HeisenbergMatrix}


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
    construction."""
    beta, gamma = Composition(beta), Composition(gamma)
    corner = cls.corner
    if not corner and beta.size != gamma.size:
        return

    def fill(i: int, room: tuple[int, ...], acc: list[tuple[int, ...]]) -> Iterator[KroneckerMatrix]:
        if i == len(beta):
            if corner:
                yield cls([(0,) + room] + [(b - sum(row),) + row for b, row in zip(beta, acc)])
            else:
                yield cls(acc)
            return
        for s in range(0 if corner else beta[i], beta[i] + 1):
            for row in _bounded_vectors(s, room):
                acc.append(row)
                yield from fill(i + 1, tuple(c - r for c, r in zip(room, row)), acc)
                acc.pop()

    try:
        yield from fill(0, tuple(gamma), [])
    finally:
        fill = None  # fill's closure holds fill: free it also when a consumer stops early


def margin_class(cls: type[KroneckerMatrix], beta, gamma, alpha) -> Iterator[KroneckerMatrix]:
    """The matrices of margin_matrices(cls, beta, gamma) with sorted entries alpha."""
    alpha = Partition(alpha)
    return (A for A in margin_matrices(cls, beta, gamma) if A.pi == alpha)


# Two distinct functions, not aliases of margin_matrices: the h-basis
# products call them, and a benchmark tracer wraps them by name.
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


def is_additive(A: KroneckerMatrix) -> Optional[AdditivityCertificate]:
    """Certificate of additivity for a plain or cornered matrix, or None.
    A cornered matrix's corner is in no strict pair; x_1 = y_1 = 0."""
    rows, num_vars = _strict_system(A)
    z = solve_strict(rows, num_vars)
    if z is None:
        return None
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
    ordered potential sums.  Checks all pairs, not just consecutive levels."""
    if (len(cert.x), len(cert.y)) != A.shape:
        raise ValueError("certificate dimensions do not match the matrix")
    pos = _positions(A)
    for (i, j), (k, l) in itertools.permutations(pos, 2):
        if A.rows[i][j] > A.rows[k][l]:
            if cert.x[i] + cert.y[j] <= cert.x[k] + cert.y[l]:
                return False
    return True


# ---------------------------------------------------------------------------
# The margin constraint matrix and the flattening map


@dataclass(frozen=True)
class ConstraintMatrix:
    p: int
    q: int
    rows: tuple[tuple[int, ...], ...]  # (p+q) x (pq+p+q), 0/1 entries

    def rank(self) -> int:
        return exact_rank(self.rows)


def build_constraint_matrix(p: int, q: int) -> ConstraintMatrix:
    """0/1 matrix M with M . flatten(A) = (row margins, col margins) for
    every cornered matrix A of inner size p x q."""
    if p < 1 or q < 1:
        raise ValueError("need p, q >= 1")
    width = p * q + p + q
    rows = []
    for i in range(1, p + 1):
        row = [0] * width
        for j in range(i * (q + 1), q + i * (q + 1) + 1):
            row[j - 1] = 1
        rows.append(tuple(row))
    for i in range(p + 1, p + q + 1):
        s = i - p
        row = [0] * width
        for k in range(p + 1):
            row[s + k * (q + 1) - 1] = 1
        rows.append(tuple(row))
    return ConstraintMatrix(p=p, q=q, rows=tuple(rows))


def exact_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
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


def flatten(A: HeisenbergMatrix) -> tuple[int, ...]:
    """Row-major entries skipping only the corner: (a_{1,2}..a_{1,q+1},
    a_{2,1}..a_{2,q+1}, ..., a_{p+1,1}..a_{p+1,q+1})."""
    out = list(A.rows[0][1:])
    for row in A.rows[1:]:
        out.extend(row)
    return tuple(out)


# ---------------------------------------------------------------------------
# Minimality and stable-triple generation


@dataclass(frozen=True)
class MinimalityResult:
    minimal: bool
    witness: Optional[KroneckerMatrix] = None


def integer_minimality_check(A: KroneckerMatrix) -> MinimalityResult:
    """Search A's margin class, in A's own matrix family, for a witness
    B != A whose sorted entry
    sequence is majorized by A's (equality of sorted sequences counts: the
    class must be a singleton).  Only matrices with the same entry total can
    compare.  Refuses (raises) outside the enumeration budget."""
    beta, gamma = A.row_margins, A.col_margins
    check_budget(type(A), beta, gamma)
    target = A.pi
    total = A.total
    for B in margin_matrices(type(A), beta, gamma):
        if B.total != total or B == A:
            continue
        if is_dominated_by(B.pi, target):
            return MinimalityResult(minimal=False, witness=B)
    return MinimalityResult(minimal=True)


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
