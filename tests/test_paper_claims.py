"""The two claims of the source paper's abstract, tested numerically:

(a) a stable triple for Kronecker or Littlewood-Richardson coefficients
    also stabilizes Heisenberg coefficients;
(b) additive matrices, following Vallejo, generate Heisenberg-stable
    triples.

Every direction below is scanned on every Heisenberg base whose shapes have
size <= 2: the coefficients h(lam + n alpha; mu + n beta, nu + n gamma) for
n = 0..9 must end in a run of at least four equal values.  A constant tail
up to n = 9 is evidence of stability, not proof.  The negative controls show
that the check can fail: a refuted direction, and the same scan over every
matrix of the classes rather than only the additive ones."""

import itertools

import pytest

from heisenstab import (
    HeisenbergMatrix,
    Kind,
    KroneckerMatrix,
    detect_stable_limit,
    integer_minimality_check,
    is_additive,
    lr_coeff,
    margin_matrices,
    pi_sequence,
    stabilization_sequence,
    stable_triple,
)
from heisenstab.partitions import partitions_of
from support import size_triples

BASES = list(size_triples(Kind.HEISENBERG, 2))
NS = range(10)


def _plain_matrices():
    """Every plain matrix with margins beta, gamma |- m, 1 <= m <= 3."""
    return [A for m in (1, 2, 3) for beta, gamma in itertools.product(partitions_of(m), repeat=2)
            for A in margin_matrices(KroneckerMatrix, beta, gamma)]


def _cornered_matrices():
    """Every cornered matrix with nonempty margins beta, gamma of size <= 2."""
    margins = [x for m in (1, 2) for x in partitions_of(m)]
    return [A for beta, gamma in itertools.product(margins, repeat=2)
            for A in margin_matrices(HeisenbergMatrix, beta, gamma)]


def _additive_triples(matrices):
    """The distinct stable triples of the additive matrices."""
    return sorted({t.as_partitions() for A in matrices if (t := stable_triple(A)) is not None})


def _lr_triples():
    """Every (alpha; beta, gamma) with c^alpha_{beta gamma} = 1 and nonempty
    beta >= gamma of size <= 3: LR-stable, as c(n alpha; n beta, n gamma) = 1
    for every n (Knutson-Tao-Woodward), which Sam and Snowden show is LR
    stability."""
    shapes = [x for m in (1, 2, 3) for x in partitions_of(m)]
    return [(alpha, beta, gamma) for beta, gamma in itertools.product(shapes, repeat=2)
            if (beta.size, beta) >= (gamma.size, gamma)
            for alpha in partitions_of(beta.size + gamma.size) if lr_coeff(alpha, beta, gamma) == 1]


DIRECTIONS = {
    # Kronecker-stable by Vallejo (2014): claim (a) for Kronecker triples
    "plain": (lambda: _additive_triples(_plain_matrices()), 10),
    # claim (b)
    "cornered": (lambda: _additive_triples(_cornered_matrices()), 16),
    # claim (a) for LR triples
    "lr": (_lr_triples, 63),
}


def _constant_tail(direction, base) -> bool:
    values = [v for _, v in stabilization_sequence(Kind.HEISENBERG, base, direction, NS)]
    return detect_stable_limit(values, window=4) is not None


def test_bases_are_every_small_heisenberg_triple():
    assert len(BASES) == 30


@pytest.mark.parametrize("name", list(DIRECTIONS))
def test_stable_directions_give_constant_tails_on_every_base(name):
    make, count = DIRECTIONS[name]
    directions = make()
    assert len(directions) == count and all(any(d) for d in directions)
    failures = [(d, base) for d in directions for base in BASES if not _constant_tail(d, base)]
    assert failures == []


def test_a_refuted_direction_is_not_constant_on_any_base():
    # g((2n, n)^3) grows with n: ((2,1),(2,1),(2,1)) is not a stable triple
    refuted = ((2, 1), (2, 1), (2, 1))
    assert not any(_constant_tail(refuted, base) for base in BASES)


def test_the_check_fails_on_some_matrix_that_is_not_additive():
    # the same scan over every matrix of both classes, additive or not
    every = {(A.pi, pi_sequence(A.row_margins), pi_sequence(A.col_margins))
             for A in _plain_matrices() + _cornered_matrices()}
    assert any(not _constant_tail(d, base) for d in sorted(every) for base in BASES)


def test_additive_matrices_are_minimal_in_their_class():
    # additive implies minimal (Vallejo); minimality needs no solver
    matrices = _plain_matrices() + _cornered_matrices()
    additive = [A for A in matrices if is_additive(A) is not None]
    assert 0 < len(additive) < len(matrices)
    assert [A for A in additive if integer_minimality_check(A) is not None] == []
