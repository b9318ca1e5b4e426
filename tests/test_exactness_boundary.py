"""One exactness rule at every public boundary that reads a number: the
package reads it only through `partitions._integer_parts` (exact ints, no
bools) or, where a value may be rational, `partitions._rationals` (ints and
`Fraction`s).  A float, a numeric string and a bool raise, never coerced;
ints and Fractions give the pinned results."""

from fractions import Fraction as F

import pytest

from heisenstab.additivity import (
    AdditivityCertificate,
    HeisenbergMatrix,
    KroneckerMatrix,
    build_constraint_matrix,
    check_certificate,
    heisenberg_matrices,
    kronecker_matrices,
    margin_class,
    margin_matrices,
)
from heisenstab.partitions import NotAPartitionError, Partition, scale, subpartitions_of_size
from heisenstab.ratfeas import solve_strict
from heisenstab.symfun import class_size, class_sizes, cycle_types, zee

WORKED = HeisenbergMatrix([(0, 4, 6, 1), (4, 5, 7, 2), (2, 3, 5, 0)])


def worked_potentials(x1) -> bool:
    """check_certificate on the worked matrix, its reference potentials
    with the second row potential replaced by x1."""
    cert = AdditivityCertificate(x=(F(0), x1, F(-1)), y=(F(0), F(1), F(3), F(-2)))
    return check_certificate(WORKED, cert)


CONSTRAINTS_2x2 = ((0, 0, 1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, 1),
                   (1, 0, 0, 1, 0, 0, 1, 0), (0, 1, 0, 0, 1, 0, 0, 1))

# boundary -> (a call of one number v, the error a refused v raises,
#              whether a Fraction is exact there, [(exact v, result)])
BOUNDARIES = {
    "solve_strict row": (
        lambda v: solve_strict([[v, -1], [0, 1]], 2), ValueError, True,
        [(2, (F(3, 2), F(1))), (3, (F(4, 3), F(1))), (0, None),
         (F(1, 2), (F(6), F(2))), (F(-1, 3), (F(-12), F(3)))]),
    "solve_strict num_vars": (
        lambda v: solve_strict([], v), ValueError, False,
        [(0, ()), (1, (F(0),)), (2, (F(0), F(0)))]),
    "check_certificate potential": (
        worked_potentials, ValueError, True,
        [(1, True), (2, False), (0, False), (F(1, 2), True), (F(3, 2), True)]),
    "class_size part": (
        lambda v: class_size((v, 1)), ValueError, False, [(1, 1), (2, 3), (3, 8)]),
    "cycle_types n": (
        cycle_types, ValueError, False,
        [(0, ((),)), (1, ((1,),)), (3, ((3,), (2, 1), (1, 1, 1)))]),
    "class_sizes n": (
        class_sizes, ValueError, False, [(0, (1,)), (1, (1,)), (3, (2, 3, 1))]),
    "zee part": (
        lambda v: zee((v, 1)), ValueError, False, [(1, 2), (2, 2), (3, 3)]),
    "subpartitions_of_size outer": (
        lambda v: list(subpartitions_of_size((v, 1), 1)), NotAPartitionError, False,
        [(1, [(1,)]), (2, [(1,)])]),
    "subpartitions_of_size size": (
        lambda v: list(subpartitions_of_size((2, 1), v)), ValueError, False,
        [(0, [()]), (2, [(2,), (1, 1)]), (3, [(2, 1)])]),
    "scale n": (
        lambda v: scale(v, (2, 1)), ValueError, False, [(0, ()), (2, (4, 2)), (3, (6, 3))]),
    "build_constraint_matrix p": (
        lambda v: build_constraint_matrix(v, 2), ValueError, False, [(2, CONSTRAINTS_2x2)]),
    "build_constraint_matrix q": (
        lambda v: build_constraint_matrix(2, v), ValueError, False, [(2, CONSTRAINTS_2x2)]),
    "KroneckerMatrix.scaled n": (
        lambda v: KroneckerMatrix([(1, 0), (0, 2)]).scaled(v), ValueError, False,
        [(0, KroneckerMatrix([(0, 0), (0, 0)])), (2, KroneckerMatrix([(2, 0), (0, 4)]))]),
}

INEXACT = {"float": 2.0, "numeric string": "2", "bool": True, "Fraction": F(2)}
REFUSALS = [(boundary, kind) for boundary, (_, _, rational, _) in BOUNDARIES.items()
            for kind in INEXACT if not (rational and kind == "Fraction")]


@pytest.mark.parametrize("boundary, kind", REFUSALS)
def test_an_inexact_number_is_refused(boundary, kind):
    call, error, _, _ = BOUNDARIES[boundary]
    with pytest.raises(error) as caught:
        call(INEXACT[kind])
    # the refusal names the number read, not a shape or a matrix built from it
    assert caught.type is error


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_exact_numbers_give_the_same_results(boundary):
    call, _, _, cases = BOUNDARIES[boundary]
    for v, result in cases:
        assert call(v) == result, v


def test_subpartitions_of_size_refuses_when_called():
    # refused before anything is iterated, as partitions_of refuses
    for outer in ((1, 3), (2.0, 1), (2, -1)):
        with pytest.raises(NotAPartitionError):
            subpartitions_of_size(outer, 1)
    with pytest.raises(ValueError):
        subpartitions_of_size((2, 1), 1.0)


@pytest.mark.parametrize("bad", [(1.5,), (True,), ("1",), (-1,)], ids=["float", "bool", "string", "negative"])
def test_margin_matrix_enumerators_refuse_when_called(bad):
    # refused before anything is iterated, as subpartitions_of_size refuses
    calls = (lambda a, b: margin_matrices(KroneckerMatrix, a, b), kronecker_matrices,
             heisenberg_matrices, lambda a, b: margin_class(HeisenbergMatrix, a, b, (1,)))
    for call in calls:
        for beta, gamma in ((bad, (1,)), ((1,), bad)):
            with pytest.raises(ValueError):
                call(beta, gamma)
    assert [A.rows for A in margin_matrices(KroneckerMatrix, (1,), (1,))] == [((1,),)]


def test_zee_and_class_size_read_a_cycle_type_as_character_does():
    assert zee((0, 2)) == zee((2,)) == 2
    assert zee((1, 3)) == zee((3, 1)) == 3
    assert class_size((0, 2)) == class_size((2,)) == 1
    assert class_size((1, 3)) == class_size((3, 1)) == 8
    assert class_size(Partition((2, 2))) == class_size((2, 0, 2)) == 3
    with pytest.raises(ValueError):
        class_size((2, -1, 3))
