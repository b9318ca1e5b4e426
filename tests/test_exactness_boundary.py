"""One exactness rule at every public boundary that reads a number: the
package reads it only through `partitions._integer_parts` (exact ints, no
bools) or, where a value may be rational, `partitions._rationals` (ints and
`Fraction`s).  `Partition`'s one-pass loop takes exact `int` parts that are
positive and weakly decreasing by an inline test that accepts only what
`_integer_parts` and the partition checks accept; every other value goes
through `_integer_parts` (`tests/test_partitions.py` compares the two).
`BOUNDARIES` is the one list of those boundaries.  At each, a value that is
not an integer (a float, a numeric string, a bool, None, or a `Fraction`
where only ints are exact) raises, never coerced; an `__index__` object
reads as the int it stands for; ints and Fractions give the pinned results;
and a count has a floor: the largest value it refuses, or none where a
negative count is an ordinary input (no objects)."""

from fractions import Fraction as F

import pytest

from heisenstab.additivity import (
    AdditivityCertificate,
    HeisenbergMatrix,
    KroneckerMatrix,
    MatrixParseError,
    build_constraint_matrix,
    check_certificate,
    heisenberg_matrices,
    kronecker_matrices,
    margin_class,
    margin_matrices,
)
from heisenstab.coefficients import Decomposition, heisenberg_component
from heisenstab.partitions import (
    Composition,
    NotAPartitionError,
    Partition,
    add,
    is_dominated_by,
    partitions_of,
    partitions_up_to,
    scale,
    subpartitions_of_size,
)
from heisenstab.ratfeas import solve_strict
from heisenstab.stability import (
    Kind,
    classify_triple,
    detect_stable_limit,
    stability_check,
    stabilization_sequence,
)
from heisenstab.symfun import character_vector, class_size, class_sizes, cycle_types, zee
from support import Index

WORKED = HeisenbergMatrix([(0, 4, 6, 1), (4, 5, 7, 2), (2, 3, 5, 0)])


def worked_potentials(x1) -> bool:
    """check_certificate on the worked matrix, its reference potentials
    with the second row potential replaced by x1."""
    cert = AdditivityCertificate(x=(F(0), x1, F(-1)), y=(F(0), F(1), F(3), F(-2)))
    return check_certificate(WORKED, cert)


CONSTRAINTS_2x2 = ((0, 0, 1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, 1),
                   (1, 0, 0, 1, 0, 0, 1, 0), (0, 1, 0, 0, 1, 0, 0, 1))
LR_BASE, LR_DIRECTION = ((2,), (1,), (1,)), ((1,), (1,), ())
LR_TRIPLE = classify_triple(*LR_BASE)


# boundary -> (a call of one number v, the error a refused v raises,
#              whether a Fraction is exact there, the floor: the largest v
#              refused as too small, or None where a negative v is read and
#              pinned, [(exact v, result)])
BOUNDARIES = {
    "solve_strict row": (
        lambda v: solve_strict([[v, -1], [0, 1]], 2), ValueError, True, None,
        [(2, (F(3, 2), F(1))), (3, (F(4, 3), F(1))), (0, None),
         (F(1, 2), (F(6), F(2))), (F(-1, 3), (F(-12), F(3)))]),
    "solve_strict num_vars": (
        lambda v: solve_strict([], v), ValueError, False, -1,
        [(0, ()), (1, (F(0),)), (2, (F(0), F(0)))]),
    "check_certificate potential": (
        worked_potentials, ValueError, True, None,
        [(1, True), (2, False), (0, False), (-1, False), (F(1, 2), True), (F(3, 2), True)]),
    "class_size part": (
        lambda v: class_size((v, 1)), ValueError, False, -1, [(0, 1), (1, 1), (2, 3), (3, 8)]),
    "cycle_types n": (
        cycle_types, ValueError, False, None,
        [(-1, ()), (0, ((),)), (1, ((1,),)), (3, ((3,), (2, 1), (1, 1, 1)))]),
    "class_sizes n": (
        class_sizes, ValueError, False, None, [(-1, ()), (0, (1,)), (1, (1,)), (3, (2, 3, 1))]),
    "zee part": (
        lambda v: zee((v, 1)), ValueError, False, -1, [(0, 1), (1, 2), (2, 2), (3, 3)]),
    "subpartitions_of_size outer": (
        lambda v: list(subpartitions_of_size((v, 1), 1)), NotAPartitionError, False, 0,
        [(1, [(1,)]), (2, [(1,)])]),
    "subpartitions_of_size size": (
        lambda v: list(subpartitions_of_size((2, 1), v)), ValueError, False, None,
        [(-1, []), (0, [()]), (2, [(2,), (1, 1)]), (3, [(2, 1)])]),
    "scale n": (
        lambda v: scale(v, (2, 1)), ValueError, False, -1, [(0, ()), (2, (4, 2)), (3, (6, 3))]),
    "scale part": (
        lambda v: scale(2, (v, 1)), NotAPartitionError, False, 0, [(1, (2, 2)), (2, (4, 2))]),
    "add part": (
        lambda v: add((v, 1), (1,)), NotAPartitionError, False, 0, [(1, (2, 1)), (2, (3, 1))]),
    "build_constraint_matrix p": (
        lambda v: build_constraint_matrix(v, 2), ValueError, False, 0,
        [(1, ((0, 0, 1, 1, 1), (1, 0, 0, 1, 0), (0, 1, 0, 0, 1))), (2, CONSTRAINTS_2x2)]),
    "build_constraint_matrix q": (
        lambda v: build_constraint_matrix(2, v), ValueError, False, 0,
        [(1, ((0, 1, 1, 0, 0), (0, 0, 0, 1, 1), (1, 0, 1, 0, 1))), (2, CONSTRAINTS_2x2)]),
    "KroneckerMatrix.scaled n": (
        lambda v: KroneckerMatrix([(1, 0), (0, 2)]).scaled(v), ValueError, False, -1,
        [(0, KroneckerMatrix([(0, 0), (0, 0)])), (2, KroneckerMatrix([(2, 0), (0, 4)]))]),
    "partitions_of n": (
        lambda v: list(partitions_of(v)), ValueError, False, None,
        [(-1, []), (0, [()]), (3, [(3,), (2, 1), (1, 1, 1)])]),
    "partitions_up_to n": (
        lambda v: list(partitions_up_to(v)), ValueError, False, None,
        [(-1, []), (2, [(), (1,), (2,), (1, 1)])]),
    "stabilization_sequence step": (
        lambda v: stabilization_sequence(Kind.LR, LR_BASE, LR_DIRECTION, [v, 2]), ValueError, False, -1,
        [(0, [(0, 1), (2, 1)]), (3, [(3, 1), (2, 1)])]),
    "stability_check n_max": (
        lambda v: stability_check(LR_TRIPLE, n_max=v).sequence, ValueError, False, 0,
        [(1, ((1, 1),)), (3, ((1, 1), (2, 1), (3, 1)))]),
    "detect_stable_limit window": (
        lambda v: detect_stable_limit([1, 2, 2, 2], window=v), ValueError, False, 1,
        [(2, (2, 1)), (3, (2, 1)), (4, None)]),
    "detect_stable_limit value": (
        lambda v: detect_stable_limit([1, v, v], window=2), ValueError, False, None,
        [(-1, (-1, 1)), (1, (1, 0)), (2, (2, 1))]),
    "heisenberg_component degree": (
        lambda v: heisenberg_component((2, 1), (1,), v), ValueError, False, 2,
        [(3, Decomposition({(3,): 1, (2, 1): 2, (1, 1, 1): 1}, (3, 3))),
         (4, Decomposition({(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}, (4, 4)))]),
    "Partition part": (
        lambda v: Partition((3, v)), NotAPartitionError, False, -1,
        [(0, (3,)), (1, (3, 1)), (3, (3, 3))]),
    "Composition part": (
        lambda v: Composition((0, v)), ValueError, False, -1, [(0, (0, 0)), (3, (0, 3))]),
    "KroneckerMatrix entry": (
        lambda v: KroneckerMatrix([[1, v]]).rows, MatrixParseError, False, -1,
        [(0, ((1, 0),)), (3, ((1, 3),))]),
    "HeisenbergMatrix entry": (
        lambda v: HeisenbergMatrix([[0, v], [1, 1]]).rows, MatrixParseError, False, -1,
        [(0, ((0, 0), (1, 1))), (2, ((0, 2), (1, 1)))]),
    "character_vector part": (
        lambda v: character_vector([v, 1]), NotAPartitionError, False, 0,
        [(1, (-1, 1)), (2, (-1, 0, 2)), (3, (-1, 0, -1, 1, 3))]),
    "is_dominated_by entry": (
        lambda v: (is_dominated_by((v, 1, 1), (2, 2)), is_dominated_by((2, 2), (v, 1, 1))),
        ValueError, True, None,
        [(2, (True, False)), (-1, (False, False)), (F(2), (True, False))]),
}

# integral, fractional and not numbers at all; a Fraction is exact where a
# row says so
NOT_INTEGERS = {"float": 2.0, "numeric string": "2", "bool": True, "Fraction": F(2),
                "bool False": False, "fractional float": 2.5, "None": None}
REFUSALS = [(boundary, kind) for boundary, (_, _, rational, _, _) in BOUNDARIES.items()
            for kind in NOT_INTEGERS if not (rational and kind == "Fraction")]


@pytest.mark.parametrize("boundary, kind", REFUSALS)
def test_an_inexact_number_is_refused(boundary, kind):
    call, error, _, _, _ = BOUNDARIES[boundary]
    with pytest.raises(error) as caught:
        call(NOT_INTEGERS[kind])
    # the refusal names the number read, not a shape or a matrix built from it
    assert caught.type is error


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_exact_numbers_give_the_same_results(boundary):
    call, _, _, _, cases = BOUNDARIES[boundary]
    for v, result in cases:
        assert call(v) == result, v
        if type(v) is int:
            assert call(Index(v)) == result, f"Index({v})"


@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_a_number_at_the_floor_is_refused(boundary):
    call, error, _, floor, cases = BOUNDARIES[boundary]
    exact = [v for v, _ in cases]
    if floor is None:  # a negative number is read, and its result pinned
        assert min(exact) < 0
        return
    with pytest.raises(error) as caught:
        call(floor)
    assert caught.type is error
    assert floor + 1 in exact  # so the floor is the largest value refused


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
