import itertools

import pytest

from heisenstab.coefficients import kron_coeff, lr_coeff
from heisenstab.partitions import Partition, partitions_of, scale
from heisenstab.stability import (
    Kind,
    NotATripleError,
    Verdict,
    classify_triple,
    coefficient,
    detect_stable_limit,
    stability_check,
    stabilization_sequence,
)

P = Partition


def test_classify_equal_sizes():
    t = classify_triple((1,), (1,), (1,))
    assert t.kind == Kind.KRONECKER
    assert Kind.HEISENBERG in t.flags
    assert t.coefficient == 1
    # the empty triple fits all three patterns; the first Kind wins
    t = classify_triple((), (), ())
    assert t.kind == Kind.KRONECKER
    assert t.flags == frozenset(Kind)


def test_classify_split_sizes():
    t = classify_triple((2, 2, 1), (2, 1), (2,))
    assert t.kind == Kind.LR
    assert Kind.HEISENBERG in t.flags
    assert t.coefficient == 1
    # fits the split and interpolating patterns; the split one comes first
    t = classify_triple((1,), (1,), ())
    assert t.kind == Kind.LR
    assert t.flags == frozenset({Kind.LR, Kind.HEISENBERG})


def test_classify_interpolating_sizes():
    t = classify_triple((2,), (1,), (1, 1))
    assert t.kind == Kind.HEISENBERG
    assert t.flags == frozenset({Kind.HEISENBERG})


def test_classify_rejects_bad_sizes():
    with pytest.raises(NotATripleError) as err:
        classify_triple((3,), (1,), (1,))
    assert err.value.reason == "size_pattern"


def test_classify_rejects_zero_coefficient():
    # sign tensor sign contains no sign component at n = 3
    with pytest.raises(NotATripleError) as err:
        classify_triple((1, 1, 1), (1, 1, 1), (1, 1, 1))
    assert err.value.reason == "zero_coefficient"


def test_kind_token_round_trip():
    for kind in Kind:
        assert Kind(kind.value) == kind
    with pytest.raises(ValueError):
        Kind("nope")


def test_stability_inconclusive_on_classical_direction():
    t = classify_triple((1,), (1,), (1,))
    report = stability_check(t, n_max=5)
    assert report.verdict == Verdict.INCONCLUSIVE
    assert [v for _, v in report.sequence] == [1, 1, 1, 1, 1]
    assert report.witness is None


def test_stability_certifies_unit_split_triple():
    t = classify_triple((2, 2, 1), (2, 1), (2,))
    report = stability_check(t, n_max=4)
    assert report.verdict == Verdict.CERTIFIED
    assert report.certified_by == "finite_lr_check"
    assert all(v == 1 for _, v in report.sequence)


def test_stability_refutes_split_triple_with_multiplicity():
    t = classify_triple((3, 2, 1), (2, 1), (2, 1))
    report = stability_check(t, n_max=3)
    assert report.verdict == Verdict.REFUTED
    assert report.witness == (1, 2)


def _first_refutable_equal_size_triple():
    for n in range(2, 6):
        for lam, mu, nu in itertools.product(partitions_of(n), repeat=3):
            if kron_coeff(lam, mu, nu) >= 2:
                return lam, mu, nu
    raise AssertionError("no refutable equal-size triple at small sizes")


def test_stability_refutes_equal_size_triple_superadditively():
    lam, mu, nu = _first_refutable_equal_size_triple()
    t = classify_triple(lam, mu, nu)
    report = stability_check(t, n_max=3)
    assert report.verdict == Verdict.REFUTED
    n, value = report.witness
    assert value >= 2
    # scaling that witness keeps growing
    assert kron_coeff(scale(2, lam), scale(2, mu), scale(2, nu)) >= 3


def test_stability_check_rejects_bad_n_max():
    t = classify_triple((1,), (1,), (1,))
    with pytest.raises(ValueError):
        stability_check(t, n_max=0)


def test_sequence_classical_direction():
    seq = stabilization_sequence(
        Kind.KRONECKER, ((1,), (1,), (1,)), ((1,), (1,), (1,)), range(0, 5))
    assert [v for _, v in seq] == [1, 1, 1, 1, 1]


def test_sequence_interpolating_kind_constant_tail():
    seq = stabilization_sequence(
        Kind.HEISENBERG, ((2,), (1,), (1,)), ((1,), (1,), (1,)), range(0, 5))
    values = [v for _, v in seq]
    assert values[-1] == values[-2] == values[-3]


def test_sequence_eventually_zero_when_second_factor_escapes():
    # direction with vanishing coefficient: the middle factor grows out of
    # the outer shape, so every shifted value dies
    seq = stabilization_sequence(
        Kind.LR, ((1,), (1,), ()), ((1, 1), (2,), ()), range(0, 6))
    assert [v for _, v in seq] == [1, 0, 0, 0, 0, 0]


def test_sequence_validates_size_patterns():
    with pytest.raises(ValueError):
        stabilization_sequence(Kind.KRONECKER, ((2,), (1,), (1,)),
                               ((1,), (1,), (1,)), range(3))
    with pytest.raises(ValueError):
        stabilization_sequence(Kind.LR, ((2,), (1,), (1,)),
                               ((1,), (2,), (1,)), range(3))


def test_detect_stable_limit():
    assert detect_stable_limit([0, 1, 2, 2, 2, 2], window=3) == (2, 2)
    assert detect_stable_limit([1, 2, 1, 2], window=2) is None
    assert detect_stable_limit([1] * 11, window=3) == (1, 0)
    assert detect_stable_limit([1, 1], window=3) is None
    with pytest.raises(ValueError):
        detect_stable_limit([1, 1, 1], window=1)


def test_scaled_values_grow_on_a_multiplicity_two_direction():
    values = [lr_coeff(scale(n, P((3, 2, 1))), scale(n, P((2, 1))), scale(n, P((2, 1))))
              for n in range(1, 5)]
    assert all(v >= n + 1 for n, v in zip(range(1, 5), values))


def _clean_scan(kind, triple, n_max=6):
    report = stability_check(classify_triple(*triple), n_max=n_max)
    return report.verdict == Verdict.INCONCLUSIVE


def test_equal_size_stable_directions_flatten_general_sequences():
    # directions whose equal-size scan stays at one also flatten sequences
    # of the interpolating kind over every small base
    from support import direction_triples, size_triples

    dirs = [d for d in direction_triples(Kind.KRONECKER, 2) if _clean_scan(Kind.KRONECKER, d)]
    assert dirs
    bases = list(size_triples(Kind.HEISENBERG, 2))
    for d in dirs:
        for b in bases:
            vals = [v for _, v in stabilization_sequence(Kind.HEISENBERG, b, d, range(11))]
            assert detect_stable_limit(vals, window=4) is not None, (d, b, vals)


def test_unit_split_directions_flatten_general_sequences():
    from support import direction_triples, size_triples
    from heisenstab.stability import coefficient

    dirs = [d for d in direction_triples(Kind.LR, 2)
            if coefficient(Kind.LR, *d) == 1]
    assert dirs
    bases = list(size_triples(Kind.HEISENBERG, 2))
    for d in dirs:
        for b in bases:
            vals = [v for _, v in stabilization_sequence(Kind.HEISENBERG, b, d, range(11))]
            assert detect_stable_limit(vals, window=4) is not None, (d, b, vals)


def test_superadditive_growth_through_scale_four():
    from support import size_triples
    from heisenstab.stability import coefficient

    found = 0
    for kind in (Kind.KRONECKER, Kind.LR, Kind.HEISENBERG):
        for a, b, c in size_triples(kind, 3):
            if coefficient(kind, a, b, c) < 2:
                continue
            found += 1
            for n in range(1, 5):
                v = coefficient(kind, scale(n, a), scale(n, b), scale(n, c))
                assert v >= n + 1, (kind, a, b, c, n, v)
    assert found > 0


def _recording(monkeypatch, kind):
    """Route the kind's engine through a recorder of the queries it gets."""
    from heisenstab import stability

    asked = []
    engine = stability.PRIMARY[kind]

    def recorder(lam, mu, nu):
        asked.append((lam, mu, nu))
        return engine(lam, mu, nu)

    monkeypatch.setitem(stability.PRIMARY, kind, recorder)
    return asked


def test_shifted_queries_match_the_validated_operations(monkeypatch):
    # the acceptance-07 space at sizes <= 2, n = 0..5
    from support import direction_triples, size_triples
    from heisenstab.partitions import add
    from heisenstab.stability import coefficient

    ns = range(6)
    for kind in Kind:
        dirs = list(direction_triples(kind, 2))
        bases = list(size_triples(kind, 2))
        asked = _recording(monkeypatch, kind)
        for d in dirs:
            for b in bases:
                queries = [tuple(add(x, scale(n, y)) for x, y in zip(b, d)) for n in ns]
                del asked[:]
                seq = stabilization_sequence(kind, b, d, ns)
                assert asked == queries, (kind, b, d)
                assert all(type(x) is Partition for q in asked for x in q)
                assert seq == [(n, coefficient(kind, *q)) for n, q in zip(ns, queries)]
    triple = classify_triple((2,), (1,), (1, 1))
    asked = _recording(monkeypatch, Kind.HEISENBERG)
    stability_check(triple, n_max=4)
    assert asked == [tuple(scale(n, x) for x in (triple.alpha, triple.beta, triple.gamma))
                     for n in range(1, 5)]


def test_sequence_refuses_a_negative_step_before_any_query(monkeypatch):
    asked = _recording(monkeypatch, Kind.LR)
    with pytest.raises(ValueError, match="scale factor must be nonnegative"):
        stabilization_sequence(Kind.LR, ((2,), (1,), (1,)), ((2,), (1,), (1,)), [2, -1])
    assert asked == []


def test_sequence_refuses_a_kind_that_is_not_a_kind():
    with pytest.raises(ValueError, match="'kron'"):
        stabilization_sequence("kron", ((1,), (1,), (1,)), ((1,), (1,), (1,)), range(3))


def test_coefficient_refuses_a_kind_that_is_not_a_kind():
    for kind in ("kron", "lr", None, ["heis"]):
        with pytest.raises(ValueError, match="not a coefficient kind"):
            coefficient(kind, (1,), (1,), (1,))
