"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single `ACCEPTANCE nn PASS` line on success; a pytest
failure marks the criterion red.  Run with `pytest tests/test_acceptance.py
-v -s` to see the lines stream."""

import itertools
import time
from fractions import Fraction as F
from math import factorial

from heisenstab import (
    AdditivityCertificate,
    HeisenbergMatrix,
    Kind,
    KroneckerMatrix,
    build_constraint_matrix,
    check_certificate,
    detect_stable_limit,
    heisenberg_coeff,
    heisenberg_coeff_oracle,
    heisenberg_component,
    heisenberg_matrices,
    heisenberg_stable_triple,
    is_additive,
    kron_coeff,
    kronecker_matrices,
    kronecker_stable_triple,
    lr_coeff,
    lr_coeff_hive,
)
from heisenstab.partitions import (
    Dominance,
    Partition,
    dominates,
    partitions_of,
    partitions_up_to,
    scale,
)
from heisenstab.stability import coefficient, stabilization_sequence
from heisenstab.symfun import character_vector, class_sizes
from support import direction_triples, hook_length_dimension, size_triples

P = Partition

WORKED = HeisenbergMatrix([(0, 4, 6, 1), (4, 5, 7, 2), (2, 3, 5, 0)])
WORKED_POTENTIALS = AdditivityCertificate(
    x=(F(0), F(1), F(-1)), y=(F(0), F(1), F(3), F(-2)))


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for mu in partitions_up_to(4):
        for nu in partitions_up_to(4):
            lo, hi = max(mu.size, nu.size), mu.size + nu.size
            for l in range(lo, hi + 1):
                for lam in partitions_of(l):
                    a = heisenberg_coeff(lam, mu, nu)
                    b = heisenberg_coeff_oracle(lam, mu, nu)
                    assert a == b, (lam, mu, nu, a, b)
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300, f"runtime bound exceeded: {elapsed:.0f}s"
    _report(1, f"formula vs h-basis route on {checked} queries "
               f"(|mu|,|nu| <= 4), exact, {elapsed:.1f}s")


def test_criterion_02_degeneration():
    checked = 0
    for mu in partitions_up_to(5):
        for nu in partitions_up_to(5):
            top = mu.size + nu.size
            got = heisenberg_component(mu, nu, top).terms
            expected = {}
            for lam in partitions_of(top):
                c = lr_coeff(lam, mu, nu)
                if c:
                    expected[lam] = c
            assert got == expected, ("top", mu, nu)
            checked += 1
    for n in range(6):
        for mu in partitions_of(n):
            for nu in partitions_of(n):
                got = heisenberg_component(mu, nu, n).terms
                expected = {}
                for lam in partitions_of(n):
                    g = kron_coeff(lam, mu, nu)
                    if g:
                        expected[lam] = g
                assert got == expected, ("bottom", mu, nu)
                checked += 1
    _report(2, f"top degree = induction product, bottom degree = tensor "
               f"decomposition on {checked} pairs (sizes <= 5), exact")


def test_criterion_03_hive_conformance():
    t0 = time.time()
    checked = 0
    for l in range(9):
        for lam in partitions_of(l):
            for m in range(l + 1):
                for mu in partitions_of(m):
                    for nu in partitions_of(l - m):
                        a = lr_coeff(lam, mu, nu)
                        b = lr_coeff_hive(lam, mu, nu)
                        assert a == b, (lam, mu, nu, a, b)
                        checked += 1
    _report(3, f"tableau count = hive count on all {checked} triples with "
               f"|lambda| <= 8, exact, {time.time()-t0:.1f}s")


def test_criterion_04_worked_example_end_to_end():
    cert = is_additive(WORKED)
    assert cert is not None
    assert check_certificate(WORKED, cert)
    assert check_certificate(WORKED, WORKED_POTENTIALS)
    t = heisenberg_stable_triple(WORKED)
    assert t is not None
    assert t.alpha == (7, 6, 5, 5, 4, 4, 3, 2, 2, 1)
    assert tuple(t.beta) == (18, 10)
    assert tuple(t.gamma) == (12, 18, 3)
    _report(4, "3x4 example matrix: additive, reference potentials verify, "
               "certified triple matches exactly")


def test_criterion_05_constraint_matrix():
    M = build_constraint_matrix(2, 3)
    assert M.rows == (
        (0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
        (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1),
    )
    assert M.rank() == 5
    _report(5, "margin constraint matrix (2,3) bit-exact with full row rank")


def test_criterion_06_additive_implies_unit_coefficient_and_vanishing():
    additive_found = 0
    for beta in partitions_up_to(3):
        for gamma in partitions_up_to(3):
            matrices = list(heisenberg_matrices(beta, gamma))
            for A in matrices:
                if is_additive(A) is None:
                    continue
                additive_found += 1
                alpha = A.pi
                assert heisenberg_coeff(alpha, beta, gamma) == 1, (A.rows,)
                assert heisenberg_coeff_oracle(alpha, beta, gamma) == 1
                same_class = [B for B in matrices
                              if B.total == A.total and B.pi == alpha]
                assert same_class == [A] or len(same_class) == 1
                for B in matrices:
                    if B.total == A.total:
                        assert dominates(B.pi, alpha) != Dominance.STRICTLY_DOMINATED, \
                            (A.rows, B.rows)
    assert additive_found > 0
    _report(6, f"all {additive_found} additive cornered matrices with margins "
               f"of size <= 3: unit coefficient by both engines, singleton "
               f"class, nothing strictly below")


def test_criterion_07_monotonicity_suite():
    t0 = time.time()
    totals = {}
    for kind in (Kind.KRONECKER, Kind.LR, Kind.HEISENBERG):
        dirs = list(direction_triples(kind, 3))
        bases = list(size_triples(kind, 3))
        for d in dirs:
            for b in bases:
                vals = [v for _, v in stabilization_sequence(kind, b, d, range(6))]
                for v0, v1 in zip(vals, vals[1:]):
                    assert v1 >= v0, (kind, d, b, vals)
        totals[kind.value] = len(dirs) * len(bases)
    _report(7, f"weakly increasing sequences, n = 0..5: "
               f"{totals} direction x base sweeps, {time.time()-t0:.0f}s")


def test_criterion_08_superadditive_refutation():
    cases = []
    for kind in (Kind.KRONECKER, Kind.LR, Kind.HEISENBERG):
        for d in size_triples(kind, 3):
            if coefficient(kind, *d) >= 2:
                cases.append((kind, d))
    cases.append((Kind.LR, (P((3, 2, 1)), P((2, 1)), P((2, 1)))))
    assert any(kind is Kind.LR for kind, _ in cases)
    assert any(kind is Kind.HEISENBERG for kind, _ in cases)
    for kind, (a, b, c) in cases:
        base = coefficient(kind, a, b, c)
        assert base >= 2
        for n in range(1, 4):
            v = coefficient(kind, scale(n, a), scale(n, b), scale(n, c))
            assert v >= n + 1, (kind, a, b, c, n, v)
    _report(8, f"{len(cases)} triples with multiplicity >= 2 grow at least "
               f"linearly (value >= n+1 for n <= 3), exact inequality")


def test_criterion_09_stabilization_behavior():
    t0 = time.time()
    unit = (P((1,)), P((1,)), P((1,)))
    scanned = 0
    for kind in (Kind.KRONECKER, Kind.HEISENBERG):
        for base in size_triples(kind, 3):
            vals = [v for _, v in stabilization_sequence(kind, base, unit, range(11))]
            hit = detect_stable_limit(vals, window=4)
            assert hit is not None, (kind, base, vals)
            scanned += 1
    # split-pattern constancy in the horizontal-shift regime: moving the
    # outer shape and the second factor by the same partition leaves the
    # count fixed once n reaches twice the size of the held factor
    lr_scanned = 0
    for alpha in partitions_up_to(3):
        fwd = (alpha, P(()), alpha)
        mirrored = (alpha, alpha, P(()))
        for base in size_triples(Kind.LR, 3):
            for direction, held in ((fwd, base[1]), (mirrored, base[2])):
                assert coefficient(Kind.LR, *direction) == 1
                vals = [v for _, v in
                        stabilization_sequence(Kind.LR, base, direction, range(11))]
                tail = vals[2 * held.size:]
                assert all(v == tail[0] for v in tail), (direction, base, vals)
                lr_scanned += 1
    elapsed = time.time() - t0
    assert elapsed < 600, f"runtime bound exceeded: {elapsed:.0f}s"
    _report(9, f"unit direction gives tails of length >= 4 on {scanned} "
               f"bases (n <= 10); split-pattern counts constant past twice "
               f"the held size on {lr_scanned} scans; {elapsed:.1f}s")


def test_criterion_10_kronecker_sanity():
    def raw(a, b, c):
        n = sum(a)
        va, vb, vc = character_vector(tuple(a)), character_vector(tuple(b)), \
            character_vector(tuple(c))
        total = sum(s * x * y * z
                    for s, x, y, z in zip(class_sizes(n), va, vb, vc))
        assert total % factorial(n) == 0
        return total // factorial(n)

    for n in range(1, 6):
        parts = list(partitions_of(n))
        dims = {lam: hook_length_dimension(lam) for lam in parts}
        assert sum(d * d for d in dims.values()) == factorial(n)
        for mu in parts:
            for nu in parts:
                assert sum(raw(lam, mu, nu) * dims[lam] for lam in parts) == \
                    dims[mu] * dims[nu], (mu, nu)
        for lam, mu, nu in itertools.combinations_with_replacement(parts, 3):
            values = {raw(*perm) for perm in itertools.permutations((lam, mu, nu))}
            values.add(kron_coeff(lam, mu, nu))
            assert len(values) == 1, (lam, mu, nu, values)
    _report(10, "full symmetry of the character sum and the dimension "
                "identity for all pairs at n <= 5, exact")


def test_criterion_11_additive_margin_pipeline():
    t = kronecker_stable_triple(KroneckerMatrix([(1,)]))
    assert t is not None and t.as_partitions() == ((1,), (1,), (1,))
    additive_found = 0
    for n in range(1, 5):
        for beta in partitions_of(n):
            for gamma in partitions_of(n):
                for A in kronecker_matrices(beta, gamma):
                    if is_additive(A) is None:
                        continue
                    additive_found += 1
                    alpha = A.pi
                    assert kron_coeff(alpha, beta, gamma) == 1, (A.rows,)
                    for k in range(1, 5):
                        assert kron_coeff(scale(k, alpha), scale(k, beta),
                                          scale(k, gamma)) == 1, (A.rows, k)
    assert additive_found > 0
    _report(11, f"unit cell recovers the classical triple; all "
                f"{additive_found} additive margin matrices with |margins| "
                f"<= 4 give unit coefficients at scales up to 4")
