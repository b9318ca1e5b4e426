"""Triple classification, stability certification/refutation, and
stabilization sequences.

A triple of partitions is classified by its size pattern (equal sizes;
split sizes; or the interpolating range) and the positivity of the matching
coefficient.  Stability along a triple means: shifting any same-pattern
base by n times the triple gives an eventually constant coefficient
sequence.  For the split (LR) pattern that is decidable by one finite
check; for the other two patterns a scan can only refute (a value >= 2 at
any scale) or stay inconclusive, unless an additivity certificate from the
matrix pipeline certifies it externally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional, Sequence

from .coefficients import (
    heisenberg_coeff,
    heisenberg_coeff_oracle,
    kron_coeff,
    kron_coeff_oracle,
    lr_coeff,
    lr_coeff_hive,
)
from .partitions import Partition, _integer_parts, _trusted


class Kind(enum.Enum):
    # most specific pattern first: a triple's kind is the first that fits
    KRONECKER = "kron"
    LR = "lr"
    HEISENBERG = "heis"


class NotATripleError(ValueError):
    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason  # "size_pattern" or "zero_coefficient"


def size_pattern_ok(kind: Kind, a: Partition, b: Partition, c: Partition) -> bool:
    if kind is Kind.KRONECKER:
        return a.size == b.size == c.size
    if kind is Kind.LR:
        return a.size == b.size + c.size
    if kind is Kind.HEISENBERG:
        return max(b.size, c.size) <= a.size <= b.size + c.size
    raise ValueError(f"not a coefficient kind: {kind!r}")


# The engine of each kind, and its independent second route.
PRIMARY = {Kind.KRONECKER: kron_coeff, Kind.LR: lr_coeff,
           Kind.HEISENBERG: heisenberg_coeff}
ORACLE = {Kind.KRONECKER: kron_coeff_oracle, Kind.LR: lr_coeff_hive,
          Kind.HEISENBERG: heisenberg_coeff_oracle}


def coefficient(kind: Kind, lam, mu, nu) -> int:
    if not isinstance(kind, Kind):
        raise ValueError(f"not a coefficient kind: {kind!r}")
    return PRIMARY[kind](lam, mu, nu)


def _shifted(x: Sequence[int], n: int, d: Sequence[int]) -> Partition:
    """x + n*d for partitions x, d and n >= 0 that the caller validated: the
    sum is a partition again, so it is built without re-validation."""
    return _trusted(s for s in (a + n * b for a, b in zip_longest(x, d, fillvalue=0)) if s)


@dataclass(frozen=True)
class Triple:
    alpha: Partition
    beta: Partition
    gamma: Partition
    kind: Kind                  # most specific pattern
    flags: frozenset            # every pattern the sizes satisfy
    coefficient: int            # value of the kind's coefficient at scale 1


def classify_triple(alpha, beta, gamma) -> Triple:
    """Classify by size pattern, then demand a positive coefficient.

    The kind is the first `Kind` whose pattern fits, so equal sizes classify
    as the Kronecker kind (the interpolating flag is always set too, since
    both special patterns embed in the general one)."""
    alpha, beta, gamma = Partition(alpha), Partition(beta), Partition(gamma)
    fits = [k for k in Kind if size_pattern_ok(k, alpha, beta, gamma)]
    if not fits:
        raise NotATripleError(
            "size_pattern",
            f"sizes ({alpha.size}; {beta.size}, {gamma.size}) fit no pattern")
    kind, flags = fits[0], frozenset(fits)
    value = coefficient(kind, alpha, beta, gamma)
    if value == 0:
        raise NotATripleError(
            "zero_coefficient",
            f"coefficient of kind {kind.value} vanishes on ({alpha}; {beta}, {gamma})")
    return Triple(alpha=alpha, beta=beta, gamma=gamma, kind=kind,
                  flags=flags, coefficient=value)


class Verdict(enum.Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive_up_to"


@dataclass(frozen=True)
class StabilityReport:
    triple: Triple
    verdict: Verdict
    n_max: int
    sequence: tuple  # ((n, coefficient), ...)
    witness: Optional[tuple] = None         # (n, value >= 2) when refuted
    certified_by: Optional[str] = None


def stability_check(triple: Triple, n_max: int = 8) -> StabilityReport:
    """Certify, refute, or bound the stability question for a triple.

    The scaled values are scanned up to n_max, and any value >= 2 refutes.
    A clean scan of ones certifies a split-pattern (LR) triple, whose
    scaled values are all 1 when its value at scale 1 is (Knutson-Tao-
    Woodward); a value c >= 2 at scale 1 stops the scan with the witness
    (1, c).  Any other kind stays inconclusive: certifying it needs an
    additivity certificate from the matrix pipeline."""
    (n_max,) = _integer_parts((n_max,), ValueError)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    a, b, c = triple.alpha, triple.beta, triple.gamma
    seq: list[tuple[int, int]] = []
    witness = None
    for n in range(1, n_max + 1):
        value = coefficient(triple.kind, _shifted((), n, a), _shifted((), n, b),
                            _shifted((), n, c))
        seq.append((n, value))
        if value >= 2:
            witness = (n, value)
            break
        if value == 0:
            raise RuntimeError("scaled coefficient vanished on a valid triple")
    verdict, certified_by = Verdict.INCONCLUSIVE, None
    if witness is not None:
        verdict = Verdict.REFUTED
    elif triple.kind is Kind.LR:
        verdict, certified_by = Verdict.CERTIFIED, "finite_lr_check"
    return StabilityReport(triple=triple, verdict=verdict, n_max=n_max,
                           sequence=tuple(seq), witness=witness,
                           certified_by=certified_by)


def stabilization_sequence(kind: Kind,
                           base: Sequence,
                           direction: Sequence,
                           ns: Sequence[int]) -> list[tuple[int, int]]:
    """Coefficient of the base shifted n steps along the direction, for each
    n.  Both the base and the direction must fit the kind's size pattern,
    which makes every shifted query fit it too."""
    lam, mu, nu = (Partition(x) for x in base)
    al, be, ga = (Partition(x) for x in direction)
    ns = _integer_parts(ns, ValueError)
    if any(n < 0 for n in ns):
        raise ValueError("scale factor must be nonnegative")
    if not size_pattern_ok(kind, lam, mu, nu):
        raise ValueError(f"base sizes ({lam.size}; {mu.size}, {nu.size}) "
                         f"violate the {kind.value} pattern")
    if not size_pattern_ok(kind, al, be, ga):
        raise ValueError(f"direction sizes ({al.size}; {be.size}, {ga.size}) "
                         f"violate the {kind.value} pattern")
    return [(n, coefficient(kind, _shifted(lam, n, al), _shifted(mu, n, be),
                            _shifted(nu, n, ga)))
            for n in ns]


def detect_stable_limit(values: Sequence[int], window: int = 4
                        ) -> Optional[tuple[int, int]]:
    """Heuristic tail detector: if the last `window` entries agree, return
    (value, index where the final run starts); otherwise None.  Agreement
    over a window is evidence, not proof, of stabilization."""
    (window,) = _integer_parts((window,), ValueError)
    if window < 2:
        raise ValueError("window must be >= 2")
    if len(values) < window:
        return None
    tail = values[-window:]
    if any(v != tail[0] for v in tail):
        return None
    onset = len(values) - 1
    while onset > 0 and values[onset - 1] == tail[0]:
        onset -= 1
    return tail[0], onset
