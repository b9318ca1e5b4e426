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

Partitions are validated once, here at the public boundary: `PRIMARY` maps
each kind to its core in `coefficients`, which takes validated partitions
and validates nothing again.  `coefficient` and `classify_triple` validate
their three shapes once, and so do a sequence (its base and direction) and
a scan (its triple's shapes, against its kind's size pattern too; it then
classifies them once, by `classify_triple`, and checks the triple's
coefficient against the value found).  One builder makes every shifted shape:
`partitions._on_ray` reads x + n*d off the ray of (x, d) in the memo
`partitions._RAY_CACHE`, building it unchecked at the first n that asks for
it; a scan reads n*x off the ray from () along x.  Each shape on a ray is
the one Partition of that shape in `partitions._SHAPE_CACHE`, so the memo
keys that equal shapes end up in share one object.
`ORACLE` holds the public oracles, which validate on their own.

Loading this module loads no engine: the tables `PRIMARY` and `ORACLE`
are built from `coefficients` on first use, by the module `__getattr__`
(the first read of either name, or the first `coefficient` call), so that
a CLI query answered from the cache never imports one.  Whoever reads a
table sees it complete.
`Triple` and `StabilityReport` are `typing.NamedTuple`s for the same reason
(no `dataclasses` import), so they are tuples: they unpack, and compare
equal to a plain tuple of the same values.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Sequence

from .partitions import Partition, _integer_parts, _on_ray


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
    """Whether the sizes of a; b, c fit the kind's pattern; each shape is
    summed at most once."""
    if kind is Kind.KRONECKER:
        return sum(a) == sum(b) == sum(c)
    if kind is Kind.LR:
        return sum(a) == sum(b) + sum(c)
    if kind is Kind.HEISENBERG:
        b, c = sum(b), sum(c)
        return max(b, c) <= sum(a) <= b + c
    raise ValueError(f"not a coefficient kind: {kind!r}")


def _check_sizes(kind: Kind, name: str, shapes: Sequence[Partition]) -> None:
    """NotATripleError, naming the three shapes, when their sizes miss the
    kind's pattern."""
    a, b, c = shapes
    if not size_pattern_ok(kind, a, b, c):
        raise NotATripleError("size_pattern", f"{name} sizes ({a.size}; {b.size}, "
                              f"{c.size}) violate the {kind.value} pattern")


def __getattr__(name: str):
    """PEP 562: the first read of `PRIMARY` (the core of each kind) or
    `ORACLE` (its independent second route), also through `from .stability
    import ORACLE`, imports `coefficients` and binds both tables as module
    globals, complete; later reads find them without this hook.

    For every query the oracle takes a route the primary did not: hives
    against LR fillings, the h-basis route against the quintuple formula,
    and for the Kronecker kind the character sum when the primary took the
    h-basis route, else the h-basis route (the primary picks among a closed
    form, the h-basis route and the character sum by the query alone)."""
    if name not in ("PRIMARY", "ORACLE"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import coefficients as c

    globals().update(
        PRIMARY={Kind.KRONECKER: c._kron, Kind.LR: c._lr, Kind.HEISENBERG: c._heis},
        ORACLE={Kind.KRONECKER: c.kron_coeff_oracle, Kind.LR: c.lr_coeff_hive,
                Kind.HEISENBERG: c.heisenberg_coeff_oracle})
    return globals()[name]


def _primary(kind: Kind):
    """The kind's engine, read from `PRIMARY` at the time of the call."""
    if not isinstance(kind, Kind):
        raise ValueError(f"not a coefficient kind: {kind!r}")
    table = globals()["PRIMARY"] if "PRIMARY" in globals() else __getattr__("PRIMARY")
    return table[kind]


def coefficient(kind: Kind, lam, mu, nu) -> int:
    """The kind's coefficient, by its engine in `PRIMARY`, of the three
    validated partitions; a Kronecker query on unequal sizes raises
    ValueError."""
    engine = _primary(kind)
    lam, mu, nu = Partition(lam), Partition(mu), Partition(nu)
    if kind is Kind.KRONECKER and not size_pattern_ok(kind, lam, mu, nu):
        raise ValueError(f"Kronecker query needs equal sizes, got {lam.size}, {mu.size}, {nu.size}")
    return engine(lam, mu, nu)


class Triple(NamedTuple):
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
    value = _primary(kind)(alpha, beta, gamma)
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


class StabilityReport(NamedTuple):
    triple: Triple
    verdict: Verdict
    n_max: int
    sequence: tuple  # ((n, coefficient), ...)
    witness: Optional[tuple] = None         # (n, value >= 2) when refuted
    certified_by: Optional[str] = None


def stability_check(triple: Triple, n_max: int = 8) -> StabilityReport:
    """Certify, refute, or bound the stability question for a triple.

    The scaled values are scanned up to n_max, and any value >= 2 refutes.
    A clean scan of ones certifies a triple that fits the split (LR)
    pattern, whose scaled values are all 1 when its value at scale 1 is
    (Knutson-Tao-Woodward); the empty triple fits it too, though it
    classifies as Kronecker.  A value c >= 2 at scale 1 stops the scan with
    the witness (1, c).  Any other triple stays inconclusive: certifying it
    needs an additivity certificate from the matrix pipeline.

    A hand-built triple is read off its validated shapes: sizes that miss
    its kind's pattern raise NotATripleError.  The scan starts from
    `classify_triple` of those shapes, which gives the value at scale 1
    (and raises NotATripleError, "zero_coefficient", when it is 0), and the
    report holds the triple it returns; any other value at scale 1 than
    the triple's `coefficient` raises ValueError."""
    (n_max,) = _integer_parts((n_max,), ValueError)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    shapes = [Partition(x) for x in triple[:3]]
    _check_sizes(triple.kind, "triple", shapes)
    origin = Partition()
    found = classify_triple(*[_on_ray(origin, x, (1,))[0] for x in shapes])
    if found.coefficient != triple.coefficient:
        raise ValueError(f"triple coefficient {triple.coefficient!r} is not the "
                         f"{found.kind.value} coefficient {found.coefficient} of "
                         f"({shapes[0]}; {shapes[1]}, {shapes[2]})")
    engine = _primary(found.kind)
    seq = [(1, found.coefficient)]
    for n in range(2, n_max + 1):
        if seq[-1][1] >= 2:
            break
        value = engine(*[_on_ray(origin, x, (n,))[0] for x in shapes])
        if value == 0:
            raise RuntimeError("scaled coefficient vanished on a valid triple")
        seq.append((n, value))
    witness = seq[-1] if seq[-1][1] >= 2 else None
    verdict, certified_by = Verdict.INCONCLUSIVE, None
    if witness is not None:
        verdict = Verdict.REFUTED
    elif Kind.LR in found.flags:
        verdict, certified_by = Verdict.CERTIFIED, "finite_lr_check"
    return StabilityReport(triple=found, verdict=verdict, n_max=n_max,
                           sequence=tuple(seq), witness=witness,
                           certified_by=certified_by)


def stabilization_sequence(kind: Kind,
                           base: Sequence,
                           direction: Sequence,
                           ns: Sequence[int]) -> list[tuple[int, int]]:
    """Coefficient of the base shifted n steps along the direction, for each
    n.  Both the base and the direction must fit the kind's size pattern,
    which makes every shifted query fit it too; NotATripleError (a
    ValueError) names the one that does not."""
    base = tuple(map(Partition, base))
    direction = tuple(map(Partition, direction))
    ns = _integer_parts(ns, ValueError)
    if ns and min(ns) < 0:
        raise ValueError("scale factor must be nonnegative")
    _check_sizes(kind, "base", base)
    _check_sizes(kind, "direction", direction)
    engine = _primary(kind)
    rays = [_on_ray(x, d, ns) for x, d in zip(base, direction)]
    return list(zip(ns, map(engine, *rays)))


def detect_stable_limit(values: Sequence[int], window: int = 4
                        ) -> Optional[tuple[int, int]]:
    """Heuristic tail detector: if the last `window` entries agree, return
    (value, index where the final run starts); otherwise None.  Agreement
    over a window is evidence, not proof, of stabilization."""
    (window,) = _integer_parts((window,), ValueError)
    if window < 2:
        raise ValueError("window must be >= 2")
    values = _integer_parts(values, ValueError)
    if len(values) < window:
        return None
    tail = values[-window:]
    if any(v != tail[0] for v in tail):
        return None
    onset = len(values) - 1
    while onset > 0 and values[onset - 1] == tail[0]:
        onset -= 1
    return tail[0], onset
