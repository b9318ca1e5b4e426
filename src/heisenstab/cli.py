"""Command-line front end: exact coefficients, stabilization scans,
stability reports, additivity certificates, and matrix enumeration.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 parse error, 3 size-pattern error, 4 engine mismatch or cache integrity
failure, 5 enumeration budget exceeded, 1 selftest failure or stdout closed
by its reader.  Each command returns the JSON object it reports, or raises;
`main` alone writes that object to stdout, and maps each error a command
raises to its exit code and stderr line through the one table `_EXITS`.

A persistent cache of coefficient values lives in a single append-friendly
text file (one JSON record per line) at ~/.cache/heisenstab.cache, or
wherever HEIS_CACHE points.  The cache is an accelerator only: corrupt
lines anywhere in the file are skipped with a warning.  `coeff` decodes
only the records of the query it asks, and two of those that disagree (two
values for one engine, or a primary and an oracle value) are a fatal
integrity error (`MismatchError`); `verify-cache` applies the same check
to every query in the file.  Both read the file in chunks of whole lines
(a fixed number of characters plus the rest of the last line), so memory
is bounded by one chunk plus the records returned, whatever the size of
the file.  A chunk that holds only other queries' records is skipped
without decoding; any other chunk is filtered line by line.

A command imports the layers it uses when it runs.  A `coeff` whose records
are all in the cache loads only `partitions` and `stability` besides this
module: no engine, no matrix layer.  A miss loads the engines before its
timer starts, so `elapsed_ms` counts engine time and cache lookups, never
module loading.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import Optional

from .partitions import (
    BudgetExceededError,
    Composition,
    MatrixParseError,
    NotAPartitionError,
    Partition,
    _integer_token,
    _MATRIX_KIND_KEYS,
)
from . import stability
from .stability import (
    Kind,
    NotATripleError,
    classify_triple,
    detect_stable_limit,
    size_pattern_ok,
    stability_check,
    stabilization_sequence,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_SIZES = 3
EXIT_MISMATCH = 4
EXIT_BUDGET = 5


def _warn(msg: str) -> None:
    print(f"heisenstab: {msg}", file=sys.stderr)


class MismatchError(RuntimeError):
    """Two values of one query disagree: two cached records, a cached
    primary and oracle value, or the two engines just run."""


class SelftestFailure(RuntimeError):
    """A conformance check of `selftest` failed."""


# The exit code of each error a command raises, and the template of the one
# stderr line main writes for it.  Any other exception propagates.
_EXITS = {
    SelftestFailure: (EXIT_SELFTEST, "{0}"),
    NotAPartitionError: (EXIT_PARSE, "{0}"),
    MatrixParseError: (EXIT_PARSE, "bad matrix: {0}"),
    NotATripleError: (EXIT_SIZES, "not a triple ({0.reason}): {0}"),
    MismatchError: (EXIT_MISMATCH, "{0}"),
    BudgetExceededError: (EXIT_BUDGET, "{0}"),
}


def cache_path() -> str:
    env = os.environ.get("HEIS_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "heisenstab.cache")


# The line append_cache writes, for a q of printable ASCII other than `"`
# and `\` (json.dumps writes such a q as it is).  A value of at most 300
# digits stays under every int_max_str_digits limit Python allows (640 and
# up), so json.loads reads every line this matches as a valid record.
_RECORD = re.compile(
    r'^\{"q": "[ !#-\[\]-~]*", "engine": "(?:primary|oracle)", '
    r'"value": (?:0|[1-9][0-9]{0,299})\}$', re.MULTILINE)


# The characters load_cache reads at a time, before it reads the rest of
# the chunk's last line, so that the reader sees whole lines only.
_CHUNK_CHARS = 1 << 16


def _lines_to_decode(text: str, q: Optional[str], first: int):
    """(line number, line) for the lines of text, whole lines numbered from
    first, that load_cache decodes: every line when q is None.  Else a text
    that holds only other queries' records, as append_cache writes them, is
    skipped whole; any other text is filtered line by line, to the lines of
    q and every line _RECORD does not match, so that corrupt lines are still
    found file-wide.  A line _RECORD matches holds the needle below only at
    its start, and only when its q is q."""
    if q is None:
        return enumerate(text.split("\n"), first)
    needle = f'{{"q": {json.dumps(q)}, '
    # the text between the records (re.split builds it faster than re.sub)
    if needle not in text and not "".join(_RECORD.split(text)).strip():
        return ()
    return ((lineno, line) for lineno, line in enumerate(text.split("\n"), first)
            if line.startswith(needle) or not _RECORD.fullmatch(line))


def _decode(records: dict[tuple[str, str], int], lines, q: Optional[str]) -> None:
    """Add to records the record on each (line number, line) of lines that
    belongs to q (to any query when q is None).  A corrupt line is skipped
    with a warning; a second value for one (q, engine) raises MismatchError."""
    for lineno, line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            if not line.isascii():
                line.encode("utf-8")  # UnicodeEncodeError on a lone surrogate
            rec = json.loads(line)
            rec_q, engine, value = rec["q"], rec["engine"], rec["value"]
            # a value is a non-negative JSON integer, never coerced
            if (not isinstance(rec_q, str) or engine not in ("primary", "oracle")
                    or type(value) is not int or value < 0):
                raise ValueError(line)
        except (ValueError, KeyError, TypeError):
            _warn(f"skipping corrupt cache line {lineno}")
            continue
        if q is not None and rec_q != q:
            continue
        key = (rec_q, engine)
        if key in records and records[key] != value:
            raise MismatchError(
                f"cache holds conflicting values for {rec_q} [{engine}]: "
                f"{records[key]} vs {value}")
        records[key] = value


def load_cache(path: str, q: Optional[str]) -> dict[tuple[str, str], int]:
    """The records of query q in the cache file, keyed (q, engine), or those
    of every query when q is None.  Corrupt lines anywhere in the file are
    skipped with a warning; records that conflict among those returned raise
    MismatchError.  A file that cannot be read holds no records.

    The file is read in chunks of whole lines, each _CHUNK_CHARS characters
    plus the rest of its last line, so memory is one chunk plus the records
    returned.  A chunk that holds only other queries' records, as
    append_cache writes them, is skipped without decoding; any other chunk
    is filtered line by line."""
    records: dict[tuple[str, str], int] = {}
    try:
        # a byte that is not UTF-8 reads as a lone surrogate, so that the
        # decoder refuses only its own line
        fh = open(path, "r", encoding="utf-8", errors="surrogateescape")
    except OSError:
        return records
    with fh:
        lineno = 1
        while True:
            try:
                text = fh.read(_CHUNK_CHARS)
                text += fh.readline()  # the rest of the chunk's last line
            except OSError:
                return {}
            if not text:
                break
            _decode(records, _lines_to_decode(text, q, lineno), q)
            lineno += text.count("\n")
    for (rec_q, engine), value in records.items():
        other = records.get((rec_q, "oracle" if engine == "primary" else "primary"))
        if other is not None and other != value:
            raise MismatchError(
                f"primary and oracle records disagree for {rec_q}: {value} vs {other}")
    return records


def append_cache(path: str, q: str, engine: str, value: int) -> None:
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            try:
                import fcntl

                fcntl.flock(fh, fcntl.LOCK_EX)
            except (ImportError, OSError):
                pass  # advisory only; losing a write is acceptable
            fh.write(json.dumps({"q": q, "engine": engine, "value": value}) + "\n")
    except OSError as exc:
        _warn(f"cache write failed: {exc}")


def _partition_args(parser: argparse.ArgumentParser, *names: str) -> None:
    """Positional partition arguments, which `_partitions` reads by name."""
    for name in names:
        parser.add_argument(name)


def _partitions(args, *names: str) -> tuple[Partition, ...]:
    return tuple(Partition.parse(getattr(args, name)) for name in names)


def cmd_coeff(args) -> dict:
    lam, mu, nu = _partitions(args, "lambda", "mu", "nu")
    kind = Kind(args.kind)
    if not size_pattern_ok(kind, lam, mu, nu):
        raise NotATripleError(
            "size_pattern", f"sizes ({lam.size}; {mu.size}, {nu.size}) do not fit kind {args.kind}")
    path = cache_path()
    q = f"{args.kind} {lam} {mu} {nu}"
    cache = load_cache(path, q)
    engines = ("primary", "oracle") if args.oracle else ("primary",)
    # the engine for each record the cache lacks: on a miss, reading the
    # table loads the engines here, before the timer starts
    to_run = {engine: getattr(stability, engine.upper())[kind]
              for engine in engines if (q, engine) not in cache}

    t0 = time.perf_counter()
    for engine, fn in to_run.items():  # primary first, then the oracle
        cache[(q, engine)] = fn(lam, mu, nu)
        append_cache(path, q, engine, cache[(q, engine)])
    value = cache[(q, "primary")]
    if args.oracle and cache[(q, "oracle")] != value:
        raise MismatchError(
            f"engine mismatch on {q}: primary={value} oracle={cache[(q, 'oracle')]}")
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return {"kind": args.kind, "lambda": str(lam), "mu": str(mu), "nu": str(nu),
            "value": value, "engine": "both" if args.oracle else "primary",
            "elapsed_ms": round(elapsed_ms, 3)}


def cmd_verify_cache(args) -> dict:
    return {"records": len(load_cache(cache_path(), None))}


def cmd_seq(args) -> dict:
    base = _partitions(args, "lambda", "mu", "nu")
    direction = _partitions(args, "alpha", "beta", "gamma")
    seq = stabilization_sequence(Kind(args.kind), base, direction, range(0, args.n + 1))
    hit = detect_stable_limit([v for _, v in seq], window=args.window)
    out = {
        "kind": args.kind,
        "base": {"lambda": str(base[0]), "mu": str(base[1]), "nu": str(base[2])},
        "direction": {"alpha": str(direction[0]), "beta": str(direction[1]),
                      "gamma": str(direction[2])},
        "sequence": [[n, v] for n, v in seq],
        "verdict": "constant_tail" if hit else "no_tail_detected",
    }
    if hit:
        out["limit"], out["onset"] = hit
    return out


def cmd_stable(args) -> dict:
    triple = classify_triple(*_partitions(args, "alpha", "beta", "gamma"))
    report = stability_check(triple, n_max=args.n_max)
    out = {
        "alpha": str(triple.alpha), "beta": str(triple.beta), "gamma": str(triple.gamma),
        "kind": triple.kind.value,
        "flags": sorted(k.value for k in triple.flags),
        "coefficient": triple.coefficient,
        "verdict": report.verdict.value,
        "n_max": report.n_max,
        "sequence": [[n, v] for n, v in report.sequence],
    }
    if report.witness is not None:
        out["witness_n"], out["witness_value"] = report.witness
    if report.certified_by:
        out["certified_by"] = report.certified_by
    return out


def cmd_additive(args) -> dict:
    from .additivity import parse_matrix, stable_triple

    try:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MatrixParseError(f"cannot read matrix file: {exc}") from exc
    result = stable_triple(parse_matrix(text, args.kind))
    out = {"kind": args.kind, "additive": result is not None}
    if result is not None:
        out["certificate"] = result.certificate.as_json()
        out["triple"] = {
            "alpha": str(result.alpha),
            "beta": str(result.beta),
            "gamma": str(result.gamma),
        }
    return out


def cmd_enumerate(args) -> dict:
    from .additivity import MATRIX_KINDS, check_budget, margin_class, margin_matrices

    try:
        beta, gamma = Composition.parse(args.rows), Composition.parse(args.cols)
    except ValueError as exc:
        raise MatrixParseError(str(exc)) from exc
    pi = Partition.parse(args.pi) if args.pi is not None else None
    cls = MATRIX_KINDS[args.kind]
    check_budget(cls, beta, gamma)
    stream = margin_class(cls, beta, gamma, pi) if pi is not None else margin_matrices(cls, beta, gamma)
    count = 0
    for A in stream:
        print(A.to_text())
        print()
        count += 1
    return {"count": count}


def cmd_selftest(args) -> None:
    from fractions import Fraction as F

    from .additivity import (
        AdditivityCertificate,
        HeisenbergMatrix,
        build_constraint_matrix,
        check_certificate,
        flatten,
        is_additive,
        stable_triple,
    )
    from .coefficients import kron_coeff, lr_coeff
    from .symfun import kostka

    worked = HeisenbergMatrix([(0, 4, 6, 1), (4, 5, 7, 2), (2, 3, 5, 0)])
    reference = AdditivityCertificate(
        x=(F(0), F(1), F(-1)), y=(F(0), F(1), F(3), F(-2)))

    checks = []

    def check(name, fn):
        try:
            ok = bool(fn())
        except Exception as exc:  # a selftest must never crash the table
            ok = False
            _warn(f"{name}: {exc}")
        checks.append((name, ok))

    check("sorted entries of the worked margin matrix",
          lambda: worked.pi == (7, 6, 5, 5, 4, 4, 3, 2, 2, 1))
    check("worked matrix margins",
          lambda: worked.row_margins == (18, 10) and worked.col_margins == (12, 18, 3))
    check("flatten order on the worked matrix",
          lambda: flatten(worked) == (4, 6, 1, 4, 5, 7, 2, 2, 3, 5, 0))
    check("reference potentials validate",
          lambda: check_certificate(worked, reference))
    check("solver certifies the worked matrix",
          lambda: is_additive(worked) is not None)
    check("certified triple of the worked matrix",
          lambda: (lambda t: t is not None and
                   (t.alpha, tuple(t.beta), tuple(t.gamma)) ==
                   ((7, 6, 5, 5, 4, 4, 3, 2, 2, 1), (18, 10), (12, 18, 3)))(
                       stable_triple(worked)))
    check("margin constraint matrix (2,3), bit-exact",
          lambda: build_constraint_matrix(2, 3) == (
              (0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0),
              (0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
              (1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0),
              (0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0),
              (0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1)))
    check("unit split coefficient c[(2,2,1); (2,1),(2)] = 1",
          lambda: lr_coeff((2, 2, 1), (2, 1), (2,)) == 1)
    check("kostka positivity boundary K[(1,1),(2)] = 0",
          lambda: kostka((1, 1), (2,)) == 0)
    check("unit diagonal kostka K[(2,1),(2,1)] = 1",
          lambda: kostka((2, 1), (2, 1)) == 1)
    check("classical stable direction scan: g stays 1 up to n=6",
          lambda: all(kron_coeff((n,), (n,), (n,)) == 1 for n in range(1, 7)))
    check("scaled values grow on a refuted split triple",
          lambda: all(
              lr_coeff(tuple(n * x for x in (3, 2, 1)),
                       tuple(n * x for x in (2, 1)),
                       tuple(n * x for x in (2, 1))) >= n + 1
              for n in range(1, 4)))

    width = max(len(name) for name, _ in checks)
    failures = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} conformance checks passed")
    if failures:
        raise SelftestFailure(f"{failures}/{len(checks)} conformance checks failed")


def _int_at_least(low: int):
    """argparse type: an int in ASCII digits no smaller than low; anything
    else exits 2."""
    def parse(text: str) -> int:
        value = _integer_token(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse says "invalid int value" on a non-integer
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heisenstab",
        description="Exact structure constants and stability of partition triples.")
    sub = ap.add_subparsers(dest="command", required=True)
    kinds = [k.value for k in Kind]

    c = sub.add_parser("coeff", help="one coefficient value")
    c.add_argument("kind", choices=kinds)
    _partition_args(c, "lambda", "mu", "nu")
    c.add_argument("--oracle", action="store_true",
                   help="run the independent second engine and compare")
    c.set_defaults(fn=cmd_coeff)

    s = sub.add_parser("seq", help="stabilization sequence along a direction")
    s.add_argument("kind", choices=kinds)
    _partition_args(s, "lambda", "mu", "nu", "alpha", "beta", "gamma")
    s.add_argument("--n", type=_int_at_least(0), default=8, help="scan n = 0..N (default 8)")
    s.add_argument("--window", type=_int_at_least(2), default=4,
                   help="tail window for the heuristic limit, >= 2 (default 4)")
    s.set_defaults(fn=cmd_seq)

    st = sub.add_parser("stable", help="stability report for a triple")
    _partition_args(st, "alpha", "beta", "gamma")
    st.add_argument("--n-max", type=_int_at_least(1), default=8, dest="n_max",
                    help="scan n = 1..N, N >= 1 (default 8)")
    st.set_defaults(fn=cmd_stable)

    ad = sub.add_parser("additive", help="additivity certificate for a matrix file")
    ad.add_argument("--matrix", required=True, help="text file, one row per line")
    ad.add_argument("--kind", choices=_MATRIX_KIND_KEYS, required=True)
    ad.set_defaults(fn=cmd_additive)

    en = sub.add_parser("enumerate", help="stream all matrices with given margins")
    en.add_argument("--rows", required=True, help="row margins, comma-separated")
    en.add_argument("--cols", required=True, help="column margins, comma-separated")
    en.add_argument("--kind", choices=_MATRIX_KIND_KEYS, required=True)
    en.add_argument("--pi", default=None,
                    help="restrict to matrices with this sorted entry sequence")
    en.set_defaults(fn=cmd_enumerate)

    vc = sub.add_parser("verify-cache",
                        help="check every record of the coefficient cache")
    vc.set_defaults(fn=cmd_verify_cache)

    se = sub.add_parser("selftest", help="run the conformance table")
    se.set_defaults(fn=cmd_selftest)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obj = args.fn(args)
        if obj is not None:
            print(json.dumps(obj))
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return EXIT_OK
    except tuple(_EXITS) as exc:
        code, template = next(_EXITS[c] for c in type(exc).__mro__ if c in _EXITS)
        _warn(template.format(exc))
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so that
        # the interpreter's flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
