"""Command-line front end: exact coefficients, stabilization scans,
stability reports, additivity certificates, and matrix enumeration.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 parse error, 3 size-pattern error, 4 engine mismatch or cache integrity
failure, 5 enumeration budget exceeded, 1 selftest failure or stdout closed
by its reader.

A persistent cache of coefficient values lives in a single append-friendly
text file (one JSON record per line) at ~/.cache/heisenstab.cache, or
wherever HEIS_CACHE points.  The cache is an accelerator only: corrupt
lines anywhere in the file are skipped with a warning.  `coeff` decodes
only the records of the query it asks, and two of those that disagree (two
values for one engine, or a primary and an oracle value) are a fatal
integrity error; `verify-cache` applies the same check to every query in
the file.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from typing import Optional

from .additivity import (
    MATRIX_KINDS,
    BudgetExceededError,
    HeisenbergMatrix,
    MatrixParseError,
    build_constraint_matrix,
    check_budget,
    check_certificate,
    flatten,
    is_additive,
    margin_class,
    margin_matrices,
    parse_matrix,
    stable_triple,
    AdditivityCertificate,
)
from .coefficients import kron_coeff, lr_coeff
from .partitions import Composition, NotAPartitionError, Partition, _integer_token
from .stability import (
    ORACLE,
    PRIMARY,
    Kind,
    NotATripleError,
    classify_triple,
    detect_stable_limit,
    size_pattern_ok,
    stability_check,
    stabilization_sequence,
)
from .symfun import kostka

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_PARSE = 2
EXIT_SIZES = 3
EXIT_MISMATCH = 4
EXIT_BUDGET = 5


def _warn(msg: str) -> None:
    print(f"heisenstab: {msg}", file=sys.stderr)


class CacheIntegrityError(RuntimeError):
    pass


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


def _lines_to_decode(text: str, q: Optional[str]):
    """(line number, line) for the lines of text that load_cache decodes:
    every line when q is None, else the lines of q and every line _RECORD
    does not match, so that corrupt lines are still found file-wide.  A line
    _RECORD matches holds the needle below only at its start, and only when
    its q is q."""
    if q is None:
        return enumerate(text.split("\n"), 1)
    needle = f'{{"q": {json.dumps(q)}, '
    if not _RECORD.sub("", text).strip():
        # every non-blank line is a record as append_cache writes it
        found = []
        pos = text.find(needle)
        while pos >= 0:
            end = text.find("\n", pos)
            end = len(text) if end < 0 else end
            found.append((text.count("\n", 0, pos) + 1, text[pos:end]))
            pos = text.find(needle, end)
        return found
    return ((lineno, line) for lineno, line in enumerate(text.split("\n"), 1)
            if line.startswith(needle) or not _RECORD.fullmatch(line))


def load_cache(path: str, q: Optional[str]) -> dict[tuple[str, str], int]:
    """The records of query q in the cache file, keyed (q, engine), or those
    of every query when q is None.  Corrupt lines anywhere in the file are
    skipped with a warning; records that conflict among those returned raise
    CacheIntegrityError."""
    records: dict[tuple[str, str], int] = {}
    try:
        # a byte that is not UTF-8 reads as a lone surrogate, so that the
        # loop refuses only its own line
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            text = fh.read()
    except OSError:
        return records
    for lineno, line in _lines_to_decode(text, q):
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
            raise CacheIntegrityError(
                f"cache holds conflicting values for {rec_q} [{engine}]: "
                f"{records[key]} vs {value}")
        records[key] = value
    for (rec_q, engine), value in records.items():
        other = records.get((rec_q, "oracle" if engine == "primary" else "primary"))
        if other is not None and other != value:
            raise CacheIntegrityError(
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


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_coeff(args) -> int:
    try:
        lam = Partition.parse(args.lam)
        mu = Partition.parse(args.mu)
        nu = Partition.parse(args.nu)
    except NotAPartitionError as exc:
        _warn(str(exc))
        return EXIT_PARSE
    kind = Kind(args.kind)
    if not size_pattern_ok(kind, lam, mu, nu):
        _warn(f"sizes ({lam.size}; {mu.size}, {nu.size}) do not fit kind {args.kind}")
        return EXIT_SIZES
    path = cache_path()
    q = f"{args.kind} {lam} {mu} {nu}"
    try:
        cache = load_cache(path, q)
    except CacheIntegrityError as exc:
        _warn(str(exc))
        return EXIT_MISMATCH

    def run(engine: str) -> int:
        key = (q, engine)
        if key in cache:
            return cache[key]
        fn = (PRIMARY if engine == "primary" else ORACLE)[kind]
        value = fn(lam, mu, nu)
        append_cache(path, q, engine, value)
        return value

    t0 = time.perf_counter()
    value = run("primary")
    engine = "primary"
    if args.oracle:
        oracle_value = run("oracle")
        if oracle_value != value:
            _warn(f"engine mismatch on {q}: primary={value} oracle={oracle_value}")
            return EXIT_MISMATCH
        engine = "both"
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    _emit({"kind": args.kind, "lambda": str(lam), "mu": str(mu), "nu": str(nu),
           "value": value, "engine": engine, "elapsed_ms": round(elapsed_ms, 3)})
    return EXIT_OK


def cmd_verify_cache(args) -> int:
    try:
        records = load_cache(cache_path(), None)
    except CacheIntegrityError as exc:
        _warn(str(exc))
        return EXIT_MISMATCH
    _emit({"records": len(records)})
    return EXIT_OK


def cmd_seq(args) -> int:
    try:
        base = tuple(Partition.parse(t) for t in (args.lam, args.mu, args.nu))
        direction = tuple(Partition.parse(t) for t in (args.alpha, args.beta, args.gamma))
    except NotAPartitionError as exc:
        _warn(str(exc))
        return EXIT_PARSE
    kind = Kind(args.kind)
    try:
        seq = stabilization_sequence(kind, base, direction, range(0, args.n + 1))
    except ValueError as exc:
        _warn(str(exc))
        return EXIT_SIZES
    values = [v for _, v in seq]
    hit = detect_stable_limit(values, window=args.window)
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
    _emit(out)
    return EXIT_OK


def cmd_stable(args) -> int:
    try:
        alpha = Partition.parse(args.alpha)
        beta = Partition.parse(args.beta)
        gamma = Partition.parse(args.gamma)
    except NotAPartitionError as exc:
        _warn(str(exc))
        return EXIT_PARSE
    try:
        triple = classify_triple(alpha, beta, gamma)
    except NotATripleError as exc:
        _warn(f"not a triple ({exc.reason}): {exc}")
        return EXIT_SIZES
    report = stability_check(triple, n_max=args.n_max)
    out = {
        "alpha": str(alpha), "beta": str(beta), "gamma": str(gamma),
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
    _emit(out)
    return EXIT_OK


def cmd_additive(args) -> int:
    try:
        with open(args.matrix, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        _warn(f"cannot read matrix file: {exc}")
        return EXIT_PARSE
    try:
        A = parse_matrix(text, args.kind)
    except MatrixParseError as exc:
        _warn(f"bad matrix: {exc}")
        return EXIT_PARSE
    result = stable_triple(A)
    out = {"kind": args.kind, "additive": result is not None}
    if result is not None:
        out["certificate"] = result.certificate.as_json()
        out["triple"] = {
            "alpha": str(result.alpha),
            "beta": ",".join(map(str, result.beta)) or "0",
            "gamma": ",".join(map(str, result.gamma)) or "0",
        }
    _emit(out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    try:
        beta = Composition.parse(args.rows)
        gamma = Composition.parse(args.cols)
        pi = Partition.parse(args.pi) if args.pi is not None else None
    except (NotAPartitionError, ValueError) as exc:
        _warn(str(exc))
        return EXIT_PARSE
    cls = MATRIX_KINDS[args.kind]
    try:
        check_budget(cls, beta, gamma)
    except BudgetExceededError as exc:
        _warn(str(exc))
        return EXIT_BUDGET
    stream = margin_class(cls, beta, gamma, pi) if pi is not None else margin_matrices(cls, beta, gamma)
    count = 0
    for A in stream:
        print(A.to_text())
        print()
        count += 1
    _emit({"count": count})
    return EXIT_OK


def cmd_selftest(args) -> int:
    from fractions import Fraction as F

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
          lambda: build_constraint_matrix(2, 3).rows == (
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
    return EXIT_OK if failures == 0 else EXIT_SELFTEST


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

    c = sub.add_parser("coeff", help="one coefficient value")
    c.add_argument("kind", choices=["lr", "kron", "heis"])
    c.add_argument("lam", metavar="lambda")
    c.add_argument("mu")
    c.add_argument("nu")
    c.add_argument("--oracle", action="store_true",
                   help="run the independent second engine and compare")
    c.set_defaults(fn=cmd_coeff)

    s = sub.add_parser("seq", help="stabilization sequence along a direction")
    s.add_argument("kind", choices=["lr", "kron", "heis"])
    s.add_argument("lam", metavar="lambda")
    s.add_argument("mu")
    s.add_argument("nu")
    s.add_argument("alpha")
    s.add_argument("beta")
    s.add_argument("gamma")
    s.add_argument("--n", type=_int_at_least(0), default=8, help="scan n = 0..N (default 8)")
    s.add_argument("--window", type=_int_at_least(2), default=4,
                   help="tail window for the heuristic limit, >= 2 (default 4)")
    s.set_defaults(fn=cmd_seq)

    st = sub.add_parser("stable", help="stability report for a triple")
    st.add_argument("alpha")
    st.add_argument("beta")
    st.add_argument("gamma")
    st.add_argument("--n-max", type=_int_at_least(1), default=8, dest="n_max",
                    help="scan n = 1..N, N >= 1 (default 8)")
    st.set_defaults(fn=cmd_stable)

    ad = sub.add_parser("additive", help="additivity certificate for a matrix file")
    ad.add_argument("--matrix", required=True, help="text file, one row per line")
    ad.add_argument("--kind", choices=list(MATRIX_KINDS), required=True)
    ad.set_defaults(fn=cmd_additive)

    en = sub.add_parser("enumerate", help="stream all matrices with given margins")
    en.add_argument("--rows", required=True, help="row margins, comma-separated")
    en.add_argument("--cols", required=True, help="column margins, comma-separated")
    en.add_argument("--kind", choices=list(MATRIX_KINDS), required=True)
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
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
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
