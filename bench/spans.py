"""Span tracing of the heisenstab layers, installed from outside the package.

The tracer rebinds public functions of the package modules to timing
wrappers.  Every module attribute (and every value of a module-level dict,
such as the CLI's engine tables) that is the original function object is
replaced, so the ``from ... import`` copies in ``stability``,
``coefficients`` and ``cli`` are traced too.  Generators are wrapped so that
each ``next()`` is its own span.  ``Partition`` construction is counted
without a span: it happens millions of times.

Spans (name, start, end, parent) are kept in compact arrays and written out
once at the end.  A layer's self time is its span time minus the time its
direct child spans cover; spans nest because the load is single-threaded.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

# (module, attribute, how) for every traced public function.
#   "call": one span per call; "gen": one span per next() of the result.
TARGETS = (
    ("partitions", "partitions_of", "gen"),
    ("partitions", "subpartitions_of_size", "gen"),
    ("symfun", "character_vector", "call"),
    ("symfun", "kostka", "call"),
    ("symfun", "schur_in_h_basis", "call"),
    ("coefficients", "lr_coeff", "call"),
    ("coefficients", "kron_coeff", "call"),
    ("coefficients", "heisenberg_coeff", "call"),
    ("coefficients", "heisenberg_component", "call"),
    ("coefficients", "lr_coeff_hive", "call"),
    ("coefficients", "heisenberg_coeff_oracle", "call"),
    ("coefficients", "kron_coeff_oracle", "call"),
    ("stability", "stabilization_sequence", "call"),
    ("additivity", "kronecker_matrices", "gen"),
    ("additivity", "heisenberg_matrices", "gen"),
    ("additivity", "kronecker_stable_triple", "call"),
    ("additivity", "heisenberg_stable_triple", "call"),
    ("ratfeas", "solve_strict", "call"),
    ("cli", "load_cache", "call"),
    ("cli", "append_cache", "call"),
)

GENERATORS = {f"{m}.{a}" for m, a, how in TARGETS if how == "gen"}

# Memo dicts whose growth turns a call count into a hit ratio.
MEMO_DICTS = {
    "lr_coeff": "_LR_CACHE",
    "kron_coeff": "_KRON_CACHE",
    "heisenberg_coeff": "_HEIS_CACHE",
}

ENGINES = ("lr_coeff", "kron_coeff", "heisenberg_coeff",
           "lr_coeff_hive", "heisenberg_coeff_oracle", "kron_coeff_oracle")

# Raw totals merge by sum, except these, which merge by max.
MAX_KEYS = ("ratfeas.rows_in.max", "ratfeas.vars_in.max",
            "symfun.memo_entries", "coefficients.memo_entries")


class Tracer:
    """In-memory span store plus plain counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def lines(self):
        """One line per span: name, start, end, parent index (-1 at the root)."""
        for i in range(len(self.start)):
            yield (f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                   f"{self.end[i]:.9f}\t{self.parent[i]}")


def self_times(names, name_of, start, end, parent) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children."""
    n = len(start)
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    out: dict[str, float] = {}
    for i in range(n):
        name = names[name_of[i]]
        out[name] = out.get(name, 0.0) + (end[i] - start[i]) - covered[i]
    return out


def _call_wrapper(tracer: Tracer, name: str, fn, after=None):
    nid = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(sid)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _gen_wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    open_, close, bump = tracer.open, tracer.close, tracer.bump

    def traced(it):
        while True:
            sid = open_(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                close(sid)
            bump(name + ".yielded")
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bump(name + ".calls")
        return traced(iter(fn(*args, **kwargs)))

    return wrapper


def _modules():
    return [m for k, m in sys.modules.items()
            if m is not None and (k == "heisenstab" or k.startswith("heisenstab."))]


def _rebind(original, replacement) -> None:
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, dict) and not attr.endswith("_CACHE"):
                for key, v in list(value.items()):
                    if v is original:
                        value[key] = replacement


def _memo_entries(modname: str) -> int:
    """Entries in every memo a module defines: lru_caches and *_CACHE dicts."""
    mod = sys.modules[f"heisenstab.{modname}"]
    total = 0
    for attr, value in vars(mod).items():
        while not hasattr(value, "cache_info") and hasattr(value, "__wrapped__"):
            value = value.__wrapped__
        if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod.__name__:
            total += value.cache_info().currsize
        elif attr.endswith("_CACHE") and isinstance(value, dict):
            total += len(value)
    return total


class LayerTrace:
    """Installs the tracer on the imported package and turns what it
    recorded into raw, mergeable per-layer totals."""

    def __init__(self):
        import heisenstab.cli  # noqa: F401  (loads every layer)
        from heisenstab import coefficients, partitions

        self.tracer = Tracer()
        self._coefficients = coefficients
        self._memo_start = {fn: len(getattr(coefficients, d, {}))
                            for fn, d in MEMO_DICTS.items()}
        self._install_partition_counter(partitions.Partition)
        for modname, attr, how in TARGETS:
            mod = sys.modules[f"heisenstab.{modname}"]
            original = getattr(mod, attr)
            name = f"{modname}.{attr}"
            if how == "gen":
                wrapper = _gen_wrapper(self.tracer, name, original)
            else:
                wrapper = _call_wrapper(self.tracer, name, original, self._after(attr))
            _rebind(original, wrapper)

    def _install_partition_counter(self, cls) -> None:
        original_new = cls.__new__
        counts = self.tracer.counts
        key = "partitions.Partition.calls"
        counts[key] = 0

        def counting_new(klass, *args, **kwargs):
            counts[key] += 1
            return original_new(klass, *args, **kwargs)

        cls.__new__ = staticmethod(counting_new)

    def _after(self, attr: str):
        bump, counts = self.tracer.bump, self.tracer.counts
        if attr == "solve_strict":
            def after(args, kwargs, result):
                rows = args[0] if args else kwargs["rows"]
                num_vars = args[1] if len(args) > 1 else kwargs["num_vars"]
                bump("ratfeas.feasible", result is not None)
                bump("ratfeas.rows_in.sum", len(rows))
                counts["ratfeas.rows_in.max"] = max(counts.get("ratfeas.rows_in.max", 0), len(rows))
                counts["ratfeas.vars_in.max"] = max(counts.get("ratfeas.vars_in.max", 0), num_vars)
            return after
        if attr.endswith("_stable_triple"):
            def after(args, kwargs, result):
                bump("additivity.additive", result is not None)
            return after
        if attr == "load_cache":
            def after(args, kwargs, result):
                path = args[0] if args else kwargs["path"]
                try:
                    with open(path, "rb") as fh:
                        bump("cli.load_cache.lines", fh.read().count(b"\n"))
                except OSError:
                    pass
            return after
        return None

    def engine_s(self) -> float:
        """Time in coefficient engines called from outside any engine."""
        t = self.tracer
        engines = {t.name_id(f"coefficients.{e}") for e in ENGINES}
        total = 0.0
        for i in range(len(t.start)):
            p = t.parent[i]
            if t.name_of[i] in engines and (p < 0 or t.name_of[p] not in engines):
                total += t.end[i] - t.start[i]
        return total

    def raw(self) -> dict[str, float]:
        """Mergeable totals: counts and self times add up across processes,
        the keys in MAX_KEYS take the maximum."""
        t = self.tracer
        selfs = self_times(t.names, t.name_of, t.start, t.end, t.parent)
        calls: dict[str, int] = {}
        for nid in t.name_of:
            calls[t.names[nid]] = calls.get(t.names[nid], 0) + 1
        out: dict[str, float] = dict(t.counts)
        for name, value in selfs.items():
            out[name + ".self_s"] = value
        for name, value in calls.items():
            if name not in GENERATORS:  # their spans count next() calls
                out[name + ".calls"] = value
        for fn, d in MEMO_DICTS.items():
            size = len(getattr(self._coefficients, d, {}))
            out[f"coefficients.{fn}.growth"] = size - self._memo_start[fn]
        out["symfun.memo_entries"] = _memo_entries("symfun")
        out["coefficients.memo_entries"] = _memo_entries("coefficients")
        return out


def merge(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        if key in MAX_KEYS:
            out[key] = max(out.get(key, 0), value)
        else:
            out[key] = out.get(key, 0) + value
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict) -> dict[str, float]:
    """The per-layer metrics, by name, from merged raw totals."""
    g = lambda key: raw.get(key, 0)  # noqa: E731
    m = {
        "partitions.Partition.calls": g("partitions.Partition.calls"),
        "partitions.subpartitions_of_size.calls": g("partitions.subpartitions_of_size.calls"),
        "partitions.subpartitions_of_size.yielded": g("partitions.subpartitions_of_size.yielded"),
        "partitions.self_s": g("partitions.subpartitions_of_size.self_s") + g("partitions.partitions_of.self_s"),
        "symfun.character_vector.calls": g("symfun.character_vector.calls"),
        "symfun.character_vector.self_s": g("symfun.character_vector.self_s"),
        "symfun.memo_entries": g("symfun.memo_entries"),
        "symfun.kostka.self_s": g("symfun.kostka.self_s"),
        "symfun.schur_in_h_basis.self_s": g("symfun.schur_in_h_basis.self_s"),
    }
    for fn in MEMO_DICTS:
        calls = g(f"coefficients.{fn}.calls")
        m[f"coefficients.{fn}.calls"] = calls
        m[f"coefficients.{fn}.self_s"] = g(f"coefficients.{fn}.self_s")
        m[f"coefficients.{fn}.hit_ratio"] = _ratio(calls - g(f"coefficients.{fn}.growth"), calls)
    for fn in ("heisenberg_component", "lr_coeff_hive", "heisenberg_coeff_oracle", "kron_coeff_oracle"):
        m[f"coefficients.{fn}.self_s"] = g(f"coefficients.{fn}.self_s")
    decided = g("additivity.heisenberg_stable_triple.calls") + g("additivity.kronecker_stable_triple.calls")
    solves = g("ratfeas.solve_strict.calls")
    m.update({
        "coefficients.memo_entries": g("coefficients.memo_entries"),
        "stability.stabilization_sequence.calls": g("stability.stabilization_sequence.calls"),
        "stability.stabilization_sequence.self_s": g("stability.stabilization_sequence.self_s"),
        "additivity.matrices_enumerated": g("additivity.heisenberg_matrices.yielded") + g("additivity.kronecker_matrices.yielded"),
        "additivity.enumerate.self_s": g("additivity.heisenberg_matrices.self_s") + g("additivity.kronecker_matrices.self_s"),
        "additivity.stable_triple.self_s": g("additivity.heisenberg_stable_triple.self_s") + g("additivity.kronecker_stable_triple.self_s"),
        "additivity.additive_ratio": _ratio(g("additivity.additive"), decided),
        "ratfeas.solve_strict.calls": solves,
        "ratfeas.solve_strict.self_s": g("ratfeas.solve_strict.self_s"),
        "ratfeas.rows_in.sum": g("ratfeas.rows_in.sum"),
        "ratfeas.rows_in.max": g("ratfeas.rows_in.max"),
        "ratfeas.vars_in.max": g("ratfeas.vars_in.max"),
        "ratfeas.feasible_ratio": _ratio(g("ratfeas.feasible"), solves),
        "cli.import_s": g("cli.import_s"),
        "cli.load_cache.self_s": g("cli.load_cache.self_s"),
        "cli.load_cache.lines": g("cli.load_cache.lines"),
        "cli.append_cache.calls": g("cli.append_cache.calls"),
        "cli.append_cache.self_s": g("cli.append_cache.self_s"),
        "cli.engine_s": g("cli.engine_s"),
    })
    return m
