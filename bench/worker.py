"""One repetition of a workload, in a fresh interpreter.

    python3 bench/worker.py gen WORKLOAD SEED REP DIR
        writes DIR/inputs.json (and, for cli, the cache file).
    python3 bench/worker.py run WORKLOAD DIR OPS TRACE
        loads DIR/inputs.json, times the first OPS ops of its stream, then
        checks every output and prints one JSON object.

The run step times only the op stream; it imports nothing of the package
before that beyond what the stream needs, so every memo starts cold.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import json
import os
import random
import resource
import sys
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CAL_EVERY = 0.2
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402


def calibration_loop() -> int:
    """A fixed piece of pure-Python work (tuples, dict lookups, arithmetic)."""
    d: dict = {}
    for i in range(10000):
        t = (i % 97, i % 89, i % 83)
        d[t] = d.get(t, 0) + min(t)
    return len(d)


def calibration_s() -> float:
    """Seconds the calibration loop takes.  The collector is off meanwhile:
    a collection would walk the program's heap, so the figure would move
    with the size of the program's memos instead of the machine's speed."""
    gc.disable()
    try:
        t0 = perf_counter()
        calibration_loop()
        return perf_counter() - t0
    finally:
        gc.enable()


class Context:
    def __init__(self, workdir: str, trace: bool):
        self.workdir = workdir
        self.bench_dir = BENCH_DIR
        self.trace = trace
        self.trace_files: list[str] = []
        self.classes: list = []
        self.misses_done = 0


def gen(name: str, seed: int, rep: int, workdir: str) -> None:
    rng = random.Random(f"{name}:{seed}:{rep}")
    inputs = WORKLOADS[name].generate(rng, rep, workdir)
    with open(os.path.join(workdir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(inputs, fh, separators=(",", ":"))


def run(name: str, workdir: str, n_ops: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    with open(os.path.join(workdir, "inputs.json"), encoding="utf-8") as fh:
        inputs = json.load(fh)
    ctx = Context(workdir, trace)
    layer = None
    if trace and name != "cli":
        from spans import LayerTrace

        layer = LayerTrace()
    stream = workload.stream(inputs, ctx)
    specs, outs, lats, hits = [], [], [], []

    # Between ops, every CAL_EVERY seconds, and once after the last op, time
    # the calibration loop; that time is left out of the wall time.  A shared
    # machine flips between speeds about 1.7x apart within a second, so each
    # op is paired with the mean of the calibrations just before and after it.
    cal_t, cal, op_t = [], [], []
    first_op = perf_counter()
    next_cal = first_op
    for spec, thunk in itertools.islice(stream, n_ops):
        if perf_counter() >= next_cal:
            cal_t.append(perf_counter())
            cal.append(calibration_s())
            next_cal = perf_counter() + CAL_EVERY
        t0 = perf_counter()
        op_t.append(t0)
        try:
            out = thunk()
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = exc
        lats.append(perf_counter() - t0)
        specs.append(spec)
        outs.append(out)
        hits.append(workload.is_hit(spec))
    wall = perf_counter() - first_op - sum(cal)
    stream.close()
    cal_t.append(perf_counter())
    cal.append(calibration_s())
    op_cal = [(cal[i - 1] + cal[i]) / 2 for i in (bisect.bisect(cal_t, t) for t in op_t)]

    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    raw = None
    if layer is not None:
        raw = layer.raw()
        with open(os.path.join(workdir, "spans.tsv"), "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in layer.tracer.lines())
    elif trace:
        raw = merge_cli_traces(ctx.trace_files, os.path.join(workdir, "spans.tsv"))

    ok = []
    for spec, out in zip(specs, outs):
        try:
            ok.append(not isinstance(out, Exception) and bool(workload.check(spec, out)))
        except Exception:  # a check that cannot read the output rejects it
            ok.append(False)
    ctx.misses_done = hits.count(False)
    problems = [f"op {i}: {out!r}" for i, out in enumerate(outs) if isinstance(out, Exception)][:5]
    problems += workload.final_failures(inputs, ctx)
    return {"first_op": first_op, "wall_s": wall, "lat_s": lats, "hit": hits, "ok": ok,
            "problems": problems, "rss_mb": rss_mb, "cal_s": sorted(cal)[len(cal) // 2], "op_cal_s": op_cal,
            "trace": raw}


def merge_cli_traces(paths: list[str], spans_out: str) -> dict:
    """Sum the per-process totals each traced CLI process wrote, and gather their
    spans into one file, one op per block."""
    from spans import merge

    raw: dict = {}
    with open(spans_out, "w", encoding="utf-8") as out:
        for i, path in enumerate(paths):
            if not os.path.exists(path):  # the op failed before writing it
                continue
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            raw = merge(raw, rec["raw"])
            for line in rec["spans"]:
                out.write(f"{i}\t{line}\n")
    return raw


def main(argv: list[str]) -> int:
    if argv[0] == "gen":
        name, seed, rep, workdir = argv[1], int(argv[2]), int(argv[3]), argv[4]
        gen(name, seed, rep, workdir)
        return 0
    name, workdir, n_ops, trace = argv[1], argv[2], int(argv[3]), argv[4] == "1"
    print(json.dumps(run(name, workdir, n_ops, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
