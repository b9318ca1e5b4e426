"""The heisenstab benchmark: one seeded workload per run, every metric by name.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Each repetition generates its inputs from the seed in one fresh interpreter
and times the op stream in another (``worker.py``), so every memo starts
cold.  A run makes REPS repetitions and pools their ops; every output is
checked after its repetition's timed region.  A repetition does a fixed
number of ops, RATE * SECONDS / REPS: the work depends only on the seed and
SECONDS, never on the speed of the machine or of the code, and a run
measures about SECONDS on the machine RATE was taken on.

The speed of a shared virtual machine flips between levels about 1.7x
apart, often within a second, so the worker also times a fixed calibration
loop between ops, every 0.2 s of the timed region (and leaves that time
out).  Latencies and throughput are reported at the reference speed: each
op's latency is multiplied by CAL_REF over the mean of the calibrations
just before and just after it.  The record line keeps the unscaled
metrics and each repetition's median calibration time.

--trace 0 prints the end-to-end metrics.  --trace 1 instead runs the first
repetition twice, untraced and then with every layer wrapped in spans,
and prints the per-layer totals of the traced pass, which repeat exactly
for a seed; trace.overhead_frac compares the two passes' scaled wall times.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it records the seed, input digest, Python
version, nproc and git commit.  For cli, the only workload whose ops are
hits (queries the cache holds) or misses, it also gives hit_p50_ms and
miss_p50_ms: the result line holds only metrics every workload has.
``--write-spec`` rewrites BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

REPS = 3
MIN_OPS = 100          # per run, so at least ten samples lie beyond p90
RUN_SECONDS = 20
# Ops per second at the parent of the commit that added the benchmark, on a
# shared 2-vCPU virtual machine (Xeon, 2.1 GHz) with Python 3.11.
RATE = {"sweep": 230, "product": 30, "additivity": 21, "cli": 4.0}
# Median seconds of worker.calibration_loop on that machine.
CAL_REF = 0.0072

WORKLOADS = {
    "sweep": "stabilization sequences over the acceptance-07 space: memo hits and Partition re-validation",
    "product": "whole Heisenberg degree components of random pairs of sizes 5..7: the memo-miss path through LR and Kronecker",
    "additivity": "whole margin classes plus a (2,2,2,1)^2 cornered sample: enumeration and the Fourier-Motzkin solver",
    "cli": "one heisenstab coeff process per op against a 25k-line cache: start-up, cache load, oracles, cache appends",
}

# name, unit, better, bound (share of the parent's median a later change may
# lose).  Timings get the widest bound: even scaled to the reference speed,
# ten seeds of one commit spread by up to 0.16 (quartile distance over median).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

PER_LAYER = (
    ("partitions.Partition.calls", "count", "lower"),
    ("partitions.subpartitions_of_size.calls", "count", "lower"),
    ("partitions.subpartitions_of_size.yielded", "count", "lower"),
    ("partitions.self_s", "s", "lower"),
    ("symfun.character_vector.calls", "count", "lower"),
    ("symfun.character_vector.self_s", "s", "lower"),
    ("symfun.memo_entries", "count", "lower"),
    ("symfun.kostka.self_s", "s", "lower"),
    ("symfun.schur_in_h_basis.self_s", "s", "lower"),
    ("coefficients.lr_coeff.calls", "count", "lower"),
    ("coefficients.lr_coeff.self_s", "s", "lower"),
    ("coefficients.lr_coeff.hit_ratio", "ratio", "higher"),
    ("coefficients.kron_coeff.calls", "count", "lower"),
    ("coefficients.kron_coeff.self_s", "s", "lower"),
    ("coefficients.kron_coeff.hit_ratio", "ratio", "higher"),
    ("coefficients.heisenberg_coeff.calls", "count", "lower"),
    ("coefficients.heisenberg_coeff.self_s", "s", "lower"),
    ("coefficients.heisenberg_coeff.hit_ratio", "ratio", "higher"),
    ("coefficients.heisenberg_component.self_s", "s", "lower"),
    ("coefficients.lr_coeff_hive.self_s", "s", "lower"),
    ("coefficients.heisenberg_coeff_oracle.self_s", "s", "lower"),
    ("coefficients.kron_coeff_oracle.self_s", "s", "lower"),
    ("coefficients.memo_entries", "count", "lower"),
    ("stability.stabilization_sequence.calls", "count", "lower"),
    ("stability.stabilization_sequence.self_s", "s", "lower"),
    ("additivity.matrices_enumerated", "count", "lower"),
    ("additivity.enumerate.self_s", "s", "lower"),
    ("additivity.stable_triple.self_s", "s", "lower"),
    ("additivity.additive_ratio", "ratio", "higher"),
    ("ratfeas.solve_strict.calls", "count", "lower"),
    ("ratfeas.solve_strict.self_s", "s", "lower"),
    ("ratfeas.rows_in.sum", "count", "lower"),
    ("ratfeas.rows_in.max", "count", "lower"),
    ("ratfeas.vars_in.max", "count", "lower"),
    ("ratfeas.feasible_ratio", "ratio", "higher"),
    ("cli.import_s", "s", "lower"),
    ("cli.load_cache.self_s", "s", "lower"),
    ("cli.load_cache.lines", "count", "lower"),
    ("cli.append_cache.calls", "count", "lower"),
    ("cli.append_cache.self_s", "s", "lower"),
    ("cli.engine_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


class BenchError(RuntimeError):
    pass


def _env(workdir: str) -> dict:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""),
                PYTHONHASHSEED="0",
                HEIS_CACHE=os.path.join(workdir, "heisenstab.cache"))


def _worker(args: list, workdir: str, timeout: float) -> str:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), *map(str, args)],
                          cwd=ROOT, env=_env(workdir), capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} {args[1]} failed:\n{proc.stderr}")
    return proc.stdout


def ops_per_rep(workload: str, seconds: float) -> int:
    return max(-(-MIN_OPS // REPS), round(RATE[workload] * seconds / REPS))


def repetition(workload: str, seed: int, rep: int, workdir: str, n_ops: int, trace: bool) -> dict:
    """Generate, then run; setup_s spans both up to the first timed op."""
    os.makedirs(workdir, exist_ok=True)
    t0 = perf_counter()
    _worker(["gen", workload, seed, rep, workdir], workdir, timeout=120)
    digest = _digest(workdir)  # of the inputs, before the run appends to the cache
    out = json.loads(_worker(["run", workload, workdir, n_ops, int(trace)],
                             workdir, timeout=170).splitlines()[-1])
    out["setup_s"] = out["first_op"] - t0  # perf_counter is system-wide on Linux
    out["input_digest"] = digest
    return out


def percentile(values: list, q: float) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def at_reference(rep: dict, scaled: bool) -> tuple[list[float], float]:
    """A repetition's op latencies and wall time.  Scaled, each latency is
    multiplied by CAL_REF over its op's calibration time, and the wall time
    by the mean of those factors, weighted by latency."""
    if not scaled:
        return rep["lat_s"], rep["wall_s"]
    lat = [x * CAL_REF / c for x, c in zip(rep["lat_s"], rep["op_cal_s"])]
    return lat, rep["wall_s"] * sum(lat) / sum(rep["lat_s"])


def end_to_end(reps: list[dict], scaled: bool) -> dict:
    """setup_s, measured before the timed region, is never scaled."""
    timed = [at_reference(r, scaled) for r in reps]
    lat = [x for r_lat, _ in timed for x in r_lat]
    passed = sum(sum(r["ok"]) for r in reps)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "ops_per_s": passed / sum(wall for _, wall in timed),
        "op_p50_ms": percentile(lat, 0.5) * 1e3,
        "op_p90_ms": percentile(lat, 0.9) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }


def hit_split(reps: list[dict], scaled: bool) -> dict | None:
    """Median latency of hits and of misses, for a workload that tells them
    apart (only cli); None for the others."""
    pairs = [(x, h) for r in reps for x, h in zip(at_reference(r, scaled)[0], r["hit"])]
    hit = [x for x, h in pairs if h]
    miss = [x for x, h in pairs if not h]
    if not hit or not miss:
        return None
    return {"hit_p50_ms": percentile(hit, 0.5) * 1e3, "miss_p50_ms": percentile(miss, 0.5) * 1e3}


def _digest(workdir: str) -> str:
    h = hashlib.sha256()
    for name in ("inputs.json", "cache.jsonl"):
        if os.path.exists(os.path.join(workdir, name)):
            with open(os.path.join(workdir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def bench(workload: str, seed: int, seconds: float, trace: bool, work: str) -> tuple[dict, dict]:
    """Returns (result line, record line)."""
    n = ops_per_rep(workload, seconds)
    if trace:
        plain = repetition(workload, seed, 0, os.path.join(work, "rep0"), n, False)
        traced = repetition(workload, seed, 0, os.path.join(work, "traced"), n, True)
        from spans import layer_metrics

        metrics = layer_metrics(traced["trace"])
        scaled_wall = [at_reference(r, True)[1] for r in (plain, traced)]
        metrics["trace.overhead_frac"] = scaled_wall[1] / scaled_wall[0] - 1
        os.makedirs(os.path.join(ROOT, ".bench_trace"), exist_ok=True)
        shutil.copyfile(os.path.join(work, "traced", "spans.tsv"),
                        os.path.join(ROOT, ".bench_trace", f"{workload}.spans.tsv"))
        reps, inputs, raw, split = [plain, traced], [plain], None, None
    else:
        reps = [repetition(workload, seed, k, os.path.join(work, f"rep{k}"), n, False)
                for k in range(REPS)]
        metrics = end_to_end(reps, True)
        raw = end_to_end(reps, False)
        inputs, split = reps, hit_split(reps, True)
    attempted = sum(len(r["ok"]) for r in reps)
    failed = attempted - sum(sum(r["ok"]) for r in reps)
    problems = [p for r in reps for p in r["problems"]]
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "reps": len(reps),
        "input_digest": hashlib.sha256("".join(r["input_digest"] for r in inputs).encode()
                                       ).hexdigest()[:16],
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": _commit(),
        "failed_frac": failed / attempted, "hits": sum(sum(r["hit"]) for r in reps),
        "hit_split": split,
        "calibration_s": [r["cal_s"] for r in reps], "unscaled": raw,
        "problems": problems[:10],
    }
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true",
                    help="rewrite BENCHMARK.json from the definitions above and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump(spec(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "heisenstab", "__init__.py")):
        print(f"bench: no heisenstab package under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result, record = bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{name:<45} {m['value']:>14.6g} {m['unit']}")
    for name, value in (record["hit_split"] or {}).items():
        print(f"{name:<45} {value:>14.6g} ms (record line only)")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
