"""Tests of the benchmark itself: seeded generation, span arithmetic, the
output checks, and a tiny run of every workload."""

import json
import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Additivity,
    hook_dimension,
    load_verdicts,
    margin_classes,
    margin_matrices,
    partitions,
)


def _generated(tmp_path, name, seed):
    d = tmp_path / str(len(list(tmp_path.iterdir())))
    d.mkdir()
    worker.gen(name, seed, 1, str(d))
    return {f.name: f.read_bytes() for f in sorted(d.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic_per_seed(tmp_path, name):
    first = _generated(tmp_path, name, 7)
    assert _generated(tmp_path, name, 7) == first
    assert _generated(tmp_path, name, 8)["inputs.json"] != first["inputs.json"]


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]
    names = ["root", "a", "b", "c"]
    name_of = [0, 1, 2, 3]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    parent = [-1, 0, 0, 1]
    assert spans.self_times(names, name_of, start, end, parent) == {
        "root": 3.0, "a": 2.0, "b": 4.0, "c": 1.0}
    # two spans of one name add up
    assert spans.self_times(["f"], [0, 0], [0.0, 2.0], [1.0, 5.0], [-1, -1]) == {"f": 4.0}


def test_tracer_nests_wrapped_calls():
    tracer = spans.Tracer()
    inner = spans._call_wrapper(tracer, "inner", lambda: sum(range(1000)))
    outer = spans._call_wrapper(tracer, "outer", lambda: inner() + inner())
    outer()
    assert list(tracer.parent) == [-1, 0, 0]
    selfs = spans.self_times(tracer.names, tracer.name_of, tracer.start, tracer.end, tracer.parent)
    total = tracer.end[0] - tracer.start[0]
    assert selfs["outer"] + selfs["inner"] == pytest.approx(total)


def test_independent_oracles():
    assert [hook_dimension(lam) for lam in partitions(4)] == [1, 3, 2, 3, 1]
    # 2x2 contingency tables with margins (2,1),(1,2); cornered class of the worked example
    assert len(margin_matrices((2, 1), (1, 2), cornered=False)) == 2
    worked = ((0, 4, 6, 1), (4, 5, 7, 2), (2, 3, 5, 0))
    assert worked in margin_matrices((18, 10), (12, 18, 3), cornered=True)


def test_sweep_check_rejects_a_decreasing_sequence():
    from heisenstab.stability import Kind, stabilization_sequence

    spec = ("heis", ((2, 1), (2,), (1,)), ((1,), (1,), (1,)))
    out = stabilization_sequence(Kind.HEISENBERG, spec[1], spec[2], range(6))
    check = WORKLOADS["sweep"].check
    assert check(spec, out)
    bad = list(out)
    bad[2], bad[3] = (2, bad[3][1] + 1), (3, bad[2][1])
    assert bad[2][1] > bad[3][1]
    assert not check(spec, bad)
    assert not check(spec, out[:5])


def test_product_check_rejects_a_wrong_multiplicity():
    from heisenstab.coefficients import heisenberg_component

    spec = ((2, 1), (2,), 4)
    out = heisenberg_component(*spec)
    check = WORKLOADS["product"].check
    assert check(spec, out)
    terms = dict(out.terms)
    lam = next(iter(terms))
    terms[lam] += 1
    assert not check(spec, replace(out, terms=terms))
    terms = dict(out.terms)
    terms[lam] = 0
    assert not check(spec, replace(out, terms=terms))


def test_additivity_checks_reject_a_bad_certificate_and_a_bad_count():
    from fractions import Fraction

    from heisenstab.additivity import HeisenbergMatrix, heisenberg_stable_triple

    A = HeisenbergMatrix([(0, 4, 6, 1), (4, 5, 7, 2), (2, 3, 5, 0)])
    out = heisenberg_stable_triple(A)
    check = WORKLOADS["additivity"].check
    assert check(("h", A, True), out) and check(("h", A, False), None)
    assert not check(("h", A, True), None)  # a matrix wrongly found not additive
    assert not check(("h", A, False), out)
    cert = replace(out.certificate, x=tuple(Fraction(0) for _ in out.certificate.x))
    assert not check(("h", A, True), replace(out, certificate=cert))
    assert not check(("h", A, True), replace(out, alpha=out.alpha[:-1]))

    ctx = worker.Context("", False)
    ctx.classes = [("k", [2, 1], [1, 2], 2, 2), ("h", [1], [1], 4, 3)]
    failures = WORKLOADS["additivity"].final_failures({}, ctx)
    assert len(failures) == 1 and "expected 4" in failures[0]


def test_cli_checks_reject_wrong_values_codes_and_appends(tmp_path):
    spec = (0, "lr", "2,1", "1", "2")
    good = json.dumps({"kind": "lr", "lambda": "2,1", "mu": "1", "nu": "2",
                       "value": 1, "engine": "both", "elapsed_ms": 0.1}) + "\n"
    check = WORKLOADS["cli"].check
    assert check(spec, (0, good))
    assert not check(spec, (0, good.replace('"value": 1', '"value": 2')))
    assert not check(spec, (4, good))
    assert not check(spec, (0, good + good))
    assert not check((1, *spec[1:]), (0, good))  # a hit must not run the oracle

    (tmp_path / "cache.jsonl").write_text("a\nb\nc\n")
    ctx = worker.Context(str(tmp_path), False)
    ctx.misses_done = 1
    assert WORKLOADS["cli"].final_failures({"cache_lines": 1}, ctx) == []
    ctx.misses_done = 0
    assert WORKLOADS["cli"].final_failures({"cache_lines": 1}, ctx)


def test_verdict_table_covers_the_drawn_classes():
    table = load_verdicts()
    drawn = [(c["kind"], tuple(c["beta"]), tuple(c["gamma"])) for c in table["classes"]]
    assert drawn == margin_classes(Additivity.class_size)
    assert all(c["matrices"] == Additivity.class_size for c in table["classes"])
    sample = table["sample"]
    assert (tuple(sample["beta"]), tuple(sample["gamma"])) == Additivity.big
    assert sample["matrices"] == len(margin_matrices(*Additivity.big, cornered=True))


DRIVEN = {
    "sweep": "stability.stabilization_sequence.calls",
    "product": "coefficients.heisenberg_coeff.calls",
    "additivity": "ratfeas.solve_strict.calls",
    "cli": "cli.load_cache.lines",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_every_workload(tmp_path, name):
    rep = run.repetition(name, 5, 1, str(tmp_path / "plain"), 6, False)
    assert len(rep["ok"]) == 6 and all(rep["ok"]) and not rep["problems"]
    assert rep["setup_s"] > 0 and rep["rss_mb"] > 0
    traced = run.repetition(name, 5, 1, str(tmp_path / "traced"), 6, True)
    assert all(traced["ok"]) and not traced["problems"]
    metrics = spans.layer_metrics(traced["trace"])
    assert set(metrics) == {n for n, *_ in run.PER_LAYER} - {"trace.overhead_frac"}
    assert metrics[DRIVEN[name]] > 0


def test_end_to_end_metrics_pool_repetitions():
    reps = [{"lat_s": [0.001, 0.002, 0.003], "hit": [True, False, False], "ok": [True] * 3,
             "wall_s": 1.0, "setup_s": s, "rss_mb": 10.0, "op_cal_s": [run.CAL_REF] * 3}
            for s in (1.0, 2.0, 9.0)]
    m = run.end_to_end(reps, False)
    assert m["setup_s"] == 2.0 and m["ops_per_s"] == 3.0
    assert set(m) == {n for n, *_ in run.END_TO_END}
    assert run.end_to_end(reps, True) == pytest.approx(m)
    split = run.hit_split(reps, False)
    assert split["hit_p50_ms"] == pytest.approx(1.0) and split["miss_p50_ms"] == pytest.approx(2.5)
    assert run.hit_split([dict(r, hit=[False] * 3) for r in reps], False) is None
    # ops timed while the calibration loop took twice its reference time, on
    # a machine at half the reference speed, count half their times; set-up
    # happens outside the timed region
    slow = [dict(r, op_cal_s=[2 * run.CAL_REF] * 3) for r in reps]
    half = run.end_to_end(slow, True)
    assert half["setup_s"] == 2.0 and half["ops_per_s"] == pytest.approx(6.0)
    assert half["op_p90_ms"] == pytest.approx(m["op_p90_ms"] / 2)
    assert half["peak_rss_mb"] == m["peak_rss_mb"]
    # one slow op among the others: only its own time is halved
    mixed = run.at_reference(dict(reps[0], op_cal_s=[run.CAL_REF, 2 * run.CAL_REF, run.CAL_REF]), True)
    assert mixed[0] == pytest.approx([0.001, 0.001, 0.003])
    assert mixed[1] == pytest.approx(5 / 6)


def test_benchmark_json_matches_the_definitions():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == run.spec()
