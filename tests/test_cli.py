import json
import os
import subprocess
import sys

import pytest

import heisenstab
from heisenstab import cli, stability, symfun
from heisenstab.cli import main
from heisenstab.stability import Kind


@pytest.fixture
def cache_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    monkeypatch.setenv("HEIS_CACHE", str(path))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeff_basic(cache_file, capsys):
    code, out, _ = run(capsys, "coeff", "heis", "1", "1", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == 1 and rec["engine"] == "primary"
    assert set(rec) == {"kind", "lambda", "mu", "nu", "value", "engine", "elapsed_ms"}


def test_coeff_oracle_agreement(cache_file, capsys):
    code, out, _ = run(capsys, "coeff", "lr", "2,2,1", "2,1", "2", "--oracle")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == 1 and rec["engine"] == "both"


def test_coeff_kron(cache_file, capsys):
    code, out, _ = run(capsys, "coeff", "kron", "3", "2,1", "2,1", "--oracle")
    assert code == 0
    assert json.loads(out)["value"] == 1


def test_coeff_parse_error(cache_file, capsys):
    code, _, err = run(capsys, "coeff", "kron", "a,b", "1", "1")
    assert code == 2 and "parse" in err


def test_coeff_size_error(cache_file, capsys):
    code, _, err = run(capsys, "coeff", "lr", "2", "1", "2")
    assert code == 3 and "do not fit" in err


def test_cache_round_trip_preserves_values(cache_file, capsys):
    code1, out1, _ = run(capsys, "coeff", "heis", "2,1", "1,1", "1,1")
    code2, out2, _ = run(capsys, "coeff", "heis", "2,1", "1,1", "1,1")
    assert code1 == code2 == 0
    v1, v2 = json.loads(out1), json.loads(out2)
    assert v1["value"] == v2["value"] == 2
    lines = [json.loads(l) for l in cache_file.read_text().splitlines()]
    assert len(lines) == 1  # second call was a hit, not a rewrite
    assert lines[0]["value"] == 2


def test_cache_corrupt_line_skipped(cache_file, capsys):
    cache_file.write_text("not json\n")
    code, out, err = run(capsys, "coeff", "kron", "2,1", "2,1", "2,1")
    assert code == 0
    assert "corrupt" in err
    assert json.loads(out)["value"] == 1


def test_cache_line_of_bad_utf8_skipped(cache_file, capsys):
    # line 1 holds a value no engine gives, so serving it shows a cache hit
    hit = {"q": "kron 2,1 2,1 2,1", "engine": "primary", "value": 5}
    other = {"q": "kron 3 2,1 2,1", "engine": "primary", "value": 9}
    cache_file.write_bytes(json.dumps(hit).encode() + b"\n\xff\xfe garbage\n"
                           + json.dumps(other).encode() + b"\n")
    code, out, err = run(capsys, "coeff", "kron", "2,1", "2,1", "2,1")
    assert code == 0
    assert "skipping corrupt cache line 2" in err
    assert json.loads(out)["value"] == 5
    code, out, _ = run(capsys, "coeff", "kron", "3", "2,1", "2,1")
    assert code == 0 and json.loads(out)["value"] == 9  # line 3 was read


@pytest.mark.parametrize("record", [
    {"q": "kron 2,1 2,1 2,1", "engine": "primary", "value": 3.7},
    {"q": "kron 2,1 2,1 2,1", "engine": "primary", "value": True},
    {"q": "kron 2,1 2,1 2,1", "engine": "primary", "value": "-5"},
    {"q": "kron 2,1 2,1 2,1", "engine": "primary", "value": -5},
    {"q": ["kron 2,1 2,1 2,1"], "engine": "primary", "value": 1},
], ids=["float_value", "bool_value", "string_value", "negative_value", "list_q"])
def test_cache_record_of_wrong_type_skipped(cache_file, capsys, record):
    cache_file.write_text(json.dumps(record) + "\n")
    code, out, err = run(capsys, "coeff", "kron", "2,1", "2,1", "2,1")
    assert code == 0
    assert "skipping corrupt cache line 1" in err
    assert json.loads(out)["value"] == 1


def test_cache_integrity_failure(cache_file, capsys):
    rec1 = {"q": "kron 3 2,1 2,1", "engine": "primary", "value": 1}
    rec2 = {"q": "kron 3 2,1 2,1", "engine": "oracle", "value": 7}
    cache_file.write_text(json.dumps(rec1) + "\n" + json.dumps(rec2) + "\n")
    code, _, err = run(capsys, "coeff", "kron", "3", "2,1", "2,1")
    assert code == 4 and "disagree" in err


def test_a_failed_cache_write_still_answers(tmp_path, monkeypatch, capsys):
    # a directory: no records to read, no file to append to
    monkeypatch.setenv("HEIS_CACHE", str(tmp_path))
    code, out, err = run(capsys, "coeff", "lr", "2,1", "1,1", "1")
    assert code == 0
    assert json.loads(out)["value"] == 1
    assert err.startswith("heisenstab: cache write failed: ")


@pytest.mark.parametrize("env", [None, ""])
def test_the_default_cache_lives_under_home(tmp_path, monkeypatch, env):
    if env is None:
        monkeypatch.delenv("HEIS_CACHE", raising=False)
    else:
        monkeypatch.setenv("HEIS_CACHE", env)
    monkeypatch.setenv("HOME", str(tmp_path))
    assert cli.cache_path() == str(tmp_path / ".cache" / "heisenstab.cache")


def test_coeff_engine_mismatch(cache_file, capsys, monkeypatch):
    monkeypatch.setitem(stability.ORACLE, Kind.KRONECKER, lambda lam, mu, nu: 7)
    code, out, err = run(capsys, "coeff", "kron", "3", "2,1", "2,1", "--oracle")
    assert code == 4 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("heisenstab: engine mismatch")


def test_an_oracle_query_on_a_cached_primary_runs_only_the_oracle(cache_file, capsys, monkeypatch):
    cache_file.write_text(record("lr 2,1 1,1 1", "primary", 1) + "\n")
    calls = []
    monkeypatch.setitem(stability.PRIMARY, Kind.LR, lambda *args: calls.append(args))
    code, out, err = run(capsys, "coeff", "lr", "2,1", "1,1", "1", "--oracle")
    assert (code, err, calls) == (0, "", [])
    rec = json.loads(out)
    assert rec["value"] == 1 and rec["engine"] == "both"
    assert cache_file.read_text().splitlines() == [record("lr 2,1 1,1 1", "primary", 1),
                                                   record("lr 2,1 1,1 1", "oracle", 1)]


def test_a_live_mismatch_caches_both_records(cache_file, capsys, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setitem(stability.ORACLE, Kind.KRONECKER, lambda lam, mu, nu: 7)
        assert run(capsys, "coeff", "kron", "3", "2,1", "2,1", "--oracle")[0] == 4
    assert cache_file.read_text().splitlines() == [record("kron 3 2,1 2,1", "primary", 1),
                                                   record("kron 3 2,1 2,1", "oracle", 7)]
    code, out, err = run(capsys, "coeff", "kron", "3", "2,1", "2,1", "--oracle")
    assert (code, out) == (4, "")
    assert err == "heisenstab: primary and oracle records disagree for kron 3 2,1 2,1: 1 vs 7\n"


def test_a_failed_cache_lock_still_writes_the_record(cache_file, capsys, monkeypatch):
    fcntl = pytest.importorskip("fcntl")

    def refuse(*args):
        raise OSError("no locks here")

    monkeypatch.setattr(fcntl, "flock", refuse)
    code, out, err = run(capsys, "coeff", "lr", "2,1", "1,1", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["value"] == 1
    assert cache_file.read_text() == record("lr 2,1 1,1 1", "primary", 1) + "\n"


def test_seq_constant_tail(cache_file, capsys):
    code, out, _ = run(capsys, "seq", "kron", "1", "1", "1", "1", "1", "1", "--n", "6")
    assert code == 0
    rec = json.loads(out)
    assert rec["verdict"] == "constant_tail"
    assert rec["limit"] == 1 and rec["onset"] == 0
    assert rec["sequence"] == [[n, 1] for n in range(7)]


def test_seq_zero_forever(cache_file, capsys):
    code, out, _ = run(capsys, "seq", "lr", "1", "1", "0", "1,1", "2", "0", "--n", "6")
    assert code == 0
    rec = json.loads(out)
    assert rec["verdict"] == "constant_tail" and rec["limit"] == 0


def test_seq_size_violation(cache_file, capsys):
    code, _, err = run(capsys, "seq", "kron", "2", "1", "1", "1", "1", "1")
    assert code == 3 and "pattern" in err


def test_stable_reports(cache_file, capsys):
    code, out, _ = run(capsys, "stable", "1", "1", "1", "--n-max", "4")
    rec = json.loads(out)
    assert code == 0 and rec["verdict"] == "inconclusive_up_to"
    assert rec["kind"] == "kron" and "heis" in rec["flags"]

    code, out, _ = run(capsys, "stable", "3,2,1", "2,1", "2,1")
    rec = json.loads(out)
    assert code == 0 and rec["verdict"] == "refuted"
    assert rec["witness_n"] == 1 and rec["witness_value"] == 2

    code, out, _ = run(capsys, "stable", "2,2,1", "2,1", "2")
    rec = json.loads(out)
    assert code == 0 and rec["verdict"] == "certified"
    assert rec["certified_by"] == "finite_lr_check"


def test_stable_certifies_the_empty_triple(cache_file, capsys):
    code, out, _ = run(capsys, "stable", "0", "0", "0")
    rec = json.loads(out)
    assert code == 0 and rec["kind"] == "kron" and "lr" in rec["flags"]
    assert rec["verdict"] == "certified"
    assert rec["certified_by"] == "finite_lr_check"


def test_stable_not_a_triple(cache_file, capsys):
    code, _, err = run(capsys, "stable", "3", "1", "1")
    assert code == 3 and "size_pattern" in err


def test_additive_worked_example(cache_file, capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("0 4 6 1\n4 5 7 2\n2 3 5 0\n")
    code, out, _ = run(capsys, "additive", "--matrix", str(f), "--kind", "h")
    rec = json.loads(out)
    assert code == 0 and rec["additive"] is True
    assert rec["triple"] == {"alpha": "7,6,5,5,4,4,3,2,2,1",
                             "beta": "18,10", "gamma": "12,18,3"}
    assert rec["certificate"]["x"][0] == "0" and rec["certificate"]["y"][0] == "0"


def test_additive_rejects_nonzero_corner(cache_file, capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("1 0\n0 1\n")
    code, _, err = run(capsys, "additive", "--matrix", str(f), "--kind", "h")
    assert code == 2 and "corner" in err


def test_additive_undecodable_file_exits_2(cache_file, capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_bytes(b"0 1\n\xff 1\n")
    code, out, err = run(capsys, "additive", "--matrix", str(f), "--kind", "h")
    assert code == 2 and out == "" and "cannot read matrix file" in err


def test_additive_negative_result(cache_file, capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("1 0\n0 1\n")
    code, out, _ = run(capsys, "additive", "--matrix", str(f), "--kind", "k")
    rec = json.loads(out)
    assert code == 0 and rec["additive"] is False and "triple" not in rec


def test_enumerate_counts(cache_file, capsys):
    code, out, _ = run(capsys, "enumerate", "--rows", "1,1", "--cols", "1,1", "--kind", "k")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1]) == {"count": 2}

    code, out, _ = run(capsys, "enumerate", "--rows", "1", "--cols", "1", "--kind", "h")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1]) == {"count": 2}


def test_enumerate_pi_filter(cache_file, capsys):
    code, out, _ = run(capsys, "enumerate", "--rows", "2,1", "--cols", "2,1",
                       "--kind", "k", "--pi", "2,1")
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1]) == {"count": 1}


def test_enumerate_budget_refusal(cache_file, capsys):
    code, _, err = run(capsys, "enumerate", "--rows", "18,10",
                       "--cols", "12,18,3", "--kind", "h")
    assert code == 5 and "budget" in err


def test_selftest_passes(cache_file, capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("conformance checks passed")


def test_selftest_failure_prints_the_table_then_exits_1(cache_file, capsys, monkeypatch):
    monkeypatch.setattr(symfun, "kostka", lambda lam, mu: -1)
    code, out, err = run(capsys, "selftest")
    assert code == 1
    assert out.count("FAIL  ") == 2
    assert out.strip().endswith("10/12 conformance checks passed")
    assert err == "heisenstab: 2/12 conformance checks failed\n"


def test_a_selftest_check_that_raises_fails_its_row_without_a_traceback(cache_file, capsys,
                                                                         monkeypatch):
    def boom(lam, mu):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(symfun, "kostka", boom)
    code, out, err = run(capsys, "selftest")
    assert code == 1
    assert out.count("FAIL  ") == 2
    assert out.strip().endswith("10/12 conformance checks passed")
    assert err == ("heisenstab: kostka positivity boundary K[(1,1),(2)] = 0: boom\n"
                   "heisenstab: unit diagonal kostka K[(2,1),(2,1)] = 1: boom\n"
                   "heisenstab: 2/12 conformance checks failed\n")


def usage_error(capsys, *argv):
    """Exit code and stderr of a command that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, capsys.readouterr().err


SEQ = ("seq", "kron", "1", "1", "1", "1", "1", "1")


def test_seq_n_must_be_nonnegative(cache_file, capsys):
    for bad in ("-1", "1_0"):
        code, err = usage_error(capsys, *SEQ, "--n", bad)
        assert code == 2 and f"--n: invalid int value: '{bad}'" in err
    assert run(capsys, *SEQ, "--n", "0")[0] == 0


def test_seq_window_must_be_at_least_two(cache_file, capsys):
    code, err = usage_error(capsys, *SEQ, "--window", "1")
    assert code == 2 and "--window: must be at least 2" in err
    code, err = usage_error(capsys, *SEQ, "--window", "two")
    assert code == 2 and "invalid int value" in err
    assert run(capsys, *SEQ, "--window", "2")[0] == 0


def test_stable_n_max_must_be_positive(cache_file, capsys):
    code, err = usage_error(capsys, "stable", "1", "1", "1", "--n-max", "0")
    assert code == 2 and "--n-max: must be at least 1" in err
    assert run(capsys, "stable", "1", "1", "1", "--n-max", "1")[0] == 0


@pytest.mark.parametrize("token", ["1_0", "+3", "٣", "-1"])
def test_malformed_integer_tokens_exit_2(cache_file, capsys, tmp_path, token):
    assert run(capsys, "coeff", "lr", token, "1", "1")[0] == 2
    assert run(capsys, "enumerate", "--rows", token, "--cols", "1", "--kind", "k")[0] == 2
    f = tmp_path / "m.txt"
    f.write_text(f"0 {token}\n1 1\n", encoding="utf-8")
    assert run(capsys, "additive", "--matrix", str(f), "--kind", "h")[0] == 2


def record(q, engine, value):
    """A cache line as `coeff` writes it."""
    return json.dumps({"q": q, "engine": engine, "value": value})


def test_conflict_in_another_query_fails_only_verify_cache(cache_file, capsys):
    cache_file.write_text("\n".join([
        record("kron 3 2,1 2,1", "primary", 1),
        record("lr 2,1 1 1", "primary", 1),
        record("lr 2,1 1 1", "oracle", 3),
    ]) + "\n")
    code, out, err = run(capsys, "coeff", "kron", "3", "2,1", "2,1")
    assert code == 0 and err == ""
    assert json.loads(out)["value"] == 1
    code, out, err = run(capsys, "verify-cache")
    assert code == 4 and out == ""
    assert err == "heisenstab: primary and oracle records disagree for lr 2,1 1 1: 1 vs 3\n"


def test_conflict_in_the_asked_query_exits_4(cache_file, capsys):
    cache_file.write_text("\n".join([
        record("lr 2,1 1 1", "primary", 1),
        record("kron 3 2,1 2,1", "primary", 1),
        record("kron 3 2,1 2,1", "primary", 2),
    ]) + "\n")
    code, out, err = run(capsys, "coeff", "kron", "3", "2,1", "2,1")
    assert code == 4 and out == ""
    assert "conflicting values for kron 3 2,1 2,1 [primary]: 1 vs 2" in err


def test_verify_cache_counts_records(cache_file, capsys):
    code, out, err = run(capsys, "verify-cache")
    assert (code, json.loads(out), err) == (0, {"records": 0}, "")
    cache_file.write_text("\n".join([
        record("lr 2,1 1 1", "primary", 1),
        record("lr 2,1 1 1", "oracle", 1),
        record("lr 2,1 1 1", "oracle", 1),
        "garbage",
        record("kron 3 2,1 2,1", "primary", 1),
    ]) + "\n")
    code, out, err = run(capsys, "verify-cache")
    assert (code, json.loads(out)) == (0, {"records": 3})
    assert err == "heisenstab: skipping corrupt cache line 4\n"


def test_corrupt_line_of_no_query_is_still_reported(cache_file, capsys):
    cache_file.write_text("\n".join([
        record("lr 2,1 1 1", "primary", 1),
        record("lr 2,1 1 1", "oracle", 1),
        '{"q": "kron 2 2 2", "engine": "primary"',
        record("kron 3 2,1 2,1", "primary", 5),
    ]) + "\n")
    code, out, err = run(capsys, "coeff", "kron", "3", "2,1", "2,1")
    assert code == 0
    assert err == "heisenstab: skipping corrupt cache line 3\n"
    assert json.loads(out)["value"] == 5  # the cached value, which no engine gives


def test_a_hit_decodes_only_its_own_lines(cache_file, capsys, monkeypatch):
    asked = "kron 3 2,1 2,1"
    body = [record(f"lr {n},1 {n} 1", "primary", 1) for n in range(1, 999)]
    mine = [record(asked, "primary", 1), record(asked, "oracle", 1)]
    body[400:400] = mine[:1]
    body[700:700] = mine[1:]
    cache_file.write_text("\n".join(body) + "\n")
    assert len(body) == 1000
    decoded = []
    real_loads = json.loads

    def counting_loads(s, *args, **kwargs):
        decoded.append(s)
        return real_loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting_loads)  # cli calls json.loads
    code, out, err = run(capsys, "coeff", "kron", "3", "2,1", "2,1", "--oracle")
    assert code == 0 and err == ""
    assert decoded == mine
    assert real_loads(out)["engine"] == "both"


@pytest.mark.parametrize("argv, lines_read", [
    (["enumerate", "--rows", "2,2,2,2,2", "--cols", "2,2,2,2,2", "--kind", "k"], 1),
    (["coeff", "kron", "2,1", "2,1", "2,1"], 0),
], ids=["enumerate", "coeff"])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, argv, lines_read):
    # the reader closes the pipe early; stdout is block-buffered, as it is
    # outside a terminal, so a short output fails only when it is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(heisenstab.__file__))
    env["HEIS_CACHE"] = str(tmp_path / "cache.jsonl")
    proc = subprocess.Popen([sys.executable, "-m", "heisenstab.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


CONFLICT = "\n".join([record("kron 3 2,1 2,1", "primary", 1),
                      record("kron 3 2,1 2,1", "oracle", 7)]) + "\n"


@pytest.mark.parametrize("argv, matrix, cached, code", [
    (["coeff", "kron", "a,b", "1", "1"], None, None, 2),
    (["seq", "kron", "x", "1", "1", "1", "1", "1"], None, None, 2),
    (["stable", "3,1", "x", "2"], None, None, 2),
    (["additive", "--kind", "h"], "1 0\n0 1\n", None, 2),
    (["additive", "--kind", "k"], "0 1 2\n1 1\n", None, 2),
    (["enumerate", "--rows", "1,1", "--cols", "1,1", "--kind", "k", "--pi", "x"], None, None, 2),
    (["enumerate", "--rows", "1,-1", "--cols", "1,1", "--kind", "k"], None, None, 2),
    (["coeff", "lr", "2", "1", "2"], None, None, 3),
    (["seq", "kron", "2", "1", "1", "1", "1", "1"], None, None, 3),
    (["seq", "kron", "1", "1", "1", "2", "1", "1"], None, None, 3),
    (["stable", "3", "1", "1"], None, None, 3),
    (["stable", "1,1", "2", "0"], None, None, 3),
    (["coeff", "kron", "3", "2,1", "2,1"], None, CONFLICT, 4),
    (["verify-cache"], None, CONFLICT, 4),
    (["enumerate", "--rows", "18,10", "--cols", "12,18,3", "--kind", "h"], None, None, 5),
], ids=["coeff_parse", "seq_parse", "stable_parse", "additive_corner", "additive_ragged",
        "enumerate_pi", "enumerate_rows", "coeff_sizes", "seq_base", "seq_direction",
        "stable_size_pattern", "stable_zero_coefficient", "coeff_cache_conflict",
        "verify_cache_conflict", "enumerate_budget"])
def test_each_error_exits_with_its_code_and_one_stderr_line(
        cache_file, capsys, tmp_path, argv, matrix, cached, code):
    if matrix is not None:
        f = tmp_path / "m.txt"
        f.write_text(matrix)
        argv = [*argv, "--matrix", str(f)]
    if cached is not None:
        cache_file.write_text(cached)
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert len(err.splitlines()) == 1 and err.startswith("heisenstab: ")


def test_an_unmapped_error_is_not_an_exit_code(cache_file, capsys, monkeypatch):
    def faulty(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr("heisenstab.cli.stabilization_sequence", faulty)
    with pytest.raises(ValueError, match="internal fault"):
        main(list(SEQ))
