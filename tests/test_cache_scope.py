"""The coefficient cache read scoped to one query.

`load_cache(path, q)` decodes only the lines of q and the lines that are
not records as `append_cache` writes them.  These tests hold it to the
whole-file reading restricted to q: the same records, the same warnings
with the same line numbers, and an integrity error exactly when q's own
records conflict.
"""

import contextlib
import io
import json
import os
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from heisenstab import cli
from heisenstab.cli import MismatchError, load_cache

# q strings that share prefixes, need escaping, or are not ASCII
QUERIES = ["kron 3 2,1 2,1", "kron 3 2,1 2", "lr 2,1 1 1", 'heis "1" 1 1',
           "heis 1\\1 1", "lr é 1 1", "kron {\"q\": 1"]
ENGINES = ["primary", "oracle"]


def canonical(q, engine, value):
    return json.dumps({"q": q, "engine": engine, "value": value})


def escaped_q(q):
    """q as a JSON string with its first character written as a \\u escape."""
    return '"\\u%04x' % ord(q[0]) + json.dumps(q[1:])[1:]


def reordered(q, engine, value):
    return json.dumps({"value": value, "engine": engine, "q": q})


def compact(q, engine, value):
    return json.dumps({"q": q, "engine": engine, "value": value}, separators=(",", ":"))


def padded(q, engine, value):
    return " \t" + canonical(q, engine, value) + "  "


def unicode_escaped(q, engine, value):
    return '{"q": %s, "engine": "%s", "value": %d}' % (escaped_q(q), engine, value)


def unescaped(q, engine, value):
    return json.dumps({"q": q, "engine": engine, "value": value}, ensure_ascii=False)


RECORD_FORMS = [canonical, reordered, compact, padded, unicode_escaped, unescaped]
CORRUPT_LINES = [
    b"not json", b'{"q": "kron 3 2,1 2,1", "engine": "primary"', b"[]",
    b'{"q": "kron 3 2,1 2,1", "engine": "primary", "value": 1.0}',
    b'{"q": "kron 3 2,1 2,1", "engine": "primary", "value": -1}',
    b'{"q": "kron 3 2,1 2,1", "engine": "both", "value": 1}',
    b'{"q": ["lr 2,1 1 1"], "engine": "primary", "value": 1}',
    b'{"q": "lr 2,1 1 1", "engine": "primary", "value": 01}',
    b"\xff\xfe garbage", b'{"q": "lr \xff 1 1", "engine": "primary", "value": 1}',
]
BLANK_LINES = [b"", b"   ", b"\t", b"\x0b"]

records = st.builds(lambda form, q, engine, value: form(q, engine, value).encode("utf-8"),
                    st.sampled_from(RECORD_FORMS), st.sampled_from(QUERIES),
                    st.sampled_from(ENGINES), st.integers(0, 2))
# records twice, so that about half the lines are records
lines = st.one_of(records, records, st.sampled_from(CORRUPT_LINES), st.sampled_from(BLANK_LINES))
cache_files = st.builds(lambda ls, sep, last: sep.join(ls) + (sep if last else b""),
                        st.lists(lines, max_size=12),
                        st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"]), st.booleans())


def whole_file_restricted(path, q):
    """The reference: decode every line, keep the records of q (of every
    query when q is None) and check those for conflicts.  Returns (records,
    the integrity error message or None, the warnings)."""
    warnings, recs = [], {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
                rec = json.loads(line)
                rq, engine, value = rec["q"], rec["engine"], rec["value"]
                if (not isinstance(rq, str) or engine not in ENGINES
                        or type(value) is not int or value < 0):
                    raise ValueError(line)
            except (ValueError, KeyError, TypeError):
                warnings.append(f"heisenstab: skipping corrupt cache line {lineno}\n")
                continue
            if q is not None and rq != q:
                continue
            if recs.get((rq, engine), value) != value:
                return recs, f"cache holds conflicting values for {rq} [{engine}]: " \
                    f"{recs[rq, engine]} vs {value}", warnings
            recs[rq, engine] = value
    for (rq, engine), value in recs.items():
        other = recs.get((rq, "oracle" if engine == "primary" else "primary"))
        if other is not None and other != value:
            return recs, f"primary and oracle records disagree for {rq}: {value} vs {other}", warnings
    return recs, None, warnings


def scoped(path, q):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            recs, failure = load_cache(path, q), None
        except MismatchError as exc:
            recs, failure = None, str(exc)
    return recs, failure, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=cache_files, q=st.sampled_from(QUERIES + [None]))
def test_scoped_read_equals_whole_file_read_restricted_to_q(data, q):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cache.jsonl")
        with open(path, "wb") as fh:
            fh.write(data)
        want_recs, want_failure, want_warnings = whole_file_restricted(path, q)
        recs, failure, err = scoped(path, q)
    assert err == "".join(want_warnings)
    assert failure == want_failure
    if failure is None:
        assert recs == want_recs


@pytest.mark.parametrize("form", RECORD_FORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("q", QUERIES)
def test_every_record_form_is_served(tmp_path, q, form):
    path = tmp_path / "cache.jsonl"
    others = [canonical(p, "primary", 1) for p in QUERIES if p != q]
    path.write_text("\n".join(others + [form(q, "oracle", 2)]) + "\n", encoding="utf-8")
    assert load_cache(str(path), q) == {(q, "oracle"): 2}


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
@settings(max_examples=100, deadline=None)
@given(data=cache_files, q=st.sampled_from(QUERIES + [None]))
def test_scoped_read_is_the_same_across_chunk_boundaries(chunk, data, q):
    # the files above are smaller than one chunk of the real size: with these
    # sizes, records, line ends, multi-byte characters and undecodable bytes
    # fall across chunk boundaries
    with mock.patch.object(cli, "_CHUNK_CHARS", chunk):
        test_scoped_read_equals_whole_file_read_restricted_to_q.hypothesis.inner_test(data, q)


@pytest.mark.parametrize("q", [QUERIES[0], None])
def test_a_large_cache_is_read_in_bounded_memory(tmp_path, capsys, q):
    # 4.3 MB of three repeated records, with one corrupt line in the middle
    block = "".join(canonical(p, "primary", 1) + "\n" for p in QUERIES[:3])
    repeats = 4_300_000 // 2 // len(block)
    path = tmp_path / "cache.jsonl"
    path.write_text(block * repeats + "not json\n" + block * repeats, encoding="utf-8")
    tracemalloc.start()
    try:
        records = load_cache(str(path), q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert records == {(p, "primary"): 1 for p in (QUERIES[:3] if q is None else [q])}
    assert capsys.readouterr().err == \
        f"heisenstab: skipping corrupt cache line {3 * repeats + 1}\n"


def test_a_read_error_after_the_first_chunk_returns_no_records(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    path.write_text(canonical(QUERIES[0], "primary", 1) + "\n" * 100, encoding="utf-8")
    monkeypatch.setattr(cli, "_CHUNK_CHARS", 64)
    assert load_cache(str(path), QUERIES[0]) == {(QUERIES[0], "primary"): 1}

    class FailsOnSecondRead:
        def __init__(self, fh):
            self.fh, self.reads = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, size):
            self.reads += 1
            if self.reads > 1:
                raise OSError("read failed")
            return self.fh.read(size)

    real_open = open
    monkeypatch.setattr(cli, "open", lambda *a, **k: FailsOnSecondRead(real_open(*a, **k)),
                        raising=False)
    assert load_cache(str(path), QUERIES[0]) == {}
