"""The census of stable-triple candidates at sizes <= 4 (`support.census`),
re-derived against the committed table `data/census_4.json`, with the
cross-checks between its two halves: the scan and the additivity search,
and the triples that additive matrices generate (`support.generated`)
against the table's certified ones."""

import json
from collections import Counter
from pathlib import Path

from heisenstab.additivity import MATRIX_KINDS, check_certificate, integer_minimality_check, is_additive
from support import census, census_counts, generated

TABLE = Path(__file__).resolve().parent / "data" / "census_4.json"


def test_the_size_4_census_matches_its_table():
    table = census(4, 4)
    assert census_counts(table) == {"kron": (23, 5, 15, 3, 0), "heis": (131, 40, 24, 67, 0)}
    assert table == json.loads(TABLE.read_text(encoding="utf-8"))
    for kind, cls in (("kron", MATRIX_KINDS["k"]), ("heis", MATRIX_KINDS["h"])):
        for record in table[kind]:
            # additivity implies stability: a refuted triple has no additive matrix in any order
            assert record["verdict"] != "refuted" or "matrix" not in record, record
            if "matrix" in record:
                A = cls(record["matrix"])
                assert [list(A.pi), list(A.row_margins), list(A.col_margins)] == record["order"]
                certificate = is_additive(A)
                assert certificate is not None and check_certificate(A, certificate), record
                assert integer_minimality_check(A) is None, record


def test_additive_matrices_generate_the_certified_triples():
    # additivity implies stability (Vallejo), so every generated triple has coefficient 1;
    # at sizes <= 4 the budget refuses no triple, so the Kronecker and Heisenberg
    # triples generated are exactly the certified ones of the table
    found = generated(4)
    assert Counter(kind for kind, _ in found) == {"kron": 15, "heis": 24, "lr": 9}
    assert set(found.values()) == {1}
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    for kind in ("kron", "heis"):
        certified = {tuple(map(tuple, r["triple"])) for r in table[kind]
                     if r["verdict"] == "certified"}
        assert {triple for k, triple in found if k == kind} == certified, kind
