"""The 0 x 0 plain matrix: vacuously additive, with empty potentials."""

import json

from heisenstab.additivity import (
    AdditivityCertificate,
    KroneckerMatrix,
    check_certificate,
    is_additive,
    kronecker_matrices,
    kronecker_stable_triple,
)
from heisenstab.cli import main


def test_empty_plain_matrix_is_additive():
    (A,) = kronecker_matrices((), ())
    assert A == KroneckerMatrix([]) and A.shape == (0, 0)
    cert = is_additive(A)
    assert cert == AdditivityCertificate(x=(), y=())
    assert check_certificate(A, cert)
    triple = kronecker_stable_triple(A)
    assert triple.as_partitions() == ((), (), ())
    assert triple.certificate == cert


def test_cli_additive_on_an_empty_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HEIS_CACHE", str(tmp_path / "cache.jsonl"))
    f = tmp_path / "empty.txt"
    f.write_text("")
    code = main(["additive", "--matrix", str(f), "--kind", "k"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "kind": "k", "additive": True,
        "certificate": {"x": [], "y": []},
        "triple": {"alpha": "0", "beta": "0", "gamma": "0"},
    }
