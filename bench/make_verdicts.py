"""Write verdicts.json, the additivity workload's table of expected verdicts.

    PYTHONPATH=src python3 bench/make_verdicts.py

Every class of ``workloads.margin_classes`` and the (2,2,2,1)^2 cornered
class the workload samples are enumerated by the benchmark's own brute
force; each matrix is decided with the library's stable-triple functions,
and the table keeps the additive ones.  Run it on a commit whose verdicts
are trusted: the table is what later commits are checked against.  The
(2,2,2,1)^2 class takes about four minutes.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import VERDICTS, Additivity, margin_classes, margin_matrices  # noqa: E402


def additive_matrices(kind: str, beta, gamma) -> tuple[int, list]:
    from heisenstab.additivity import (
        HeisenbergMatrix,
        KroneckerMatrix,
        heisenberg_stable_triple,
        kronecker_stable_triple,
    )

    make, decide = {"h": (HeisenbergMatrix, heisenberg_stable_triple),
                    "k": (KroneckerMatrix, kronecker_stable_triple)}[kind]
    matrices = margin_matrices(beta, gamma, kind == "h")
    return len(matrices), [m for m in matrices if decide(make(m)) is not None]


def entry(kind: str, beta, gamma) -> dict:
    count, additive = additive_matrices(kind, beta, gamma)
    return {"kind": kind, "beta": beta, "gamma": gamma, "matrices": count, "additive": additive}


def main() -> int:
    classes = [json.dumps(entry(*c)) for c in margin_classes(Additivity.class_size)]
    sample = json.dumps(entry("h", *Additivity.big))
    with open(VERDICTS, "w", encoding="utf-8") as fh:  # one class a line
        fh.write('{"sample": ' + sample + ',\n "classes": [\n  ' + ",\n  ".join(classes) + "]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
