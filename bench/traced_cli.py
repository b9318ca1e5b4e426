"""A traced `heisenstab` CLI process.

    python3 bench/traced_cli.py OUT.json coeff KIND LAMBDA MU NU [--oracle]

Imports the CLI, wraps its layers, runs ``cli.main(argv)`` and writes the
per-layer totals and the spans of this process to OUT.json.  Stdout and the
exit code are the CLI's own.
"""

import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    from heisenstab import cli

    import_s = perf_counter() - t0
    from spans import LayerTrace

    layer = LayerTrace()
    code = cli.main(argv)
    raw = layer.raw()
    raw["cli.import_s"] = import_s
    raw["cli.engine_s"] = layer.engine_s()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"raw": raw, "spans": list(layer.tracer.lines())}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
