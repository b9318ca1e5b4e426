"""What the CLI loads: a `coeff` answered from the cache imports no engine,
and the imports the span tracer in bench/spans.py makes still load every
layer."""

import json
import os
import subprocess
import sys

import heisenstab

# Runs `heisenstab coeff ...` in-process and prints, after the CLI's line,
# the modules that importing and running the CLI added to sys.modules.
COEFF = """
import json, sys
before = set(sys.modules)
from heisenstab.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
sys.exit(code)
"""

LAYERS = ("partitions", "symfun", "coefficients", "stability", "additivity",
          "ratfeas", "cli")


def _python(code: str, *argv: str, cache: str = "") -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(heisenstab.__file__))
    env["HEIS_CACHE"] = cache
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout.splitlines()


def test_a_cache_hit_loads_no_engine(tmp_path):
    cache = str(tmp_path / "cache.jsonl")
    query = ("coeff", "heis", "3,2", "2,1", "2", "--oracle")
    miss_line, miss_new = _python(COEFF, *query, cache=cache)
    hit_line, hit_new = _python(COEFF, *query, cache=cache)
    miss, hit = json.loads(miss_line), json.loads(hit_line)
    assert hit["value"] == miss["value"] and hit["engine"] == miss["engine"] == "both"
    # the miss ran both engines, so the check below can see one load
    assert "heisenstab.coefficients" in json.loads(miss_new)
    loaded = set(json.loads(hit_new))
    assert {m for m in loaded if m.startswith("heisenstab")} == {
        "heisenstab", "heisenstab.partitions", "heisenstab.stability", "heisenstab.cli"}
    assert "dataclasses" not in loaded
    assert "fractions" not in loaded


def test_the_tracer_imports_load_every_layer():
    (line,) = _python("import json, sys\n"
                      "import heisenstab.cli\n"
                      "from heisenstab import coefficients, partitions\n"
                      "print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(line))
    assert {f"heisenstab.{m}" for m in LAYERS} <= loaded


def test_the_engines_load_no_fractions():
    # every sweep and product op and every CLI miss imports the engines
    (line,) = _python("import json, sys\n"
                      "import heisenstab.coefficients\n"
                      "print(json.dumps(sorted(sys.modules)))")
    loaded = set(json.loads(line))
    assert "heisenstab.coefficients" in loaded
    assert "fractions" not in loaded and "decimal" not in loaded
