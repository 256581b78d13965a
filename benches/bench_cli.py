"""Benches for whole `khess` calls, the fixed cost of the CLI included.

Opt-in: the file name does not match pytest's test_*.py pattern, so the
tier-1 command never collects it.  Run it by path:

    PYTHONPATH=src python -m pytest benches/bench_cli.py --benchmark-json=out.json

Four calls run in process through cli.main, each writing its files and
manifest.json into a temporary --out: `eigen` for (N, k) = (2, 2) at grid
512, `solve` with a constant source at grid 4096, `cone --lambda` and
`verify barrier-log --sphere`.  Three more start a fresh interpreter
for the same `khess cone`, `solve` and `eigen` calls, so the import of
the package and of everything it loads is timed too.  Each bench
records the exit code and the output bytes in extra_info: their count
and a sha256 over every file but manifest.json, whose wall time differs
from run to run.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import khessian
from khessian.cli import main

CALLS = {
    "eigen": ["eigen", "--dim", "2", "--order", "2", "--radius", "1", "--grid", "512"],
    "solve": ["solve", "--dim", "3", "--order", "2", "--radius", "1",
              "--source", "const:3", "--grid", "4096"],
    "cone": ["cone", "--order", "2", "--lambda=1.5,-0.25,2,0.75"],
    "barrier-log": ["verify", "barrier-log", "--dim", "3", "--order", "2", "--fsup", "1",
                    "--usup", "1", "--sphere", "1", "--t", "3", "--d0", "0.1"],
}


def _outputs(out: Path) -> dict:
    """Byte count and sha256 of the files in out, manifest.json aside."""
    digest, size = hashlib.sha256(), 0
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            size += len(data)
    return {"output_bytes": size, "outputs_sha256": digest.hexdigest()}


@pytest.mark.parametrize("name", list(CALLS))
def test_main(benchmark, name, tmp_path):
    argv = CALLS[name] + ["--out", str(tmp_path)]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)

    code = benchmark(call)
    benchmark.extra_info.update({"exit_code": code, **_outputs(tmp_path)})


@pytest.mark.parametrize("name", ["cone", "solve", "eigen"])
def test_fresh_interpreter(benchmark, name, tmp_path):
    src = str(Path(khessian.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "khessian.cli", *CALLS[name], "--out", str(tmp_path)]

    def call():
        return subprocess.run(argv, env=env, capture_output=True).returncode

    code = benchmark.pedantic(call, rounds=10, warmup_rounds=1)
    benchmark.extra_info.update({"exit_code": code, **_outputs(tmp_path)})
