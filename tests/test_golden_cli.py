"""classify, speed and cyclic held byte for byte to recorded output.

tests/data/classify_golden.jsonl holds one record per seeded argv: the
argv, the exit code and stdout, written by the code before classify's
walk moved from DCGraph values to b maps, and rewritten when a float
cyclic came to test the report's ambiguity before the graph's
connectivity (five cyclic records went from exit 2 to 3, stdout
unchanged).  Changes that only speed classify up must reproduce it
exactly.  The records are written with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/data/classify_golden.jsonl
"""
import contextlib
import io
import json
import random
import sys
from pathlib import Path

import numpy as np

from conftest import tied_phase_thresholds
from liquidbin.cli import run

GOLDEN = Path(__file__).parent / "data" / "classify_golden.jsonl"


def golden_argv() -> list[list[str]]:
    """150 argv: classify, speed and cyclic in turn, each at --tol 1e-9,
    --tol 0.1 and --exact, N = 1..8; values log-uniform over 10^+-3, or
    over 10^+-300 at N <= 6; every fifth point an exact wall point with
    unit rates.  (N stays at most 8, the bound the records were first
    drawn with.)"""
    rng = np.random.default_rng(2026)
    wall_rng = random.Random(2026)
    out = []
    for k in range(150):
        cmd = ("classify", "speed", "cyclic")[k % 3]
        mode = (["--tol", "1e-9"], ["--tol", "0.1"], ["--exact"])[k // 3 % 3]
        n = int(rng.integers(1, 9))
        if k % 5 == 4:
            a = list(map(float, tied_phase_thresholds(wall_rng, n)))
            p = [1.0] * n
        else:
            span = 300 if k // 9 % 2 and n <= 6 else 3
            a = sorted((10.0 ** rng.uniform(-span, span, n)).tolist())
            p = (10.0 ** rng.uniform(-span, span, n)).tolist()
        out.append([cmd, "--a", ",".join(map(repr, a)), "--p", ",".join(map(repr, p)), *mode])
    return out


def record(argv: list[str]) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue()}


def test_cli_output_matches_the_golden_records():
    lines = GOLDEN.read_text().splitlines()
    assert [json.loads(line)["argv"] for line in lines] == golden_argv()
    for line in lines:
        want = json.loads(line)
        assert record(want["argv"]) == want, want["argv"]


if __name__ == "__main__":
    for argv in golden_argv():
        sys.stdout.write(json.dumps(record(argv)) + "\n")
