"""simulate held byte for byte to recorded output.

tests/data/simulate_golden.jsonl holds one record per seeded case: the
params file, the arguments after it, the exit code, stdout and the
--trace CSV.  They were written by the generic event loop that the
bin simulator's compiled per-N loop and the car simulator's fused loop
replaced, and any change that only speeds the simulators up must
reproduce them exactly.  The records are written with

    PYTHONPATH=src python tests/test_golden_simulate.py > tests/data/simulate_golden.jsonl
"""
import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

from conftest import tied_phase_thresholds
from liquidbin.cli import run
from liquidbin.params import Params
from liquidbin.stationary import canonical_configuration, stationary_profile

GOLDEN = Path(__file__).parent / "data" / "simulate_golden.jsonl"


def golden_cases() -> list[tuple[dict, list[str]]]:
    """20 params files with the arguments to simulate them: N = 1..6 in
    turn, float and --exact alternately.  Every fifth case starts in the
    stationary state of tied thresholds with unit rates, where cursors
    jump together once a period; the others draw gaps and rates from [0.5, 1.5] (eighths under
    --exact) and volumes from [0.25, 1].  Float runs go to t = 60,
    exact ones to t = 15; one run of each kind has t = 0."""
    rng = random.Random(2027)
    out = []
    for k in range(20):
        n, exact = k % 6 + 1, k % 2 == 1
        if k % 5 == 4:
            thresholds = tuple(map(Fraction, tied_phase_thresholds(rng, n)))
            params = Params(thresholds, (Fraction(1),) * n)
            y = canonical_configuration(stationary_profile(params)[0], params)
            tails = sorted(y.positions)  # the bins' tail sums from the front
            a = [str(v) for v in thresholds]
            p = ["1"] * n
            volumes = [str(hi - lo) for lo, hi in zip([0, *tails], [*tails, thresholds[-1] + 1])]
        else:
            def draw(lo, hi):  # in eighths
                return Fraction(rng.randint(lo, hi), 8) if exact else rng.uniform(lo / 8, hi / 8)

            gaps = [draw(4, 12) for _ in range(n)]
            a = [str(v) for v in accumulate(gaps)]
            p = [str(draw(4, 12)) for _ in range(n)]
            volumes = []
            while sum(volumes) < sum(gaps) + 1:
                volumes.append(draw(2, 8))
            volumes = [str(v) for v in volumes]
        t = "0" if k in (6, 13) else ("15" if exact else "60")
        obj = {"a": a, "p": p, "bins": {"front": rng.randint(-3, 5), "volumes": volumes}}
        out.append((obj, ["--t", t, *(["--exact"] if exact else [])]))
    return out


def record(obj: dict, argv: list[str]) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        params, trace = Path(tmp) / "params.json", Path(tmp) / "trace.csv"
        params.write_text(json.dumps(obj))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run(["simulate", "--params", str(params), "--trace", str(trace), *argv])
        csv = trace.read_text() if trace.exists() else None
    return {"params": obj, "argv": argv, "exit": code, "stdout": stdout.getvalue(), "trace": csv}


def test_simulate_output_matches_the_golden_records():
    lines = GOLDEN.read_text().splitlines()
    assert [(r["params"], r["argv"]) for r in map(json.loads, lines)] == golden_cases()
    for line in lines:
        want = json.loads(line)
        assert record(want["params"], want["argv"]) == want, want["argv"]


if __name__ == "__main__":
    for obj, argv in golden_cases():
        sys.stdout.write(json.dumps(record(obj, argv)) + "\n")
