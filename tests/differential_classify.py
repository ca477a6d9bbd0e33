"""Differential check of classify, speed and cyclic between two source trees.

`run` writes one JSON record per CLI call (argv, exit code, stdout and
stderr) over both golden argv lists and about 10,000 seeded points, each
point given to classify, speed and cyclic:

- phase-diagram-like points: N = 3..8, log-uniform gaps and rates over
  10^+-2, one in four exact with denominators <= 1000;
- sample_params points at N = 3..9, at --tol 1e-9 and 0.1;
- decimal near-wall points at N = 3..12 (a wall point scaled by 0.1 and
  written in decimals), in float at --tol 1e-9 and 0.1 and exactly at
  their binary values;
- log-uniform points over 10^+-300 at N = 1..6, float and exact, and at
  N = 7, 8 in float (classify and cyclic only: there float speed, exact
  at the binary value, took minutes a point before the exact walk).

`compare` holds the new records to the old: a record may change only
within {ambiguous report (exit 3), float-range error (exit 2)}, and a
cyclic record from a "not connected" error on a report that classify
called ambiguous into that set too (cyclic now tests ambiguity first).
Every other record, unambiguous reports included, must be
byte-identical.

    PYTHONPATH=<old tree>/src python tests/differential_classify.py run > old.jsonl
    PYTHONPATH=<new tree>/src python tests/differential_classify.py run > new.jsonl
    python tests/differential_classify.py compare old.jsonl new.jsonl

`run K M` writes only the records of every M-th argv from the K-th on, so
M processes can share the work; concatenate their outputs in any order.
"""
import collections
import contextlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np


def _tail(a, p, mode) -> list[str]:
    def text(x):
        return f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else repr(x)
    return ["--a", ",".join(map(text, a)), "--p", ",".join(map(text, p)), *mode]


def _log_uniform(rng, n, span):
    # over 10^+-2 the gaps are log-uniform (phase-diagram's law); over
    # 10^+-300, where a sum of gaps would swallow the small ones, the
    # thresholds are (the tests' golden law)
    if span > 2:
        a = sorted((10.0 ** rng.uniform(-span, span, n)).tolist())
    else:
        a = np.cumsum(10.0 ** rng.uniform(-span, span, n)).tolist()
    return a, (10.0 ** rng.uniform(-span, span, n)).tolist()


def point_tails() -> list[tuple[list[str], tuple[str, ...]]]:
    from conftest import tied_phase_thresholds
    from liquidbin.cyclic import sample_params

    tails = []
    rng = np.random.default_rng(1601)
    for k in range(4000):
        n = (3, 3, 4, 4, 5, 5, 6, 7, 8)[k % 9]
        a, p = _log_uniform(rng, n, 2)
        if k % 4 == 3:
            d = [Fraction(x).limit_denominator(1000) for x in np.diff([0.0, *a])]
            a = [sum(d[:i + 1]) for i in range(n)]
            p = [Fraction(x).limit_denominator(1000) for x in p]
            tails.append(_tail(a, p, ["--exact"]))
        else:
            tails.append(_tail(a, p, []))
    for n in range(3, 10):
        rng = np.random.default_rng([1602, n])
        for k in range(150):
            params = sample_params(rng, n)
            for tol in ("1e-9", "0.1"):
                tails.append(_tail(params.a, params.p, ["--tol", tol]))
    wall_rng = random.Random(1603)
    for n in range(3, 13):
        for _ in range(100 if n <= 9 else 20):
            a = [float(f"{x / 10}") for x in tied_phase_thresholds(wall_rng, n)]
            p = [0.1] * n
            for tol in ("1e-9", "0.1"):
                tails.append(_tail(a, p, ["--tol", tol]))
            tails.append(_tail(map(Fraction, a), map(Fraction, p), ["--exact"]))
    rng = np.random.default_rng(1604)
    for k in range(1800):
        n = 1 + k % 6
        a, p = _log_uniform(rng, n, 300)
        if k % 3 == 2:
            tails.append(_tail(map(Fraction, a), map(Fraction, p), ["--exact"]))
        else:
            tails.append(_tail(a, p, ["--tol", ("1e-9", "0.1")[k % 3]]))
    every = ("classify", "speed", "cyclic")
    tails = [(tail, every) for tail in tails]
    rng = np.random.default_rng(1605)
    for k in range(400):
        a, p = _log_uniform(rng, 7 + k % 2, 300)
        tails.append((_tail(a, p, ["--tol", ("1e-9", "0.1")[k // 2 % 2]]), ("classify", "cyclic")))
    return tails


def all_argv() -> list[list]:
    from test_golden_cli import golden_argv
    from test_golden_extensions import golden_commands

    argv = golden_argv() + golden_commands()
    for tail, commands in point_tails():
        argv += [[cmd, *tail] for cmd in commands]
    return argv


def record(argv: list, workdir: Path) -> dict:
    from liquidbin.cli import run

    def call(args):
        args = [str(workdir / "graph.json") if isinstance(x, dict) else x for x in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(args)
        return code, out.getvalue(), err.getvalue()

    for x in argv:
        if isinstance(x, dict):
            (workdir / "graph.json").write_text(json.dumps(x))
    code, out, err = call(argv)
    rec = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
    if argv[0] == "cyclic":
        rec["classify_exit"] = call(["classify", *argv[1:]])[0]
    return rec


def outcome(rec: dict) -> str:
    if rec["exit"] == 2 and "float range" in rec["stderr"]:
        return "range"
    return {0: "clean", 3: "ambiguous"}.get(rec["exit"], "error")


def allowed(old: dict, new: dict) -> bool:
    loose = {"ambiguous", "range"}
    if {outcome(old), outcome(new)} <= loose:
        return True
    return (old["argv"][0] == "cyclic" and "not connected" in old["stderr"]
            and old["classify_exit"] == 3 and outcome(new) in loose)


def compare(old_path: str, new_path: str) -> int:
    def load(path):
        with open(path) as fh:
            return sorted(map(json.loads, fh), key=lambda r: json.dumps(r["argv"]))

    old, new = load(old_path), load(new_path)
    if [r["argv"] for r in old] != [r["argv"] for r in new]:
        print(f"argv differ: {len(old)} old, {len(new)} new records")
        return 1
    moves, bad = collections.Counter(), 0
    for o, n in zip(old, new):
        if o == n:
            continue
        moves[outcome(o), outcome(n), o["argv"][0]] += 1
        if not allowed(o, n):
            bad += 1
            print("NOT ALLOWED", json.dumps(o), json.dumps(n), sep="\n")
    print(f"{len(old)} records, {sum(moves.values())} changed, {bad} not allowed")
    for (a, b, cmd), count in sorted(moves.items()):
        print(f"  {cmd}: {a} -> {b}: {count}")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    k, m = (int(x) for x in sys.argv[2:4]) if len(sys.argv) > 2 else (0, 1)
    with tempfile.TemporaryDirectory() as tmp:
        for argv in all_argv()[k::m]:
            sys.stdout.write(json.dumps(record(argv, Path(tmp))) + "\n")
            sys.stdout.flush()
