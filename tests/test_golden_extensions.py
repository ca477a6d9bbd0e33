"""extensions and conjecture held byte for byte to recorded output.

tests/data/extensions_golden.jsonl holds one record per command: the
argv (a graph file's contents in place of its path), the exit code and
stdout.  They fix the chain order of zprime_chains, the extension lists
and the probe counts.  The `extensions` records and the `--n 4` probe
were written by the code before the b map moved onto DCGraph; the other
probes by the code that drew one sample per `sample_params` call, before
the probe drew its samples in chunks.  The records are written with

    PYTHONPATH=src python tests/test_golden_extensions.py > tests/data/extensions_golden.jsonl
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from liquidbin.combinatorics import enumerate_dc
from liquidbin.cli import run

GOLDEN = Path(__file__).parent / "data" / "extensions_golden.jsonl"


def golden_commands() -> list[list]:
    """`extensions` for every connected graph at N = 1..6 (65 graphs, the
    graph given as its JSON object), then four `conjecture` runs, the
    last with a budget far beyond what any probe draws."""
    out = []
    for n in range(1, 7):
        for g in enumerate_dc(n):
            # connected: every vertex below n reaches past itself
            if all((i, i + 1) in g.edges for i in range(1, n)):
                out.append(["extensions", "--graph", g.to_json_dict()])
    out.append(["conjecture", "--n", "4", "--budget", "300", "--seed", "3"])
    out.append(["conjecture", "--n", "5", "--budget", "200", "--seed", "7"])
    out.append(["conjecture", "--n", "6", "--budget", "100", "--seed", "1"])
    out.append(["conjecture", "--n", "3", "--budget", "99999999999999999999"])
    return out


def record(command: list, workdir: Path) -> dict:
    argv = []
    for arg in command:
        if isinstance(arg, dict):
            path = workdir / "graph.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        argv.append(arg)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return {"argv": command, "exit": code, "stdout": stdout.getvalue()}


def test_extensions_and_conjecture_match_the_golden_records(tmp_path):
    lines = GOLDEN.read_text().splitlines()
    assert [json.loads(line)["argv"] for line in lines] == golden_commands()
    assert sum(line.startswith('{"argv": ["extensions"') for line in lines) == 65
    for line in lines:
        want = json.loads(line)
        assert record(want["argv"], tmp_path) == want, want["argv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for command in golden_commands():
            sys.stdout.write(json.dumps(record(command, Path(tmp))) + "\n")
