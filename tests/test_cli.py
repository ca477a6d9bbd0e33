import csv
import json

import pytest

from liquidbin.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_WALL, run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_speed_exact(capsys):
    code, out, _ = run_cli(capsys, "speed", "--a", "1.5,2.5", "--p", "0.5,1.5", "--exact")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["z"] == ["9/8", "1/2"]
    assert payload["speed"] == "8/9"
    assert payload["certified_error"] == "0"


def test_speed_exact_reports_closed_form_without_iterations(capsys):
    # q_1/q_N = 1e-6: the float iteration stalls, the closed form does not
    code, out, _ = run_cli(capsys, "speed", "--a", "1,2,3", "--p", "1/1000000,1,1", "--exact")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["speed"] == "1333334666667/1666667000000"
    assert payload["iterations"] is None
    assert payload["certified_error"] == "0"


def test_speed_float(capsys):
    code, out, _ = run_cli(capsys, "speed", "--a", "1.5,2.5", "--p", "0.5,1.5", "--tol", "1e-12")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert abs(payload["z"][0] - 1.125) < 1e-11
    assert payload["iterations"] >= 1
    assert payload["certified_error"] <= 1e-12


def test_speed_accepts_rational_tokens(capsys):
    code, out, _ = run_cli(capsys, "speed", "--a", "3/2,5/2", "--p", "1/2,3/2", "--exact")
    assert code == EXIT_OK
    assert json.loads(out)["speed"] == "8/9"


def test_exact_and_tol_mutually_exclusive(capsys):
    code, _, _ = run_cli(capsys, "speed", "--a", "1,2", "--p", "1,1", "--exact", "--tol", "1e-9")
    assert code == EXIT_BAD_INPUT


def test_classify_wall_exact(capsys):
    code, out, _ = run_cli(capsys, "classify", "--a", "1,2,3", "--p", "1,1,1", "--exact")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["edges"] == [[1, 2], [2, 3]]
    assert payload["boundary_flags"] == [[1, 3]]
    assert payload["ambiguous"] is False


def test_classify_wall_float_exits_3(capsys):
    code, out, _ = run_cli(capsys, "classify", "--a", "1,2,3", "--p", "1,1,1")
    assert code == EXIT_WALL
    assert json.loads(out)["ambiguous"] is True


def test_classify_reports_bad_a_with_token(capsys):
    code, _, err = run_cli(capsys, "classify", "--a", "2,1", "--p", "1,1")
    assert code == EXIT_BAD_INPUT
    assert "a[1] = 1" in err


def test_malformed_number_reported(capsys):
    code, _, err = run_cli(capsys, "speed", "--a", "1,zebra", "--p", "1,1")
    assert code == EXIT_BAD_INPUT
    assert "zebra" in err


def test_enumerate_rows(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3")
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 5
    assert rows[0]["dyck"] == "+++---"
    assert json.loads(rows[0]["edges"]) == [[1, 2], [1, 3], [2, 3]]


def test_adjacency_table(capsys):
    code, out, _ = run_cli(capsys, "adjacency", "--n", "3")
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 10
    adjacent = [r for r in rows if r["adjacent"] == "1"]
    assert all(r["codim"] for r in adjacent)


def test_simulate_roundtrip(tmp_path, capsys):
    params_file = tmp_path / "params.json"
    params_file.write_text(
        json.dumps(
            {
                "a": ["3/2", "5/2"],
                "p": ["1/2", "3/2"],
                "bins": {"front": 2, "volumes": ["1", "3/2", "3/2"]},
            }
        )
    )
    trace = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--params",
        str(params_file),
        "--t",
        "9/8",
        "--trace",
        str(trace),
        "--exact",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["front"] == 3
    rows = list(csv.DictReader(trace.read_text().splitlines()))
    assert [r["kind"] for r in rows] == ["cursor-jump", "cursor-jump"]
    assert [r["time"] for r in rows] == ["1/4", "3/4"]
    assert [r["index"] for r in rows] == ["1", "2"]


def test_sweep_csv(tmp_path, capsys):
    out_path = tmp_path / "phase.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep",
        "--fixed",
        "a1=0.3,a2=1,p2=1-p1",
        "--vary",
        "p1=0.1:0.9:0.1",
        "--out",
        str(out_path),
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(rows) == 9
    assert set(rows[0]) == {"p1", "graph_id", "dyck", "speed", "on_wall", "error"}
    assert {r["graph_id"] for r in rows} == {"0", "1"}


def test_cyclic_command(capsys):
    code, out, _ = run_cli(capsys, "cyclic", "--a", "1.5,2.5", "--p", "0.5,1.5", "--exact")
    assert code == EXIT_OK
    assert json.loads(out)["order"] == [1, 2]


def test_cyclic_wall_tie_exit_codes(capsys):
    code, _, err = run_cli(capsys, "cyclic", "--a", "1,2,3", "--p", "1,1,1", "--exact")
    assert code == EXIT_BAD_INPUT
    assert "simultaneously" in err
    code, _, _ = run_cli(capsys, "cyclic", "--a", "1,2,3", "--p", "1,1,1")
    assert code == EXIT_WALL


def test_cyclic_disconnected_rejected(capsys):
    code, _, err = run_cli(capsys, "cyclic", "--a", "1,50", "--p", "1,1", "--exact")
    assert code == EXIT_BAD_INPUT
    assert "not connected" in err


def test_extensions_command(tmp_path, capsys):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3]]}))
    code, out, _ = run_cli(capsys, "extensions", "--graph", str(graph_file))
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["extensions"] == [[1, 3, 2]]
    assert payload["chains"] == [[2, 1, 3]]


def test_conjecture_command(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "conjecture",
        "--n",
        "3",
        "--budget",
        "20000",
        "--seed",
        "7",
        "--out",
        str(report_file),
    )
    assert code == EXIT_OK
    payload = json.loads(report_file.read_text())
    assert payload["all_covered"] is True
    assert len(payload["graphs"]) == 2
    assert json.loads(out)["all_covered"] is True


def test_conjecture_master_seeds_do_not_share_streams(capsys):
    seeds = []
    for master in ("0", "1000"):
        code, out, _ = run_cli(capsys, "conjecture", "--n", "3", "--budget", "50", "--seed", master)
        assert code == EXIT_OK
        seeds.append({g["seed"] for g in json.loads(out)["graphs"]})
    assert len(seeds[0]) == 2 and not seeds[0] & seeds[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--fixed", "a1=0.3,a2=1,p2=1-p1", "--vary", "p1=0.1:0.3:0.1"],
        ["conjecture", "--n", "3", "--budget", "10"],
        ["ibm", "--a", "1.5,2.5", "--p", "0.5,1.5", "--s", "20", "--steps", "1000"],
    ],
    ids=["sweep", "conjecture", "ibm"],
)
def test_jobs_below_one_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--jobs", "0")
    assert code == EXIT_BAD_INPUT
    assert out == "" and "jobs" in err


def test_ibm_command(tmp_path, capsys):
    out_path = tmp_path / "hydro.csv"
    code, _, _ = run_cli(
        capsys,
        "ibm",
        "--a",
        "1.5,2.5",
        "--p",
        "0.5,1.5",
        "--s",
        "20,50",
        "--steps",
        "20000",
        "--seed",
        "7",
        "--out",
        str(out_path),
    )
    assert code == EXIT_OK
    rows = list(csv.DictReader(out_path.read_text().splitlines()))
    assert [r["s"] for r in rows] == ["20.0", "50.0"]
    for r in rows:
        assert abs(float(r["liquid_speed"]) - 4 / 9) < 1e-12
        assert float(r["gap"]) >= 0


def test_unknown_command(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == EXIT_BAD_INPUT


def test_missing_file_reported(capsys):
    code, _, err = run_cli(capsys, "extensions", "--graph", "/nonexistent/g.json")
    assert code == EXIT_BAD_INPUT
    assert "nonexistent" in err
