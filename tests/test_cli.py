import csv
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import liquidbin
from liquidbin.cli import EXIT_BAD_INPUT, EXIT_OK, EXIT_WALL, run
from liquidbin.combinatorics import dc_to_dyck, enumerate_dc, is_antichain
from liquidbin.cyclic import jump_order, sample_params
from liquidbin.params import Params
from liquidbin.regions import classify, find_region, solve_system
from liquidbin.stationary import StationaryProfile


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
    assert payload["iterations"] is None
    assert payload["certified_error"] <= 1e-12
    # the inputs are binary fractions: the closed form is exact in float
    assert payload["z"][0] == 1.125
    assert payload["certified_error"] == 0.0


def test_speed_float_where_the_iteration_stalls(capsys):
    # q_1/q_N = 1e-6: the closed form answers where iterating would stall
    code, out, _ = run_cli(capsys, "speed", "--a", "1,2,3", "--p", "0.000001,1,1")
    assert code == EXIT_OK
    speed = json.loads(out)["speed"]
    exact = F(1333334666667, 1666667000000)
    assert abs(F(speed) - exact) <= F(1, 10**15) * exact


def test_speed_float_certificate_covers_the_exact_error(capsys):
    rng = np.random.default_rng(31)
    for n in (2, 3, 5, 8):
        for _ in range(10):
            params = sample_params(rng, n)
            code, out, _ = run_cli(capsys, "speed", "--a", ",".join(map(repr, params.a)),
                                   "--p", ",".join(map(repr, params.p)))
            assert code == EXIT_OK
            payload = json.loads(out)
            exact = StationaryProfile(classify(params.as_exact()).z).breakpoint_times
            printed = StationaryProfile(tuple(F(z) for z in payload["z"])).breakpoint_times
            assert payload["certified_error"] >= max(abs(s - t) for s, t in zip(printed, exact))


def test_speed_float_certificate_above_tol_exits_2(capsys):
    # breakpoint times near 2e5 cannot be carried in floats to 1e-12
    code, out, err = run_cli(capsys, "speed", "--a", "1e5,3e5", "--p", "0.3,0.7")
    assert code == EXIT_BAD_INPUT
    assert out == "" and "certified error" in err
    code, out, _ = run_cli(capsys, "speed", "--a", "1e5,3e5", "--p", "0.3,0.7", "--tol", "1e-9")
    assert code == EXIT_OK
    assert json.loads(out)["certified_error"] <= 1e-9


@pytest.mark.parametrize("tol", ["0", "nan"])
def test_speed_tolerance_must_be_positive(capsys, tol):
    code, out, err = run_cli(capsys, "speed", "--a", "1,2", "--p", "1,1", "--tol", tol)
    assert code == EXIT_BAD_INPUT
    assert out == "" and "tolerance must be positive" in err


@pytest.mark.parametrize("argv", [["speed", "--a", "1,inf", "--p", "1,1"],
                                  ["classify", "--a", "1,2", "--p", "1,nan"],
                                  ["classify", "--a", "1,2", "--p", "1e308,1e308"]])
def test_non_finite_parameters_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert out == "" and "finite" in err


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv", [
    # z_1 underflows to 0.0: the speed divided by zero
    ["classify", "--a", "1.2698722429004309e-113,1.109610378021481e-86",
     "--p", "1.0831266039474487e+28,8.810352311740999e+262"],
    ["cyclic", "--a", "1.671205618876886e-151", "--p", "2.3003374432392067e+275"],
    # a nan gap passed every wall test: the empty graph "verified"
    ["classify", "--a", "1.294501242845795e-65,5.305678245269444e+283",
     "--p", "2.346492116590102e-201,2.207261907847496e+98"],
    # the exact z_1 is beyond the largest float
    ["speed", "--a", "7.205851004419918e+59", "--p", "6.708992481669397e-282"],
    # z_1 is subnormal: the speed 1/z_1 overflowed to Infinity
    ["speed", "--a", "1.1479757898299049e-197", "--p", "2.9116717994614315e+121"],
])
def test_float_results_beyond_the_float_range_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error:") and "float range" in err and "--exact" in err
    # the exact path stays total
    code, out, _ = run_cli(capsys, *argv, "--exact")
    assert code == EXIT_OK
    strict_json(out)


# exact values with no float image: thresholds equal as floats, a value
# that underflows to 0.0 or one that overflows
NO_FLOAT_IMAGE = [("1,1.00000000000000000001", "1,1"), ("1e-400,1", "1,1"), ("1e400,2e400", "1,1")]


@pytest.mark.parametrize("a, p", NO_FLOAT_IMAGE)
def test_exact_commands_need_no_float_image(capsys, a, p):
    params = Params.parse(a.split(","), p.split(","), exact=True)
    g = find_region(params)[0]
    code, out, err = run_cli(capsys, "classify", "--exact", "--a", a, "--p", p)
    assert (code, err) == (EXIT_OK, "")
    report = json.loads(out)
    assert report["verified"] and report["graph_id"] == enumerate_dc(params.n).index(g)
    code, out, err = run_cli(capsys, "speed", "--exact", "--a", a, "--p", p)
    assert (code, err) == (EXIT_OK, "")
    assert json.loads(out)["z"] == [str(x) for x in solve_system(g, params)]


def test_exact_cyclic_needs_no_float_image(capsys):
    # the region of (1, 1 + 10^-20) is connected; that of (10^-400, 1) is not
    a, p = NO_FLOAT_IMAGE[0]
    code, out, err = run_cli(capsys, "cyclic", "--exact", "--a", a, "--p", p)
    assert (code, err) == (EXIT_OK, "")
    params = Params.parse(a.split(","), p.split(","), exact=True)
    assert json.loads(out)["order"] == list(jump_order(params).order)


def test_exact_sweep_point_with_no_float_image(capsys):
    code, out, err = run_cli(capsys, "sweep", "--exact", "--fixed", "a2=1e400,p1=1,p2=1", "--vary", "a1=1:2:1")
    assert (code, err) == (EXIT_OK, "")
    rows = list(csv.DictReader(out.splitlines()))
    for row in rows:
        params = Params((F(row["a1"]), F(10) ** 400), (F(1), F(1)))
        g = find_region(params)[0]
        assert row["graph_id"] == str(enumerate_dc(2).index(g)) and row["error"] == ""
    assert [r["speed"] for r in rows] == ["1", "1/2"]


def test_ibm_exact_speed_beyond_the_float_range_exits_2(capsys):
    # the exact speed 1/z_1 is about 10^400: no float liquid speed to compare
    code, out, err = run_cli(capsys, "ibm", "--exact", "--a", "1e-400,1", "--p", "1,1", "--s", "1e400",
                             "--steps", "10")
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error:") and "float range" in err and "Traceback" not in err
    # the run is already exact: the error names the float liquid speed, not a flag
    assert "liquid speed" in err and "--exact" not in err


def test_sweep_point_beyond_the_float_range_is_an_error_row(capsys):
    code, out, _ = run_cli(
        capsys, "sweep",
        "--fixed", "a1=1.294501242845795e-65,a2=5.305678245269444e+283,p2=2.207261907847496e+98",
        "--vary", "p1=2.346492116590102e-201:2.346492116590102e-201:1",
    )
    assert code == EXIT_OK
    [row] = list(csv.DictReader(out.splitlines()))
    assert row["graph_id"] == "" and "float range" in row["error"]


def test_cyclic_ambiguous_report_far_from_stationary_exits_3(capsys):
    # the float report is ambiguous here and its period is off by 30
    # orders of magnitude; classify exits 3 on it, and so does cyclic
    argv = [
        "--a", "9.368367786357027e-161,2.1338841875828308e-128,7.194459857735867e-18",
        "--p", "9.73188109788971e-256,2.11300772664839e-31,1.3886215430985568e+50",
    ]
    assert run_cli(capsys, "classify", *argv)[0] == EXIT_WALL
    code, out, err = run_cli(capsys, "cyclic", *argv)
    assert code == EXIT_WALL
    assert out == "" and err.startswith("error:")


def test_cyclic_exits_3_wherever_classify_does(capsys):
    # seeded float points over 10^-3..10^3 and 10^-300..10^300, at the
    # default tol and at 0.1: where classify reports a wall, cyclic exits
    # 3 and prints no order, whether or not the reported graph is connected
    rng = np.random.default_rng(13)
    cases = []
    for k in range(300):
        n = int(rng.integers(1, 7))
        span = 3 if k % 2 else 300
        a = sorted((10.0 ** rng.uniform(-span, span, n)).tolist())
        p = (10.0 ** rng.uniform(-span, span, n)).tolist()
        cases.append((a, p, ["--tol", "0.1"] if k % 4 >= 2 else []))
    # two ambiguous points whose float profile is far from stationary
    cases += [
        ([5.8101784828840416e-58, 2.4842981036110204e-36, 6.075312071081213e+27],
         [4.278087690407553e+22, 6.703650257493241e+74, 1.4354904017962119e+122], []),
        ([1.27705879380463e-199, 1.2587245741214937e-182, 9.226264790206503e+197],
         [2.008696192047241e+102, 7.916571598568132e+139, 1.741770833616471e+170], []),
    ]
    walls = 0
    for a, p, tol in cases:
        argv = ["--a", ",".join(map(repr, a)), "--p", ",".join(map(repr, p)), *tol]
        if run_cli(capsys, "classify", *argv)[0] != EXIT_WALL:
            continue
        walls += 1
        code, out, err = run_cli(capsys, "cyclic", *argv)
        assert out == "", argv
        assert code == EXIT_WALL and err.startswith("error:"), argv
    assert walls >= 20, walls


def test_extreme_parameters_give_an_exit_code_and_strict_json(capsys):
    # values over 10^-300..10^300, float and exact: every call ends in a
    # documented exit code, never a traceback, and stdout is strict JSON
    rng = np.random.default_rng(11)
    codes = {}
    for _ in range(300):
        cmd = ["classify", "speed", "cyclic"][rng.integers(3)]
        n = int(rng.integers(1, 5))
        a = sorted((10.0 ** rng.uniform(-300, 300, n)).tolist())
        p = (10.0 ** rng.uniform(-300, 300, n)).tolist()
        argv = [cmd, "--a", ",".join(map(repr, a)), "--p", ",".join(map(repr, p))]
        if rng.random() < 0.3:
            argv.append("--exact")
        code, out, err = run_cli(capsys, *argv)
        assert code in (EXIT_OK, EXIT_BAD_INPUT, EXIT_WALL), argv
        if code == EXIT_BAD_INPUT:
            assert err.startswith("error:"), argv
        if out:
            strict_json(out)
        codes[code] = codes.get(code, 0) + 1
    assert codes[EXIT_OK] and codes[EXIT_BAD_INPUT]


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


def test_enumerate_streams_its_rows(tmp_path, capsys):
    # the 4,862 rows at N = 9 are written as they are built: the graph
    # tuple and the row list took 12 MB of traced allocation, the 4,096
    # cached Dyck words take about 2 MB
    path = tmp_path / "graphs.csv"
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "enumerate", "--n", "9", "--out", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and peak < 5 * 10**6
    rows = list(csv.DictReader(path.read_text().splitlines()))
    assert [(r["graph_id"], r["dyck"]) for r in rows] == [
        (str(i), dc_to_dyck(g).word) for i, g in enumerate(enumerate_dc(9))]


def test_adjacency_table(capsys):
    code, out, _ = run_cli(capsys, "adjacency", "--n", "3")
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 10
    adjacent = [r for r in rows if r["adjacent"] == "1"]
    assert all(r["codim"] for r in adjacent)


def test_adjacency_table_matches_pairwise_antichain_reference(capsys):
    code, out, _ = run_cli(capsys, "adjacency", "--n", "5")
    assert code == EXIT_OK
    graphs = enumerate_dc(5)
    expected = [["id1", "dyck1", "id2", "dyck2", "adjacent", "codim"]]
    for i, g1 in enumerate(graphs):
        for j, g2 in enumerate(graphs[i + 1:], i + 1):
            delta = g1.edges ^ g2.edges
            adjacent = is_antichain(delta)
            expected.append([str(i), dc_to_dyck(g1).word, str(j), dc_to_dyck(g2).word,
                             str(int(adjacent)), str(len(delta)) if adjacent else ""])
    assert list(csv.reader(out.splitlines())) == expected


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


def test_simulate_trace_is_written_as_it_is_formatted(tmp_path, capsys):
    # the 13,932 events of the N = 5 run to t = 12,800 stay in memory as
    # the event log, but their CSV rows are written as they are formatted,
    # never held as a second list beside it
    params_file = tmp_path / "sim5.json"
    params_file.write_text(json.dumps({
        "a": [0.9, 2.1, 3.05, 4.2, 5.0], "p": [0.13, 0.11, 0.17, 0.09, 0.14],
        "bins": {"front": 6, "volumes": [0.5, 0.8, 0.3, 0.9, 0.6, 0.7, 0.4, 0.55, 0.95]}}))
    argv = ["simulate", "--params", str(params_file), "--t", "12800"]
    run_cli(capsys, *argv[:-1], "1")  # compiles the bin loop of N = 5 untraced

    def peak(*extra):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, *argv, *extra)
            return code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    code, plain = peak()
    assert code == EXIT_OK
    code, traced = peak("--trace", str(tmp_path / "trace.csv"))
    assert code == EXIT_OK and traced <= 1.1 * plain, (plain, traced)
    assert len((tmp_path / "trace.csv").read_text().splitlines()) == 13932 + 1


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


def test_cyclic_float_report_near_a_wall_exits_3(capsys):
    # classify reports this point ambiguous at tol 0.1: no order is read off it
    argv = ["--a", "1.0,2.5,4.75,6.0,6.75", "--p", "1.0,2.0,3.0,1.0,3.0", "--tol", "0.1"]
    code, out, err = run_cli(capsys, "cyclic", *argv)
    assert code == EXIT_WALL
    assert out == "" and err.startswith("error:")
    code, out, _ = run_cli(capsys, "classify", *argv)
    assert code == EXIT_WALL and json.loads(out)["ambiguous"] is True


# classify reports this point ambiguous at tol 0.1; a negative or nan tol
# would flag no wall and report it unflagged
NEAR_WALL = ["--a", "2.4659743231029303,10.7513937160083,12.007315042685455,13.794431612047934",
             "--p", "0.9271190790113588,2.8895352417819145,0.09828989253005423,1.6235053213437434"]


@pytest.mark.parametrize("tol", ["-0.1", "nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [
    ["classify", *NEAR_WALL],
    ["cyclic", *NEAR_WALL],
    ["sweep", "--fixed", "a1=0.3,a2=1,p2=1-p1", "--vary", "p1=0.1:0.9:0.1"],
], ids=["classify", "cyclic", "sweep"])
def test_tol_must_be_finite_and_nonnegative(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error:") and "finite and >= 0" in err


def test_tol_zero_allowed_and_the_wall_still_found_at_tol_0_1(capsys):
    for cmd in ("classify", "cyclic"):
        code, _, _ = run_cli(capsys, cmd, *NEAR_WALL, "--tol", "0.1")
        assert code == EXIT_WALL
        code, _, _ = run_cli(capsys, cmd, *NEAR_WALL, "--tol", "0")
        assert code == EXIT_OK
    with pytest.raises(ValueError, match="finite and >= 0"):
        classify(sample_params(np.random.default_rng(0), 3), tol=-1e-9)


@pytest.mark.parametrize("vary", [
    "a1=1e16:2e16:1", "a1=1:inf:1", "a1=-inf:1:1", "a1=nan:1:1", "a1=1:nan:1", "a1=1:2:inf",
    "a1=1:2:nan",
])
def test_sweep_range_that_would_not_end_exits_2(capsys, vary):
    # a step below half an ulp of v never advances it; an infinite end
    # is never reached
    code, out, err = run_cli(capsys, "sweep", f"--vary={vary}", "--fixed", "p1=1")
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("vary, fixed", [
    (["a1=0:1e9:1"], "p1=1"), (["a1=1:1001:1", "a2=1002:2001:1"], "p1=1,p2=1"),
])
def test_sweep_grid_above_the_bound_exits_2_before_it_is_built(capsys, vary, fixed):
    # 10^9 + 1 and 1,000 x 1,001 points: refused from start, stop and
    # step alone, with no value of the grid built
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "sweep", *(f"--vary={v}" for v in vary), "--fixed", fixed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error:") and "1000000 grid points" in err
    assert peak < 10**6


@pytest.mark.parametrize("mode, values", [([], ["0.0", "0.4", "0.8"]), (["--exact"], ["0", "2/5", "4/5"])])
def test_sweep_range_never_passes_stop(capsys, mode, values):
    # (stop - start)/step = 2.5: exact mode also gave 6/5, past stop = 1
    code, out, _ = run_cli(capsys, "sweep", *mode, "--fixed", "a1=1,a2=2,p2=2-p1", "--vary", "p1=0:1:0.4")
    assert code == EXIT_OK
    assert [r["p1"] for r in csv.DictReader(out.splitlines())] == values


def test_sweep_range_takes_no_step_past_its_last_value(capsys):
    # 2^53 - 2, 2^53 - 1, 2^53: one more step would not advance past 2^53,
    # but the count stops the range before that step is taken
    code, out, _ = run_cli(capsys, "sweep", "--vary", "a1=9007199254740990:9007199254740992:1", "--fixed", "p1=1")
    assert code == EXIT_OK
    assert [r["a1"] for r in csv.DictReader(out.splitlines())] == [
        "9007199254740990.0", "9007199254740991.0", "9007199254740992.0"]


def test_sweep_without_coordinate_names_exits_2(capsys):
    code, out, err = run_cli(capsys, "sweep", "--vary", "x=0.1:0.5:0.1")
    assert code == EXIT_BAD_INPUT
    assert out == "" and "a1..aN and p1..pN" in err


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


@pytest.mark.parametrize(
    "argv, obj",
    [
        (["extensions", "--graph"], {"n": 3}),
        (["extensions", "--graph"], {"edges": [[1, 2]]}),
        (["extensions", "--graph"], [1, 2]),
        (["simulate", "--t", "1", "--params"], {"a": [1, 2], "p": [1, 1], "bins": {"front": 2}}),
        (["simulate", "--t", "1", "--params"],
         {"a": [1, 2], "p": [1, 1], "bins": {"front": 2, "volumes": 5}}),
        (["simulate", "--t", "1", "--params"],
         {"a": [1, 2], "p": [1, 1], "bins": {"front": 2, "volumes": "35"}}),
        (["extensions", "--graph"], {"n": 3.9, "edges": [["1", "2"], "23"]}),
        (["extensions", "--graph"], {"n": 3.9, "edges": []}),
        (["extensions", "--graph"], {"n": True, "edges": []}),
        (["extensions", "--graph"], {"n": 3, "edges": [["1", "2"]]}),
        (["extensions", "--graph"], {"n": 3, "edges": ["23"]}),
        (["extensions", "--graph"], {"n": 3, "edges": [[1, 2, 3]]}),
        (["simulate", "--t", "1", "--params"],
         {"a": "123", "p": [1, 1, 1], "bins": {"front": 3, "volumes": [1, 1, 1, 1]}}),
        (["simulate", "--t", "1", "--params"],
         {"a": [1, 2, 3], "p": "111", "bins": {"front": 3, "volumes": [1, 1, 1, 1]}}),
        (["simulate", "--t", "1", "--params"],
         {"a": [True, 2], "p": [1, 1], "bins": {"front": 2, "volumes": [1, 1, 1]}}),
        (["simulate", "--t", "1", "--params"],
         {"a": [1, 2], "p": [True, 1], "bins": {"front": 2, "volumes": [1, 1, 1]}}),
        (["simulate", "--t", "1", "--exact", "--params"],
         {"a": [True, 2], "p": [1, 1], "bins": {"front": 2, "volumes": [1, 1, 1]}}),
        (["simulate", "--t", "1", "--exact", "--params"],
         {"a": [1, 2], "p": [True, 1], "bins": {"front": 2, "volumes": [1, 1, 1]}}),
        (["simulate", "--t", "1", "--params"],
         {"a": [1, 2], "p": [1, 1], "bins": {"front": 2.7, "volumes": [1, 1, 1]}}),
        (["simulate", "--t", "1", "--params"],
         {"a": [1, 2], "p": [1, 1], "bins": {"front": True, "volumes": [1, 1, 1]}}),
        (["simulate", "--t", "1", "--params"],
         {"a": [1, 2], "p": [1, 1], "bins": {"front": "2", "volumes": [1, 1, 1]}}),
    ],
    ids=["graph-without-edges", "graph-without-n", "graph-not-object", "bins-without-volumes",
         "bins-volumes-not-list", "bins-volumes-string", "graph-coerced", "graph-float-n",
         "graph-bool-n", "graph-string-vertex", "graph-string-edge", "graph-three-vertex-edge",
         "params-a-string", "params-p-string", "params-a-bool", "params-p-bool",
         "params-a-bool-exact", "params-p-bool-exact", "bins-front-float", "bins-front-bool",
         "bins-front-string"],
)
def test_malformed_input_file_reported(tmp_path, capsys, argv, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == EXIT_BAD_INPUT
    assert out == "" and "bad" in err


def test_conjecture_negative_budget_rejected(capsys):
    code, out, err = run_cli(capsys, "conjecture", "--n", "3", "--budget", "-3")
    assert code == EXIT_BAD_INPUT
    assert out == "" and "budget" in err
    code, out, _ = run_cli(capsys, "conjecture", "--n", "3", "--budget", "0")
    assert code == EXIT_OK
    assert [g["samples"] for g in json.loads(out)["graphs"]] == [0, 0]


@pytest.mark.parametrize("n", [13, 40])
def test_conjecture_refuses_large_n_before_enumerating(n):
    # C_13 = 742,900 graphs: the refusal must come before any is built, so
    # in a subprocess under a timeout
    src = str(Path(liquidbin.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "liquidbin.cli", "conjecture", "--n", str(n), "--budget", "1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stdout == ""
    assert proc.stderr == f"error: refusing factorial enumeration for n = {n} > 9\n"


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


def test_conjecture_output_identical_across_jobs(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "conjecture", "--n", "4", "--budget", "200", "--seed", "3", "--jobs", jobs)
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]


def test_sweep_2d_float_csv_identical_across_jobs(tmp_path, capsys):
    # 30 points, error rows (p2 <= 0, a1 >= a2) among them
    argv = ["sweep", "--fixed", "a2=1,p2=1-p1", "--vary", "p1=0.25:1.5:0.25", "--vary", "a1=0.2:1.8:0.4"]
    csvs = []
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.csv"
        code, _, _ = run_cli(capsys, *argv, "--jobs", jobs, "--out", str(path))
        assert code == EXIT_OK
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]
    rows = list(csv.DictReader(csvs[0].decode().splitlines()))
    assert len(rows) == 30
    assert 0 < sum(bool(r["error"]) for r in rows) < 30


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


@pytest.mark.parametrize("scale", ["inf", "1e19"])
def test_ibm_scale_beyond_int64_moves_exits_2(capsys, scale):
    code, out, err = run_cli(capsys, "ibm", "--a", "1.5,2.5", "--p", "0.5,1.5", "--s", scale, "--steps", "10")
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: scale") and "Traceback" not in err


def test_ibm_burn_in_beyond_the_limit_exits_2(capsys):
    # scale 1e9 puts the largest atom at 2.5e9: a 2.5e10-move burn-in,
    # about an hour and a half of chain steps, refused at once
    code, out, err = run_cli(
        capsys, "ibm", "--a", "1.5,2.5", "--p", "0.5,1.5", "--s", "20,1e9", "--steps", "10")
    assert code == EXIT_BAD_INPUT
    assert out == "" and err.startswith("error: max move 2500000000") and "Traceback" not in err
    assert "limit of 100000000" in err


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
