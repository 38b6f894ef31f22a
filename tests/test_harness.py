import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from rangeskyline import cli, harness, netsim
from rangeskyline.harness import (
    CSV_HEADER,
    build_world,
    csv_row,
    distributed_ttl,
    parse_config,
    query_windows,
    run_scenario,
    scenario1,
    scenario2,
    summarize,
    sweep,
    sweep_values,
    world_horizon,
)
from rangeskyline.netsim import Simulator
from rangeskyline.skyline import DataObject


# ---------------------------------------------------------------------------
# presets and configuration
# ---------------------------------------------------------------------------

def test_scenario1_matches_published_parameters():
    s = scenario1()
    assert (s.area_width, s.area_height) == (400.0, 400.0)
    assert s.node_count == 100
    assert s.query_count == 1
    assert s.query_range == 80.0
    assert s.transmission_range == 75.0
    assert s.speed_min == s.speed_max == 2.0
    assert s.ttl_centralized == 5
    assert s.bandwidth_bps == 2_000_000.0
    assert s.is_snapshot


def test_scenario2_matches_published_parameters():
    s = scenario2()
    assert (s.area_width, s.area_height) == (500.0, 500.0)
    assert s.node_count == 60
    assert s.query_range == 100.0
    assert s.delta_t == 10.0
    assert s.transmission_range == 75.0
    assert s.speed_max == 10.0
    assert s.sim_horizon == 60.0
    assert not s.is_snapshot


def test_config_round_trip_and_types():
    text = """
    # overrides
    node_count = 42
    query_range = 90.5
    name = tweaked
    """
    scen = parse_config(text, base=scenario1())
    assert scen.node_count == 42
    assert scen.query_range == 90.5
    assert scen.name == "tweaked"
    assert scen.transmission_range == 75.0  # untouched base value


def test_unknown_config_key_rejected():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("bogus_knob = 3")


def test_malformed_config_line_rejected():
    with pytest.raises(ValueError, match="expected key"):
        parse_config("node_count 42")
    with pytest.raises(ValueError, match="^line 2: query_range: could not convert"):
        parse_config("node_count = 42\nquery_range = abc")


def test_ttl_derivation_on_default_densities():
    assert distributed_ttl(scenario1()) == 2
    sparse = replace(scenario2(), node_count=20)
    assert distributed_ttl(sparse) == sparse.ttl_cap


# ---------------------------------------------------------------------------
# paired seeding
# ---------------------------------------------------------------------------

def test_world_identical_across_approaches():
    scen = scenario2()
    a = build_world(scen, "pair")
    b = build_world(scen, "pair")
    assert [n.plan.legs for n in a] == [n.plan.legs for n in b]
    assert [n.attrs for n in a] == [n.attrs for n in b]


def test_query_windows_deterministic_and_in_range():
    scen = scenario2()
    w1 = query_windows(scen, "pair")
    w2 = query_windows(scen, "pair")
    assert w1 == w2
    for t0, t_end in w1:
        assert 1.0 <= t0 <= harness.LATEST_WINDOW_START
        assert t_end == t0 + scen.delta_t


# ---------------------------------------------------------------------------
# runs and sweeps
# ---------------------------------------------------------------------------

def small_snapshot():
    return replace(scenario1(), node_count=30, name="mini1")


def small_continuous():
    return replace(scenario2(), node_count=25, delta_t=5.0, name="mini2")


def test_run_rejects_mismatched_approach():
    with pytest.raises(ValueError):
        run_scenario(small_snapshot(), 1, "dcrsq")
    with pytest.raises(ValueError):
        run_scenario(small_continuous(), 1, "drsq")


def test_csv_header_is_schema_exact():
    assert CSV_HEADER == (
        "scenario,approach,param,value,rep,response_time_s,msgs_total,"
        "msgs_flood,msgs_reply,msgs_update,accessed_objects,precision,recall"
    )


def test_csv_row_shape():
    result = run_scenario(small_snapshot(), 7, "drsq")
    row = csv_row(result, "node_count", 30, 0)
    parts = row.split(",")
    assert len(parts) == len(CSV_HEADER.split(","))
    assert parts[0] == "mini1"
    assert parts[1] == "drsq"
    assert int(parts[6]) == result.msgs_total


def test_sweep_is_byte_deterministic():
    scen = replace(small_snapshot(), replications=2)
    lines1 = sweep(scen, "node_count", [20, 30])
    lines2 = sweep(scen, "node_count", [20, 30])
    assert lines1 == lines2
    assert lines1[0] == CSV_HEADER
    # 2 values x 2 reps x 2 approaches
    assert len(lines1) == 1 + 8


def test_sweep_rejects_unknown_parameter():
    with pytest.raises(ValueError):
        sweep(small_snapshot(), "warp_factor", [1])


def test_summarize_single_rep_has_no_ci():
    lines = sweep(replace(small_snapshot(), replications=1), "node_count", [20])
    cells = summarize(lines, "msgs_total")
    assert all(c.ci95 is None and c.n == 1 for c in cells)


def test_summarize_means_match_rows():
    lines = sweep(replace(small_snapshot(), replications=3), "node_count", [20])
    rows = [line.split(",") for line in lines[1:]]
    drsq_vals = [int(r[6]) for r in rows if r[1] == "drsq"]
    cells = {c.approach: c for c in summarize(lines, "msgs_total")}
    assert cells["drsq"].mean == pytest.approx(sum(drsq_vals) / len(drsq_vals))
    assert cells["drsq"].n == 3


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

# The child does not inherit pytest's pythonpath: it imports the package
# from this checkout's src, put first on its PYTHONPATH.
SRC = str(Path(__file__).resolve().parents[1] / "src")
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "rangeskyline.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=CLI_ENV,
    )


def test_cli_run_writes_csv(tmp_path):
    out = tmp_path / "m.csv"
    proc = run_cli(
        "run", "--preset", "scenario1", "--seed", "7", "--out", str(out),
        "--scenario", str(_mini_cfg(tmp_path)),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # centralized + drsq


def _mini_cfg(tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text("node_count = 25\n")
    return cfg


def test_cli_cost_prints_table(tmp_path):
    proc = run_cli("cost", "--preset", "scenario1")
    assert proc.returncode == 0
    assert "spread" in proc.stdout
    assert "ttl" in proc.stdout


def test_cli_oracle_check_exact_match(tmp_path):
    # full presets: reduced node counts would break radio connectivity and
    # make exact agreement unattainable for any distributed collection
    for preset in ("scenario1", "scenario2"):
        proc = run_cli("oracle-check", "--preset", preset, "--seed", "3", "--static")
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "EXACT MATCH" in proc.stdout


def test_cli_rejects_unknown_flag():
    proc = run_cli("run", "--bogus")
    assert proc.returncode != 0
    assert proc.stderr


def test_cli_rejects_unreadable_scenario(tmp_path):
    proc = run_cli("run", "--scenario", str(tmp_path / "missing.cfg"))
    assert proc.returncode != 0
    assert "error" in proc.stderr.lower()


@pytest.mark.parametrize(
    "line",
    [
        "report_interval = 0",
        "node_count = -3",
        "query_count = 0",
        "speed_min = 12",
        "bandwidth_bps = 0",
        "per_hop_latency = -0.01",
        "ttl_cap = -1",
        "ttl_centralized = -2",
        "area_width = 0",
        "area_height = -100",
        "delta_t = inf",
        "sim_horizon = inf",
        "transmission_range = inf",
        "area_height = -inf",
        "per_hop_latency = nan",
        "packet_size_bits = nan",
        "query_range = nan",
        "area_width = nan",
        "speed_min = -5",
        "packet_size_bits = -1024",
        "packet_size_bits = 0",
        "delta_t = -1",
        # a window starting at 50 s would end where it starts: a snapshot
        "delta_t = 1e-20",
        "query_range = 0",
        "transmission_range = 0",
        "delivery_prob = 0",
        "delivery_prob = 1.5",
        "attr_dims = 0",
        "attr_directions = up",
        "replications = 0",
        "node_count = 10.5",
        "ttl_cap = 2.5",
        "query_range = abc",
        # finite values whose squares overflow a float
        "query_range = 1e300",
        "transmission_range = 1e200",
        "area_width = 1e300",
        "area_height = 1e300",
        # 100,000 report rounds per ten-second window
        "report_interval = 1e-4",
    ],
)
def test_cli_rejects_invalid_scenario(tmp_path, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    proc = run_cli("run", "--preset", "scenario2", "--scenario", str(cfg))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert line.split(" = ")[0] in proc.stderr


# A static world on a tiny square: every density is finite, but the cost
# model's flood powers are not.  Static, because a moving node on such a
# square draws a leg count that grows like 1/side.
TINY_STATIC_AREA = (
    "node_count = 10\nspeed_min = 0\nspeed_max = 0\n"
    "area_width = 1e-150\narea_height = 1e-150\n"
)


@pytest.mark.parametrize("command", ["run", "cost"])
def test_cli_rejects_a_tiny_area_whose_flood_powers_overflow(tmp_path, command):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_STATIC_AREA)
    proc = run_cli(command, "--preset", "scenario2", "--scenario", str(cfg))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: transmission_range: ")
    assert "ttl_cap" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# A moving world on a tiny square: a leg lasts about side / speed, so each
# node would draw about 1e9 legs before the horizon.
TINY_MOVING_AREA = "node_count = 10\narea_width = 1e-6\narea_height = 1e-6\n"


@pytest.mark.parametrize("command", ["run", "cost"])
def test_cli_rejects_a_tiny_area_with_too_many_legs(tmp_path, command):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_MOVING_AREA)
    proc = run_cli(command, "--preset", "scenario2", "--scenario", str(cfg))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: area_width, area_height: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_the_leg_bound_holds_on_the_presets():
    # the bound Scenario caps at 1000; each node's last leg runs past the
    # horizon, hence the one leg more
    for scen in (scenario1(), scenario2()):
        w, h = scen.area_width, scen.area_height
        horizon = max(scen.sim_horizon, harness.LATEST_WINDOW_START + 1.0 + scen.delta_t)
        bound = 3 * horizon * scen.speed_max / max(w, h)
        legs = [len(node.plan.legs) for node in build_world(scen, "legs:0")]
        assert bound <= 4 and sum(legs) / len(legs) <= 1 + bound, (scen.name, bound)


def safe_time_case(preset, value):
    prefix = "" if preset == "scenario2" else f"{preset}-"
    return pytest.param(
        preset, "", ["--mean-safe-time", value], "error: mean safe time",
        id=f"{prefix}safe-time-{value}",
    )


@pytest.mark.parametrize(
    "preset, config, flags, message",
    [
        pytest.param("scenario2", "", ["--k", "600"], "error: k: 600 ", id="k-600"),
        pytest.param(
            "scenario2", TINY_STATIC_AREA + "ttl_cap = 1\n", [], "error: k: ",
            id="tiny-area-ttl-cap-1",
        ),
        pytest.param(
            "scenario1", "ttl_cap = 0\n", [],
            "error: ttl_cap: a flood depth of 0 hops has no cost table; pass --k",
            id="ttl-cap-0",
        ),
        # sparse scenarios: the message names the range the model cannot use
        pytest.param(
            "scenario1", "node_count = 10\n", [], "error: transmission_range: ",
            id="sparse-transmission-range",
        ),
        pytest.param(
            "scenario1", "query_range = 1\n", [], "error: query_range: ", id="tiny-query-range",
        ),
        pytest.param("scenario1", "node_count = 1\n", [], "error: query_range: ", id="one-node"),
        *(safe_time_case("scenario2", value) for value in ("nan", "inf")),
        # a snapshot scenario has no continuous row that reads the safe time
        *(safe_time_case("scenario1", value) for value in ("nan", "inf", "0", "-1")),
    ],
)
def test_cli_cost_rejects_overflowing_hops_and_a_nonfinite_safe_time(
    tmp_path, capsys, preset, config, flags, message
):
    cfg = tmp_path / "extra.cfg"
    cfg.write_text(config)
    assert cli.main(["cost", "--preset", preset, "--scenario", str(cfg), *flags]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(message) and out == ""


@pytest.mark.parametrize(
    "line", ["bandwidth_bps = 0", "packet_size_bits = -5", "per_hop_latency = -1"]
)
def test_cli_cost_rejects_a_bad_link_field(tmp_path, capsys, line):
    # the link fields are checked when the scenario is built, not by a run
    cfg = tmp_path / "link.cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["cost", "--preset", "scenario1", "--scenario", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {line.split(' = ')[0]} ") and out == ""


def test_cli_cost_takes_its_ttl_from_the_scenario(tmp_path, capsys):
    # the flood depth of the simulation, capped by the scenario's ttl_cap
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("ttl_cap = 1\n")
    scen = parse_config(cfg.read_text(), base=scenario1())
    assert distributed_ttl(scen) == 1
    assert cli.main(["cost", "--preset", "scenario1", "--scenario", str(cfg)]) == 0
    out, _ = capsys.readouterr()
    assert ["ttl", "1.0000"] in [line.split() for line in out.splitlines()]


def test_cli_sweep_rejects_nonpositive_reps(tmp_path):
    cfg = _mini_cfg(tmp_path)
    proc = run_cli(
        "sweep", "--preset", "scenario1", "--scenario", str(cfg),
        "--param", "node_count", "--values", "20", "--reps", "-2",
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "replications" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("param", ["node_count", "ttl_cap"])
def test_cli_sweep_rejects_a_fractional_integer_field(param):
    proc = run_cli(
        "sweep", "--preset", "scenario2", "--param", param, "--values", "10.5", "--reps", "1",
    )
    assert proc.returncode == 2
    assert proc.stderr == f"error: {param} must be an integer\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("param, text", [("attr_directions", "max"), ("name", "small")])
def test_cli_sweep_takes_a_string_field_as_written(tmp_path, param, text):
    proc = run_cli(
        "sweep", "--preset", "scenario1", "--scenario", str(_mini_cfg(tmp_path)),
        "--param", param, "--values", text, "--reps", "1",
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == 2
    assert all(row[2:4] == [param, text] for row in rows)


def test_cli_sweeps_a_direction_list_in_its_space_form(tmp_path):
    cfg = tmp_path / "dirs.cfg"
    cfg.write_text("node_count = 20\nattr_dims = 2\n")
    proc = run_cli(
        "sweep", "--preset", "scenario1", "--scenario", str(cfg),
        "--param", "attr_directions", "--values", "min max,max min", "--reps", "1",
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert [row[3] for row in rows] == ["min max"] * 2 + ["max min"] * 2


def test_sweep_values_keep_int_then_float_for_numeric_fields():
    values = sweep_values("node_count", "20,25")
    assert values == [20, 25] and all(type(v) is int for v in values)
    values = sweep_values("query_range", "80,92.5,1e2")
    assert values == [80, 92.5, 100.0]
    assert [type(v) for v in values] == [int, float, float]
    assert sweep_values("attr_directions", "max,min") == ["max", "min"]


@pytest.mark.parametrize(
    "param, text, message",
    [
        ("query_range", "abc", "error: query_range: could not convert string to float: 'abc'\n"),
        ("node_count", "20,x", "error: node_count: could not convert string to float: 'x'\n"),
        # an unknown field is named before any value is cast
        ("warp_factor", "abc", "error: unknown sweep parameter 'warp_factor'\n"),
    ],
)
def test_cli_sweep_names_the_field_of_a_bad_value(param, text, message):
    proc = run_cli(
        "sweep", "--preset", "scenario1", "--param", param, "--values", text, "--reps", "1",
    )
    assert proc.returncode == 2
    assert proc.stderr == message
    assert proc.stdout == ""


def test_cli_run_trace_is_deterministic(tmp_path):
    cfg = _mini_cfg(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        trace = tmp_path / f"{tag}.trace"
        proc = run_cli(
            "run", "--preset", "scenario1", "--seed", "11",
            "--scenario", str(cfg), "--out", str(out), "--trace", str(trace),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out.read_bytes(), trace.read_bytes()))
    assert outs[0] == outs[1]


# a small lossy continuous world whose two runs, centralized and dcrsq, trace
# every event kind, messages with and without a carried object
LOSSY = "node_count = 25\narea_width = 200\narea_height = 200\ndelivery_prob = 0.8\n"
LOSSY_ARGS = ["run", "--preset", "scenario2", "--seed", "3"]
# sha256 of the CSV and --trace files of that run, taken while the simulator
# still formatted each line as it traced it
LOSSY_CSV_SHA = "5b242e567f3426e99efb9edc1ab1c8aa6137e3b69268ee5123c468c747a2616f"
LOSSY_TRACE_SHA = "842beb14ffd36019762aae7e1f94561e1ae3a5ab173bb4999f36e9d5f73f60e8"
EVENT_KINDS = {
    netsim.EVENT_MESSAGE,
    netsim.EVENT_MESSAGE_LOST,
    netsim.EVENT_WAYPOINT,
    netsim.EVENT_PERIODIC,
    netsim.EVENT_SAFE_TIME,
    netsim.EVENT_RECOMPUTE,
    netsim.EVENT_QUERY_ISSUE,
    netsim.EVENT_QUERY_EXPIRE,
    netsim.EVENT_REPLY_DEADLINE,
}


def _eager_msg_line(clock, kind, msg, sender, receiver):
    """A message's trace line as the simulator once built it while tracing."""
    oid = msg.payload.id if isinstance(msg.payload, DataObject) else "-"
    return (
        f"{clock:.9f}\t{kind}\t{sender}\t{receiver}\t{msg.msg_type}"
        f"\t{msg.ttl}\t{msg.query_id}\t{oid}"
    )


def _eager_event_line(clock, kind, payload):
    """Any other event's trace line as the simulator once built it while tracing."""
    node = "-"
    qid = "-"
    if isinstance(payload, dict):
        node = payload.get("node", "-")
        qid = payload.get("query_id", "-")
    return f"{clock:.9f}\t{kind}\t{node}\t-\t-\t-\t{qid}\t-"


def test_trace_lines_equal_the_eager_format_on_a_lossy_world(monkeypatch):
    eager: list[str] = []
    trace_msg, trace_event = Simulator._trace_msg, Simulator._trace_event

    def eager_msg(sim, kind, msg, sender, receiver):
        eager.append(_eager_msg_line(sim.clock, kind, msg, sender, receiver))
        trace_msg(sim, kind, msg, sender, receiver)

    def eager_event(sim, kind, payload):
        eager.append(_eager_event_line(sim.clock, kind, payload))
        trace_event(sim, kind, payload)

    monkeypatch.setattr(Simulator, "_trace_msg", eager_msg)
    monkeypatch.setattr(Simulator, "_trace_event", eager_event)
    scen = parse_config(LOSSY, base=scenario2())
    fields = []
    for approach in ("centralized", "dcrsq"):
        eager.clear()
        lines = run_scenario(scen, 3, approach).trace
        assert lines == eager
        fields += [line.split("\t") for line in lines]
    assert {f[1] for f in fields} == EVENT_KINDS
    objects = {f[7] != "-" for f in fields if f[1] == netsim.EVENT_MESSAGE}
    assert objects == {True, False}


def test_untraced_runs_format_no_trace_line(monkeypatch, tmp_path):
    def refuse(record):
        raise AssertionError("a trace line was formatted")

    cfg = tmp_path / "lossy.cfg"
    cfg.write_text(LOSSY)
    out, trace = tmp_path / "run.csv", tmp_path / "run.trace"
    args = [*LOSSY_ARGS, "--scenario", str(cfg), "--out", str(out)]
    monkeypatch.setattr(netsim, "trace_line", refuse)
    lossy = replace(parse_config(LOSSY, base=scenario2()), replications=1)
    rows = sweep(lossy, "delivery_prob", [0.8])
    assert len(rows) == 3
    assert cli.main(args) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LOSSY_CSV_SHA
    with pytest.raises(AssertionError, match="formatted"):
        cli.main([*args, "--trace", str(trace)])

    monkeypatch.undo()
    assert cli.main([*args, "--trace", str(trace)]) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == LOSSY_TRACE_SHA


def test_attribute_directions_flow_into_world():
    scen = replace(scenario1(), attr_dims=2, attr_directions="min,max")
    nodes = build_world(scen, "dirs")
    sensor = nodes[0]
    assert sensor.attrs.directions == ("min", "max")
    with pytest.raises(ValueError):
        replace(scenario1(), attr_dims=2, attr_directions="min").directions()


@pytest.mark.parametrize("text", ["min max", "min,max", "min, max", " min ,max "])
def test_attribute_directions_take_commas_whitespace_or_both(text):
    assert replace(scenario1(), attr_dims=2, attr_directions=text).directions() == ("min", "max")


@pytest.mark.parametrize("text", ["min,,max", "min, ,max", "min,max,", ",min max"])
def test_attribute_directions_reject_an_empty_entry(text):
    # three entries with one empty: rejected for the entry, not the count
    with pytest.raises(ValueError, match="unknown direction ''"):
        replace(scenario1(), attr_dims=3, attr_directions=text)


def test_cli_sweep_writes_deterministic_csv(tmp_path):
    cfg = _mini_cfg(tmp_path)
    outs = []
    for tag in ("x", "y"):
        out = tmp_path / f"sweep_{tag}.csv"
        proc = run_cli(
            "sweep", "--preset", "scenario1", "--scenario", str(cfg),
            "--param", "node_count", "--values", "20,25", "--reps", "2",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 2


def test_single_hop_ttl_collection_is_sound():
    # a transmission range beyond the query range makes one flood hop enough;
    # exercises the shortest deadline/timeout chain end to end
    scen = replace(
        scenario1(), transmission_range=125.0, speed_min=0.0, speed_max=0.0,
        delivery_prob=1.0, node_count=40, name="ttl1",
    )
    assert distributed_ttl(scen) == 1
    result = run_scenario(scen, "ttl1", "drsq")
    q = result.queries[0]
    assert (q.precision, q.recall) == (1.0, 1.0)


def test_multi_query_runs_track_each_query():
    scen = replace(scenario1(), query_count=3, node_count=40, name="multi")
    result = run_scenario(scen, "multi", "drsq")
    assert len(result.queries) == 3
    assert all(q.response_time_s > 0 for q in result.queries)
    assert result.accessed_objects == sum(q.accessed_objects for q in result.queries)


def test_multi_query_continuous_keeps_state_isolated():
    scen = replace(scenario2(), query_count=2, node_count=25, delta_t=5.0, name="multi2")
    result = run_scenario(scen, "multi2", "dcrsq")
    assert len(result.queries) == 2
    assert {q.query_id for q in result.queries} == {1, 2}


def test_a_snapshot_query_leaves_the_buffers_at_its_timeout(monkeypatch):
    # 80 snapshot queries pass through the same 100 nodes, whose buffers
    # hold 32 queries each: a settled query must free its entries
    refused = []
    store = netsim.NodeRuntime.store_query

    def counting(node, query_id, entry):
        ok = store(node, query_id, entry)
        if not ok:
            refused.append((node.id, query_id))
        return ok

    monkeypatch.setattr(netsim.NodeRuntime, "store_query", counting)
    run_scenario(replace(scenario1(), query_count=80), "buf:0", "drsq")
    assert refused == []


def test_a_query_whose_timeout_passes_the_horizon_settles_inside_the_run():
    # 2 s hops: the centralized timeout, 4 * (5 + 1) hop delays after the
    # issue at 46.3 s, lies past the 60 s horizon, and the collection never
    # completes; the issuer answers at the run's end from the replies it holds
    scen = replace(scenario1(), node_count=40, per_hop_latency=2.0)
    (window,) = query_windows(scen, "fb:0")
    (q,) = run_scenario(scen, "fb:0", "centralized").queries
    assert q.accessed_objects > 0
    assert q.response_time_s <= world_horizon(scen, "fb:0") - window[0]
    assert q.recall > 0


@pytest.mark.parametrize("approach", ["centralized", "dcrsq"])
def test_a_world_far_wider_than_its_range_runs_without_a_message(approach):
    # area / range overflows a float here: no node ever hears another
    scen = replace(
        scenario2(), node_count=10, area_width=1e153, area_height=1e153,
        transmission_range=1e-200,
    )
    result = run_scenario(scen, "wide:0", approach)
    assert result.msgs_total == 0
    assert len(result.queries) == 1


@pytest.mark.parametrize("approach", ["centralized", "dcrsq"])
def test_a_run_does_not_depend_on_the_order_of_the_node_list(monkeypatch, approach):
    # two queries, and under dcrsq contacts and waypoints: every loop over
    # the nodes runs
    scen = replace(scenario2(), node_count=40, query_count=2, name="order")
    runs = []
    for reverse in (False, True):
        if reverse:
            monkeypatch.setattr(
                harness, "Simulator", lambda nodes, *a, **k: Simulator(nodes[::-1], *a, **k)
            )
        result = run_scenario(scen, "order:0", approach)
        runs.append((result.trace, [q.realized for q in result.queries]))
    assert runs[0][0]
    assert runs[0] == runs[1]
