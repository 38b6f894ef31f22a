"""Host-time benchmark of the rangeskyline simulator.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --write-golden

Each workload is a fixed grid of simulated runs driven in-process through
`harness.run_scenario`, one at a time (a closed loop with one client).  The
benchmark repeats whole passes over the grid until the time is used, checks
every run's outputs against computations of its own (see checks.py) and
against the golden CSV digests in golden.json, and prints one JSON object as
the last line of standard output.  With --trace 0 it reports the end-to-end
metrics of untraced passes; with --trace 1 it runs each grid entry untraced
and then traced, back to back, and reports the per-layer metrics of the
traced runs.  A readable
report goes to standard error and, with the spans, to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import speed  # noqa: E402

SETUP_PROBES = 11
# A spawn is short, so each is paired with several speed samples.
SETUP_SPEED_SAMPLES = 3
EVENT_KINDS = (
    "message-delivery",
    "message-lost",
    "waypoint-arrival",
    "periodic-report",
    "safe-time-trigger",
    "query-issue",
    "query-expire",
    "reply-deadline",
)
# The issuer stops waiting after four hop delays per flood level.
TIMEOUT_HOPS = 4.0

END_TO_END = {"wall_s": "s", "run_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SPAN_TIMES = (
    "harness.build_world",
    "netsim.run",
    "netsim.neighbors_of",
    "protocols.predict_timeline",
    "protocols.schedule_contacts",
    "skyline.point_skyline",
    "skyline.merge_prune",
    "metrics.oracle_timeline",
    "metrics.precision_recall",
)
COUNTS = (
    "netsim.neighbors_of.calls",
    "netsim.neighbors_of.distinct_instants",
    "protocols.predict_timeline.calls",
    "protocols.predict_timeline.objects",
    "protocols.predict_timeline.segments",
    "protocols.predict_timeline.same_input_calls",
    "kinematics.safe_interval.calls",
    "skyline.point_skyline.calls",
    "skyline.point_skyline.objects",
    "skyline.merge_prune.calls",
    "metrics.predict_timeline.calls",
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}.s": "s" for name in SPAN_TIMES}
    units["netsim.run.self_s"] = "s"
    units["metrics.predict_timeline.s"] = "s"
    units.update({name: "count" for name in COUNTS})
    units.update({f"netsim.events.{k}": "count" for k in EVENT_KINDS})
    units.update({f"netsim.msgs.{t}": "count" for t in checks.MSG_TYPES})
    units["trace.overhead_s"] = "s"
    return units


class ProgramMissing(Exception):
    pass


def import_program():
    """The package under test, from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import rangeskyline
        from rangeskyline import harness
    except ImportError as exc:
        raise ProgramMissing(f"cannot import rangeskyline from {SRC}: {exc}") from exc
    if Path(rangeskyline.__file__).resolve().parent != (SRC / "rangeskyline").resolve():
        raise ProgramMissing(f"rangeskyline resolved to {rangeskyline.__file__}, not {SRC}")
    return harness


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: object
    approaches: tuple[str, ...]
    seeds: tuple[str, ...]

    def grid(self) -> list[tuple[str, str]]:
        return [(seed, a) for seed in self.seeds for a in self.approaches]


def workloads(harness) -> dict[str, Workload]:
    # The worlds are fixed, not drawn from --seed: one dcrsq world at 120 nodes
    # takes from 0.6 s to 7 s of host time, so a grid of seeded worlds would
    # measure which worlds were drawn.  --seed orders each pass and places the
    # checks' sample instants.  An odd number of continuous worlds keeps the
    # median run inside one world's runs rather than between two worlds.
    dense = replace(harness.scenario1(), node_count=300, attr_dims=3)
    continuous = replace(harness.scenario2(), node_count=120)
    continuous_seeds = tuple(f"continuous:{i}" for i in range(5))
    return {
        w.name: w
        for w in (
            Workload(
                "snapshot-dense",
                dense,
                ("drsq", "centralized"),
                tuple(f"snapshot-dense:{i}" for i in range(10)),
            ),
            Workload("continuous-dcrsq", continuous, ("dcrsq",), continuous_seeds),
            Workload("continuous-centralized", continuous, ("centralized",), continuous_seeds),
        )
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


# -- one pass over a grid -------------------------------------------------------------


class InFlight:
    """Counts the messages left in the event heap when `Simulator.run` returns.

    Installed in traced and untraced passes alike: one scan of the leftover
    heap per simulated run, which message conservation needs.
    """

    def __init__(self, netsim) -> None:
        self.netsim = netsim
        self.last: Counter = Counter()

    def __enter__(self):
        sim_cls = self.netsim.Simulator
        self.original = sim_cls.__dict__["run"]
        original, kind = self.original, self.netsim.EVENT_MESSAGE

        def run(sim, *args, **kwargs):
            out = original(sim, *args, **kwargs)
            self.last = Counter(e[3].msg_type for e in sim._heap if e[2] == kind)
            return out

        sim_cls.run = run
        return self

    def __exit__(self, *exc) -> None:
        self.netsim.Simulator.run = self.original


@dataclass
class Outcome:
    """What the benchmark keeps of one run after checking it."""

    row: str
    trace_sha: str
    kinds: Counter
    errors: list[str]


@dataclass
class Pass:
    """One pass over the grid: raw host time per run and the speed factor."""

    order: list[int]
    raw_s: list[float]
    failed: list[bool]
    factor: float

    @property
    def wall_s(self) -> float:
        return sum(self.raw_s) * self.factor


def run_pass(harness, workload, order, inflight, inspect, tracers=(None,)) -> list[Pass]:
    """Runs the grid in `order`; times only run_scenario plus its CSV row.

    Each grid entry runs once per entry of `tracers`, back to back: None is
    an untraced run, a Tracer a traced one.  Pairing the runs this way keeps
    the drift of machine speed out of the tracing overhead.  Untimed around
    each run: the previous run's garbage is collected before it, and the
    machine-speed reference is sampled after it, once plus once per half
    second of the run's host time.  Returns one Pass per entry of `tracers`.
    """
    grid = workload.grid()
    meter = speed.SpeedMeter()
    times = [[] for _ in tracers]
    failed = [[] for _ in tracers]
    for idx in order:
        seed, approach = grid[idx]
        for k, tracer in enumerate(tracers):
            gc.collect()
            with tracer.installed() if tracer else nullcontext():
                start = time.perf_counter()
                try:
                    if tracer is None:
                        result = harness.run_scenario(workload.scenario, seed, approach)
                    else:
                        result = tracer.run(harness.run_scenario, workload.scenario, seed, approach)
                    row = harness.csv_row(result, "seed", seed, idx)
                except Exception as exc:  # a crashing run is a failed run, not a crashed benchmark
                    result, row = None, f"run raised {type(exc).__name__}: {exc}"
                times[k].append(time.perf_counter() - start)
            meter.sample(times[k][-1])
            failed[k].append(not inspect(idx, result, row, inflight.last))
    factor = meter.factor()
    return [Pass(list(order), t, f, factor) for t, f in zip(times, failed)]


# -- checking -------------------------------------------------------------------------------


class Verifier:
    """Checks the first pass in full and later passes against it."""

    def __init__(self, harness, workload, golden: dict, rng) -> None:
        self.harness = harness
        self.workload = workload
        self.golden = golden.get(workload.name, {}).get("rows")
        self.rng = rng
        self.first: dict[int, Outcome] = {}
        self.errors: list[str] = []
        self.self_test: list[str] | None = None

    def rows(self) -> list[str]:
        """CSV rows of the first pass, in grid order, of the runs that ran."""
        return [self.first[i].row for i in sorted(self.first) if self.first[i].row]

    def _note(self, idx: int, message: str) -> None:
        seed, approach = self.workload.grid()[idx]
        self.errors.append(f"{approach} {seed}: {message}")

    def __call__(self, idx, result, row, in_flight) -> bool:
        if result is None:
            self._note(idx, row)
            self.first.setdefault(idx, Outcome("", "", Counter(), [row]))
            return False
        trace_sha = digest("\n".join(result.trace))
        first = self.first.get(idx)
        if first is None:
            kinds, errors = self._verify(idx, result, row, in_flight)
            self.first[idx] = Outcome(row, trace_sha, kinds, errors)
            for e in errors:
                self._note(idx, e)
            ok = not errors
        else:
            ok = not first.errors
            if (row, trace_sha) != (first.row, first.trace_sha):
                self._note(idx, "outputs differ from the first pass of the same grid")
                ok = False
        if self.golden is not None:
            seed, approach = self.workload.grid()[idx]
            if self.golden.get(f"{approach},{seed}") != digest(row):
                if first is None:
                    self._note(idx, "CSV row differs from the golden digest")
                ok = False
        return ok

    def _verify(self, idx, result, row_text, in_flight):
        c = checks
        sc = self.workload.scenario
        seed, _ = self.workload.grid()[idx]
        row = c.Row.parse(row_text)
        kinds, delivered, lost = c.trace_counts(result.trace)
        errors = []
        if len(result.queries) != 1:
            return kinds, [f"expected one query per run, got {len(result.queries)}"]
        q = result.queries[0]
        nodes = self.harness.build_world(sc, seed)
        window = self.harness.query_windows(sc, seed)[q.query_id - 1]
        issuer = sc.node_count + q.query_id - 1
        ev = c.gather(nodes, issuer, sc.query_range, window, self.rng)
        hop = sc.packet_size_bits / sc.bandwidth_bps + sc.per_hop_latency
        timeout = TIMEOUT_HOPS * (max(sc.ttl_centralized, sc.ttl_cap) + 1) * hop
        for err in (
            c.check_oracle(ev, q.oracle),
            c.check_accuracy(ev, q.realized, q.oracle, row.precision, row.recall),
            c.check_conservation(row.msgs, delivered, lost, in_flight),
            c.check_accessed(row.accessed_objects, result.trace, {str(issuer)}),
            c.check_response(row.response_time_s, timeout),
        ):
            if err is not None:
                errors.append(err)
        if self.self_test is None:
            self.self_test = c.self_test(ev, q.realized, q.oracle, row, delivered, lost, in_flight)
        return kinds, errors


# -- metrics -----------------------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten runs beyond it; needs 40 runs."""
    n = len(times)
    if n < 40:
        return None
    ordered = sorted(times)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure_setup(workload_name: str, seed: int) -> tuple[float, float]:
    """Median raw time from spawning a benchmark process until it can start
    a run, and the speed factor sampled before each spawn."""
    meter = speed.SpeedMeter()
    samples = []
    for _ in range(SETUP_PROBES):
        for _ in range(SETUP_SPEED_SAMPLES):
            meter.sample()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload_name, "--seed", str(seed)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=60)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {line!r}, exit {proc.returncode}")
        samples.append(elapsed)
    return statistics.median(samples), meter.factor()


def modelled_summary(workload, verifier) -> dict:
    """Per-approach means of the modelled CSV statistics over the grid."""
    by_app: dict[str, list] = {}
    for row in verifier.rows():
        r = checks.Row.parse(row)
        by_app.setdefault(r.approach, []).append(
            (r.response_time_s, sum(r.msgs.values()), r.accessed_objects, r.precision, r.recall)
        )
    names = ("response_time_s", "msgs_total", "accessed_objects", "precision", "recall")
    return {
        a: {n: statistics.fmean(r[i] for r in rows) for i, n in enumerate(names)}
        for a, rows in by_app.items()
    }


def layer_metrics(tracer, factor: float, rows: list[str], kinds: Counter) -> dict[str, float]:
    total, own = tracer.totals()
    out = {f"{name}.s": total.get(name, 0.0) * factor for name in SPAN_TIMES}
    out["netsim.run.self_s"] = own.get("netsim.run", 0.0) * factor
    out["metrics.predict_timeline.s"] = (
        tracer.total_under("protocols.predict_timeline", "metrics.oracle_timeline") * factor
    )
    out.update({name: float(tracer.counts.get(name, 0)) for name in COUNTS})
    out.update({f"netsim.events.{k}": float(kinds.get(k, 0)) for k in EVENT_KINDS})
    sums = Counter()
    for row in rows:
        sums.update(checks.Row.parse(row).msgs)
    out.update({f"netsim.msgs.{t}": float(sums[t]) for t in checks.MSG_TYPES})
    return out


def shares(tracer) -> dict[str, dict[str, float]]:
    total, own = tracer.totals()
    wall = total.get("harness.run_scenario", 0.0) or 1.0
    return {
        name: {"total_s": total[name], "self_s": own[name], "share": total[name] / wall}
        for name in sorted(total)
    }


# -- entry points -------------------------------------------------------------------------------


def execute(harness, workload, seed: int, seconds: float, traced: bool) -> dict:
    from rangeskyline import netsim

    golden = load_golden()
    verifier = Verifier(
        harness, workload, golden, random.Random(f"{workload.name}:samples:{seed}")
    )
    order_rng = random.Random(f"{workload.name}:order:{seed}")
    grid = workload.grid()

    for approach in workload.approaches:  # let first-call costs settle, untimed
        harness.run_scenario(replace(workload.scenario, node_count=20), "warmup", approach)

    plain: list[Pass] = []
    traced_passes: list[Pass] = []
    tracers = []
    if traced:
        from tracer import Tracer
    with InFlight(netsim) as inflight:
        while True:
            order = list(range(len(grid)))
            order_rng.shuffle(order)
            if traced:
                tracers.append(Tracer())
                untraced, traced_pass = run_pass(
                    harness, workload, order, inflight, verifier, (None, tracers[-1])
                )
                plain.append(untraced)
                traced_passes.append(traced_pass)
            else:
                plain.extend(run_pass(harness, workload, order, inflight, verifier))
            # whole rounds only, while the next one still fits the measured time
            measured = sum(sum(p.raw_s) for p in plain + traced_passes)
            if measured + measured / len(plain) > seconds:
                break

    passes = plain + traced_passes
    walls = [p.wall_s for p in plain]
    run_times = [t * p.factor for p in plain for t in p.raw_s]
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "grid": [f"{a},{s}" for s, a in grid],
        "passes": len(plain),
        "attempted": sum(len(p.failed) for p in passes),
        "failed": sum(sum(p.failed) for p in passes),
        "errors": verifier.errors[:20],
        "self_test_slipped": verifier.self_test,
        "modelled": modelled_summary(workload, verifier),
        "pass_wall_s": walls,
        "pass_raw_s": [sum(p.raw_s) for p in plain],
        "pass_speed_factor": [p.factor for p in plain],
        "raw_s_by_run": [
            [t for p in plain for i, t in zip(p.order, p.raw_s) if i == idx]
            for idx in range(len(grid))
        ],
    }
    if traced:
        kinds = Counter()
        for out in verifier.first.values():
            kinds.update(out.kinds)
        rows = verifier.rows()
        per_pass = [
            layer_metrics(t, p.factor, rows, kinds) for t, p in zip(tracers, traced_passes)
        ]
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced_passes) - statistics.median(walls)
        )
        report["traced_pass_wall_s"] = [p.wall_s for p in traced_passes]
        report["layers"] = shares(tracers[-1])
        units = per_layer_units()
        OUT.mkdir(exist_ok=True)
        tracers[-1].write_tsv(OUT / f"{workload.name}-seed{seed}-spans.tsv")
    else:
        setup_raw, setup_factor = measure_setup(workload.name, seed)
        metrics = {
            "wall_s": statistics.median(walls),
            "run_s_p50": statistics.median(run_times),
            "setup_s": setup_raw * setup_factor,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["setup_raw_s"] = setup_raw
        report["run_s_tail"] = tail(run_times)
        report["runs"] = len(run_times)
        units = END_TO_END
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report["correct"] = verifier.self_test is not None and not verifier.self_test
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(report, indent=1, default=list) + "\n"
    )
    return report


def print_report(report: dict) -> None:
    w = sys.stderr.write
    w(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
      f"{report['passes']} passes, {report['attempted']} runs, {report['failed']} failed\n")
    for name, m in report["metrics"].items():
        w(f"  {name:48s} {m['value']:.6f} {m['unit']}\n")
    if report.get("run_s_tail"):
        pct, value = report["run_s_tail"]
        w(f"  {'run_s_tail (p' + format(pct, '.0f') + ')':48s} {value:.6f} s\n")
    for name, layer in report.get("layers", {}).items():
        w(f"  share {name:42s} {100 * layer['share']:6.2f}%  self {layer['self_s']:.4f} s\n")
    for approach, stats in report["modelled"].items():
        w(f"  modelled {approach}: " + ", ".join(f"{k} {v:.6g}" for k, v in stats.items()) + "\n")
    for err in report["errors"]:
        w(f"  FAILED {err}\n")
    if report["self_test_slipped"]:
        w(f"  SELF-TEST the checks accepted: {report['self_test_slipped']}\n")


def write_golden(harness) -> int:
    from rangeskyline import netsim

    golden = {}
    for workload in workloads(harness).values():
        verifier = Verifier(harness, workload, {}, random.Random(f"{workload.name}:golden"))
        with InFlight(netsim) as inflight:
            (done,) = run_pass(harness, workload, range(len(workload.grid())), inflight, verifier)
        if any(done.failed) or verifier.self_test:
            for err in verifier.errors:
                sys.stderr.write(f"FAILED {workload.name} {err}\n")
            return 1
        rows = dict(zip((f"{a},{s}" for s, a in workload.grid()), map(digest, verifier.rows())))
        golden[workload.name] = {"rows": rows}
        sys.stderr.write(f"{workload.name}: {len(rows)} rows\n")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help="regenerate golden.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        harness = import_program()
    except ProgramMissing as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.write_golden:
        return write_golden(harness)
    table = workloads(harness)
    if args.workload not in table:
        sys.stderr.write(f"error: --workload must be one of {sorted(table)}\n")
        return 2
    workload = table[args.workload]
    if args.setup_probe:
        workload.grid()
        load_golden()
        print("ready", flush=True)
        return 0
    report = execute(harness, workload, args.seed, args.seconds, bool(args.trace))
    print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
