"""Command-line front end: single runs, sweeps, cost tables, oracle checks."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from rangeskyline.analysis import cost_table
from rangeskyline.harness import (
    APPROACHES,
    CSV_HEADER,
    PRESETS,
    Scenario,
    cost_params,
    csv_row,
    default_approaches,
    distributed_ttl,
    parse_config,
    run_scenario,
    summarize,
    sweep,
    sweep_values,
)


def _load_scenario(args) -> Scenario:
    scen = PRESETS[args.preset]() if args.preset else Scenario()
    if args.scenario:
        scen = parse_config(Path(args.scenario).read_text(), base=scen)
    if getattr(args, "seed", None) is not None:
        scen = replace(scen, seed=args.seed)
    return scen


def _write(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    scen = _load_scenario(args)
    lines = [CSV_HEADER]
    traces: list[str] = []
    for approach in args.approach or default_approaches(scen):
        result = run_scenario(scen, scen.seed, approach)
        lines.append(csv_row(result, "none", "-", 0))
        if args.trace:
            traces.extend(f"{approach}\t{line}" for line in result.trace)
    _write(args.out, "\n".join(lines) + "\n")
    if args.trace:
        Path(args.trace).write_text("\n".join(traces) + "\n")
    return 0


def cmd_sweep(args) -> int:
    scen = _load_scenario(args)
    values = sweep_values(args.param, args.values)
    if args.reps is not None:
        scen = replace(scen, replications=args.reps)
    lines = sweep(scen, args.param, values)
    _write(args.out, "\n".join(lines) + "\n")
    if args.summary:
        for metric in ("msgs_total", "accessed_objects", "precision", "recall"):
            for cell in summarize(lines, metric):
                ci = "n/a" if cell.ci95 is None else f"{cell.ci95:.3f}"
                sys.stderr.write(
                    f"{metric} {cell.approach} {cell.param}={cell.value}: "
                    f"mean {cell.mean:.3f} ci95 {ci} n={cell.n}\n"
                )
    return 0


def cmd_cost(args) -> int:
    scen = _load_scenario(args)
    params = cost_params(scen, args.mean_safe_time)
    k = args.k
    if k is None:
        k = distributed_ttl(scen)
        if k < 1:
            raise ValueError("ttl_cap: a flood depth of 0 hops has no cost table; pass --k")
    rows = cost_table(params, k)
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        sys.stdout.write(f"{name:<{width}}  {value:.4f}\n")
    return 0


def cmd_oracle_check(args) -> int:
    scen = _load_scenario(args)
    if args.static:
        scen = replace(scen, speed_min=0.0, speed_max=0.0)
    scen = replace(scen, delivery_prob=1.0, delta_t=0.0)
    result = run_scenario(scen, scen.seed, "drsq")
    ok = all(q.precision == 1.0 and q.recall == 1.0 for q in result.queries)
    if ok:
        sys.stdout.write("EXACT MATCH\n")
        return 0
    for q in result.queries:
        sys.stdout.write(
            f"MISMATCH query {q.query_id}: precision {q.precision:.4f} recall {q.recall:.4f}\n"
        )
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rangeskyline",
        description="Distributed range-skyline query simulation and cost model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", choices=sorted(PRESETS), help="named scenario preset")
    common.add_argument("--scenario", help="scenario config file (key = value lines)")
    common.add_argument("--seed", type=int, help="master seed override")

    p_run = sub.add_parser("run", parents=[common], help="run one scenario")
    p_run.add_argument("--approach", action="append", choices=APPROACHES)
    p_run.add_argument("--out", help="CSV output path (default stdout)")
    p_run.add_argument("--trace", help="event trace output path")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common], help="parameter sweep")
    p_sweep.add_argument("--param", required=True, help="scenario field to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--reps", type=int, default=None, help="replications per cell")
    p_sweep.add_argument("--out", help="CSV output path (default stdout)")
    p_sweep.add_argument("--summary", action="store_true", help="print cell means to stderr")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_cost = sub.add_parser("cost", parents=[common], help="print the cost-model table")
    p_cost.add_argument("--k", type=int, default=None, help="hop count override")
    p_cost.add_argument("--mean-safe-time", type=float, default=1.0)
    p_cost.set_defaults(fn=cmd_cost)

    p_check = sub.add_parser(
        "oracle-check", parents=[common], help="verify a snapshot run against the oracle"
    )
    p_check.add_argument("--static", action="store_true", help="freeze all nodes")
    p_check.set_defaults(fn=cmd_oracle_check)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
