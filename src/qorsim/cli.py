"""Command line front end.

    qorsim plan --route route.json [--tech both] [--trials 10000] [--seed 42]
    qorsim simulate --route route.json [--engine mc|analytic]
    qorsim channel --route route.json [--format json|csv]
    qorsim fibers [--fibers fibers.json]

Reports go to stdout (or --out FILE); diagnostics go to stderr with a
nonzero exit code. A reader that closes stdout early, as ``head`` does,
ends the command with exit code 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .fiber import DEFAULT_FIBER_TYPES, FiberConfigError
from .linalg import DimensionError, StateError
from .planner import (
    ConfigError,
    RouteConfig,
    build_chain,
    load_fiber_table,
    load_route,
    run_plan,
    spans_table,
)
from .qkd import TECH_ENTANGLEMENT, TECH_ONE_WAY
from .repeater import _check_mc_args, simulate_chain_analytic, simulate_chain_mc

TECH_CHOICES = {"entanglement": TECH_ENTANGLEMENT, "oneway": TECH_ONE_WAY, "both": "both"}


def _write_out(text: str, out: str) -> None:
    if out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _load(args) -> RouteConfig:
    table = load_fiber_table(args.fibers) if args.fibers else None
    return load_route(args.route, table)


def _cmd_plan(args) -> int:
    route = _load(args)
    report = run_plan(
        route,
        technology=TECH_CHOICES[args.tech],
        trials=args.trials,
        seed=args.seed,
        workers=args.workers,
    )
    _write_out(json.dumps(report, indent=2), args.out)
    return 0


def _cmd_simulate(args) -> int:
    route = _load(args)
    chain = build_chain(route)
    _check_mc_args(args.trials, args.seed, args.workers)
    if args.engine == "analytic":
        result = simulate_chain_analytic(chain)
    else:
        result = simulate_chain_mc(
            chain, trials=args.trials, seed=args.seed, workers=args.workers
        )
    payload = {
        "engine": result.engine,
        "fidelity": result.fidelity,
        "pair_rate_hz": result.pair_rate_hz,
        "latency_s": result.mean_latency_s,
        "fidelity_stderr": result.fidelity_stderr,
        "rate_stderr": result.rate_stderr,
        "trials": result.trials,
        "seed": args.seed if result.engine == "mc" else None,
    }
    _write_out(json.dumps(payload, indent=2), args.out)
    return 0


def _cmd_channel(args) -> int:
    route = _load(args)
    chain = build_chain(route)
    rows = spans_table(chain)
    if args.format == "csv":
        lines = ["index,length_km,transmittance,fidelity"]
        for row in rows:
            lines.append(
                f"{row['index']},{row['length_km']:.6g},"
                f"{row['transmittance']:.10g},{row['fidelity']:.10g}"
            )
        _write_out("\n".join(lines), args.out)
    else:
        _write_out(json.dumps(rows, indent=2), args.out)
    return 0


def _cmd_fibers(args) -> int:
    table = load_fiber_table(args.fibers) if args.fibers else DEFAULT_FIBER_TYPES
    if args.format == "csv":
        lines = ["type,band,attenuation_db_per_km,group_index"]
        for name in sorted(table):
            spec = table[name]
            for band in sorted(spec.attenuation_db_per_km):
                lines.append(
                    f"{name},{band},{spec.attenuation_db_per_km[band]:g},"
                    f"{spec.group_index:g}"
                )
        _write_out("\n".join(lines), args.out)
    else:
        payload = {
            name: {
                "attenuation_db_per_km": table[name].attenuation_db_per_km,
                "group_index": table[name].group_index,
            }
            for name in sorted(table)
        }
        _write_out(json.dumps(payload, indent=2), args.out)
    return 0


def _add_common(sub, route_required: bool = True) -> None:
    if route_required:
        sub.add_argument("--route", required=True, help="route JSON file")
    sub.add_argument("--fibers", default=None, help="fiber-type table JSON file")
    sub.add_argument("--out", default="-", help="output file, - for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qorsim",
        description="Feasibility planner for quantum-secured links over deployed fiber",
    )
    parser.add_argument("--version", action="version", version=f"qorsim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    plan = subs.add_parser("plan", help="feasibility report for a route")
    _add_common(plan)
    plan.add_argument("--tech", choices=sorted(TECH_CHOICES), default="both")
    plan.set_defaults(func=_cmd_plan)

    sim = subs.add_parser("simulate", help="entanglement chain simulation only")
    _add_common(sim)
    sim.add_argument("--engine", choices=("mc", "analytic"), default="mc")
    sim.set_defaults(func=_cmd_simulate)

    for sub in (plan, sim):
        sub.add_argument("--trials", type=int, default=10000)
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument("--workers", type=int, default=1)

    chan = subs.add_parser("channel", help="per-span channel table")
    _add_common(chan)
    chan.add_argument("--format", choices=("json", "csv"), default="json")
    chan.set_defaults(func=_cmd_channel)

    fib = subs.add_parser("fibers", help="list known fiber types")
    _add_common(fib, route_required=False)
    fib.add_argument("--format", choices=("json", "csv"), default="json")
    fib.set_defaults(func=_cmd_fibers)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's SIGPIPE recipe: the reader is gone, so what is still
        # buffered, and the flush at exit, go to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, FiberConfigError, StateError, DimensionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
