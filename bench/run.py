"""Planner benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload metro-plan --seed 1 --seconds 40 --trace 0

Run from the repository root (or any checkout of it). The route files of
the run are generated from the seed under .bench_work/; the planner runs in
fresh processes that import qorsim from src/. With --trace 0 the last line
of stdout is the end-to-end result, measured with tracing off; with
--trace 1 it holds the per-layer metrics of a traced run. The lines before
it are a readable table with sample counts and the machine the numbers came
from. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import routes

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# An untraced run splits its time over this many fresh processes, one after
# another, each continuing the route sequence where the previous stopped.
# Each gives one set-up and one cold-plan sample, and the samples spread
# over the whole run.
PROCESSES = 8
DEADLINE_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
# The tail percentile of each workload is fixed, so that it stays the same
# percentile from run to run and from commit to commit: the highest of
# TAIL_PERCENTILES with ten plans above it at the declared run length.
WORKLOAD_TAIL = {"metro-plan": 50.0, "warm-cutoff": 50.0, "hut-sweep": 90.0}
# Units of the metrics that machine_speed() scales.
TIME_UNITS = ("s", "ms", "us")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def tail(times: list[float], highest: float) -> tuple[float, int, float]:
    """The highest of TAIL_PERCENTILES up to ``highest`` (nearest rank)
    that has at least ten samples above it, with that count and the
    percentile. Below twenty samples none has, and the median is reported."""
    ordered = sorted(times)
    n = len(ordered)
    for q in (q for q in TAIL_PERCENTILES if q <= highest):
        idx = max(0, math.ceil(q / 100 * n) - 1)
        if n - 1 - idx >= 10:
            break
    return ordered[idx], n - 1 - idx, q


def completed(times) -> list[float]:
    return [t for t in times if t is not None]


class Runner:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        src = str(ROOT / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))

    def process(self, start: int, seconds: float, trace: bool = False) -> dict:
        """Run bench/child.py to completion and return its JSON, with its
        set-up and cold-plan times measured from the moment it was spawned."""
        cmd = [sys.executable, str(BENCH / "child.py"), str(self.workdir),
               "--start", str(start), "--seconds", repr(seconds)] + (["--trace"] if trace else [])
        import_s = reference.import_sample(ROOT)
        t_spawn = monotonic()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT) as proc:
            try:
                out, _ = proc.communicate(timeout=max(1.0, self.deadline - monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("a benchmark process did not finish before the deadline")
            except BaseException:
                # Interrupted or terminated: take the child down too.
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0:
            raise BenchError(f"a benchmark process exited with code {proc.returncode}")
        lines = out.decode().strip().splitlines()
        if not lines:
            raise BenchError("a benchmark process printed nothing")
        result = json.loads(lines[-1])
        result["import_reference_s"] = import_s
        result["setup_s"] = result["t_chain"] - t_spawn
        first = result["t_first_report"]
        result["cold_plan_s"] = first - t_spawn if first is not None else None
        return result


def machine(seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def machine_speed(outs: list[dict]) -> tuple[float, float, str]:
    """The factors that take the run's plan times and set-up times to the
    nominal speed of their calibrations (see reference.py), and a line that
    reports them."""
    loops = statistics.median(t for o in outs for t in o["reference_times"])
    imports = statistics.median(o["import_reference_s"] for o in outs)
    speed = reference.NOMINAL_S / loops
    setup_speed = reference.IMPORT_NOMINAL_S / imports
    return speed, setup_speed, (
        f"speed  {speed!r}  (nominal {reference.NOMINAL_S} s over the median "
        f"calibration loop, {loops!r} s); set-up speed {setup_speed!r} (nominal "
        f"{reference.IMPORT_NOMINAL_S} s over the median numpy import, {imports!r} s)"
    )


def end_to_end(runner: Runner, seconds: float, workload: str) -> tuple[dict, list[dict], list[str]]:
    outs = []
    start = 0
    for _ in range(PROCESSES):
        outs.append(runner.process(start, seconds / PROCESSES))
        start += outs[-1]["attempted"]
    times = completed(t for o in outs for t in o["plan_times"])
    if not times:
        raise BenchError("no plan completed")
    # One more fresh process replans the first route: another set-up and
    # cold sample, and a check that it prints the same bytes.
    again = runner.process(0, 0.0)
    if again["first_sha256"] != outs[0]["first_sha256"] and 0 not in again["failed_plans"]:
        again["failed_plans"].append(0)
        again["failures"].append({"plan": 0, "error": "a second process printed different bytes"})
    outs.append(again)
    setups = [o["setup_s"] for o in outs]
    colds = [o for o in outs if o["cold_plan_s"] is not None]
    tail_s, beyond, q = tail(times, WORKLOAD_TAIL[workload])
    # Plan times are scaled by the calibration loop, set-up times by the
    # numpy import; a cold plan is both.
    speed, setup_speed, speed_line = machine_speed(outs)
    wall = {
        "setup_s": statistics.median(setups),
        "cold_plan_s": statistics.median(o["cold_plan_s"] for o in colds),
        "plan_s": statistics.median(times),
        "plan_tail_s": tail_s,
    }
    metrics = {
        "setup_s": (wall["setup_s"] * setup_speed, "s"),
        "cold_plan_s": (
            statistics.median(
                o["setup_s"] * setup_speed + (o["cold_plan_s"] - o["setup_s"]) * speed
                for o in colds
            ),
            "s",
        ),
        "plan_s": (wall["plan_s"] * speed, "s"),
        "plan_tail_s": (tail_s * speed, "s"),
        "peak_rss_mb": (statistics.median(o["peak_rss_mb"] for o in outs[:-1]), "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "cold_plan_s": f"median of {len(colds)} fresh processes",
        "plan_s": f"median of {len(times)} plans",
        "plan_tail_s": f"p{q:g} of {len(times)} plans, {beyond} above it",
        "peak_rss_mb": f"median of the {len(outs) - 1} workload processes",
    }
    for k, v in wall.items():
        notes[k] += f"; {v!r} s of wall time"
    lines = [f"{k}  {v!r} {u}  ({notes[k]})" for k, (v, u) in metrics.items()]
    trials = sum(o["mc_trials"] for o in outs)
    if trials:
        engine_s = sum(o["mc_seconds"] for o in outs) * speed
        lines.append(
            f"trials_per_s  {trials / engine_s!r} 1/s  "
            f"({trials} trials in {engine_s:.3f} s of engine time)"
        )
    lines.append(speed_line)
    return metrics, outs, lines


def per_layer(runner: Runner, seconds: float, workload: str) -> tuple[dict, list[dict], list[str]]:
    out = runner.process(0, seconds, trace=True)
    if not out["trace_overheads"]:
        raise BenchError("no plan completed")
    metrics = {name: tuple(vu) for name, vu in out["layers"].items()}
    metrics["trials_per_s"] = (
        out["mc_trials"] / out["mc_seconds"] if out["mc_trials"] else 0.0,
        "1/s",
    )
    overheads = out["trace_overheads"]
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    speed, setup_speed, speed_line = machine_speed([out])
    for name, (value, unit) in metrics.items():
        if unit in TIME_UNITS:
            metrics[name] = (value * speed, unit)
        elif unit == "1/s":
            metrics[name] = (value / speed, unit)
    metrics["setup.import_s"] = (out["import_s"] * setup_speed, "s")
    lines = [f"{k}  {v!r} {u}" for k, (v, u) in sorted(metrics.items())]
    lines.append(
        f"({len(overheads)} plans, each run traced and untraced; "
        f"spans in {os.path.relpath(out['spans_file'], ROOT)})"
    )
    lines.append(speed_line)
    return metrics, [out], lines


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=routes.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "qorsim" / "__init__.py").is_file():
        print(f"bench: no qorsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = monotonic() + DEADLINE_S
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    routes.generate(args.workload, args.seed, str(workdir))
    runner = Runner(workdir, deadline)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, outs, lines = measure(runner, args.seconds, args.workload)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    attempted = sum(o["attempted"] for o in outs)
    failed = sum(len(o["failed_plans"]) for o in outs)
    for o in outs:
        for f in o["failures"]:
            print(f"bench: route {f['plan']} failed: {f['error']}", file=sys.stderr)
    lines.append(f"failed_ratio  {failed / attempted!r}  ({failed} of {attempted} plans)")
    info = machine(args.seed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "machine": info, "processes": outs, **result}, fh, indent=1)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for line in lines:
        print(line)
    print("machine " + json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
