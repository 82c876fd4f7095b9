"""One fresh benchmark process. run.py starts it with ``src`` on PYTHONPATH.

    python3 bench/child.py WORKDIR --start I --seconds S [--trace]

The process imports qorsim, loads route I of the manifest in WORKDIR and
builds its chain, which is the set-up a user pays. Then it plans routes
I, I+1, ... one after another, a single closed-loop client, starting a new
plan while fewer than S seconds have passed since the first one started, so
at least one plan runs. Each output is checked. The process prints one JSON
object on stdout. Times that run.py compares with its own clock are
CLOCK_MONOTONIC readings, which all processes of the machine share.

The process also runs the calibration loop of reference.py between plans,
about once every reference.EVERY_S seconds and never inside a timed span,
and reports each sample's time, so that run.py can take the speed of the
machine out of its timings.

With --trace every plan runs twice, traced and untraced in alternating
order, so the tracing overhead is measured plan by plan in one process; the
per-layer figures and the checks use the traced pass, the Monte Carlo rate
the untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workdir")
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    t = time.perf_counter()
    import qorsim  # noqa: F401  (timed: the import is part of set-up)
    import_s = time.perf_counter() - t
    from qorsim import planner

    with open(os.path.join(args.workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    paths = [os.path.join(args.workdir, p["route"]) for p in manifest["plans"]]
    planner.build_chain(planner.load_route(paths[args.start % len(paths)]))
    t_chain = monotonic()

    summary = run_workload(manifest, paths, args.start, args.seconds, args.trace, args.workdir)
    summary.update(import_s=import_s, t_chain=t_chain)
    sys.stdout.write(json.dumps(summary) + "\n")
    sys.stdout.flush()
    return 0


def run_workload(
    manifest: dict, paths: list[str], first: int, seconds: float, trace: bool, workdir: str
) -> dict:
    from qorsim import planner

    import reference
    import workloads
    from tracer import PLAN, SERIALISE, McCapture, Tracer, layer_metrics

    workload = manifest["workload"]
    plan_fn = workloads.PLANS[workload]
    capture = McCapture()
    capture.install()
    tracer = Tracer()
    if trace:
        tracer.install()

    def one_plan(route, mc_seed: int, traced: bool) -> dict:
        capture.reset()
        tracer.active = traced
        try:
            t = time.perf_counter()
            with tracer.span(PLAN):
                reports, analytic = plan_fn(route, mc_seed)
                with tracer.span(SERIALISE):
                    text = workloads.serialise(reports)
            dt = time.perf_counter() - t
        finally:
            tracer.active = False
        return {"s": dt, "text": text, "analytic": analytic,
                "mc": list(capture.results), "mc_s": capture.seconds}

    plan_times: list[float | None] = []
    overheads: list[float] = []
    failures: list[dict] = []
    plans: dict[int, dict] = {}
    mc_trials = 0
    mc_seconds = 0.0
    first_sha256 = None
    t_first_report = None
    reference_times: list[float] = []
    start = next_reference = time.perf_counter()

    def calibrate() -> None:
        nonlocal next_reference
        while time.perf_counter() >= next_reference:
            reference_times.append(reference.sample())
            next_reference += reference.EVERY_S

    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        if i:
            calibrate()
        k = (first + i) % len(paths)
        entry = manifest["plans"][k]
        tracer.plan = i
        try:
            tracer.active = trace
            route = planner.load_route(paths[k])
            tracer.active = False
            order = ((True, False) if i % 2 == 0 else (False, True)) if trace else (False,)
            runs = {traced: one_plan(route, entry["mc_seed"], traced) for traced in order}
        except Exception:
            tracer.active = False
            plan_times.append(None)
            failures.append({"plan": k, "error": traceback.format_exc()})
            i += 1
            continue
        run, plain = runs[trace], runs[False]
        plan_times.append(run["s"])
        if t_first_report is None:
            t_first_report = monotonic()
        mc_trials += sum(r.trials for r in plain["mc"])
        mc_seconds += plain["mc_s"]
        try:
            problems, gaps = workloads.check_plan(workload, route, run["text"], run["analytic"], run["mc"])
        except Exception:
            problems, gaps = [traceback.format_exc()], None
        if trace:
            overheads.append(run["s"] - plain["s"])
            if run["text"] != plain["text"]:
                problems.append("traced and untraced passes printed different bytes")
        if problems:
            failures.append({"plan": k, "error": "; ".join(problems)})
        plans[i] = {
            "spans": len(route.sites) - 1,
            "mc_trials": sum(r.trials for r in run["mc"]),
            "gaps": gaps,
        }
        if i == 0:
            first_sha256 = hashlib.sha256(run["text"].encode()).hexdigest()
        i += 1
    calibrate()

    summary = {
        "attempted": i,
        "failed_plans": sorted({f["plan"] for f in failures}),
        "failures": failures[:20],
        "plan_times": plan_times,
        "t_first_report": t_first_report,
        "first_sha256": first_sha256,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mc_trials": mc_trials,
        "mc_seconds": mc_seconds,
        "reference_times": reference_times,
    }
    if trace:
        tracer.uninstall()
        spans_path = os.path.join(workdir, "spans.jsonl")
        tracer.write(spans_path)
        summary["spans_file"] = spans_path
        summary["layers"] = layer_metrics(tracer.spans, plans)
        summary["trace_overheads"] = overheads
        summary["gaps_sigma"] = {i: p["gaps"] for i, p in plans.items() if p["gaps"]}
    capture.uninstall()
    return summary


if __name__ == "__main__":
    sys.exit(main())
