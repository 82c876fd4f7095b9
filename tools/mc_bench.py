"""Engine timings: Monte Carlo µs per trial at 2, 3 and 5 spans, and
analytic-engine ms at 2, 5, 10 and 20 spans.

    python3 tools/mc_bench.py [--src DIR] [--runs 5] [--suite | --against SRC]

Imports qorsim from ``--src`` (default: this checkout's ``src``), so the
same script times another checkout too. Each chain is the planner's
default parameters on an O-band route with 25 km spans; each Monte Carlo
run is one ``simulate_chain_mc`` call with seed 42 and workers=1, after one
untimed warm-up call; one more untimed call under ``tracemalloc`` gives
the run's traced peak bytes per trial. The analytic part times
``simulate_chain_analytic`` on the same chains and on a 102 km + 17 km
chain, whose long span heralds just above the engine's GEOM_EXACT_MIN_P,
and the time its calls spend in ``span_attempts`` (the closed-form span
attempts), so the part never reads larger than the whole. Each value is the
median over ``--runs`` runs.

With ``--suite`` it also times the tier-1 test suite and the AC7 test
(analytic vs Monte Carlo at 1e5 trials) of that checkout, in fresh
``pytest`` processes, and keeps the acceptance verdict lines, which give
each criterion's time inside the test.

With ``--against SRC`` it compares two checkouts in one run: ``--runs``
pairs of fresh processes, one timing ``--src`` and one ``SRC`` (each as
above, with the same ``--runs``), alternating which side goes first. Each
side then reports, per value, the median and quartiles of its processes'
medians and how many pairs ``--src`` read lower. Prints one JSON object on
stdout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPAN_KM = 25.0
SEED = 42
# Trials per run for each span count. The engine runs trials MC_GROUP
# (16384) at a time: 60000 trials are three full groups and a partial
# fourth, 12000 and 2048 one partial group each. At 0.18, 0.58 and 17.0 us
# per trial (2, 3 and 5 spans on a 2-core host) a run takes about 11, 7 and
# 35 ms.
TRIALS = {2: 60000, 3: 12000, 5: 2048}
# Span lengths (km) of the analytic engine's chains.
ANALYTIC_CHAINS = {
    **{f"{n}_spans": [SPAN_KM] * n for n in (2, 5, 10, 20)},
    "102+17_km": [102.0, 17.0],
}


def _route_file(directory: str, spans_km: list[float]) -> str:
    positions = [0.0, *itertools.accumulate(spans_km)]
    last = len(positions) - 1
    sites = [
        {"name": f"S{i}", "position_km": pos,
         "kind": "endpoint" if i in (0, last) else "ila"}
        for i, pos in enumerate(positions)
    ]
    path = os.path.join(directory, f"route{last}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": f"bench-{last}", "fiber_type": "NDSF", "quantum_band": "O",
                   "coexistence": True, "sites": sites}, fh)
    return path


def mc_us_per_trial(runs: int) -> dict:
    from qorsim.planner import build_chain, load_route
    from qorsim.repeater import simulate_chain_mc

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spans, trials in TRIALS.items():
            chain = build_chain(load_route(_route_file(tmp, [SPAN_KM] * spans)))
            simulate_chain_mc(chain, trials=trials, seed=SEED)
            samples = []
            for _ in range(runs):
                t = time.perf_counter()
                simulate_chain_mc(chain, trials=trials, seed=SEED)
                samples.append((time.perf_counter() - t) * 1e6 / trials)
            tracemalloc.start()
            try:
                simulate_chain_mc(chain, trials=trials, seed=SEED)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out[f"{spans}_spans"] = {
                "trials": trials,
                "median_us": round(statistics.median(samples), 2),
                "samples_us": [round(s, 2) for s in samples],
                "peak_bytes_per_trial": round(peak / trials, 1),
            }
    return out


def analytic_ms(runs: int) -> dict:
    """Median ms of ``simulate_chain_analytic`` per chain, and of the time
    the same calls spend in ``span_attempts``, after one warm-up call."""
    from qorsim import repeater
    from qorsim.planner import build_chain, load_route

    span_attempts = repeater.span_attempts
    in_attempts = [0.0]

    def timed_span_attempts(chain):
        t = time.perf_counter()
        try:
            return span_attempts(chain)
        finally:
            in_attempts[0] += time.perf_counter() - t

    out = {}
    repeater.span_attempts = timed_span_attempts
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, spans_km in ANALYTIC_CHAINS.items():
                chain = build_chain(load_route(_route_file(tmp, spans_km)))
                repeater.simulate_chain_analytic(chain)
                whole, part = [], []
                for _ in range(runs):
                    in_attempts[0] = 0.0
                    t = time.perf_counter()
                    repeater.simulate_chain_analytic(chain)
                    whole.append((time.perf_counter() - t) * 1e3)
                    part.append(in_attempts[0] * 1e3)
                out[name] = {
                    "analytic_ms": round(statistics.median(whole), 3),
                    "span_attempts_ms": round(statistics.median(part), 3),
                }
    finally:
        repeater.span_attempts = span_attempts
    return out


def _pytest_wall(src: Path, args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", *args]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=src.parent, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    # Acceptance verdicts carry each criterion's own elapsed time.
    verdicts = [line for line in lines if re.match(r"AC\d+ (PASS|FAIL) ", line)]
    return {"wall_s": round(wall, 2), "returncode": proc.returncode,
            "summary": lines[-1] if lines else "", "verdicts": verdicts}


def _one_process(src: Path, runs: int) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--src", str(src), "--runs", str(runs)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def against(src: Path, other: Path, runs: int) -> dict:
    """Alternating pairs of fresh processes, one per checkout: each value's
    median and quartiles over each side's process medians, and the pairs in
    which src read lower."""
    samples = {"src": [], "against": []}
    order = [("src", src), ("against", other)]
    for i in range(runs):
        for side, path in order if i % 2 == 0 else order[::-1]:
            samples[side].append(_one_process(path, runs))

    def values(result):
        return {f"{part}.{chain}.{key}": value
                for part in ("mc_us_per_trial", "analytic_ms")
                for chain, entry in result[part].items()
                for key, value in entry.items()
                if key in ("median_us", "analytic_ms", "span_attempts_ms")}

    flat = {side: [values(r) for r in results] for side, results in samples.items()}
    out = {}
    for name in flat["src"][0]:
        per_side = {side: [v[name] for v in rows] for side, rows in flat.items()}
        out[name] = {
            **{side: {"median": round(statistics.median(v), 3),
                      "quartiles": [round(q, 3) for q in
                                    statistics.quantiles(v, n=4, method="inclusive")[::2]]}
               for side, v in per_side.items()},
            "src_lower_pairs": sum(a < b for a, b in zip(per_side["src"], per_side["against"])),
        }
    return {"src": str(src), "against": str(other), "pairs": runs, "values": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", default=str(ROOT / "src"))
    ap.add_argument("--runs", type=int, default=5)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--suite", action="store_true")
    mode.add_argument("--against", metavar="SRC")
    args = ap.parse_args(argv)
    if args.against and args.runs < 2:
        ap.error("--against needs --runs 2 or more for quartiles")
    src = Path(args.src).resolve()

    result = {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
        },
        "span_km": SPAN_KM,
        "seed": SEED,
        "runs": args.runs,
    }
    if args.against:
        result["paired"] = against(src, Path(args.against).resolve(), args.runs)
    else:
        sys.path.insert(0, str(src))
        result["mc_us_per_trial"] = mc_us_per_trial(args.runs)
        result["analytic_ms"] = analytic_ms(args.runs)
    if args.suite:
        result["tier1_suite"] = _pytest_wall(src, [])
        result["ac7"] = _pytest_wall(
            src, ["tests/test_acceptance.py::test_ac7_analytic_within_monte_carlo_error"]
        )
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
