"""Seeded inputs for the planner benchmark.

Every route, hut subset and Monte Carlo seed of a run comes from the
workload seed passed on the command line, through one ``random.Random``
stream per workload. The planner only ever sees the route JSON files
written here; the manifest that lists them, with the Monte Carlo seed of
each plan, is read by the benchmark's own process.

Workloads, and why each exists:

``metro-plan``
    Two-span O-band routes 40-60 km long, the hut placed at 25-75 % of the
    length, default parameters. Each plan is ``qorsim plan --tech both
    --trials 10000``: the product's default path, where Monte Carlo takes
    about 99 % of the plan and import most of the rest of a cold run.

``warm-cutoff``
    Three spans of 12-18 km with 10 ms memories and a 1 ms cutoff, set in the
    route ``defaults`` (the non-cryogenic memories rule R4 implies). Each
    plan is ``run_plan(..., "entanglement", trials=3000)`` plus the analytic
    engine on the same chain. Cutoff discards and frontier rebuilds are
    frequent here, and the analytic engine neglects them.

``hut-sweep``
    One route with 12 huts about 9 km apart. Each plan evaluates one
    candidate subset of 1-6 huts (2-7 spans) with the analytic engine for
    both technologies, the way a planner picks huts under rule R3. The
    sweep visits every such subset once, in a seeded order, so no candidate
    repeats within a run on current hardware. Monte Carlo does none of the
    work.
"""

from __future__ import annotations

import itertools
import json
import os
import random

WORKLOADS = ("metro-plan", "warm-cutoff", "hut-sweep")

METRO_LENGTH_KM = (40.0, 60.0)
METRO_HUT_FRACTION = (0.25, 0.75)
METRO_TRIALS = 10000

WARM_SPANS = 3
WARM_SPAN_KM = (12.0, 18.0)
WARM_DEFAULTS = {"memory_coherence_time": 0.01, "memory_cutoff": 0.001}
WARM_TRIALS = 3000

SWEEP_HUTS = 12
SWEEP_SPACING_KM = 9.0
SWEEP_JITTER_KM = 1.5
SWEEP_SUBSET_SIZES = range(1, 7)

# Monte Carlo plans take seconds each, so a run never gets near this many.
MC_ROUTES_PER_RUN = 32

_ROUTE_HEADER = {"fiber_type": "NDSF", "quantum_band": "O", "coexistence": True}


def _site(name: str, position_km: float, kind: str) -> dict:
    return {"name": name, "position_km": round(position_km, 3), "kind": kind}


def _route(name: str, positions: list[float], hut_names: list[str], defaults=None) -> dict:
    sites = [_site("west", positions[0], "endpoint")]
    sites += [_site(h, p, "ila") for h, p in zip(hut_names, positions[1:-1])]
    sites.append(_site("east", positions[-1], "endpoint"))
    route = {"name": name, **_ROUTE_HEADER, "sites": sites}
    if defaults:
        route["defaults"] = dict(defaults)
    return route


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _metro(rng: random.Random, seed: int):
    for i in range(MC_ROUTES_PER_RUN):
        length = rng.uniform(*METRO_LENGTH_KM)
        hut = length * rng.uniform(*METRO_HUT_FRACTION)
        yield _route(f"metro-s{seed}-{i}", [0.0, hut, length], ["hut-1"]), _mc_seed(rng)


def _warm(rng: random.Random, seed: int):
    for i in range(MC_ROUTES_PER_RUN):
        positions = [0.0]
        for _ in range(WARM_SPANS):
            positions.append(positions[-1] + rng.uniform(*WARM_SPAN_KM))
        huts = [f"hut-{k}" for k in range(1, WARM_SPANS)]
        route = _route(f"warm-s{seed}-{i}", positions, huts, WARM_DEFAULTS)
        yield route, _mc_seed(rng)


def _sweep(rng: random.Random, seed: int):
    positions = [0.0]
    for _ in range(SWEEP_HUTS + 1):
        gap = SWEEP_SPACING_KM + rng.uniform(-SWEEP_JITTER_KM, SWEEP_JITTER_KM)
        positions.append(positions[-1] + gap)
    huts = [f"hut-{k:02d}" for k in range(1, SWEEP_HUTS + 1)]
    subsets = [
        combo
        for size in SWEEP_SUBSET_SIZES
        for combo in itertools.combinations(range(SWEEP_HUTS), size)
    ]
    rng.shuffle(subsets)
    for i, combo in enumerate(subsets):
        chosen = [positions[0]] + [positions[k + 1] for k in combo] + [positions[-1]]
        route = _route(f"sweep-s{seed}-{i}", chosen, [huts[k] for k in combo])
        yield route, _mc_seed(rng)


_GENERATORS = {"metro-plan": _metro, "warm-cutoff": _warm, "hut-sweep": _sweep}


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the route files of one run into out_dir and return the manifest.

    The manifest lists, in plan order, each route file (relative to out_dir)
    and the Monte Carlo seed of that plan. It is also written to
    out_dir/manifest.json. The same workload and seed give byte-identical
    files.
    """
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    plans = []
    for i, (route, mc_seed) in enumerate(_GENERATORS[workload](rng, seed)):
        name = f"route-{i:04d}.json"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(route, fh, indent=1)
        plans.append({"route": name, "mc_seed": mc_seed})
    manifest = {"workload": workload, "seed": seed, "plans": plans}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest
