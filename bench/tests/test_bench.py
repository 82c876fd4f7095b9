"""Self-tests of the benchmark: inputs, metric names, tracing arithmetic.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import routes
import run
import tracer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tree(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", routes.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a = routes.generate(workload, 7, str(tmp_path / "a"))
    b = routes.generate(workload, 7, str(tmp_path / "b"))
    c = routes.generate(workload, 8, str(tmp_path / "c"))
    assert a == b
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    assert [p["mc_seed"] for p in a["plans"]] != [p["mc_seed"] for p in c["plans"]]


def test_generated_routes_match_workload_parameters(tmp_path):
    sweep = routes.generate("hut-sweep", 3, str(tmp_path / "s"))
    sizes = set()
    for entry in sweep["plans"]:
        sites = json.loads((tmp_path / "s" / entry["route"]).read_text())["sites"]
        sizes.add(len(sites) - 2)
    assert sizes == set(routes.SWEEP_SUBSET_SIZES)
    assert len(sweep["plans"]) == len({p["route"] for p in sweep["plans"]})

    warm = routes.generate("warm-cutoff", 3, str(tmp_path / "w"))
    route = json.loads((tmp_path / "w" / warm["plans"][0]["route"]).read_text())
    assert route["defaults"] == routes.WARM_DEFAULTS
    gaps = [b["position_km"] - a["position_km"] for a, b in zip(route["sites"], route["sites"][1:])]
    assert len(gaps) == routes.WARM_SPANS
    assert all(routes.WARM_SPAN_KM[0] - 1e-3 <= g <= routes.WARM_SPAN_KM[1] + 1e-3 for g in gaps)


def _result(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hut-sweep", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, section):
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        # hut-sweep runs no Monte Carlo, and builds each span's heralded
        # state twice per plan: once in the analytic engine, once for the
        # report's span table.
        assert result["metrics"]["repeater.mc_trials"]["value"] == 0
        assert result["metrics"]["repeater.span_attempt_calls_per_span"]["value"] == 2.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "metro-plan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _self_time_under_plans(spans: list[list]) -> dict[int, float]:
    """Per plan id, the summed self time of every span nested in the plan
    span, the plan span itself excluded."""
    selfs = tracer.self_times(spans)
    out: dict[int, float] = {}
    for i, s in enumerate(spans):
        p = s[tracer.PARENT]
        while p is not None and spans[p][tracer.NAME] != tracer.PLAN:
            p = spans[p][tracer.PARENT]
        if p is not None:
            out[s[tracer.PLAN_ID]] = out.get(s[tracer.PLAN_ID], 0.0) + selfs[i]
    return out


def test_self_times_subtract_children():
    # plan [0, 10] > a [1, 5] > b [2, 3]; plan > c [6, 9]; load [10, 11] outside the plan
    spans = [
        ["plan", 0.0, 10.0, None, 0],
        ["a", 1.0, 5.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 6.0, 9.0, 0, 0],
        ["load", 10.0, 11.0, None, 0],
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 1.0, 3.0, 1.0]
    totals = tracer.per_plan_totals(spans)[0]
    assert totals["plan_s"] == 10.0
    assert totals["self"] == {"plan": 3.0, "a": 3.0, "b": 1.0, "c": 3.0, "load": 1.0}
    assert _self_time_under_plans(spans) == {0: 7.0}


def test_layer_self_times_of_a_plan_fit_in_the_plan(tmp_path):
    import workloads
    from qorsim import planner

    manifest = routes.generate("hut-sweep", 5, str(tmp_path))
    t = tracer.Tracer()
    t.install()
    try:
        for i, entry in enumerate(manifest["plans"][:5]):
            t.plan = i
            route = planner.load_route(str(tmp_path / entry["route"]))
            with t.span(tracer.PLAN):
                reports, _ = workloads.plan_sweep(route, entry["mc_seed"])
                with t.span(tracer.SERIALISE):
                    workloads.serialise(reports)
    finally:
        t.uninstall()
    assert planner.span_entanglement_attempt.__name__ == "span_entanglement_attempt"
    assert not hasattr(planner.span_entanglement_attempt, "__wrapped__")
    totals = tracer.per_plan_totals(t.spans)
    under = _self_time_under_plans(t.spans)
    assert sorted(totals) == sorted(under) == list(range(5))
    for i, rec in totals.items():
        assert rec["calls"]["repeater.span_attempt"] > 0
        assert rec["calls"]["channels.apply_to_subsystem"] > 0
        # Self times telescope to the plan's duration minus its own self
        # time; the tolerance only absorbs floating-point rounding.
        assert 0 < under[i] <= rec["plan_s"] * (1 + 1e-12)


def test_tail_keeps_ten_samples_above_it():
    times = [float(i) for i in range(1000)]
    assert run.tail(times, 99.9) == (989.0, 10, 99.0)
    assert run.tail(times[:999], 99.9) == (899.0, 99, 90.0)
    assert run.tail(times[:20], 99.9) == (9.0, 10, 50.0)
    assert run.tail(times[:7], 99.9) == (3.0, 3, 50.0)


def test_tail_percentile_is_fixed_per_workload():
    times = [float(i) for i in range(2000)]
    assert run.tail(times, run.WORKLOAD_TAIL["hut-sweep"]) == (1799.0, 200, 90.0)
    assert run.tail(times[:50], run.WORKLOAD_TAIL["hut-sweep"]) == (24.0, 25, 50.0)
    assert run.tail(times, run.WORKLOAD_TAIL["metro-plan"]) == (999.0, 1000, 50.0)
    assert set(run.WORKLOAD_TAIL) == set(routes.WORKLOADS)


def test_speed_takes_times_to_the_nominal_calibration_times():
    # A loop twice as slow as nominal means a machine twice as slow: its
    # plan times are halved. Set-up follows the numpy import the same way.
    outs = [
        {"reference_times": [2 * reference.NOMINAL_S] * 3, "import_reference_s": reference.IMPORT_NOMINAL_S},
        {"reference_times": [9.0], "import_reference_s": 4 * reference.IMPORT_NOMINAL_S},
        {"reference_times": [9.0], "import_reference_s": 4 * reference.IMPORT_NOMINAL_S},
    ]
    speed, setup_speed, _ = run.machine_speed(outs)
    assert speed == 0.5
    assert setup_speed == 0.25
