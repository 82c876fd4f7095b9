"""In-memory spans around the planner's public entry points.

The tracer wraps functions from outside the package: for each traced
function it replaces every binding of that function object in the loaded
``qorsim`` modules, so a caller that imported the name (``planner`` calls
``span_entanglement_attempt`` through its own module globals) sees the
wrapper too. Spans are kept in a list as ``[name, start, end, parent,
plan]`` and written out once, at the end of the run.

``McCapture`` is the one wrapper that also runs with tracing off: it keeps
each Monte Carlo result, so the benchmark can check it against the analytic
engine, and the engine's wall time, for ``trials_per_s``. It adds two clock
reads to a call that takes seconds.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager

# Span name -> (module, function). Names are "<module>.<layer>".
TRACED = {
    "planner.load_route": ("qorsim.planner", "load_route"),
    "planner.build_chain": ("qorsim.planner", "build_chain"),
    "planner.run_plan": ("qorsim.planner", "run_plan"),
    "planner.spans_table": ("qorsim.planner", "spans_table"),
    "planner.validate_report": ("qorsim.planner", "validate_report"),
    "repeater.mc": ("qorsim.repeater", "simulate_chain_mc"),
    "repeater.analytic": ("qorsim.repeater", "simulate_chain_analytic"),
    "repeater.span_attempt": ("qorsim.repeater", "span_entanglement_attempt"),
    "fiber.span_channel_stack": ("qorsim.fiber", "span_channel_stack"),
    "channels.apply_to_subsystem": ("qorsim.channels", "apply_to_subsystem"),
    "qkd.key_metrics": ("qorsim.qkd", "key_metrics_from_result"),
    "qkd.assess_chain": ("qorsim.qkd", "assess_chain"),
}

PLAN = "plan"
SERIALISE = "planner.serialise"

# Bytes of one delivered 4x4 complex128 state the Monte Carlo engine keeps
# per trial until it averages them.
MC_STATE_BYTES_PER_TRIAL = 256

NAME, START, END, PARENT, PLAN_ID = range(5)


def _patch_everywhere(module_name: str, attr: str, make_wrapper) -> list:
    """Rebind module_name.attr, and every other qorsim binding of the same
    object, to make_wrapper(original). Returns the undo list."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = make_wrapper(original)
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qorsim" or name.startswith("qorsim.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))
    return undo


def _unpatch(undo: list) -> None:
    for mod, key, original in reversed(undo):
        setattr(mod, key, original)


class Tracer:
    """Records nested spans while active; a no-op pass-through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.plan: int | None = None
        self._stack: list[int] = []
        self._undo: list = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.plan])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, (module_name, attr) in TRACED.items():
            self._undo += _patch_everywhere(
                module_name, attr, lambda fn, name=name: self._wrap(name, fn)
            )
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        _unpatch(self._undo)
        self._undo = []

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, plan in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "plan": plan}
                ) + "\n")


class McCapture:
    """Keeps every Monte Carlo result and its wall time since the last reset."""

    def __init__(self):
        self.results: list = []
        self.seconds = 0.0
        self._undo: list = []

    def _wrap(self, fn):
        def captured(*args, **kwargs):
            t = time.perf_counter()
            result = fn(*args, **kwargs)
            self.seconds += time.perf_counter() - t
            self.results.append(result)
            return result

        captured.__wrapped__ = fn
        return captured

    def install(self) -> None:
        self._undo = _patch_everywhere("qorsim.repeater", "simulate_chain_mc", self._wrap)

    def uninstall(self) -> None:
        _unpatch(self._undo)
        self._undo = []

    def reset(self) -> None:
        self.results = []
        self.seconds = 0.0


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def per_plan_totals(spans: list[list]) -> dict[int, dict]:
    """Per plan id: {"incl": {name: s}, "self": {name: s}, "calls": {name: n},
    "plan_s": duration of the plan span}."""
    selfs = self_times(spans)
    out: dict[int, dict] = {}
    for i, s in enumerate(spans):
        if s[PLAN_ID] is None:
            continue
        rec = out.setdefault(s[PLAN_ID], {"incl": {}, "self": {}, "calls": {}, "plan_s": None})
        name = s[NAME]
        rec["incl"][name] = rec["incl"].get(name, 0.0) + s[END] - s[START]
        rec["self"][name] = rec["self"].get(name, 0.0) + selfs[i]
        rec["calls"][name] = rec["calls"].get(name, 0) + 1
        if name == PLAN:
            rec["plan_s"] = s[END] - s[START]
    return out


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[list], plans: dict[int, dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run, as {name: (value, unit)}.

    ``plans`` maps plan id to {"spans": chain span count, "mc_trials": Monte
    Carlo trials in the plan, "gaps": (fidelity, rate) analytic-minus-MC in
    MC standard errors, or None}. Times and counts are per plan, as medians
    over the plans that completed, except load_route and build_chain, which
    are per call because set-up makes one call of each. The gaps are
    reported as magnitudes, so lower is better whichever side the analytic
    engine errs on. Layers a workload never enters read 0.
    """
    totals = per_plan_totals(spans)
    ids = [i for i in sorted(plans) if i in totals and totals[i]["plan_s"] is not None]

    def per_plan(kind: str, name: str) -> float:
        return _median(totals[i][kind].get(name, 0) for i in ids)

    def per_call(name: str) -> float:
        return _median(s[END] - s[START] for s in spans if s[NAME] == name)

    def per_span(kind: str, name: str, scale: float = 1.0) -> float:
        return _median(totals[i][kind].get(name, 0) * scale / plans[i]["spans"] for i in ids)

    mc_ids = [i for i in ids if plans[i]["mc_trials"]]
    gaps = [plans[i]["gaps"] for i in ids if plans[i]["gaps"] is not None]
    return {
        "planner.load_route_s": (per_call("planner.load_route"), "s"),
        "planner.build_chain_s": (per_call("planner.build_chain"), "s"),
        "repeater.mc_s": (per_plan("incl", "repeater.mc"), "s"),
        "repeater.mc_trials": (_median(plans[i]["mc_trials"] for i in ids), "count"),
        "repeater.mc_us_per_trial": (
            _median(
                totals[i]["incl"]["repeater.mc"] * 1e6 / plans[i]["mc_trials"] for i in mc_ids
            ),
            "us",
        ),
        "repeater.mc_state_bytes": (
            _median(plans[i]["mc_trials"] * MC_STATE_BYTES_PER_TRIAL for i in ids),
            "B",
        ),
        "repeater.span_attempt_s": (per_plan("incl", "repeater.span_attempt"), "s"),
        "repeater.span_attempt_calls": (per_plan("calls", "repeater.span_attempt"), "count"),
        "repeater.span_attempt_calls_per_span": (
            per_span("calls", "repeater.span_attempt"),
            "ratio",
        ),
        "fiber.span_channel_stack_s": (per_plan("incl", "fiber.span_channel_stack"), "s"),
        "fiber.span_channel_stack_calls": (
            per_plan("calls", "fiber.span_channel_stack"),
            "count",
        ),
        "channels.apply_to_subsystem_s": (
            per_plan("incl", "channels.apply_to_subsystem"),
            "s",
        ),
        "channels.apply_to_subsystem_calls": (
            per_plan("calls", "channels.apply_to_subsystem"),
            "count",
        ),
        "repeater.analytic_s": (per_plan("self", "repeater.analytic"), "s"),
        "repeater.analytic_ms_per_span": (per_span("self", "repeater.analytic", 1e3), "ms"),
        "planner.spans_table_s": (per_plan("incl", "planner.spans_table"), "s"),
        "planner.run_plan_s": (per_plan("self", "planner.run_plan"), "s"),
        "planner.validate_report_s": (per_plan("incl", "planner.validate_report"), "s"),
        "planner.serialise_s": (per_plan("incl", SERIALISE), "s"),
        "qkd.key_metrics_s": (per_plan("incl", "qkd.key_metrics"), "s"),
        "qkd.assess_chain_s": (per_plan("incl", "qkd.assess_chain"), "s"),
        "repeater.analytic_fidelity_gap_sigma": (_median(abs(g[0]) for g in gaps), "sigma"),
        "repeater.analytic_rate_gap_sigma": (_median(abs(g[1]) for g in gaps), "sigma"),
    }
