"""What one plan of each workload does, and the checks on its output.

Every planner call goes through a module attribute (``planner.run_plan``),
never a name imported here, so the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import json

from qorsim import __version__, planner, qkd, repeater

import routes

FIDELITY_FLOOR = 0.25 - 1e-9
AGREEMENT_SIGMA = 5.0


def plan_metro(route, mc_seed: int):
    """``qorsim plan --tech both --trials 10000 --workers 1``."""
    reports = planner.run_plan(route, "both", trials=routes.METRO_TRIALS, seed=mc_seed, workers=1)
    return reports, None


def plan_warm(route, mc_seed: int):
    report = planner.run_plan(
        route, qkd.TECH_ENTANGLEMENT, trials=routes.WARM_TRIALS, seed=mc_seed, workers=1
    )
    analytic = repeater.simulate_chain_analytic(planner.build_chain(route))
    return [report], analytic


def plan_sweep(route, mc_seed: int):
    """Both technology reports for one hut subset, with the analytic engine
    in place of Monte Carlo; the report layout is run_plan's."""
    params = route.params
    result = None
    table = None
    reports = []
    for tech in qkd.TECHNOLOGIES:
        chain = planner.build_chain(route, tech)
        if table is None:
            table = planner.spans_table(chain)
        verdict = qkd.assess_chain(
            chain,
            tech,
            one_way_spec=qkd.OneWayRepeaterSpec(
                loss_threshold_db=params["one_way_loss_threshold_db"],
                cryogenic_required=bool(params["one_way_cryogenic"]),
            ),
            max_heralding_km=params["max_heralding_km"],
            coexistence=route.coexistence,
        )
        end_to_end = key = None
        if tech == qkd.TECH_ENTANGLEMENT:
            result = repeater.simulate_chain_analytic(chain)
            metrics = qkd.key_metrics_from_result(result)
            end_to_end = {
                "fidelity": result.fidelity,
                "pair_rate_hz": result.pair_rate_hz,
                "latency_s": result.mean_latency_s,
            }
            key = {
                "qber": metrics.qber,
                "sifted_rate_hz": metrics.sifted_rate_hz,
                "secret_key_rate_hz": metrics.secret_key_rate_hz,
                "secure": metrics.secure,
            }
        report = {
            "schema_version": planner.SCHEMA_VERSION,
            "route": {
                "name": route.name,
                "fiber_type": route.fiber.type_name,
                "quantum_band": route.quantum_band.name,
                "coexistence": route.coexistence,
                "length_km": route.length_km,
                "site_count": len(route.sites),
            },
            "technology": tech,
            "spans": table,
            "end_to_end": end_to_end,
            "qkd": key,
            "verdict": {
                "feasible": verdict.feasible,
                "violations": [
                    {"requirement": v.requirement, "span_index": v.span_index, "detail": v.detail}
                    for v in verdict.violations
                ],
            },
            "provenance": {
                "seed": mc_seed,
                "trials": 0,
                "config_hash": planner._config_hash(route),
                "version": __version__,
            },
        }
        planner.validate_report(report)
        reports.append(report)
    return reports, result


PLANS = {"metro-plan": plan_metro, "warm-cutoff": plan_warm, "hut-sweep": plan_sweep}

# Workloads whose Monte Carlo and analytic results must agree: two spans
# with a cutoff that does not bind, where the analytic engine is exact.
AGREEMENT_REQUIRED = {"metro-plan"}


def serialise(reports) -> str:
    """The bytes ``qorsim plan`` would print: one report, or the list of
    both for --tech both."""
    return json.dumps(reports if len(reports) > 1 else reports[0], indent=2)


def _in_range(value, lo, hi) -> bool:
    return isinstance(value, (int, float)) and lo <= value <= hi


def check_report(report: dict) -> list[str]:
    """Schema and physical-range problems of one decoded report."""
    try:
        planner.validate_report(report)
    except planner.ConfigError as e:
        return [str(e)]
    problems = []
    for row in report["spans"]:
        if not _in_range(row["fidelity"], FIDELITY_FLOOR, 1.0):
            problems.append(f"span {row['index']} fidelity {row['fidelity']!r}")
        if not (_in_range(row["transmittance"], 0.0, 1.0) and row["transmittance"] > 0):
            problems.append(f"span {row['index']} transmittance {row['transmittance']!r}")
    if report["technology"] == qkd.TECH_ENTANGLEMENT:
        ete, key = report["end_to_end"], report["qkd"]
        if not _in_range(ete["fidelity"], FIDELITY_FLOOR, 1.0):
            problems.append(f"end-to-end fidelity {ete['fidelity']!r}")
        for name in ("pair_rate_hz", "latency_s"):
            if not (isinstance(ete[name], (int, float)) and ete[name] > 0):
                problems.append(f"{name} {ete[name]!r} not positive")
        if not _in_range(key["qber"], 0.0, 0.5):
            problems.append(f"qber {key['qber']!r} outside [0, 0.5]")
        if not (isinstance(key["sifted_rate_hz"], (int, float)) and key["sifted_rate_hz"] > 0):
            problems.append(f"sifted rate {key['sifted_rate_hz']!r} not positive")
        skr = key["secret_key_rate_hz"]
        if not (isinstance(skr, (int, float)) and skr >= 0 and key["secure"] == (skr > 0)):
            problems.append(f"secret key rate {skr!r} inconsistent with secure={key['secure']!r}")
    return problems


def gap_sigma(analytic, mc) -> tuple[float, float]:
    """Analytic minus Monte Carlo, in Monte Carlo standard errors:
    (fidelity, pair rate)."""
    return (
        (analytic.fidelity - mc.fidelity) / mc.fidelity_stderr,
        (analytic.pair_rate_hz - mc.pair_rate_hz) / mc.rate_stderr,
    )


def check_plan(workload: str, route, text: str, analytic, mc_results: list) -> tuple[list, tuple | None]:
    """Problems with one plan's output, and its analytic-vs-MC gap when the
    plan ran Monte Carlo. ``analytic`` is the plan's own analytic result,
    computed here for workloads whose plan does not run it."""
    decoded = json.loads(text)
    problems = []
    for report in decoded if isinstance(decoded, list) else [decoded]:
        problems += check_report(report)
    gaps = None
    if mc_results:
        if analytic is None:
            analytic = repeater.simulate_chain_analytic(planner.build_chain(route))
        gaps = gap_sigma(analytic, mc_results[0])
        if workload in AGREEMENT_REQUIRED and max(abs(g) for g in gaps) > AGREEMENT_SIGMA:
            problems.append(
                f"analytic and Monte Carlo disagree: fidelity {gaps[0]:+.2f} sigma, "
                f"rate {gaps[1]:+.2f} sigma"
            )
    return problems, gaps
