"""Route configuration, chain construction, and feasibility reports.

A route file is JSON:

    {
      "name": "metro-ring-7",
      "fiber_type": "NDSF",
      "quantum_band": "O",
      "coexistence": true,
      "sites": [
        {"name": "A",    "position_km": 0.0,  "kind": "endpoint"},
        {"name": "ILA1", "position_km": 80.0, "kind": "ila"},
        {"name": "B",    "position_km": 160.0, "kind": "endpoint"}
      ],
      "defaults": { ... route keys, see PARAMS ... }
    }

Sites must be listed in order of strictly increasing position; the first
and last are endpoints, everything between is an inline amplifier hut that
the plan would convert into a repeater site.
"""

from __future__ import annotations

import hashlib
import json
import math
import types
from collections.abc import Mapping
from dataclasses import dataclass, fields

from . import __version__
from .fiber import BANDS, DEFAULT_FIBER_TYPES, Band, FiberConfigError, FiberSpec, FiberSpan, transmittance
from .linalg import StateError
from .qkd import (
    FeasibilityVerdict,
    OneWayRepeaterSpec,
    QkdMetrics,
    TECH_ENTANGLEMENT,
    TECHNOLOGIES,
    Violation,
    assess_chain,
    key_metrics_from_result,
    report_section,
)
from .repeater import (
    MemorySpec,
    QorsNode,
    RepeaterChain,
    SpanAttempt,
    _check_mc_args,
    _checked_attempts,
    simulate_chain_mc,
    span_attempts,
    span_entanglement_attempt,  # noqa: F401  (kept importable from planner, as before)
)

SCHEMA_VERSION = 1

SITE_KIND_ENDPOINT = "endpoint"
SITE_KIND_ILA = "ila"

# Route keys: default, domain (an interval, or "bool"), unit ("1" a
# fraction, "-" a flag) and meaning. A route file's "defaults" object
# overrides any default; RouteConfig checks every value against its domain.
PARAMS: dict[str, tuple[float | bool, str, str, str]] = {
    "sop_drift_rate": (5e4, "[0, inf)", "rad/s", "polarization walk between tracker resets"),
    "sop_recalibration_interval": (1e-6, "[0, inf)", "s", "time between polarization tracker resets"),
    "dephasing_p": (1e-3, "[0, 1]", "1", "residual phase-flip probability of a span"),
    "coexistence_noise_prob": (1e-5, "[0, 1)", "1", "noise weight of classical traffic, with coexistence"),
    "mux_insertion_loss_db": (1.0, "[0, inf)", "dB", "add/drop filter and connector loss of a span"),
    "attempt_rate": (1e6, "(0, inf)", "1/s", "pair-source attempts per second"),
    "memory_coherence_time": (1.0, "(0, inf)", "s", "time constant of memory depolarization"),
    "memory_write_efficiency": (0.9, "(0, 1]", "1", "chance that a memory stores a photon"),
    "memory_read_efficiency": (0.9, "(0, 1]", "1", "chance that a memory gives its qubit back"),
    "memory_cryogenic": (False, "bool", "-", "memories need cryogenic cooling"),
    "memory_cutoff": (0.0, "[0, inf)", "s", "longest wait of a ready pair; 0 means the coherence time"),
    "bsm_success_prob": (0.5, "(0, 1]", "1", "success ceiling of a node's Bell-state measurement"),
    "bsm_visibility_penalty": (0.0, "[0, 1]", "1", "phase-flip weight of imperfect interference at a swap"),
    "detector_efficiency": (0.8, "(0, 1]", "1", "single-photon detector efficiency"),
    "max_heralding_km": (100.0, "(0, inf)", "km", "longest span a heralded attempt may cover"),
    "one_way_loss_threshold_db": (3.0, "(0, inf)", "dB", "largest span loss one-way repeaters tolerate"),
    "one_way_cryogenic": (False, "bool", "-", "one-way repeater hardware needs cryogenic cooling"),
}
DEFAULT_PARAMS: dict[str, float | bool] = {key: row[0] for key, row in PARAMS.items()}


class ConfigError(ValueError):
    """A route or fiber configuration file is malformed."""


@dataclass(frozen=True)
class Site:
    name: str
    position_km: float
    kind: str


@dataclass(frozen=True)
class RouteConfig:
    name: str
    sites: tuple[Site, ...]
    fiber: FiberSpec
    quantum_band: Band
    coexistence: bool
    params: Mapping[str, float | bool]

    def __post_init__(self) -> None:
        # A route file's rules, here so that dataclasses.replace checks a
        # route built in code as load_route checks a file. Positions are
        # kept as floats, as params are.
        _require(isinstance(self.name, str) and self.name, "route name must be a nonempty string")
        _require(len(self.sites) >= 2, "sites must be a list of at least two entries")
        sites = []
        for i, site in enumerate(self.sites):
            _require(isinstance(site.name, str) and site.name, f"sites[{i}].name must be a nonempty string")
            msg = f"sites[{i}].position_km must be a nonnegative number, got {site.position_km!r}"
            pos = _number(site.position_km, msg)
            _require(pos >= 0, msg)
            _require(
                site.kind in (SITE_KIND_ENDPOINT, SITE_KIND_ILA),
                f"sites[{i}].kind must be '{SITE_KIND_ENDPOINT}' or '{SITE_KIND_ILA}'",
            )
            sites.append(Site(site.name, pos, site.kind))
        for i in range(1, len(sites)):
            _require(
                sites[i].position_km > sites[i - 1].position_km,
                f"sites[{i}] position {sites[i].position_km} does not increase "
                f"past {sites[i - 1].position_km}",
            )
        _require(sites[0].kind == SITE_KIND_ENDPOINT, "first site must be an endpoint")
        _require(sites[-1].kind == SITE_KIND_ENDPOINT, "last site must be an endpoint")
        for i, site in enumerate(sites[1:-1], start=1):
            _require(
                site.kind == SITE_KIND_ILA,
                f"sites[{i}] is an interior site and must be kind '{SITE_KIND_ILA}'",
            )
        object.__setattr__(self, "sites", tuple(sites))
        _require(isinstance(self.coexistence, bool), "coexistence must be a boolean")
        # Every PARAMS key and no other, each in its domain: a boolean, or
        # a finite number (kept as a float) in the domain's interval. Kept
        # read-only, so that no change skips the check; dataclasses.replace
        # checks a new mapping.
        for key in self.params:
            _require(key in PARAMS, f"unknown defaults key {key!r}")
        params = {}
        for key, (_, domain, _, _) in PARAMS.items():
            _require(key in self.params, f"params missing key {key!r}")
            val = self.params[key]
            if domain == "bool":
                _require(isinstance(val, bool), f"defaults {key!r} must be a boolean, got {val!r}")
                params[key] = val
            else:
                num = params[key] = _number(val, f"defaults {key!r} must be a number, got {val!r}")
                lo, hi, lo_open, hi_open = _interval(domain)
                inside = (lo < num if lo_open else lo <= num) and (num < hi if hi_open else num <= hi)
                _require(inside, f"defaults {key!r} must lie in {domain}, got {val!r}")
        object.__setattr__(self, "params", types.MappingProxyType(params))

    @property
    def length_km(self) -> float:
        return self.sites[-1].position_km - self.sites[0].position_km


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _interval(domain: str) -> tuple[float, float, bool, bool]:
    """(lo, hi, lo_open, hi_open) of an interval written as "(0, 1]"."""
    lo, hi = (float(end) for end in domain[1:-1].split(","))
    return lo, hi, domain[0] == "(", domain[-1] == ")"


def _number(val, message: str) -> float:
    """``val`` as a float; ConfigError(message) unless it is a finite
    number. JSON's NaN and Infinity, booleans, and integers past the float
    range are not."""
    _require(isinstance(val, (int, float)) and not isinstance(val, bool), message)
    try:
        num = float(val)
    except OverflowError:
        num = math.inf
    _require(math.isfinite(num), message)
    return num


def _load_json(path: str):
    """The decoded content of a JSON config file. Content json cannot
    decode is a ConfigError naming the path: besides syntax errors, json
    raises a plain ValueError for an integer literal longer than Python's
    integer-string digit limit (4300 digits by default)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(
                f"{path}: invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from None
        except ValueError as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from None


def load_fiber_table(path: str) -> dict[str, FiberSpec]:
    """Fiber-type catalog from JSON: {"TYPE": {"attenuation_db_per_km":
    {"O": 0.35, ...}, "group_index": 1.468}, ...}."""
    raw = _load_json(path)
    _require(isinstance(raw, dict) and raw, f"{path}: expected an object of fiber types")
    table = {}
    for name, body in raw.items():
        _require(isinstance(body, dict), f"{path}: fiber type {name!r} must be an object")
        att = body.get("attenuation_db_per_km")
        _require(
            isinstance(att, dict) and att,
            f"{path}: fiber type {name!r} needs attenuation_db_per_km per band",
        )
        bands = {}
        for band, val in att.items():
            msg = f"{path}: fiber {name!r} band {band!r} attenuation must be positive, got {val!r}"
            bands[band] = _number(val, msg)
            _require(bands[band] > 0, msg)
        group = body.get("group_index", 1.468)
        msg = f"{path}: fiber {name!r} group_index must be a number of at least 1, got {group!r}"
        group = _number(group, msg)
        _require(group >= 1.0, msg)
        try:
            table[name] = FiberSpec(name, bands, group)
        except FiberConfigError as e:
            raise ConfigError(f"{path}: fiber {name!r}: {e}") from None
    return table


def load_route(path: str, fiber_table: dict[str, FiberSpec] | None = None) -> RouteConfig:
    """Parse and validate a route file."""
    table = fiber_table if fiber_table is not None else DEFAULT_FIBER_TYPES
    raw = _load_json(path)
    _require(isinstance(raw, dict), f"{path}: route must be a JSON object")
    known = {"name", "sites", "fiber_type", "quantum_band", "coexistence", "defaults"}
    for key in raw:
        _require(key in known, f"{path}: unknown route key {key!r}")

    # Sites that are not a list become none, which RouteConfig rejects.
    raw_sites = raw.get("sites")
    sites = []
    for i, entry in enumerate(raw_sites if isinstance(raw_sites, list) else []):
        _require(isinstance(entry, dict), f"{path}: sites[{i}] must be an object")
        sites.append(Site(entry.get("name", f"site{i}"), entry.get("position_km"), entry.get("kind")))

    fiber_type = raw.get("fiber_type", "NDSF")
    _require(
        isinstance(fiber_type, str) and fiber_type in table,
        f"{path}: fiber_type {fiber_type!r} not in table {sorted(table)}",
    )
    band_name = raw.get("quantum_band", "O")
    _require(
        isinstance(band_name, str) and band_name in BANDS,
        f"{path}: quantum_band {band_name!r} not one of {sorted(BANDS)}",
    )
    fiber = table[fiber_type]
    band = BANDS[band_name]
    try:
        fiber.attenuation(band)
    except FiberConfigError as e:
        raise ConfigError(f"{path}: {e}") from None

    defaults = raw.get("defaults", {})
    _require(isinstance(defaults, dict), f"{path}: defaults must be an object")
    try:
        return RouteConfig(
            name=raw.get("name", "route"),
            sites=tuple(sites),
            fiber=fiber,
            quantum_band=band,
            coexistence=raw.get("coexistence", True),
            params={**DEFAULT_PARAMS, **defaults},
        )
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def build_chain(route: RouteConfig, technology: str = TECH_ENTANGLEMENT) -> RepeaterChain:
    """Spans from consecutive site gaps, one repeater node per interior hut."""
    if technology not in TECHNOLOGIES:
        raise ConfigError(f"unknown technology {technology!r}")
    params = route.params

    noise = params["coexistence_noise_prob"] if route.coexistence else 0.0
    try:
        spans = tuple(
            FiberSpan(
                length_km=b.position_km - a.position_km,
                fiber=route.fiber,
                quantum_band=route.quantum_band,
                sop_drift_rate=params["sop_drift_rate"],
                sop_recalibration_interval=params["sop_recalibration_interval"],
                dephasing_p=params["dephasing_p"],
                coexistence_noise_prob=noise,
                mux_insertion_loss_db=params["mux_insertion_loss_db"],
            )
            for a, b in zip(route.sites[:-1], route.sites[1:])
        )
        memory = MemorySpec(
            coherence_time=params["memory_coherence_time"],
            write_efficiency=params["memory_write_efficiency"],
            read_efficiency=params["memory_read_efficiency"],
            cryogenic_required=params["memory_cryogenic"],
        )
        # Built once, so that a route without huts checks its parameters too.
        node = QorsNode(
            memory=memory,
            bsm_success_prob=params["bsm_success_prob"],
            bsm_visibility_penalty=params["bsm_visibility_penalty"],
            detector_efficiency=params["detector_efficiency"],
        )
        cutoff = params["memory_cutoff"] or params["memory_coherence_time"]
        return RepeaterChain(
            spans=spans,
            nodes=(node,) * (len(route.sites) - 2),
            attempt_rate=params["attempt_rate"],
            memory_cutoff=cutoff,
        )
    except (StateError, FiberConfigError) as e:
        raise ConfigError(f"route {route.name!r}: {e}") from None


def _config_hash(route: RouteConfig) -> str:
    """SHA-256 of the route and the parameters a plan uses."""
    canon = {
        "name": route.name,
        "sites": [
            {"name": s.name, "position_km": s.position_km, "kind": s.kind}
            for s in route.sites
        ],
        "fiber_type": route.fiber.type_name,
        "attenuation_db_per_km": route.fiber.attenuation_db_per_km,
        "group_index": route.fiber.group_index,
        "quantum_band": route.quantum_band.name,
        "coexistence": route.coexistence,
        "params": dict(route.params),
    }
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def spans_table(
    chain: RepeaterChain, attempts: tuple[SpanAttempt, ...] | None = None
) -> list[dict]:
    """Per-span summary for reports and the channel subcommand; fidelity is
    bell[0] of the span's attempt. ``attempts`` (span_attempts(chain)) saves
    recomputing them; a count other than one per span raises DimensionError."""
    attempts = _checked_attempts(chain, attempts)
    return [
        {
            "index": i,
            "length_km": float(span.length_km),
            "transmittance": transmittance(span),
            "fidelity": float(attempt.bell[0]),
        }
        for i, (span, attempt) in enumerate(zip(chain.spans, attempts))
    ]


def run_plan(
    route: RouteConfig,
    technology: str = "both",
    trials: int = 10000,
    seed: int = 42,
    workers: int = 1,
) -> dict | list[dict]:
    """Full feasibility report: verdict, spans, simulation, key rates.

    technology "both" returns [entanglement report, one_way report]; the
    two share one chain and one set of span attempts. One-way transport is
    assessed against its loss budget only; its end_to_end and qkd sections
    are null. Trials, seed and workers that simulate_chain_mc would reject
    raise ConfigError for every technology, before any of them runs; the
    route's keys were checked when it was built.
    """
    if technology == "both":
        technologies = TECHNOLOGIES
    elif technology in TECHNOLOGIES:
        technologies = (technology,)
    else:
        raise ConfigError(f"unknown technology {technology!r}")
    # Every plan checks the run parameters by the Monte Carlo engine's
    # rules, so no report records a seed or trial count that engine could
    # not have used.
    try:
        _check_mc_args(trials, seed, workers)
    except StateError as e:
        raise ConfigError(str(e)) from None
    params = route.params
    one_way_spec = OneWayRepeaterSpec(params["one_way_loss_threshold_db"], params["one_way_cryogenic"])

    chain = build_chain(route, technologies[0])
    attempts = span_attempts(chain)
    # Numpy integers are recorded as Python ints, so that the report
    # serialises.
    provenance = {
        "seed": int(seed),
        "trials": int(trials),
        "config_hash": _config_hash(route),
        "version": __version__,
    }
    reports = []
    for tech in technologies:
        verdict = assess_chain(
            chain,
            tech,
            one_way_spec=one_way_spec,
            max_heralding_km=params["max_heralding_km"],
            coexistence=route.coexistence,
        )

        end_to_end = None
        qkd_section = None
        if tech == TECH_ENTANGLEMENT:
            result = simulate_chain_mc(
                chain, trials=trials, seed=seed, workers=workers, attempts=attempts
            )
            end_to_end = {
                "fidelity": result.fidelity,
                "pair_rate_hz": result.pair_rate_hz,
                "latency_s": result.mean_latency_s,
            }
            qkd_section = report_section(key_metrics_from_result(result))

        report = {
            "schema_version": SCHEMA_VERSION,
            "route": {
                "name": route.name,
                "fiber_type": route.fiber.type_name,
                "quantum_band": route.quantum_band.name,
                "coexistence": route.coexistence,
                "length_km": route.length_km,
                "site_count": len(route.sites),
            },
            "technology": tech,
            "spans": spans_table(chain, attempts),
            "end_to_end": end_to_end,
            "qkd": qkd_section,
            "verdict": report_section(verdict),
            "provenance": dict(provenance),
        }
        validate_report(report)
        reports.append(report)
    return reports if technology == "both" else reports[0]


_REPORT_KEYS = {
    "schema_version", "route", "technology", "spans",
    "end_to_end", "qkd", "verdict", "provenance",
}
# Keys of the qkd section, the verdict and each violation: the fields of the
# types that report_section serialises. A qkd field declared bool holds a boolean.
_QKD_FIELDS = {f.name: f.type for f in fields(QkdMetrics)}
_VERDICT_KEYS = [f.name for f in fields(FeasibilityVerdict)]
_VIOLATION_KEYS = [f.name for f in fields(Violation)]


def validate_report(report: dict) -> None:
    """Structural check of a single-technology report, with every number
    it reports finite; raises ConfigError."""
    def fail(msg: str):
        raise ConfigError(f"report schema: {msg}")

    def number(val, where: str):
        _number(val, f"report schema: {where} must be a finite number")

    if not isinstance(report, dict):
        fail("report must be an object")
    if set(report) != _REPORT_KEYS:
        missing = _REPORT_KEYS - set(report)
        extra = set(report) - _REPORT_KEYS
        fail(f"bad keys: missing {sorted(missing)}, extra {sorted(extra)}")
    if report["schema_version"] != SCHEMA_VERSION:
        fail(f"schema_version must be {SCHEMA_VERSION}")
    if report["technology"] not in TECHNOLOGIES:
        fail(f"technology must be one of {TECHNOLOGIES}")

    route = report["route"]
    for key in ("name", "fiber_type", "quantum_band", "coexistence", "length_km", "site_count"):
        if not isinstance(route, dict) or key not in route:
            fail(f"route.{key} missing")

    spans = report["spans"]
    if not isinstance(spans, list) or not spans:
        fail("spans must be a nonempty list")
    for i, row in enumerate(spans):
        if not isinstance(row, dict) or set(row) != {"index", "length_km", "transmittance", "fidelity"}:
            fail(f"spans[{i}] must have exactly index/length_km/transmittance/fidelity")
        if row["index"] != i:
            fail(f"spans[{i}] index out of order")
        for key in ("length_km", "transmittance", "fidelity"):
            number(row[key], f"spans[{i}].{key}")

    ete, qkd_section = report["end_to_end"], report["qkd"]
    if report["technology"] == TECH_ENTANGLEMENT:
        if not isinstance(ete, dict) or set(ete) != {"fidelity", "pair_rate_hz", "latency_s"}:
            fail("end_to_end must have exactly fidelity/pair_rate_hz/latency_s")
        if not isinstance(qkd_section, dict) or set(qkd_section) != set(_QKD_FIELDS):
            fail(f"qkd must have exactly {'/'.join(_QKD_FIELDS)}")
        for key, v in ete.items():
            number(v, f"end_to_end.{key}")
        for key, kind in _QKD_FIELDS.items():
            if kind != "bool":
                number(qkd_section[key], f"qkd.{key}")
            elif not isinstance(qkd_section[key], bool):
                fail(f"qkd.{key} must be a boolean")
    else:
        if ete is not None or qkd_section is not None:
            fail("one_way reports carry null end_to_end and qkd")

    verdict = report["verdict"]
    if not isinstance(verdict, dict) or set(verdict) != set(_VERDICT_KEYS):
        fail(f"verdict must have exactly {'/'.join(_VERDICT_KEYS)}")
    if not isinstance(verdict["feasible"], bool):
        fail("verdict.feasible must be a boolean")
    if not isinstance(verdict["violations"], list):
        fail("verdict.violations must be a list")
    for j, v in enumerate(verdict["violations"]):
        if not isinstance(v, dict) or set(v) != set(_VIOLATION_KEYS):
            fail(f"violations[{j}] must have exactly {'/'.join(_VIOLATION_KEYS)}")
    if verdict["feasible"] and verdict["violations"]:
        fail("feasible verdict cannot carry violations")

    prov = report["provenance"]
    if not isinstance(prov, dict) or set(prov) != {"seed", "trials", "config_hash", "version"}:
        fail("provenance must have exactly seed/trials/config_hash/version")
