"""Entanglement-based key rates and deploy/no-deploy feasibility checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .linalg import DensityMatrix, StateError, bell_diagonal_weights
from .repeater import EndToEndResult, RepeaterChain

TECH_ENTANGLEMENT = "entanglement"
TECH_ONE_WAY = "one_way"
TECHNOLOGIES = (TECH_ENTANGLEMENT, TECH_ONE_WAY)


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x, in bits."""
    if not 0.0 <= x <= 1.0:
        raise StateError(f"entropy argument {x} outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(-x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x))


def _qber(bell) -> float:
    """QBER of a pair with Bell weights (Phi+, Psi+, Phi-, Psi-)."""
    q = (bell[1] + bell[2]) / 2.0 + bell[3]
    return min(max(q, 0.0), 1.0)


def qber_from_state(state: DensityMatrix) -> float:
    """Error rate of correlated measurements on a delivered pair.

    Both sides measure the same basis; an error is a disagreement. The
    rate averages the Z-basis and X-basis disagreement probabilities, as
    in entanglement-based key distribution with symmetric basis choice.
    For any two-qubit state these are its Bell weights on Psi+- and on
    Phi-/Psi-, so the rate is (b[1] + b[2]) / 2 + b[3].
    """
    return _qber(bell_diagonal_weights(state).tolist())


@dataclass(frozen=True)
class QkdMetrics:
    """Key metrics of a delivered pair. The fields, in order, are the keys
    of a report's ``qkd`` section (see report_section)."""

    qber: float
    sifted_rate_hz: float
    secret_key_rate_hz: float
    secure: bool


def bbm92_metrics(qber: float, sifted_rate_hz: float) -> QkdMetrics:
    """Asymptotic entanglement-based key metrics.

    Secret fraction is max(0, 1 - 2 h2(Q)); the ~11% QBER ceiling is where
    that expression crosses zero, it is never hardcoded.
    """
    if not 0.0 <= qber <= 0.5:
        raise StateError(f"QBER {qber} outside [0, 0.5]")
    if not 0 <= sifted_rate_hz < math.inf:
        raise StateError(f"sifted rate {sifted_rate_hz} outside [0, inf)")
    fraction = max(0.0, 1.0 - 2.0 * binary_entropy(qber))
    skr = sifted_rate_hz * fraction
    return QkdMetrics(
        qber=qber,
        sifted_rate_hz=sifted_rate_hz,
        secret_key_rate_hz=skr,
        secure=skr > 0.0,
    )


def key_metrics_from_result(result: EndToEndResult) -> QkdMetrics:
    """Key metrics for a chain simulation: both sides measure every
    delivered pair, matching bases half the time. A QBER above 1/2, past
    the domain of bbm92_metrics, gives no key."""
    qber = _qber(result.bell)
    sifted = result.pair_rate_hz / 2.0
    if qber > 0.5:
        return QkdMetrics(qber=qber, sifted_rate_hz=sifted, secret_key_rate_hz=0.0, secure=False)
    return bbm92_metrics(qber, sifted)


@dataclass(frozen=True)
class OneWayRepeaterSpec:
    """Loss budget of error-corrected one-way repeater hardware. The code
    tolerates at most half the photons lost between stations, a hard 3 dB
    ceiling on span loss."""

    loss_threshold_db: float = 3.0
    cryogenic_required: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.loss_threshold_db < math.inf:
            raise StateError("loss threshold outside (0, inf)")


def qec_max_span(
    attenuation_db_per_km: float,
    loss_threshold_db: float = 3.0,
    fixed_losses_db: float = 0.0,
) -> float:
    """Longest span an error-corrected one-way link can cross, in km."""
    if not 0 < attenuation_db_per_km < math.inf:
        raise StateError("attenuation outside (0, inf)")
    if not 0 < loss_threshold_db < math.inf:
        raise StateError("loss threshold outside (0, inf)")
    if not 0 <= fixed_losses_db < math.inf:
        raise StateError("fixed losses outside [0, inf)")
    if fixed_losses_db >= loss_threshold_db:
        raise StateError(
            f"fixed losses {fixed_losses_db} dB consume the whole "
            f"{loss_threshold_db} dB budget"
        )
    return (loss_threshold_db - fixed_losses_db) / attenuation_db_per_km


@dataclass(frozen=True)
class Violation:
    """One unmet deployment requirement. The fields, in order, are the keys
    of each entry of a report's ``verdict.violations`` list. ``span_index``
    is the span's index for R2, the node's (hut's) index for an R4 node
    memory, and None for a violation of the whole route."""

    requirement: str
    span_index: int | None
    detail: str


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Deploy/no-deploy answer for one technology. The fields, in order,
    are the keys of a report's ``verdict`` section (see report_section)."""

    feasible: bool
    violations: tuple[Violation, ...]


def report_section(result: QkdMetrics | FeasibilityVerdict | Violation) -> dict:
    """``result`` as a report section: one key per field, in declaration
    order; a tuple of results becomes a list of sections."""
    section = {}
    for f in fields(result):
        val = getattr(result, f.name)
        section[f.name] = [report_section(v) for v in val] if isinstance(val, tuple) else val
    return section


# Deployment requirements:
#  R1  coexist with classical traffic on the same fiber plant
#  R2  every span reachable by the chosen repeater technology
#  R3  equipment only at existing huts and endpoints
#  R4  no cryogenics in the field
R_COEXISTENCE = "R1-coexistence"
R_SPAN_REACH = "R2-span-reach"
R_EXISTING_SITES = "R3-existing-sites"
R_NO_CRYOGENICS = "R4-no-cryogenics"


def assess_chain(
    chain: RepeaterChain,
    technology: str,
    one_way_spec: OneWayRepeaterSpec | None = None,
    max_heralding_km: float = 100.0,
    coexistence: bool = True,
) -> FeasibilityVerdict:
    """Deploy/no-deploy verdict for one technology over a built chain."""
    if technology not in TECHNOLOGIES:
        raise StateError(
            f"unknown technology {technology!r}, expected one of {TECHNOLOGIES}"
        )
    if not 0 < max_heralding_km < math.inf:
        raise StateError(f"max_heralding_km {max_heralding_km} outside (0, inf)")
    spec = one_way_spec if one_way_spec is not None else OneWayRepeaterSpec()
    violations: list[Violation] = []

    if not coexistence:
        violations.append(
            Violation(
                requirement=R_COEXISTENCE,
                span_index=None,
                detail=(
                    "route is configured without classical coexistence; "
                    "dedicated dark fiber violates the shared-plant requirement"
                ),
            )
        )

    reach_failures = []
    for i, span in enumerate(chain.spans):
        if technology == TECH_ENTANGLEMENT:
            limit, rule = max_heralding_km, "heralded-attempt limit"
        else:
            # The span's insertion loss comes out of the budget before its
            # fiber does, as in fiber.transmittance.
            att = span.fiber.attenuation(span.quantum_band)
            insertion = span.mux_insertion_loss_db
            budget = spec.loss_threshold_db
            if insertion >= budget:
                reach_failures.append(
                    Violation(
                        requirement=R_SPAN_REACH,
                        span_index=i,
                        detail=(
                            f"span {i} insertion loss {insertion:g} dB uses the "
                            f"whole {budget:g} dB one-way budget"
                        ),
                    )
                )
                continue
            limit = qec_max_span(att, budget, insertion)
            rule = (
                f"one-way limit ({budget:g} dB budget less {insertion:g} dB "
                f"insertion loss, at {att:g} dB/km in the "
                f"{span.quantum_band.name} band)"
            )
        if span.length_km > limit:
            reach_failures.append(
                Violation(
                    requirement=R_SPAN_REACH,
                    span_index=i,
                    detail=(
                        f"span {i} length {span.length_km:g} km exceeds the "
                        f"{limit:g} km {rule}"
                    ),
                )
            )
    violations.extend(reach_failures)
    if reach_failures:
        violations.append(
            Violation(
                requirement=R_EXISTING_SITES,
                span_index=None,
                detail=(
                    f"{len(reach_failures)} span(s) out of reach; closing the gap "
                    "would require new huts between existing sites"
                ),
            )
        )

    if technology == TECH_ENTANGLEMENT:
        for j, node in enumerate(chain.nodes):
            if node.memory.cryogenic_required:
                violations.append(
                    Violation(
                        requirement=R_NO_CRYOGENICS,
                        span_index=j,
                        detail=f"node {j} memory requires cryogenic operation",
                    )
                )
    elif spec.cryogenic_required:
        violations.append(
            Violation(
                requirement=R_NO_CRYOGENICS,
                span_index=None,
                detail="one-way repeater hardware requires cryogenic operation",
            )
        )

    return FeasibilityVerdict(feasible=not violations, violations=tuple(violations))


__all__ = [
    "binary_entropy",
    "qber_from_state",
    "QkdMetrics",
    "bbm92_metrics",
    "key_metrics_from_result",
    "OneWayRepeaterSpec",
    "qec_max_span",
    "Violation",
    "FeasibilityVerdict",
    "report_section",
    "assess_chain",
    "TECH_ENTANGLEMENT",
    "TECH_ONE_WAY",
    "TECHNOLOGIES",
]
