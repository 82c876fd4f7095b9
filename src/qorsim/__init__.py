"""Density-matrix simulator and feasibility planner for quantum-secured
optical links over deployed fiber."""

__version__ = "0.1.0"

from .linalg import DensityMatrix, tensor, partial_trace, fidelity, apply_unitary
from .channels import KrausChannel, apply_channel, compose, verify_cptp
from .fiber import Band, FiberSpec, FiberSpan, transmittance, span_channel_stack
from .repeater import (
    MemorySpec,
    QorsNode,
    RepeaterChain,
    EndToEndResult,
    span_entanglement_attempt,
    span_attempts,
    memory_decay,
    entanglement_swap,
    teleport,
    simulate_chain_mc,
    simulate_chain_analytic,
)
from .qkd import (
    OneWayRepeaterSpec,
    QkdMetrics,
    FeasibilityVerdict,
    qec_max_span,
    qber_from_state,
    bbm92_metrics,
    assess_chain,
)
from .planner import RouteConfig, load_route, build_chain, run_plan, validate_report

__all__ = [
    "__version__",
    "DensityMatrix",
    "tensor",
    "partial_trace",
    "fidelity",
    "apply_unitary",
    "KrausChannel",
    "apply_channel",
    "compose",
    "verify_cptp",
    "Band",
    "FiberSpec",
    "FiberSpan",
    "transmittance",
    "span_channel_stack",
    "MemorySpec",
    "QorsNode",
    "RepeaterChain",
    "EndToEndResult",
    "span_entanglement_attempt",
    "span_attempts",
    "memory_decay",
    "entanglement_swap",
    "teleport",
    "simulate_chain_mc",
    "simulate_chain_analytic",
    "OneWayRepeaterSpec",
    "QkdMetrics",
    "FeasibilityVerdict",
    "qec_max_span",
    "qber_from_state",
    "bbm92_metrics",
    "assess_chain",
    "RouteConfig",
    "load_route",
    "build_chain",
    "run_plan",
    "validate_report",
]
