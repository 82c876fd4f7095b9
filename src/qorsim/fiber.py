"""Deployed-fiber modeling: attenuation, propagation delay, and the
per-span noise stack experienced by a heralded photon."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channels import (
    KrausChannel,
    compose,
    dephasing_channel,
    embed_qubit_channel,
    loss_channel,
    sop_rotation_channel,
)

SPEED_OF_LIGHT_M_S = 2.99792458e8


class FiberConfigError(ValueError):
    """A fiber, band, or span parameter is missing or out of range."""


@dataclass(frozen=True)
class Band:
    """Transmission window, e.g. O (1310 nm) or C (1550 nm)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise FiberConfigError("band needs a name")


O_BAND = Band("O")
C_BAND = Band("C")
L_BAND = Band("L")

BANDS = {b.name: b for b in (O_BAND, C_BAND, L_BAND)}


@dataclass(frozen=True)
class FiberSpec:
    """A fiber type: attenuation per band (dB/km) and group index."""

    type_name: str
    attenuation_db_per_km: dict[str, float]
    group_index: float = 1.468

    def __post_init__(self) -> None:
        if not self.type_name:
            raise FiberConfigError("fiber type needs a name")
        if not self.attenuation_db_per_km:
            raise FiberConfigError("fiber spec needs at least one band entry")
        # Range checks compare against math.inf so that NaN fails them too.
        for band, att in self.attenuation_db_per_km.items():
            if not 0 < att < math.inf:
                raise FiberConfigError(
                    f"attenuation for band {band} outside (0, inf), got {att}"
                )
        if not 1.0 <= self.group_index < math.inf:
            raise FiberConfigError("group index outside [1, inf)")
        object.__setattr__(
            self, "attenuation_db_per_km", dict(self.attenuation_db_per_km)
        )

    def attenuation(self, band: Band) -> float:
        try:
            return self.attenuation_db_per_km[band.name]
        except KeyError:
            raise FiberConfigError(
                f"fiber type {self.type_name} has no attenuation entry for "
                f"band {band.name}"
            ) from None


# Standard single-mode fiber. The O-band figure is chosen so a 3 dB loss
# budget reaches 8.6 km; see README for why that value is inferred rather
# than measured.
NDSF = FiberSpec("NDSF", {"C": 0.20, "L": 0.22, "O": 0.35})

DEFAULT_FIBER_TYPES = {NDSF.type_name: NDSF}


@dataclass(frozen=True)
class FiberSpan:
    """One hut-to-hut fiber segment and its quantum-degrading parameters.

    Zero-length spans are allowed as degenerate test fixtures. The physics
    knobs default to zero (clean span); deployment defaults live in the
    planner.
    """

    length_km: float
    fiber: FiberSpec = NDSF
    quantum_band: Band = O_BAND
    sop_drift_rate: float = 0.0              # rad/s on the Poincare sphere
    sop_recalibration_interval: float = 0.0  # s between polarization resets
    dephasing_p: float = 0.0                 # residual phase-flip probability
    coexistence_noise_prob: float = 0.0      # accidental-coincidence weight
    mux_insertion_loss_db: float = 0.0       # add/drop filters, connectors

    def __post_init__(self) -> None:
        if not 0 <= self.length_km < math.inf:
            raise FiberConfigError(f"span length {self.length_km} outside [0, inf)")
        for drift in (self.sop_drift_rate, self.sop_recalibration_interval):
            if not 0 <= drift < math.inf:
                raise FiberConfigError("SOP drift parameters outside [0, inf)")
        rate, interval = self.sop_drift_rate, self.sop_recalibration_interval
        if not float(rate) * float(interval) < math.inf:
            raise FiberConfigError(
                f"SOP drift angle sop_drift_rate * sop_recalibration_interval "
                f"overflows: {rate!r} * {interval!r}"
            )
        if not 0.0 <= self.dephasing_p <= 1.0:
            raise FiberConfigError("dephasing probability outside [0, 1]")
        if not 0.0 <= self.coexistence_noise_prob < 1.0:
            raise FiberConfigError("coexistence noise probability outside [0, 1)")
        if not 0 <= self.mux_insertion_loss_db < math.inf:
            raise FiberConfigError("insertion loss outside [0, inf)")
        # Touch the band entry so a bad span fails at construction.
        self.fiber.attenuation(self.quantum_band)


def transmittance(span: FiberSpan) -> float:
    """Power transmittance 10^(-(att * L + insertion) / 10)."""
    att = span.fiber.attenuation(span.quantum_band)
    loss_db = att * span.length_km + span.mux_insertion_loss_db
    return float(10.0 ** (-loss_db / 10.0))


def photon_dwell_time(span: FiberSpan) -> float:
    """One-way propagation delay in seconds at the fiber group velocity."""
    velocity = SPEED_OF_LIGHT_M_S / span.fiber.group_index
    return span.length_km * 1e3 / velocity


def span_channel_stack(span: FiberSpan) -> KrausChannel:
    """The rail channel of everything the fiber does to a flying qubit, 24
    operators: the catalog composition
    compose(embed_qubit_channel(compose(dephasing_channel(p),
    sop_rotation_channel(omega, dt))), loss_channel(eta)). Residual
    dephasing acts first, then the axis-averaged polarization rotation at
    the drift rate omega over one recalibration interval dt, then loss
    into the vacuum level at the span's transmittance eta. Background
    counts are accounted separately (they enter at detection, not in
    flight).
    """
    qubit = compose(
        dephasing_channel(span.dephasing_p),
        sop_rotation_channel(span.sop_drift_rate, span.sop_recalibration_interval),
    )
    return compose(embed_qubit_channel(qubit), loss_channel(transmittance(span)))
