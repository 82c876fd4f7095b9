"""Deployed-fiber modeling: attenuation, propagation delay, and the
per-span noise stack experienced by a heralded photon."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import RAIL_DIM, VACUUM_INDEX, KrausChannel
from .linalg import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z

SPEED_OF_LIGHT_M_S = 2.99792458e8


class FiberConfigError(ValueError):
    """A fiber, band, or span parameter is missing or out of range."""


@dataclass(frozen=True)
class Band:
    """Transmission window, e.g. O (1310 nm) or C (1550 nm)."""

    name: str
    center_nm: float

    def __post_init__(self) -> None:
        if not self.name:
            raise FiberConfigError("band needs a name")
        # Range checks compare against math.inf so that NaN fails them too.
        if not 0 < self.center_nm < math.inf:
            raise FiberConfigError("band center wavelength outside (0, inf)")


O_BAND = Band("O", 1310.0)
C_BAND = Band("C", 1550.0)
L_BAND = Band("L", 1590.0)

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


# The span stack's operators are weights times fixed Pauli patterns. Qubit
# operator 2j + i is the averaged rotation's Pauli j (I, X, Y, Z) times the
# dephasing's Pauli i (I, Z). Rail operator 8k + 2j + i applies loss
# operator k to it: the keep operator (k = 0) passes the qubit block
# through, and drop operator k moves row k - 1 of the block to the vacuum
# row. This is the order compose and embed_qubit_channel give.
_QUBIT_PAULIS = np.array(
    [pj @ pi for pj in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z) for pi in (PAULI_I, PAULI_Z)]
)
_RAIL_PATTERN = np.zeros((3, len(_QUBIT_PAULIS), RAIL_DIM, RAIL_DIM), dtype=complex)
_RAIL_PATTERN[0, :, :2, :2] = _QUBIT_PAULIS
_RAIL_PATTERN[1, :, VACUUM_INDEX, :2] = _QUBIT_PAULIS[:, 0]
_RAIL_PATTERN[2, :, VACUUM_INDEX, :2] = _QUBIT_PAULIS[:, 1]
_RAIL_PATTERN = _RAIL_PATTERN.reshape(-1, RAIL_DIM, RAIL_DIM)


def span_channel_stack(span: FiberSpan) -> KrausChannel:
    """The rail channel of everything the fiber does to a flying qubit.

    Composition order: residual dephasing, then the axis-averaged
    polarization rotation accumulated over one recalibration interval, then
    loss into the vacuum level. The operators are built in one array from
    (p, theta, eta) and equal, entry for entry (zeros may differ in sign), to
    compose(embed_qubit_channel(compose(dephasing_channel(p),
    sop_rotation_channel(omega, dt))), loss_channel(eta)): each entry is
    the same product of the same rounded weights, times a Pauli entry
    (0, +-1 or +-i), which is exact. Background counts are accounted
    separately (they enter at detection, not in flight).
    """
    eta = transmittance(span)
    theta = span.sop_drift_rate * span.sop_recalibration_interval
    p = span.dephasing_p
    # FiberSpan keeps theta finite, so every weight is.
    s = np.sin(theta / 2) / np.sqrt(3.0)
    qubit = np.multiply.outer([np.cos(theta / 2), s, s, s], np.sqrt([1.0 - p, p]))
    rail = np.multiply.outer(np.sqrt([eta, 1.0 - eta, 1.0 - eta]), qubit)
    ops = rail.reshape(-1, 1, 1) * _RAIL_PATTERN
    ops[0, VACUUM_INDEX, VACUUM_INDEX] = 1.0
    return KrausChannel(ops)
