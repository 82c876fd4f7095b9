"""Quantum channels in operator-sum form, with CPTP verification and a
catalog of qubit and single-rail channels.

Qubit channels act on polarization; fiber-level channels act on a 3-level
single-rail space ordered (|0>, |1>, vacuum) so photon loss is a proper
trace-preserving map and heralding is a later projection onto the photon
subspace. A channel holds its Kraus operators as one read-only
(n, out_dim, in_dim) array, and every function here acts on that array with
batched numpy products rather than a loop over operators.
apply_to_subsystem folds the operators into the channel's d^2 x d^2
superoperator first, so its cost does not grow with their number. Channel
composition multiplies operator sets, so keep stacks shallow.

memory_decay, entanglement_swap and teleport act on dense pairs, as the
oracle of the engines' Bell-weight steps in qorsim.linalg; no plan runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from .linalg import (
    BELL_KETS,
    BELL_SIDE_OPS,
    MAX_DIM,
    DensityMatrix,
    DimensionError,
    StateError,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
)

if TYPE_CHECKING:
    from .repeater import MemorySpec, QorsNode

COMPLETENESS_TOL = 1e-10
CHOI_PSD_TOL = 1e-10

# Single-rail optical space: photon polarization levels first, vacuum last.
RAIL_DIM = 3
VACUUM_INDEX = 2


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A channel given by Kraus operators, held as one read-only complex
    array of shape (n, out_dim, in_dim).

    `operators` may be given as any sequence of equal-shape 2-d operators or
    as such an array; it is copied once. Channels compare by identity, so
    `==` is `is`.

    Completeness (sum K^dag K = I) is a soft invariant: it is not enforced
    here so that verify_cptp can report on defective sets, but every
    constructor in this module satisfies it.
    """

    operators: np.ndarray

    def __post_init__(self) -> None:
        try:
            ops = np.array(self.operators, dtype=complex)
        except ValueError:
            ops = None
        if ops is None or ops.ndim != 3 or not len(ops):
            _raise_shape_fault(self.operators)
        if not np.isfinite(ops).all():
            bad = int(np.argmin(np.isfinite(ops).all(axis=(1, 2))))
            raise StateError(f"Kraus operator {bad} contains non-finite entries")
        dim = max(ops.shape[1:])
        if dim > MAX_DIM:
            raise DimensionError(f"dimension {dim} exceeds limit {MAX_DIM}")
        ops.flags.writeable = False
        object.__setattr__(self, "operators", ops)

    @property
    def in_dim(self) -> int:
        return self.operators.shape[2]

    @property
    def out_dim(self) -> int:
        return self.operators.shape[1]


def _raise_shape_fault(operators) -> NoReturn:
    """Name the operator that keeps a set from stacking into one
    (n, out_dim, in_dim) array."""
    if len(operators) == 0:
        raise DimensionError("channel needs at least one Kraus operator")
    shape = None
    for i, op in enumerate(operators):
        arr = np.asarray(op, dtype=complex)
        if arr.ndim != 2:
            raise DimensionError(
                f"Kraus operator {i} must be a 2-d array, got shape {arr.shape}"
            )
        if shape is None:
            shape = arr.shape
        elif arr.shape != shape:
            raise DimensionError(
                f"Kraus operator {i} has shape {arr.shape}, expected {shape}"
            )
    raise DimensionError("Kraus operators do not stack into one array")


@dataclass(frozen=True)
class CptpReport:
    """Result of verify_cptp. valid means the set is usable as declared."""

    completeness_residual: float
    choi_min_eigenvalue: float
    trace_preserving: bool
    completely_positive: bool
    valid: bool


def completeness_operator(channel: KrausChannel) -> np.ndarray:
    """Sum of K^dag K over the operator set: V^dag V with the operators
    stacked as the row blocks of V."""
    v = channel.operators.reshape(-1, channel.in_dim)
    return v.conj().T @ v


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Choi matrix as sum of vec(K) vec(K)^dag with row-major vec: W^T W*
    with the vecs as the rows of W.

    Positive semidefinite exactly when the map is completely positive;
    eigenvalue floor is what verify_cptp reports.
    """
    w = channel.operators.reshape(len(channel.operators), -1)
    return w.T @ w.conj()


def verify_cptp(channel: KrausChannel) -> CptpReport:
    """Check completeness and complete positivity; reports, never raises."""
    comp = completeness_operator(channel)
    residual = float(np.abs(comp - np.eye(channel.in_dim)).max())
    trace_preserving = residual <= COMPLETENESS_TOL
    choi_lo = float(np.linalg.eigvalsh(choi_matrix(channel)).min())
    completely_positive = choi_lo >= -CHOI_PSD_TOL
    return CptpReport(
        completeness_residual=residual,
        choi_min_eigenvalue=choi_lo,
        trace_preserving=trace_preserving,
        completely_positive=completely_positive,
        valid=trace_preserving and completely_positive,
    )


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Operator-sum action.

    This keeps the per-operator sum of K rho K^dag rather than the
    superoperator of apply_to_subsystem: the test oracle for
    apply_to_subsystem lifts each operator to the full space and applies
    the lifted set here, so the two share no kernel."""
    if channel.in_dim != rho.dim:
        raise DimensionError(
            f"channel input dim {channel.in_dim} does not match state dim {rho.dim}"
        )
    k = channel.operators
    out = (k @ rho.matrix @ k.conj().swapaxes(1, 2)).sum(axis=0)
    return DensityMatrix((out + out.conj().T) / 2)


def compose(first: KrausChannel, then: KrausChannel) -> KrausChannel:
    """Channel applying `first` and then `then` (operators {B_j A_i})."""
    if then.in_dim != first.out_dim:
        raise DimensionError(
            f"cannot compose: output dim {first.out_dim} feeds input dim {then.in_dim}"
        )
    # Broadcast product indexed [j, i] = B_j A_i, flattened with j outer.
    ops = (then.operators[:, None] @ first.operators[None, :]).reshape(
        -1, then.out_dim, first.in_dim
    )
    return KrausChannel(ops)


def apply_to_subsystem(
    channel: KrausChannel, rho: DensityMatrix, index: int, dims: list[int]
) -> DensityMatrix:
    """Apply a channel to one tensor factor of a composite state.

    The state is viewed as (before, d, after) on each side, and the
    factor's row and column indices are moved to the front, so the
    channel's superoperator acts on them in one matrix product, whatever
    the number of Kraus operators, without forming I (x) K (x) I.
    """
    dims = [int(d) for d in dims]
    if math.prod(dims) != rho.dim:
        raise DimensionError(f"dims {dims} do not match state dim {rho.dim}")
    if not 0 <= index < len(dims):
        raise DimensionError(f"subsystem index {index} out of range")
    if channel.in_dim != dims[index] or channel.out_dim != dims[index]:
        raise DimensionError("subsystem application needs a square channel")
    d = dims[index]
    before = math.prod(dims[:index])
    after = math.prod(dims[index + 1:])
    # Superoperator S[(i, j), (k, l)] = sum_n K[n, i, k] conj(K[n, j, l]):
    # the Choi matrix with its middle two indices swapped.
    s = choi_matrix(channel).reshape(d, d, d, d).swapaxes(1, 2).reshape(d * d, d * d)
    # State axes (a, k, b, a', l, b') -> (k, l, a, b, a', b'), and back.
    x = rho.matrix.reshape(before, d, after, before, d, after)
    x = x.transpose(1, 4, 0, 2, 3, 5).reshape(d * d, -1)
    y = (s @ x).reshape(d, d, before, after, before, after)
    out = y.transpose(2, 0, 3, 4, 1, 5).reshape(rho.dim, rho.dim)
    return DensityMatrix((out + out.conj().T) / 2)


# Qubit channel catalog.

def depolarizing_channel(p: float) -> KrausChannel:
    """Isotropic qubit noise: keeps the state with weight 1 - p, scrambles
    with weight p. Entanglement fidelity with a Bell pair is 1 - 3p/4."""
    if not 0.0 <= p <= 1.0:
        raise StateError(f"depolarizing strength {p} outside [0, 1]")
    ops = (
        np.sqrt(1.0 - 3.0 * p / 4.0) * PAULI_I,
        np.sqrt(p / 4.0) * PAULI_X,
        np.sqrt(p / 4.0) * PAULI_Y,
        np.sqrt(p / 4.0) * PAULI_Z,
    )
    return KrausChannel(ops)


def dephasing_channel(p: float) -> KrausChannel:
    """Phase-flip channel: Z with probability p, scales coherences by 1 - 2p."""
    if not 0.0 <= p <= 1.0:
        raise StateError(f"dephasing probability {p} outside [0, 1]")
    ops = (np.sqrt(1.0 - p) * PAULI_I, np.sqrt(p) * PAULI_Z)
    return KrausChannel(ops)


def rotation_unitary(theta: float, axis: np.ndarray) -> np.ndarray:
    """SU(2) rotation exp(-i (theta/2) n.sigma) about unit axis n."""
    n = np.asarray(axis, dtype=float).reshape(-1)
    if n.shape != (3,):
        raise DimensionError("rotation axis must be a 3-vector")
    norm = np.linalg.norm(n)
    if norm < 1e-12:
        raise StateError("rotation axis has zero norm")
    n = n / norm
    generator = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    return np.cos(theta / 2) * PAULI_I - 1j * np.sin(theta / 2) * generator


def sop_rotation_channel(omega: float, delta_t: float) -> KrausChannel:
    """Polarization drift accumulated between recalibrations.

    A drift rate omega (rad/s) acting for delta_t seconds rotates the
    polarization qubit by theta = omega * delta_t about some axis on the
    Poincare sphere. Integrating the axis over the uniform sphere collapses
    the rotation to the Pauli mixture
    {cos(theta/2) I, sin(theta/2)/sqrt(3) (X, Y, Z)}. A rotation about a
    known axis n is the one-operator channel
    KrausChannel((rotation_unitary(theta, n),)).
    """
    if omega < 0 or delta_t < 0:
        raise StateError("drift rate and interval must be nonnegative")
    theta = omega * delta_t
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    ops = (
        c * PAULI_I,
        s / np.sqrt(3.0) * PAULI_X,
        s / np.sqrt(3.0) * PAULI_Y,
        s / np.sqrt(3.0) * PAULI_Z,
    )
    return KrausChannel(ops)


# Single-rail optical channels (3 levels, vacuum last).

def loss_channel(eta: float) -> KrausChannel:
    """Photon survival with probability eta; lost photons land in vacuum."""
    if not 0.0 <= eta <= 1.0:
        raise StateError(f"transmittance {eta} outside [0, 1]")
    # One keep operator, then one drop operator per photon level.
    ops = np.zeros((3, RAIL_DIM, RAIL_DIM), dtype=complex)
    ops[0, VACUUM_INDEX, VACUUM_INDEX] = 1.0
    ops[0, 0, 0] = ops[0, 1, 1] = np.sqrt(eta)
    ops[[1, 2], VACUUM_INDEX, [0, 1]] = np.sqrt(1.0 - eta)
    return KrausChannel(ops)


def embed_qubit_channel(channel: KrausChannel) -> KrausChannel:
    """Lift a polarization-qubit channel to the 3-level rail space.

    The first operator extends with 1 on the vacuum level and the rest with
    0, so vacuum passes through untouched and completeness is preserved.
    """
    if channel.in_dim != 2 or channel.out_dim != 2:
        raise DimensionError("only qubit channels embed into the rail space")
    ops = np.zeros((len(channel.operators), RAIL_DIM, RAIL_DIM), dtype=complex)
    ops[:, :2, :2] = channel.operators
    ops[0, VACUUM_INDEX, VACUUM_INDEX] = 1.0
    return KrausChannel(ops)


# Dense pair operations.

def memory_decay(
    state: DensityMatrix, dwell_s: float, memory: MemorySpec, qubit: int
) -> DensityMatrix:
    """Depolarize one qubit of a pair for a storage interval."""
    if dwell_s < 0:
        raise StateError("dwell time must be nonnegative")
    if state.dim != 4:
        raise DimensionError("memory decay acts on two-qubit states")
    if qubit not in (0, 1):
        raise DimensionError("qubit index must be 0 or 1")
    p = 1.0 - math.exp(-dwell_s / memory.coherence_time)
    return apply_to_subsystem(depolarizing_channel(p), state, qubit, [2, 2])


# Linear-optics BSMs herald only the odd-parity Bell outcomes.
_HERALDED_OUTCOMES = (1, 3)


def _bell_measure(joint: np.ndarray, pre: int, outcomes) -> np.ndarray:
    """Bell-measure the middle two qubits of ``joint``, a state on a
    ``pre``-dimensional system and three qubits. Each kept outcome's
    projection, Pauli-corrected on the last qubit, is summed; returns the
    normalized state of the first system and the last qubit."""
    t = joint.reshape((pre, 2, 2, 2) * 2)
    out = np.zeros((2 * pre, 2 * pre), dtype=complex)
    for k in outcomes:
        v = BELL_KETS[k].reshape(2, 2)
        m = np.einsum("mn,amnbcpqd,pq->abcd", v.conj(), t, v).reshape(2 * pre, 2 * pre)
        c = np.kron(np.eye(pre), BELL_SIDE_OPS[k])
        out += c @ m @ c.conj().T
    tr = float(np.real(np.trace(out)))
    if tr < 1e-14:
        raise StateError("Bell measurement has no support on the kept outcomes")
    out = out / tr
    return (out + out.conj().T) / 2


def entanglement_swap(
    left: DensityMatrix, right: DensityMatrix, node: QorsNode
) -> DensityMatrix:
    """Connect two pairs meeting at a node into one longer pair.

    Interference visibility enters as a phase-flip on the node-side qubit of
    the left pair before the measurement. The returned state aggregates the
    heralded outcomes after correction, given that the swap succeeds.
    """
    if left.dim != 4 or right.dim != 4:
        raise DimensionError("entanglement swap needs two two-qubit states")
    joint = np.kron(left.matrix, right.matrix)
    penalty = node.bsm_visibility_penalty
    z = np.kron(np.kron(np.eye(2), np.diag([1.0, -1.0])), np.eye(4))
    joint = (1.0 - penalty) * joint + penalty * (z @ joint @ z)
    return DensityMatrix(_bell_measure(joint, 2, _HERALDED_OUTCOMES))


def teleport(state: DensityMatrix, resource: DensityMatrix) -> DensityMatrix:
    """Teleport a single-qubit state through an entangled resource pair,
    averaging over all four corrected measurement outcomes."""
    if state.dim != 2 or resource.dim != 4:
        raise DimensionError("teleport needs a qubit state and a two-qubit resource")
    return DensityMatrix(_bell_measure(np.kron(state.matrix, resource.matrix), 1, range(4)))
