"""Independent brute-force constructions used to validate closed forms.

Everything here is built from explicit kets, kron products, and index
loops only, so the implementation under test and the oracle share no
code paths. Two exceptions: ``oracle_apply_to_subsystem`` lifts each
Kraus operator to the full space with kron products and hands the lifted
set to ``apply_channel``, and ``oracle_span_attempt`` takes each stage's
Kraus operators from the channel catalog and the span's transmittance from
``qorsim.fiber``. The catalog channels and these helpers are checked
against closed forms on their own. The numpy references of the Bell-weight
steps (``reference_bell_decay``, ``reference_bell_dephase`` and
``reference_bell_convolve``) act on one vector or a stack of them, where
the package's steps take one pair as four floats; ``oracle_delivered_bells``
folds Bell weights node by node with them.
``oracle_splitmix_uniform`` recomputes the Monte Carlo engine's draws one
at a time in Python integers, key derivation from the seed included.
``dense_span_attempt`` is no oracle: it is the heralded attempt through the
package's public dense layer (``span_channel_stack`` applied with
``apply_to_subsystem``), which the closed form in
``span_entanglement_attempt`` is checked against beside the oracle.
``exact_domain_z_scores`` is no oracle either: it is the differential
check of the two engines, analytic against Monte Carlo, on a drawn chain of
the analytic engine's exact domain.
The test-only constructors (``ket``, ``phi_plus``, ``werner_state``, the
random states, ``identity_channel`` and others) are no oracles: they build
inputs, and ``phi_plus`` and ``werner_state`` use qorsim.linalg's Bell
states.

The Gaussian section at the end derives photon loss from a beam-splitter
Hamiltonian instead: quadratic Hamiltonians, symplectic transforms via
scipy's expm, and the beam-splitter dilation. It shares only the package's
containers and conventions: it wraps its Kraus operators in qorsim's
``KrausChannel`` (so ``verify_cptp`` checks them), uses the single-rail
ordering ``RAIL_DIM``/``VACUUM_INDEX``, and raises qorsim's ``StateError``
and ``DimensionError``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from qorsim.channels import (
    RAIL_DIM,
    VACUUM_INDEX,
    KrausChannel,
    apply_channel,
    apply_to_subsystem,
    dephasing_channel,
    loss_channel,
    sop_rotation_channel,
)
from qorsim.fiber import C_BAND, O_BAND, FiberSpan, span_channel_stack, transmittance
from qorsim.linalg import (
    DensityMatrix,
    DimensionError,
    StateError,
    _as_complex_matrix,
    bell_diagonal_state,
    bell_state,
)
from qorsim.repeater import (
    MemorySpec,
    QorsNode,
    RepeaterChain,
    simulate_chain_analytic,
    simulate_chain_mc,
)

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_PHI = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)

# Bell kets as one-sided Paulis on (|00> + |11|)/sqrt(2); the corrections
# in oracle_swap are their inverses, so no ordering convention is assumed.
SIDE_OPS = (_I2, _X, _Z, _X @ _Z)
BELL_VECS = tuple(np.kron(_I2, op) @ _PHI for op in SIDE_OPS)


def oracle_swap(left: np.ndarray, right: np.ndarray, outcomes=(0, 1, 2, 3)) -> np.ndarray:
    """Four-qubit brute force: project qubits (1, 2) onto each Bell vector,
    correct qubit 3 with the inverse side operator, average the outcomes."""
    joint = np.kron(left, right)  # qubit order (0, 1) x (2, 3)
    t = joint.reshape((2,) * 8)   # (a b c d, a' b' c' d')
    acc = np.zeros((4, 4), dtype=complex)
    for k in outcomes:
        b = BELL_VECS[k].reshape(2, 2)
        m = np.zeros((2, 2, 2, 2), dtype=complex)
        for a in range(2):
            for d in range(2):
                for ap in range(2):
                    for dp in range(2):
                        val = 0.0 + 0.0j
                        for bq in range(2):
                            for cq in range(2):
                                for bp in range(2):
                                    for cp in range(2):
                                        val += (
                                            b[bq, cq].conj()
                                            * t[a, bq, cq, d, ap, bp, cp, dp]
                                            * b[bp, cp]
                                        )
                        m[a, d, ap, dp] = val
        rho_k = m.reshape(4, 4)
        corr = np.kron(_I2, SIDE_OPS[k].conj().T)
        acc += corr @ rho_k @ corr.conj().T
    acc /= np.real(np.trace(acc))
    return (acc + acc.conj().T) / 2


def werner_matrix(f: float) -> np.ndarray:
    w = (4.0 * f - 1.0) / 3.0
    return w * np.outer(_PHI, _PHI.conj()) + (1.0 - w) * np.eye(4) / 4.0


def phi_plus_fidelity(rho: np.ndarray) -> float:
    return float(np.real(_PHI.conj() @ rho @ _PHI))


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
_HH = np.kron(_H, _H)


def oracle_qber(rho: np.ndarray) -> float:
    """Mean of the Z- and X-basis disagreement probabilities of a two-qubit
    state: the weight on |01> and |10>, before and after a Hadamard on each
    qubit."""
    q_z = np.real(rho[1, 1] + rho[2, 2])
    rho_x = _HH @ rho @ _HH.conj().T
    q_x = np.real(rho_x[1, 1] + rho_x[2, 2])
    return float((q_z + q_x) / 2.0)


def oracle_depolarize(rho: np.ndarray, qubit: int, lam: float) -> np.ndarray:
    """Depolarize one qubit of a pair: keep rho with weight lam, else replace
    that qubit by I/2 next to the other qubit's reduced state."""
    t = rho.reshape(2, 2, 2, 2)  # (a b, a' b')
    reduced = np.zeros((2, 2), dtype=complex)
    for x in range(2):
        for y in range(2):
            for k in range(2):
                reduced[x, y] += t[k, x, k, y] if qubit == 0 else t[x, k, y, k]
    mixed = np.kron(_I2 / 2, reduced) if qubit == 0 else np.kron(reduced, _I2 / 2)
    return lam * rho + (1.0 - lam) * mixed


def oracle_apply_to_subsystem(
    channel: KrausChannel, rho: DensityMatrix, index: int, dims: list[int]
) -> DensityMatrix:
    """Apply a channel to one tensor factor of a composite state."""
    dims = [int(d) for d in dims]
    if int(np.prod(dims)) != rho.dim:
        raise DimensionError(f"dims {dims} do not match state dim {rho.dim}")
    if not 0 <= index < len(dims):
        raise DimensionError(f"subsystem index {index} out of range")
    if channel.in_dim != dims[index] or channel.out_dim != dims[index]:
        raise DimensionError("subsystem application needs a square channel")
    before = int(np.prod(dims[:index])) if index > 0 else 1
    after = int(np.prod(dims[index + 1:])) if index + 1 < len(dims) else 1
    ops = tuple(
        np.kron(np.kron(np.eye(before), op), np.eye(after))
        for op in channel.operators
    )
    return apply_channel(KrausChannel(ops), rho)


def oracle_span_attempt(span, detector_efficiency: float, write_efficiency: float):
    """One heralded attempt across a span, stage by stage on the 6-level
    (rail, kept qubit) space: the source pair from explicit kets, then
    dephasing, the axis-averaged rotation and loss, each Kraus operator
    lifted with kron and applied in a loop, then the herald onto the photon
    levels and the background-noise mix. Returns (success probability,
    heralded 4x4 state)."""
    ket_pair = (np.kron([1, 0, 0], [1, 0]) + np.kron([0, 1, 0], [0, 1])) / np.sqrt(2.0)
    rho = np.outer(ket_pair, ket_pair.conj()).astype(complex)
    qubit_stages = (
        dephasing_channel(span.dephasing_p),
        sop_rotation_channel(span.sop_drift_rate, span.sop_recalibration_interval),
    )
    stages = []
    for stage in qubit_stages:
        rail_ops = []
        for n, op in enumerate(stage.operators):
            # Polarization block; vacuum passes through the first operator.
            rail = np.zeros((RAIL_DIM, RAIL_DIM), dtype=complex)
            rail[:2, :2] = op
            rail[VACUUM_INDEX, VACUUM_INDEX] = 1.0 if n == 0 else 0.0
            rail_ops.append(rail)
        stages.append(rail_ops)
    stages.append(list(loss_channel(transmittance(span)).operators))
    for rail_ops in stages:
        out = np.zeros_like(rho)
        for op in rail_ops:
            lifted = np.kron(op, _I2)
            out += lifted @ rho @ lifted.conj().T
        rho = out
    # Herald: the rail holds a photon, levels 0 and 1 of the rail factor.
    photon = [r * 2 + k for r in range(2) for k in range(2)]
    block = rho[np.ix_(photon, photon)]
    survival = float(np.real(np.trace(block)))
    p = write_efficiency * detector_efficiency * survival
    state = block / survival
    noise = span.coexistence_noise_prob
    if noise > 0.0:
        w = noise / (p + noise)
        state = (1.0 - w) * state + w * np.eye(4) / 4.0
    return p, state


@functools.cache
def source_pair() -> DensityMatrix:
    """The source's entangled pair with the flying qubit embedded in the
    rail space: (|0>_f |0>_k + |1>_f |1>_k) / sqrt(2), rail factor first.
    Built and validated on first use; the state is frozen, so every
    dense_span_attempt shares it."""
    vec = np.zeros(6, dtype=complex)
    vec[0 * 2 + 0] = vec[1 * 2 + 1] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(np.outer(vec, vec.conj()))


def dense_span_attempt(span, detector_efficiency: float, write_efficiency: float):
    """One heralded attempt through the public dense layer: the span stack
    applied to the rail factor of source_pair(), the herald onto the photon
    levels, and the background-noise mix. Returns (success probability,
    heralded 4x4 state)."""
    rho = apply_to_subsystem(span_channel_stack(span), source_pair(), 0, [3, 2])
    # Loss moves photon levels only to vacuum, so the photon block is the
    # survival times a state.
    block = rho.matrix[:4, :4]
    state = block / float(block.trace().real)
    p = write_efficiency * detector_efficiency * transmittance(span)
    noise = span.coexistence_noise_prob
    if noise > 0.0:
        w = noise / (p + noise)
        state = (1.0 - w) * state + w * np.eye(4) / 4.0
    return p, state


_MASK64 = (1 << 64) - 1


def oracle_splitmix64(key: int, n: int) -> int:
    """Output number n >= 1 of SplitMix64 (Vigna's splitmix64.c) started at
    state ``key``: the mix of key + n * gamma, in 64-bit arithmetic."""
    z = (key + n * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@functools.cache
def oracle_key(seed: int) -> int:
    """The Monte Carlo key of ``seed``: its 64-bit words, low word first,
    folded from state 0, each word w taking the key to SplitMix64 output
    number w + 1 started at the key."""
    key = 0
    for shift in range(0, max(seed.bit_length(), 1), 64):
        key = oracle_splitmix64(key, ((seed >> shift) & _MASK64) + 1)
    return key


def oracle_splitmix_uniform(seed: int, i: int, j: int) -> float:
    """Draw j of Monte Carlo trial i: the top 53 bits of SplitMix64 output
    (i << 32) + j + 1, under the key oracle_key(seed), as a float in
    [0, 1)."""
    return (oracle_splitmix64(oracle_key(seed), (i << 32) + j + 1) >> 11) / 2.0**53


def oracle_chain_trial(spans, nodes, cutoff: float, rng: np.random.Generator):
    """One Monte Carlo protocol run on dense 4x4 states.

    ``spans`` holds per span (success_prob, cycle_s, one_way_s, ready_rho,
    right_decay_rate); ``nodes`` per node (swap_prob, decay_rate,
    visibility_penalty). Draws one geometric per span generation and one
    uniform per swap attempt, in the protocol's order. Returns the ready time
    of the delivered pair and its state.
    """
    n = len(spans)
    final_delay = 0.0 if n == 1 else max(spans[-1][2], sum(s[2] for s in spans[:-1]))
    z1 = np.kron(_I2, _Z)

    def decay(rho, qubit, rate, dwell):
        return oracle_depolarize(rho, qubit, float(np.exp(-rate * dwell)))

    def gen_span(i, t0):
        p, cycle = spans[i][0], spans[i][1]
        return t0 + int(rng.geometric(p)) * cycle

    def build(i, t0):
        if i == 1:
            r = gen_span(0, t0)
            return r, spans[0][3], r
        _, _, one_way, ready, right_rate = spans[i - 1]
        q, node_rate, penalty = nodes[i - 2]
        while True:
            t_f, s_f, u_f = build(i - 1, t0)
            t_s = gen_span(i - 1, t0)
            while True:
                if t_s - t_f > cutoff:
                    t_f, s_f, u_f = build(i - 1, t_f + cutoff)
                elif t_f - t_s > cutoff:
                    t_s = gen_span(i - 1, t_s + cutoff)
                else:
                    break
            t_swap = max(t_f, t_s)
            s_f = decay(s_f, 1, node_rate, t_swap - u_f)
            s_s = decay(decay(ready, 0, node_rate, t_swap - t_s), 1, right_rate, t_swap - t_s)
            if rng.random() < q:
                s_f = (1.0 - penalty) * s_f + penalty * (z1 @ s_f @ z1)
                out = oracle_swap(s_f, s_s, outcomes=(1, 3))
                notify = one_way if i < n else final_delay
                return t_swap + notify, out, t_swap
            t0 = t_swap

    ready, state, _ = build(n, 0.0)
    return ready, state


def reference_bell_decay(b: np.ndarray, lam) -> np.ndarray:
    """Depolarizing decay toward I/4 with survival weight lam (a float, or
    an array that broadcasts against b), one weight vector or a stack. The
    bits ``bell_decay`` must give."""
    return lam * b + (1.0 - lam) / 4.0


def reference_bell_dephase(b: np.ndarray, p: float) -> np.ndarray:
    """Phase flip with probability p by an explicit index list: Z maps
    Phi+ <-> Phi- and Psi+ <-> Psi-. The bits ``bell_dephase`` must give."""
    return (1.0 - p) * b + p * b[..., [2, 3, 0, 1]]


def reference_bell_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[k] = sum_g a[g] b[g ^ k] as a loop over g, one term added at a
    time. The bits ``bell_convolve`` must give."""
    out = a[..., 0:1] * b
    for g in range(1, 4):
        out = out + a[..., g:g + 1] * b[..., [g ^ k for k in range(4)]]
    return out


def _reference_nlog(n, log_v):
    """n * log_v, with 0 where n is 0 (also when log_v is -inf)."""
    if isinstance(n, np.ndarray):
        return np.multiply(n, log_v, out=np.zeros(n.shape), where=n > 0)
    return n * log_v if n > 0 else 0.0


def reference_wait_terms(t, x, r_a, r_b):
    """The integrands of ``_GeomTime.wait_terms`` at points x of a ready time
    t (with t.p, t.cycle, t.mean and t.log_q), summed from five closed forms
    over one count of the atoms that clamps both counts at 0. The bits
    ``wait_terms`` must give."""
    y = x / t.cycle
    n = np.maximum(np.floor(y * (1 + 1e-12)), 0.0)
    m = np.maximum(np.ceil(y * (1 - 1e-12)) - 1, 0.0)
    n_log, m_log = _reference_nlog(n, t.log_q), _reference_nlog(m, t.log_q)
    cdf = -np.expm1(n_log)
    sf = np.exp(m_log)
    excess = np.exp(n_log) * (n * t.cycle - x + t.mean)
    den = -np.expm1(t.log_q - r_a * t.cycle)
    decay_above = t.p * np.exp(n_log - r_a * ((n + 1) * t.cycle - x)) / den
    log_v = t.log_q + r_b * t.cycle
    s = -abs(log_v)
    series = m if s == 0.0 else np.expm1(_reference_nlog(m, s)) / np.expm1(s)
    if log_v > 0.0:
        top = _reference_nlog(m - 1, t.log_q) - r_b * (x - m * t.cycle)
    else:
        top = -r_b * np.maximum(x - t.cycle, 0.0)
    decay_below = t.p * np.exp(top) * series
    return cdf + decay_above, sf + decay_below, x + excess


def oracle_delivered_bells(models, nodes, waits: np.ndarray) -> np.ndarray:
    """The Monte Carlo engine's delivered Bell weights folded node by node:
    each swap decays both inputs by their own waits, dephases the frontier
    and convolves. Rates and penalties come from ``nodes``; of the engine's
    span models only ``ready_bell`` and ``right_decay_rate`` are read.
    ``waits`` has shape (trials, 2 * nodes), frontier then span per node."""
    b = np.broadcast_to(np.array(models[0].ready_bell), (len(waits), 4))
    for j, node in enumerate(nodes):
        # The frontier's node-side qubit waited at the node; both qubits of
        # the span pair waited, at the node and at the span's right holder.
        node_rate = 1.0 / node.memory.coherence_time
        lam_f = np.exp(-node_rate * waits[:, 2 * j:2 * j + 1])
        span_rate = node_rate + models[j + 1].right_decay_rate
        lam_s = np.exp(-span_rate * waits[:, 2 * j + 1:2 * j + 2])
        left = reference_bell_dephase(reference_bell_decay(b, lam_f),
                                      node.bsm_visibility_penalty)
        b = reference_bell_convolve(
            left, reference_bell_decay(np.array(models[j + 1].ready_bell), lam_s))
    return b


def exact_domain_z_scores(rng: np.random.Generator, trials: int):
    """Draw a chain of the analytic engine's exact domain and run both
    engines on it: 1 or 2 spans of U(2, 60) km in the O or C band with
    dephasing U(0, 0.2), a node with coherence time 10^U(-2.5, 0.5) s,
    write, read, detector and BSM efficiencies U(0.3, 1) and visibility
    penalty U(0, 0.1), and a 1e6 s cutoff, which never binds. Returns the
    chain and the z-scores (analytic - Monte Carlo) / Monte Carlo standard
    error of the fidelity and of the pair rate, Monte Carlo run for
    ``trials`` trials on a drawn seed. A standard error of 0 (one span's
    fidelity, which no wait decays) gives z 0 for equal values and an
    infinite z otherwise.
    """
    band = (O_BAND, C_BAND)[rng.integers(2)]
    count = int(rng.integers(1, 3))
    spans = tuple(
        FiberSpan(length_km=rng.uniform(2.0, 60.0), quantum_band=band,
                  dephasing_p=rng.uniform(0.0, 0.2))
        for _ in range(count)
    )
    nodes = tuple(
        QorsNode(
            memory=MemorySpec(coherence_time=10.0 ** rng.uniform(-2.5, 0.5),
                              write_efficiency=rng.uniform(0.3, 1.0),
                              read_efficiency=rng.uniform(0.3, 1.0)),
            bsm_success_prob=rng.uniform(0.3, 1.0),
            bsm_visibility_penalty=rng.uniform(0.0, 0.1),
            detector_efficiency=rng.uniform(0.3, 1.0),
        )
        for _ in range(count - 1)
    )
    chain = RepeaterChain(spans=spans, nodes=nodes, attempt_rate=1e6, memory_cutoff=1e6)
    an = simulate_chain_analytic(chain)
    mc = simulate_chain_mc(chain, trials=trials, seed=int(rng.integers(2**32)))

    def z(a, b, se):
        if se > 0.0:
            return (a - b) / se
        return 0.0 if a == b else math.copysign(math.inf, a - b)

    return chain, (z(an.fidelity, mc.fidelity, mc.fidelity_stderr),
                   z(an.pair_rate_hz, mc.pair_rate_hz, mc.rate_stderr))


# Test-only constructors, kept with the oracles because no module of the
# package uses them: basis kets, fixed and random states, the identity
# channel and a closed-form rotation fidelity.

def ket(index: int, dim: int) -> np.ndarray:
    """Computational basis column vector |index> in the given dimension."""
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def phi_plus() -> DensityMatrix:
    return bell_state(0)


def werner_state(f: float) -> DensityMatrix:
    """Werner state with Phi+ fidelity f, valid for f in [0, 1]."""
    if not 0.0 <= f <= 1.0:
        raise StateError(f"Werner fidelity {f} outside [0, 1]")
    return bell_diagonal_state([f] + [(1.0 - f) / 3.0] * 3)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random state: normalized G G^dag with Gaussian G."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel((np.eye(dim, dtype=complex),))


def averaged_rotation_fidelity(theta: float) -> float:
    """Bell-pair fidelity after an axis-averaged rotation by theta."""
    return float(np.cos(theta / 2) ** 2)


# Gaussian layer: quadratic bosonic Hamiltonians act as symplectic
# transforms on the quadrature vector (x1, p1, x2, p2, ...).

SYMPLECTIC_TOL = 1e-9


@dataclass(frozen=True)
class GaussianHamiltonian:
    """Quadratic Hamiltonian data: a Hermitian coupling block (beam-splitter
    and rotation terms, rad/s) and a symmetric squeezing block, acting for
    duration_s seconds."""

    coupling: np.ndarray
    squeezing: np.ndarray
    duration_s: float

    def __post_init__(self) -> None:
        k = _as_complex_matrix(self.coupling, "coupling")
        d = _as_complex_matrix(self.squeezing, "squeezing")
        if k.shape[0] != k.shape[1] or k.shape != d.shape:
            raise DimensionError("coupling and squeezing must be square and matched")
        if np.abs(k - k.conj().T).max() > 1e-12:
            raise StateError("coupling block must be Hermitian")
        if np.abs(d - d.T).max() > 1e-12:
            raise StateError("squeezing block must be symmetric")
        if self.duration_s < 0:
            raise StateError("duration must be nonnegative")
        k, d = k.copy(), d.copy()
        k.flags.writeable = False
        d.flags.writeable = False
        object.__setattr__(self, "coupling", k)
        object.__setattr__(self, "squeezing", d)

    @property
    def modes(self) -> int:
        return self.coupling.shape[0]


def symplectic_form(modes: int) -> np.ndarray:
    """Block-diagonal form Omega with [[0, 1], [-1, 0]] per mode (x, p order)."""
    omega = np.zeros((2 * modes, 2 * modes))
    for m in range(modes):
        omega[2 * m, 2 * m + 1] = 1.0
        omega[2 * m + 1, 2 * m] = -1.0
    return omega


@dataclass(frozen=True)
class SymplecticTransform:
    """Real 2N x 2N matrix S with S Omega S^T = Omega (tolerance 1e-9)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.matrix, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise DimensionError(f"symplectic matrix must be 2N x 2N, got {s.shape}")
        omega = symplectic_form(s.shape[0] // 2)
        defect = np.abs(s @ omega @ s.T - omega).max()
        if defect > SYMPLECTIC_TOL:
            raise StateError(f"not symplectic: max defect {defect:.3e}")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "matrix", s)

    @property
    def modes(self) -> int:
        return self.matrix.shape[0] // 2


def gaussian_evolve(h: GaussianHamiltonian) -> SymplecticTransform:
    """Exponentiate the quadratic Hamiltonian into a symplectic transform.

    The mode-operator generator is A = -i [[K, D], [-D*, -K*]] on
    (a_1..a_N, a^dag_1..a^dag_N); conjugating by the quadrature change of
    basis gives a real generator, exponentiated with scipy's expm.
    """
    n = h.modes
    k, d = h.coupling, h.squeezing
    a = -1j * np.block([[k, d], [-d.conj(), -k.conj()]])
    eye = np.eye(n)
    # Quadrature change of basis: (x, p) blocks from (a, a^dag) blocks.
    t = np.block([[eye, eye], [-1j * eye, 1j * eye]]) / np.sqrt(2.0)
    t_inv = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / np.sqrt(2.0)
    b = t @ a @ t_inv
    if np.abs(b.imag).max() > 1e-10:
        raise StateError("quadrature generator failed to come out real")
    s_grouped = scipy.linalg.expm(b.real * h.duration_s)
    # Regroup from (x1..xN, p1..pN) to interleaved (x1, p1, x2, p2, ...).
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = np.arange(n) + n
    return SymplecticTransform(s_grouped[np.ix_(perm, perm)])


def mode_transmittance(transform: SymplecticTransform, mode: int) -> float:
    """Power transmittance of one mode under a passive transform: the mean
    squared magnitude of the mode's diagonal 2x2 quadrature block."""
    if not 0 <= mode < transform.modes:
        raise DimensionError(f"mode {mode} out of range")
    block = transform.matrix[2 * mode: 2 * mode + 2, 2 * mode: 2 * mode + 2]
    return float(np.sum(block * block) / 2.0)


def beamsplitter_to_kraus(eta: float) -> KrausChannel:
    """Photon loss derived from its beam-splitter dilation.

    A beam splitter of transmittance eta couples the signal rail to a vacuum
    environment rail; writing the interaction unitary on the two-rail space
    and tracing the environment yields Kraus operators
    K_k = (I x <k|) U (I x |vac>). Restricted to at most one photon the
    two-photon sector is never populated, so the unitary completes it with
    the identity. The result reproduces loss_channel(eta) exactly.
    """
    if not 0.0 <= eta <= 1.0:
        raise StateError(f"transmittance {eta} outside [0, 1]")
    t, r = np.sqrt(eta), np.sqrt(1.0 - eta)
    d = RAIL_DIM
    vac = VACUUM_INDEX

    def idx(sys_level: int, env_level: int) -> int:
        return sys_level * d + env_level

    u = np.zeros((d * d, d * d), dtype=complex)
    u[idx(vac, vac), idx(vac, vac)] = 1.0
    for pol in (0, 1):
        # Single photon superposes between staying in the signal rail and
        # hopping to the environment rail, preserving polarization.
        u[idx(pol, vac), idx(pol, vac)] = t
        u[idx(vac, pol), idx(pol, vac)] = r
        u[idx(pol, vac), idx(vac, pol)] = -r
        u[idx(vac, pol), idx(vac, pol)] = t
    for pol_a in (0, 1):
        for pol_b in (0, 1):
            u[idx(pol_a, pol_b), idx(pol_a, pol_b)] = 1.0
    defect = np.abs(u.conj().T @ u - np.eye(d * d)).max()
    if defect > 1e-12:
        raise StateError(f"dilation unitary defect {defect:.3e}")
    ops = []
    for env_out in range(d):
        kraus = np.zeros((d, d), dtype=complex)
        for sys_out in range(d):
            for sys_in in range(d):
                kraus[sys_out, sys_in] = u[idx(sys_out, env_out), idx(sys_in, vac)]
        ops.append(kraus)
    # Drop identically zero operators (environment outcomes never reached).
    ops = [op for op in ops if np.abs(op).max() > 0.0]
    return KrausChannel(tuple(ops))
