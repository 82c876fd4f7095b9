"""Entanglement distribution over chains of quantum-optical repeater nodes.

Protocol conventions, fixed across both engines:

 * Each span has its pair source at the right end; the flying photon
   crosses the fiber leftward, so span states are ordered (left end qubit,
   right end qubit) and the fiber stack acts on qubit 0.
 * An attempt cycle lasts 1/attempt_rate plus one round trip (the source
   holds its memory until the herald returns), so a span's k-th-attempt
   success is ready at k * cycle. By ready time the left qubit has aged one
   one-way delay and the right qubit one round trip.
 * End stations are ideal: no memory decay, unit efficiencies. Only
   intermediate nodes carry memory and detector parameters.
 * Neighboring spans generate in parallel; a pair older than the chain's
   memory_cutoff (measured from its ready time, clock reset on merge) is
   discarded and only that side regenerates, from the expiry time.
 * A failed swap discards everything built so far and restarts the whole
   frontier from the failure time. Swap success probability is
   bsm_success_prob times read_efficiency squared (both measured qubits
   are read from the swapping node's memories).
 * After a successful swap the outcome travels one span to the new frontier
   edge before the pair is usable; the final swap's outcome must reach both
   end stations.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import apply_to_subsystem, depolarizing_channel
from .fiber import FiberSpan, photon_dwell_time, span_channel_stack, transmittance
from .linalg import (
    BELL_KETS,
    BELL_SIDE_OPS,
    DensityMatrix,
    DimensionError,
    StateError,
    bell_basis,
    bell_convolve,
    bell_decay,
    bell_dephase,
)

# The analytic engine sums over the attempt grid of one side of a merge,
# about 37/p atoms, with closed forms for the other side. When both first
# spans herald below this, the summed side is coarsened to success
# GEOM_EXACT_MIN_P at the same mean. That bounds the sum; it is off by
# O(GEOM_EXACT_MIN_P) and is the only approximation of the merge sums.
GEOM_EXACT_MIN_P = 1e-4


@dataclass(frozen=True)
class MemorySpec:
    """Quantum memory figure-of-merit bundle. Decay is depolarizing with
    survival weight exp(-dwell / coherence_time)."""

    coherence_time: float = 1.0
    write_efficiency: float = 0.9
    read_efficiency: float = 0.9
    cryogenic_required: bool = False

    def __post_init__(self) -> None:
        # Comparing against math.inf also rejects NaN. A waiting span pair
        # decays at the sum of two nodes' rates, so 2 / coherence_time must
        # be finite too.
        t = self.coherence_time
        if not (0 < t < math.inf and 2.0 / float(t) < math.inf):
            raise StateError(
                f"coherence_time {t!r} outside (0, inf), or so short that "
                f"2 / coherence_time overflows"
            )
        for name in ("write_efficiency", "read_efficiency"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise StateError(f"{name} must lie in (0, 1], got {v}")


@dataclass(frozen=True)
class QorsNode:
    """An intermediate repeater station: memories plus a swapping BSM."""

    memory: MemorySpec = MemorySpec()
    bsm_success_prob: float = 0.5
    bsm_visibility_penalty: float = 0.0
    detector_efficiency: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.bsm_success_prob <= 1.0:
            raise StateError("bsm_success_prob must lie in (0, 1]")
        if not 0.0 <= self.bsm_visibility_penalty <= 1.0:
            raise StateError("bsm_visibility_penalty must lie in [0, 1]")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise StateError("detector_efficiency must lie in (0, 1]")


@dataclass(frozen=True)
class RepeaterChain:
    """Spans end to end with one node between each adjacent pair."""

    spans: tuple[FiberSpan, ...]
    nodes: tuple[QorsNode, ...] = ()
    attempt_rate: float = 1e6     # pair-source attempts per second
    memory_cutoff: float = 1.0    # seconds a ready pair may wait

    def __post_init__(self) -> None:
        spans = tuple(self.spans)
        nodes = tuple(self.nodes)
        if not spans:
            raise DimensionError("chain needs at least one span")
        if len(nodes) != len(spans) - 1:
            raise DimensionError(
                f"{len(spans)} spans need {len(spans) - 1} nodes, got {len(nodes)}"
            )
        if not 0 < self.attempt_rate < math.inf:
            raise StateError("attempt rate outside (0, inf)")
        if not 0 < self.memory_cutoff < math.inf:
            raise StateError("memory cutoff outside (0, inf)")
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "nodes", nodes)


@dataclass(frozen=True)
class SpanAttempt:
    """Heralded span outcome: click probability and the heralded state's Bell weights."""

    success_probability: float
    bell: np.ndarray


@dataclass(frozen=True)
class EndToEndResult:
    """Delivered-pair statistics for a whole chain; ``bell`` holds the Bell
    weights of the mean delivered pair."""

    fidelity: float
    pair_rate_hz: float
    mean_latency_s: float
    trials: int
    fidelity_stderr: float
    rate_stderr: float
    bell: np.ndarray
    engine: str


# I/4, the two-qubit state that background coincidences herald.
_MIXED_PAIR = np.eye(4) / 4.0


@functools.cache
def _source_pair() -> DensityMatrix:
    """The source's entangled pair with the flying qubit embedded in the
    rail space: (|0>_f |0>_k + |1>_f |1>_k) / sqrt(2), rail factor first.
    Built and validated on first use rather than at import; the state is
    frozen, so every attempt shares it."""
    vec = np.zeros(6, dtype=complex)
    vec[0 * 2 + 0] = vec[1 * 2 + 1] = 1.0 / np.sqrt(2.0)
    return DensityMatrix(np.outer(vec, vec.conj()))


# Largest off-diagonal Bell-basis element a heralded span state may have.
BELL_DIAGONAL_TOL = 1e-12
_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


def _bell_weights(state: np.ndarray) -> np.ndarray:
    """Bell weights of a 4x4 span state, which the engines treat as
    Bell-diagonal; raises StateError if any off-diagonal Bell-basis element
    exceeds BELL_DIAGONAL_TOL (a channel that is not a Pauli mixture would)."""
    m = bell_basis(state)
    off = float(np.abs(m[_OFF_DIAGONAL]).max())
    if off > BELL_DIAGONAL_TOL:
        raise StateError(
            f"span state is not Bell-diagonal: off-diagonal residual {off:.3e}"
        )
    return m.diagonal().real.copy()


def span_entanglement_attempt(
    span: FiberSpan,
    detector_efficiency: float = 1.0,
    memory: MemorySpec | None = None,
) -> SpanAttempt:
    """One heralded pair-generation attempt across a span.

    The source keeps one qubit (write efficiency of its memory), the other
    flies through the span stack and must be detected on the far side.
    Background coincidences mix I/4 into the heralded state with weight
    noise / (signal + noise). Returns its Bell weights, from _bell_weights.
    """
    if not 0.0 < detector_efficiency <= 1.0:
        raise StateError("detector efficiency must lie in (0, 1]")
    write = memory.write_efficiency if memory is not None else 1.0
    p = write * detector_efficiency * transmittance(span)

    rho = apply_to_subsystem(span_channel_stack(span), _source_pair(), 0, [3, 2])
    # Herald: project the rail onto its photon levels and renormalize.
    # Loss moves photon levels only to vacuum, so the photon block is the
    # survival times a state: dividing it out keeps full relative precision
    # for any survival in the normal float range.
    sub = rho.matrix[:4, :4]
    survival = float(sub.trace().real)
    if not survival >= np.finfo(float).tiny:
        raise StateError(f"span transmitted {survival:.3g} of its photons; cannot herald")
    conditional = sub / survival

    noise = span.coexistence_noise_prob
    if noise > 0.0:
        w_noise = noise / (p + noise)
        conditional = (1.0 - w_noise) * conditional + w_noise * _MIXED_PAIR
    return SpanAttempt(success_probability=p, bell=_bell_weights(conditional))


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
    if p == 0.0:
        return state
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
    if penalty > 0.0:
        z = np.kron(np.kron(np.eye(2), np.diag([1.0, -1.0])), np.eye(4))
        joint = (1.0 - penalty) * joint + penalty * (z @ joint @ z)
    return DensityMatrix(_bell_measure(joint, 2, _HERALDED_OUTCOMES))


def teleport(state: DensityMatrix, resource: DensityMatrix) -> DensityMatrix:
    """Teleport a single-qubit state through an entangled resource pair,
    averaging over all four corrected measurement outcomes."""
    if state.dim != 2 or resource.dim != 4:
        raise DimensionError("teleport needs a qubit state and a two-qubit resource")
    return DensityMatrix(_bell_measure(np.kron(state.matrix, resource.matrix), 1, range(4)))


# Chain engines. Every span state the span stack produces is diagonal in
# the Bell basis, as span_entanglement_attempt checks, and memory decay
# (depolarizing), the visibility penalty (dephasing) and the odd-parity swap
# keep it so. Both engines carry a pair as its four Bell weights (index bit
# 0: X part, bit 1: Z part of the one-sided Pauli that maps Phi+ to the Bell
# state), whose algebra is in qorsim.linalg. Decay is affine toward I/4,
# dephasing fixes I/4, and the swap is bilinear with I/4 absorbing, so a
# delivered pair is lam * c + (1 - lam) / 4: c, from _folded_bell, folds the
# ready states through each node's dephasing and swap, and lam is the
# survival weight of all the decay on the way. Monte Carlo draws lam per
# trial; the analytic engine takes its expectation.
# _span_models turns the protocol conventions into each span's ready time
# and merge numbers; the engines read only those, never the chain's nodes.


@dataclass(frozen=True)
class _SpanModel:
    """Per-span quantities both engines share. The last five describe the
    merge at the node on the span's left; span 0 has none, and the engines
    read them only from span 1 on."""

    ready: _GeomTime              # ready time of one generation, on the attempt cycle
    ready_bell: np.ndarray        # Bell weights at ready time, pre-ready decay folded in
    right_decay_rate: float       # 1/coherence at the right holder, 0 if ideal
    front_rate: float             # decay of the frontier's node-side qubit: node 1/coherence
    span_rate: float              # decay of the waiting span pair: front_rate + right_decay_rate
    swap_prob: float              # bsm_success_prob * read_efficiency**2
    visibility_penalty: float     # the node's bsm_visibility_penalty
    notify_s: float               # swap outcome's delay before the merged pair is usable


def _span_ends(chain: RepeaterChain, i: int) -> tuple[QorsNode | None, QorsNode | None]:
    """The nodes at the left and right end of span i; None at an end station."""
    left = chain.nodes[i - 1] if i > 0 else None
    right = chain.nodes[i] if i < len(chain.spans) - 1 else None
    return left, right


def span_attempts(chain: RepeaterChain) -> tuple[SpanAttempt, ...]:
    """Each span's heralded attempt, with the detector of the node at its
    left end and the memory of the node at its right end (end stations are
    ideal)."""
    attempts = []
    for i, span in enumerate(chain.spans):
        left, right = _span_ends(chain, i)
        attempts.append(
            span_entanglement_attempt(
                span,
                detector_efficiency=left.detector_efficiency if left else 1.0,
                memory=right.memory if right else None,
            )
        )
    return tuple(attempts)


def _checked_attempts(
    chain: RepeaterChain, attempts: tuple[SpanAttempt, ...] | None
) -> tuple[SpanAttempt, ...]:
    """``attempts``, or span_attempts(chain) when not given; DimensionError
    unless there is one per span."""
    if attempts is None:
        attempts = span_attempts(chain)
    if len(attempts) != len(chain.spans):
        raise DimensionError(
            f"{len(chain.spans)} spans need as many attempts, got {len(attempts)}"
        )
    return attempts


def _span_models(
    chain: RepeaterChain, attempts: tuple[SpanAttempt, ...] | None = None
) -> list[_SpanModel]:
    """Engine inputs per span, from ``attempts`` (span_attempts(chain) when
    not given). Raises StateError if a success or swap probability is 0."""
    attempts = _checked_attempts(chain, attempts)
    one_way = [photon_dwell_time(span) for span in chain.spans]
    # A swap's outcome crosses its span to the new frontier edge; the last
    # one must reach both end stations.
    final = max(one_way[-1], sum(one_way[:-1])) if len(one_way) > 1 else 0.0
    notify = one_way[:-1] + [final]
    models = []
    for i, attempt in enumerate(attempts):
        left, right = _span_ends(chain, i)
        swap_prob = left.bsm_success_prob * left.memory.read_efficiency**2 if left else 1.0
        # Both engines divide by these; a product of valid factors can
        # still underflow to 0.
        if attempt.success_probability == 0.0:
            raise StateError(f"span {i}'s success probability underflows to 0")
        if swap_prob == 0.0:
            raise StateError(
                f"node {i - 1}'s swap probability, bsm_success_prob * "
                f"read_efficiency**2, underflows to 0"
            )
        left_rate = 1.0 / left.memory.coherence_time if left else 0.0
        right_rate = 1.0 / right.memory.coherence_time if right else 0.0
        # By ready time the left qubit has aged one one-way delay, the right
        # qubit one round trip.
        lam = math.exp(-(left_rate * one_way[i] + right_rate * 2.0 * one_way[i]))
        models.append(
            _SpanModel(
                ready=_GeomTime(attempt.success_probability,
                                1.0 / chain.attempt_rate + 2.0 * one_way[i]),
                ready_bell=bell_decay(attempt.bell, lam),
                right_decay_rate=right_rate,
                front_rate=left_rate,
                span_rate=left_rate + right_rate,
                swap_prob=swap_prob,
                visibility_penalty=left.bsm_visibility_penalty if left else 0.0,
                notify_s=notify[i],
            )
        )
    return models


# Monte Carlo stream and work budget. Draw j of trial i is a pure function
# of (seed, i, j): SplitMix64 output number (i << 32) + j + 1 under a 64-bit
# key from the seed (Steele, Lea & Flood, OOPSLA 2014), used as a
# counter-based generator in the manner of Salmon et al., SC11. Trials run
# MC_GROUP at a time. A group of trials that needs more than MC_WORK_FACTOR
# times the span generations its chain needs on average without a cutoff is
# abandoned: a memory cutoff far below the span cycle grows the count
# without bound.
MC_GROUP = 16384
MC_WORK_FACTOR = 2000
# The counter gives a trial's index its high 32 bits and its draws the low
# 32, so a run holds at most this many trials and a trial makes fewer draws.
_COUNTER_STRIDE = 1 << 32

_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array z: three
    xor-shift/multiply rounds. Returns z."""
    t = z >> np.uint64(30)
    z ^= t
    z *= _MIX_1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX_2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _stream_key(seed: int) -> np.uint64:
    """The run's SplitMix64 key: the seed's 64-bit words, low word first,
    folded from state 0 as key <- _mix(key + (w + 1) * gamma) (mod 2**64).
    A seed below 2**64 gets SplitMix64 output number seed + 1, a bijection,
    so distinct seeds there get distinct keys."""
    seed = int(seed)
    key = np.zeros(1, dtype=np.uint64)
    while True:
        key += (np.array([seed % 2**64], dtype=np.uint64) + np.uint64(1)) * _GOLDEN_GAMMA
        _mix(key)
        seed >>= 64
        if not seed:
            return key[0]


@functools.cache
def _weyl_steps(k: int) -> np.ndarray:
    """gamma, 2 gamma, ..., k gamma (mod 2**64) as a (k, 1) uint64 column:
    added to a row of Weyl states, row r steps them r + 1 draws on."""
    steps = np.arange(1, k + 1, dtype=np.uint64)[:, None] * _GOLDEN_GAMMA
    steps.flags.writeable = False
    return steps


class _TrialStream:
    """The draws of trials lo..lo+count-1: draw j of trial i is z >> 11,
    the top 53 bits of the SplitMix64 mix z of key + n * gamma (mod 2**64),
    n = (i << 32) + j + 1; its uniform is that times 2**-53. Each trial
    keeps its Weyl state key + n * gamma, which a draw steps by gamma as
    SplitMix64 does, and nothing else is held. Every operation is on uint64
    arrays, which wrap without warning.

    A call of k draws takes each trial's next k at once: one gather and one
    scatter of the Weyl states. A trial may give its last draw back, and
    its next call reads that draw again. ``_calls`` adds up k over the
    calls, which bounds every trial's draw count: the stream raises
    StateError before a trial could reach the next trial's counters."""

    def __init__(self, key, lo: int, count: int):
        state = np.arange(lo, lo + count, dtype=np.uint64) << np.uint64(32)
        state *= _GOLDEN_GAMMA
        state += np.uint64(key)
        self._state = state
        self._calls = 0

    def draws(self, idx: np.ndarray, k: int = 1) -> np.ndarray:
        """The next k draws of each trial in ``idx`` (distinct positions),
        as 53-bit integers: a (k, len(idx)) uint64 array, row r the r-th."""
        self._calls += k
        if self._calls >= _COUNTER_STRIDE:
            raise StateError(
                f"Monte Carlo stream exhausted: a trial may draw at most "
                f"{_COUNTER_STRIDE - 1} uniforms"
            )
        z = self._state[idx] + _weyl_steps(k)
        self._state[idx] = z[-1]
        _mix(z)
        z >>= np.uint64(11)
        return z

    def uniforms(self, idx: np.ndarray) -> np.ndarray:
        """The next uniform of each trial in ``idx`` (distinct positions)."""
        return self.draws(idx)[0] * 2.0**-53

    def give_back(self, idx: np.ndarray) -> None:
        """Step the trials in ``idx`` back one draw: each one's next call
        reads its last draw again."""
        self._state[idx] -= _GOLDEN_GAMMA


def _attempt_times(u: np.ndarray, log_fail, cycle, t0: np.ndarray) -> np.ndarray:
    """Ready times t0 + (floor(log1p(-u) / log_fail) + 1) * cycle of spans
    generated from t0, for uniforms u, with log_fail = _GeomTime.log_q
    (-inf at p = 1: t0 + cycle for every u): scalars, or columns against
    the rows of u. Writes over u."""
    # Through two buffers in turn: numpy is slow when one array of one
    # element, as in a pass late in a run, is both input and output of an
    # operation.
    k = np.negative(u)
    np.log1p(k, out=u)
    np.divide(u, log_fail, out=k)
    np.floor(k, out=u)
    np.add(u, 1.0, out=k)
    np.multiply(k, cycle, out=u)
    return np.add(u, t0, out=k)


class _BlockRun:
    """The trials of one group, up to MC_GROUP consecutive indices, moved
    through the protocol recursion together as numpy index arrays into the
    group's stream. A pass costs a fixed number of numpy calls whatever the
    number of trials it carries, which is why a run carries large groups.

    The recursion is unrolled into one frame per trial and level: the frame
    at level l >= 2 joins the frontier over spans 0..l-2 with span l-1 at
    node l-2, and level 1 is span 0 alone. Each pass starts every unfinished
    trial at levels 1 and 2, the first node's step, and carries the trials
    whose frontier completes up the levels: a fresh frame draws its span
    from the frame's start time, then runs the cutoff race and the swap. A
    trial whose frontier expired in the race, or whose swap failed, goes
    back to level 1 with the frames below restarted, and the next pass
    takes it on. So a pass costs a few vector steps per level however the
    trials' depths differ, and each trial reads its draws in the order of
    the depth-first recursion: one per span generation, turned into an
    attempt count by inverting the span model's ready time (at success 1,
    the first attempt whatever the draw), and one per swap. The first
    node's step takes all three in one stream call; a trial whose spans
    race gives its swap draw back and draws it again after the race. The
    work budget counts the span generations of the whole group. Per-frame
    state is one 1-D array per level, indexed by trial.

    A pass carries each trial's decay exponent up the levels, for the
    trials that swap: at each node the frontier's wait there times the
    model's front_rate plus the span pair's wait times its span_rate,
    added to the sum from the nodes below. A trial ends with a pass in
    which every swap succeeds, and only then is its sum, the decay exponent
    of the delivered pair, written to ``exponent``.
    """

    def __init__(
        self,
        models: list[_SpanModel],
        cutoff: float,
        stream: _TrialStream,
        ready: np.ndarray,
        exponent: np.ndarray,
    ):
        self._models = models
        self._cutoff = cutoff
        self._stream = stream
        self._ready = ready
        self._exponent = exponent
        # A draw z decides a swap by z < q * 2**53, exactly u < q for its
        # uniform u = z * 2**-53; for an integer z that is z < ceil(q * 2**53).
        self._swap_below = [np.uint64(math.ceil(m.swap_prob * 2.0**53)) for m in models]
        # The first node's step generates spans 0 and 1 together: their
        # failure logs and cycles as columns.
        self._first_fail = np.array([[m.ready.log_q] for m in models[:2]])
        self._first_cycle = np.array([[m.ready.cycle] for m in models[:2]])
        self._need = _generations_per_trial(models)
        trials, levels = len(ready), len(models) + 1
        self._budget = MC_WORK_FACTOR * self._need * trials
        self._spent = 0
        # Per level l (entry l), per trial: the frame's start time, and for
        # a frame racing a rebuilt frontier its span's ready time (NaN when
        # the frame is fresh; frames below level 3 never race). Every
        # restart restarts the frames at levels 1 and 2 together, so they
        # share one array, written as level 2's.
        first_two = np.zeros(trials)
        self._start = [None, first_two, first_two] + [np.zeros(trials)
                                                      for _ in range(3, levels)]
        self._span_t = [np.full(trials, np.nan) if level > 2 else None
                        for level in range(levels)]
        self._racing_count = [0] * levels

    def run(self) -> None:
        """Fill ``ready`` with the delivered pairs' ready times and
        ``exponent`` with their decay exponents. Raises StateError past the
        work budget."""
        trials = len(self._ready)
        running = np.ones(trials, dtype=bool)
        todo = np.arange(trials)
        while todo.size:
            up, t_f, u_f, exponent = self._first_node(todo)
            for level in range(3, len(self._models) + 1):
                up, t_f, u_f, exponent = self._join(level, up, t_f, u_f, exponent)
                if not up.size:
                    break
            self._ready[up] = t_f
            self._exponent[up] = exponent
            running[up] = False
            todo = todo[running[todo]]

    def _spend(self, generations: int) -> None:
        """Count span generations against the work budget."""
        self._spent += generations
        if self._spent > self._budget:
            cycle = max(m.ready.cycle for m in self._models)
            wait = max(m.ready.mean for m in self._models)
            raise StateError(
                f"Monte Carlo gave up after {self._spent} span generations "
                f"for {len(self._ready)} trials, more than {MC_WORK_FACTOR} times "
                f"the {self._need:.3g} per trial these spans need on average "
                f"without a cutoff: memory_cutoff {self._cutoff:.3g} s is too "
                f"short against a span cycle of up to {cycle:.3g} s and a mean "
                f"span wait of up to {wait:.3g} s"
            )

    def _gen_span(self, i: int, t0: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Ready times of span i for trials ``idx``, generating from t0."""
        self._spend(len(idx))
        ready = self._models[i].ready
        return _attempt_times(self._stream.uniforms(idx), ready.log_q, ready.cycle, t0)

    def _first_node(
        self, todo: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | float]:
        """Levels 1 and 2 of trials ``todo``: span 0, and with a node, span
        1, their cutoff race and the swap at node 0. Returns the trials that
        swapped, their ready times, swap times and decay exponents; a single
        span has no swap, and its exponent is 0."""
        t0 = self._start[1][todo]
        if len(self._models) == 1:
            return todo, self._gen_span(0, t0, todo), None, 0.0
        self._spend(len(todo))
        self._spend(len(todo))
        draws = self._stream.draws(todo, 3)
        t_f, t_s = _attempt_times(draws[:-1] * 2.0**-53, self._first_fail,
                                  self._first_cycle, t0)
        swap = draws[-1]
        # Cutoff race at node 0: only the side that expired restarts, from
        # expiry, until the two are within the cutoff. A racing trial reads
        # its swap draw after the race's draws.
        cutoff = self._cutoff
        race = (np.abs(t_s - t_f) > cutoff).nonzero()[0]
        if race.size:
            back = todo[race]
            self._stream.give_back(back)
            ahead = race
            while ahead.size:
                late = t_s[ahead] > t_f[ahead]
                a, b = ahead[late], ahead[~late]
                if a.size:
                    t_f[a] = self._gen_span(0, t_f[a] + cutoff, todo[a])
                if b.size:
                    t_s[b] = self._gen_span(1, t_s[b] + cutoff, todo[b])
                ahead = ahead[np.abs(t_s[ahead] - t_f[ahead]) > cutoff]
            swap[race] = self._stream.draws(back)[0]
        # A failed swap restarts both spans from its time. Trials that swap
        # are written too: they are restarted again before their next pass.
        t_swap = np.maximum(t_f, t_s)
        self._start[2][todo] = t_swap
        m = self._models[1]
        won = (swap < self._swap_below[1]).nonzero()[0]
        t_won = t_swap[won]
        # Span 0's pair waited at the node; both qubits of span 1's pair
        # waited, at the node and at the span's right holder.
        exponent = m.front_rate * (t_won - t_f[won]) + m.span_rate * (t_won - t_s[won])
        return todo[won], t_won + m.notify_s, t_won, exponent

    def _join(
        self,
        level: int,
        up: np.ndarray,
        t_f: np.ndarray,
        u_f: np.ndarray,
        exponent: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The frames at ``level`` >= 3 of trials ``up``, whose frontiers
        below are ready at t_f (last swap at u_f) with decay ``exponent``:
        (trials that swapped, their ready times, swap times and
        exponents)."""
        cutoff = self._cutoff
        span_t = self._span_t[level]
        racing = self._racing_count[level]
        if racing:
            t_s = span_t[up]
            f = np.isnan(t_s).nonzero()[0]
            racing = len(up) - len(f)
            t_s[f] = self._gen_span(level - 1, self._start[level][up[f]], up[f])
            span_t[up] = np.nan
        else:
            t_s = self._gen_span(level - 1, self._start[level][up], up)
        # Cutoff race: a regenerated span races again here, from its expiry;
        # an expired frontier is rebuilt from level 1 on the next pass while
        # this frame keeps its span.
        race = (np.abs(t_s - t_f) > cutoff).nonzero()[0]
        expired = []
        while race.size:
            late = t_s[race] > t_f[race]
            expired.append(race[late])
            race = race[~late]
            if race.size:
                t_s[race] = self._gen_span(level - 1, t_s[race] + cutoff, up[race])
            race = race[np.abs(t_s[race] - t_f[race]) > cutoff]
        gone = np.concatenate(expired) if expired else race   # race is empty here
        self._racing_count[level] += len(gone) - racing
        if gone.size:
            back = up[gone]
            span_t[back] = t_s[gone]
            t_back = t_f[gone] + cutoff
            for start in self._start[2:level]:
                start[back] = t_back
            stay = np.ones(len(up), dtype=bool)
            stay[gone] = False
            stay = stay.nonzero()[0]
            up, t_f, u_f, t_s = up[stay], t_f[stay], u_f[stay], t_s[stay]
            exponent = exponent[stay]
        # A failed swap restarts the whole frontier from its time. Frames
        # of a trial that swaps are written too: they are restarted again
        # before the trial's next pass reads them.
        t_swap = np.maximum(t_f, t_s)
        for start in self._start[2:level + 1]:
            start[up] = t_swap
        m = self._models[level - 1]
        won = (self._stream.draws(up)[0] < self._swap_below[level - 1]).nonzero()[0]
        t_won = t_swap[won]
        # The frontier's node-side qubit waited at the node; both qubits of
        # the span pair waited, at the node and at the span's right holder.
        # The grouping (earlier levels + frontier) + span is part of the
        # results: grouping the node's two terms first moves Bell weights in
        # their last bit.
        exponent = (m.front_rate * (t_won - u_f[won]) + exponent[won]
                    + m.span_rate * (t_won - t_s[won]))
        return up[won], t_won + m.notify_s, t_won, exponent


def _generations_per_trial(models: list[_SpanModel]) -> float:
    """Span generations a trial needs on average without a cutoff: building
    spans 0..l takes a build of 0..l-1 and one generation of span l per swap
    attempt, 1/q attempts on average."""
    need = 1.0
    for m in models[1:]:
        need = (need + 1.0) / float(m.swap_prob)
    return need


def _folded_bell(models: list[_SpanModel]) -> np.ndarray:
    """Bell weights of the delivered pair had nothing waited: the ready
    states folded through each node's dephasing and swap."""
    c = models[0].ready_bell
    for m in models[1:]:
        c = bell_convolve(bell_dephase(c, m.visibility_penalty), m.ready_bell)
    return c


def _run_trial_range(
    models: list[_SpanModel], cutoff: float, seed: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Trials lo..hi-1, MC_GROUP at a time: their ready times and the decay
    exponents of their delivered pairs. A trial's pair is _folded_bell's c
    decayed by lam = exp(-exponent), its own exponent alone, so no trial's
    value depends on another's."""
    lo, hi = int(lo), int(hi)
    key = _stream_key(seed)
    times = np.empty(hi - lo)
    exponent = np.empty(hi - lo)
    # A wait past the float range becomes inf, and then a difference of
    # two such waits NaN, which simulate_chain_mc rejects; numpy need not
    # warn on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(lo, hi, MC_GROUP):
            stop = min(hi, start + MC_GROUP)
            out = slice(start - lo, stop - lo)
            stream = _TrialStream(key, start, stop - start)
            _BlockRun(models, cutoff, stream, times[out], exponent[out]).run()
    return times, exponent


def _is_integer(x) -> bool:
    """True for Python and numpy integers, False for bools and the rest."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_mc_args(trials, seed, workers) -> None:
    """Raise StateError unless simulate_chain_mc can run these: trials and
    workers positive integers, at most 2**32 trials, and a non-negative
    integer seed. Numpy integers count as integers, bools do not."""
    if not _is_integer(trials) or trials < 1:
        raise StateError(f"trials must be a positive integer, got {trials!r}")
    if trials > _COUNTER_STRIDE:
        raise StateError(f"at most {_COUNTER_STRIDE} trials per run, got {trials}")
    if not _is_integer(workers) or workers < 1:
        raise StateError(f"worker count must be a positive integer, got {workers!r}")
    if not _is_integer(seed) or seed < 0:
        raise StateError("seed must be a non-negative integer")


def simulate_chain_mc(
    chain: RepeaterChain,
    trials: int,
    seed: int = 42,
    workers: int = 1,
    attempts: tuple[SpanAttempt, ...] | None = None,
) -> EndToEndResult:
    """Monte Carlo over full protocol runs.

    Trials run in groups of up to MC_GROUP consecutive indices, all trials
    of a group through the protocol at once. Draw j of trial i is a pure
    function of (seed, i, j), SplitMix64 output (i << 32) + j + 1 under a
    key folded from the seed by the same mix, and each trial holds only its
    8-byte stream state. A trial reads its draws in protocol order, however
    a pass batches them: the step at the first node takes a trial's span
    and swap draws in one stream call. So each trial depends only on
    (seed, i); workers take contiguous index ranges, and results are
    byte-identical for any worker count. A trial samples only times, a
    span generation's from one draw and the ready time the analytic engine
    reads too, and one decay exponent, the waits at its swaps times the
    span models' rates, kept for the pass in which every swap succeeds; its
    delivered pair is lam * c + (1 - lam) / 4 in Bell weights, with c from
    _folded_bell, also shared, and lam = exp(-exponent). Every lam must lie
    in [0, 1] and _end_to_end checks c, so every delivered pair is a valid
    mix of c and I/4; ``bell`` is c decayed by lam's mean. A chain whose
    trials need 2**32 or more span generations on average without a cutoff,
    more than a stream gives, raises StateError before the first draw. A
    group of trials that needs more than MC_WORK_FACTOR times that count
    raises StateError, and so do more than 2**32 trials, a trial that would
    draw 2**32 uniforms, trials or workers that are not positive integers, and
    a seed that is not a non-negative integer (_check_mc_args, which
    run_plan applies to every plan), and so does a heralded span state
    that is not Bell-diagonal, which span_attempts(chain) checks;
    ``attempts``, its result, saves computing the span stacks again.
    """
    _check_mc_args(trials, seed, workers)
    models = _span_models(chain, attempts)
    need = _generations_per_trial(models)
    if not need < _COUNTER_STRIDE:
        raise StateError(
            f"Monte Carlo cannot finish: a trial needs {need:.3g} span "
            f"generations on average, and its stream gives at most "
            f"{_COUNTER_STRIDE - 1} draws; a swap probability, "
            f"bsm_success_prob * read_efficiency**2, is too small"
        )
    if workers == 1 or trials < 4 * workers:
        times, exponent = _run_trial_range(models, chain.memory_cutoff, seed, 0, trials)
    else:
        # Imported here: the pool's modules take a noticeable share of the
        # cold start, and a single-worker run does not need them.
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, trials, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    _run_trial_range,
                    [models] * workers,
                    [chain.memory_cutoff] * workers,
                    [seed] * workers,
                    bounds[:-1],
                    bounds[1:],
                )
            )
        times = np.concatenate([p[0] for p in parts])
        exponent = np.concatenate([p[1] for p in parts])

    if not np.isfinite(times).all():
        wait = max(m.ready.mean for m in models)
        raise StateError(
            f"a Monte Carlo latency overflows the float range; the mean span "
            f"wait is up to {wait:.3g} s"
        )
    lam = np.exp(-exponent)
    # Written so that NaN fails.
    if not (lam.min() >= 0.0 and lam.max() <= 1.0):
        raise StateError("a delivered pair has invalid Bell weights")
    lam_se = float(lam.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    # Latency statistics of the times scaled by 2**-e, with e the exponent
    # of the largest time. Near the heralding floor the waits reach 1e306 s,
    # whose sum, squares and squared mean overflow; a power-of-two scale
    # is exact, so elsewhere the bits are those of the unscaled formulas.
    e = math.frexp(float(times.max()))[1]
    scaled = np.ldexp(times, -e)
    mean_s = float(scaled.mean())
    se_s = float(scaled.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return _end_to_end(models, float(lam.mean()), lam_se, math.ldexp(mean_s, e),
                       math.ldexp(se_s / mean_s**2, -e), trials, "mc")


def _end_to_end(models: list[_SpanModel], lam: float, lam_se: float, mean_t: float,
                rate_se: float, trials: int, engine: str) -> EndToEndResult:
    """Both engines' result: the pair lam * c + (1 - lam) / 4, c from
    _folded_bell and lam the mean survival weight (standard error lam_se),
    delivered every mean_t seconds on average. Raises StateError unless c's
    weights are >= -1e-12 and sum to 1 within 1e-10, and the result is finite."""
    c = _folded_bell(models)
    # Written so that NaN fails.
    if not (c.min() >= -1e-12 and abs(((c[0] + c[1]) + c[2]) + c[3] - 1.0) <= 1e-10):
        raise StateError("a delivered pair has invalid Bell weights")
    bell = bell_decay(c, lam)
    fidelity, rate = float(bell[0]), 1.0 / mean_t
    if not (math.isfinite(fidelity) and math.isfinite(rate) and math.isfinite(mean_t)):
        raise StateError(
            f"the {engine} result is not finite (fidelity {fidelity!r}, latency "
            f"{mean_t!r} s): a decay rate or a wait is beyond the float range"
        )
    return EndToEndResult(
        fidelity=fidelity, pair_rate_hz=rate, mean_latency_s=mean_t, trials=trials,
        fidelity_stderr=abs(float(c[0]) - 0.25) * lam_se, rate_stderr=rate_se,
        bell=bell, engine=engine)


# Analytic engine: exact Bell-diagonal algebra for the states, exact
# renewal accounting for the times. Every ready time is one geometric type
# on its attempt grid; after the first merge the frontier time is collapsed
# to a point mass at its mean, the same type with success 1. A merge sums
# over the atoms of the side that heralds more often: one wait_terms call
# on the other side gives the merge's three integrands at that set of
# points, from one count of its atoms. A point-mass side is one float
# point, so every merge after the first, and any merge with a certain span,
# builds no arrays. The state is _folded_bell's c and one expected
# survival weight lam: a merge multiplies lam by e_front + e_span - 1, the
# expected survivals of the two sides, and a notification that is not the
# last by its decay. Cutoff expiry is neglected, so results are exact only
# when cutoffs are generous.

def _nlog(n, log_v):
    """n * log_v, with 0 where n is 0 (also when log_v is -inf)."""
    if isinstance(n, np.ndarray):
        return np.multiply(n, log_v, out=np.zeros(n.shape), where=n > 0)
    return n * log_v if n > 0 else 0.0


class _GeomTime:
    """Ready time T = K * cycle, K >= 1 the attempt that succeeds with
    probability p; p = 1 is the point mass at cycle."""

    def __init__(self, p: float, cycle: float):
        self.p = p
        self.cycle = cycle
        self.mean = cycle / p
        self.log_q = math.log1p(-p) if p < 1.0 else -math.inf

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Times and weights of the atoms up to where the tail is 1e-16."""
        k = np.arange(math.ceil(math.log(1e-16) / self.log_q) + 1)
        return (k + 1) * self.cycle, self.p * np.exp(_nlog(k, self.log_q))

    def wait_terms(self, x, r_a, r_b):
        """At points x > 0 of another ready time A (a float or an array):
        P(T <= x) + E[exp(-r_a (T - x)); T > x], P(T >= x) +
        E[exp(-r_b (x - T)); T < x] and x + E[(T - x)+], the integrands of
        _expected_wait. n counts the atoms up to x, m those below x; an atom
        within 1e-12 (relative) of x is a tie, in n and not in m."""
        y = x / self.cycle
        n = np.floor(y * (1 + 1e-12))
        m = np.ceil(y * (1 - 1e-12)) - 1
        n_log = _nlog(n, self.log_q)
        # 1 - q exp(-r_a cycle), the generating function's denominator.
        den = -np.expm1(self.log_q - r_a * self.cycle)
        above = self.p * np.exp(n_log - r_a * ((n + 1) * self.cycle - x)) / den
        # Atoms k = 1..m weigh p q^(k-1) exp(-r_b (x - k cycle)): a
        # geometric series of ratio v = q exp(r_b cycle), summed from its
        # largest term (the first if v <= 1, else the last). Below the first
        # atom m is 0, and the clamp keeps exp(top) finite against it.
        log_v = self.log_q + r_b * self.cycle
        s = -abs(log_v)
        series = m if s == 0.0 else np.expm1(_nlog(m, s)) / np.expm1(s)
        top = max(log_v, 0.0) * (m - 1) - r_b * np.maximum(x - self.cycle, 0.0)
        below = self.p * np.exp(top) * series
        # Past the n atoms up to x, T is n cycles plus a fresh copy of itself.
        return (
            -np.expm1(n_log) + above,
            np.exp(_nlog(m, self.log_q)) + below,
            x + np.exp(n_log) * (n * self.cycle - x + self.mean),
        )


def _expected_wait(a: _GeomTime, b: _GeomTime, r_a: float, r_b: float):
    """For independent ready times A and B whose pairs decay at rates r_a and
    r_b while they wait for each other: E[exp(-r_a (B - A)+)],
    E[exp(-r_b (A - B)+)] and E[max(A, B)]. Sums b's wait_terms over the
    atoms of a, the side with the larger p; below GEOM_EXACT_MIN_P a is
    coarsened to it at the same mean. A point mass a is its one atom, a
    float of weight 1."""
    if a.p == 1.0:
        return tuple(float(t) for t in b.wait_terms(a.cycle, r_a, r_b))
    if a.p < GEOM_EXACT_MIN_P:
        a = _GeomTime(GEOM_EXACT_MIN_P, a.mean * GEOM_EXACT_MIN_P)
    x, w = a.atoms()
    return tuple(float(np.dot(w, t)) for t in b.wait_terms(x, r_a, r_b))


# A decay rate or a wait near the float range overflows, and products with
# it turn NaN; simulate_chain_analytic rejects such a result, and numpy need
# not warn on the way.
@np.errstate(over="ignore", invalid="ignore")
def simulate_chain_analytic(chain: RepeaterChain) -> EndToEndResult:
    """Expected-value model of the same protocol the Monte Carlo runs.

    Exact for single spans and for two-span chains with generous cutoffs
    (span stacks produce Bell-diagonal states, for which the swap algebra
    and wait-decay expectations here are closed form) unless both spans
    herald below GEOM_EXACT_MIN_P; longer chains approximate intermediate
    frontier times by their means. The delivered pair is the Monte Carlo's
    lam * c + (1 - lam) / 4 with lam's expectation carried as one scalar.
    A fidelity, rate or latency that is not finite raises StateError.
    """
    models = _span_models(chain)
    front = models[0].ready
    lam = 1.0
    mean_t = front.mean
    for m in models[1:]:
        # Frontier right qubit decays while waiting for the span, the span's
        # two stored qubits decay together while waiting for the frontier.
        if front.p >= m.ready.p:
            e_front, e_span, e_round = _expected_wait(front, m.ready, m.front_rate, m.span_rate)
        else:
            e_span, e_front, e_round = _expected_wait(m.ready, front, m.span_rate, m.front_rate)
        # Only one side waits, so E[f(A) g(B)] = f(EA, 1) + f(1, EB) - f(1, 1)
        # for the two affine decay factors: the pair survives e_front + e_span - 1.
        lam *= e_front + e_span - 1.0
        mean_t = e_round / m.swap_prob + m.notify_s
        # p = 1 puts one atom at mean_t: the frontier's point-mass collapse.
        front = _GeomTime(1.0, mean_t)
        # While the swap outcome travels to the new frontier edge, the merged
        # pair's right qubit keeps decaying there. The interval is
        # deterministic, so this factor is exact; the last span's right end
        # is an end station, which does not decay, so its factor is 1.
        lam *= math.exp(-m.right_decay_rate * m.notify_s)

    return _end_to_end(models, lam, 0.0, mean_t, 0.0, 0, "analytic")
