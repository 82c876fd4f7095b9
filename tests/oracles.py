"""Independent brute-force constructions used to validate closed forms.

Everything here is built from explicit kets, kron products, and index
loops only, so the implementation under test and the oracle share no
code paths.
"""

import numpy as np

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
        k = int(rng.geometric(p)) if p < 1.0 else 1
        return t0 + k * cycle

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
