"""Span attempts, memory decay, swapping, teleportation, and both engines."""

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from qorsim.fiber import C_BAND, O_BAND, FiberSpan, photon_dwell_time, transmittance
from qorsim.linalg import (
    DensityMatrix,
    DimensionError,
    StateError,
    bell_diagonal_weights,
    fidelity,
    ket,
    maximally_mixed,
    phi_plus,
    pure_state,
    random_density_matrix,
    werner_state,
)
from qorsim.repeater import (
    MC_BLOCK,
    MC_CHUNK,
    MC_WORK_FACTOR,
    EndToEndResult,
    MemorySpec,
    QorsNode,
    RepeaterChain,
    SpanAttempt,
    _ExpDist,
    _GridDist,
    _bell_convolve,
    _bell_decay,
    _bell_dephase,
    _expected_excess,
    _expected_wait_decay,
    _run_trial_range,
    _span_models,
    entanglement_swap,
    memory_decay,
    simulate_chain_analytic,
    simulate_chain_mc,
    span_entanglement_attempt,
    teleport,
)

from conftest import bell_diag, write_route
from oracles import oracle_chain_trial, oracle_depolarize, oracle_swap


def _node(coherence=1.0, write=0.9, read=0.9, bsm=0.5, det=0.8, penalty=0.0):
    return QorsNode(
        memory=MemorySpec(coherence_time=coherence, write_efficiency=write,
                          read_efficiency=read),
        bsm_success_prob=bsm,
        bsm_visibility_penalty=penalty,
        detector_efficiency=det,
    )


def _span(length=25.0, band=C_BAND, **kw):
    kw.setdefault("mux_insertion_loss_db", 1.0)
    kw.setdefault("dephasing_p", 1e-3)
    kw.setdefault("sop_drift_rate", 5e4)
    kw.setdefault("sop_recalibration_interval", 1e-6)
    kw.setdefault("coexistence_noise_prob", 1e-5)
    return FiberSpan(length_km=length, quantum_band=band, **kw)


class TestSpanAttempt:
    def test_success_probability_factors(self):
        span = _span()
        eta = transmittance(span)
        bare = span_entanglement_attempt(span)
        assert abs(bare.success_probability - eta) < 1e-15
        full = span_entanglement_attempt(
            span, detector_efficiency=0.8, memory=MemorySpec(write_efficiency=0.9)
        )
        assert abs(full.success_probability - 0.9 * 0.8 * eta) < 1e-15

    def test_clean_span_delivers_phi_plus(self):
        span = FiberSpan(length_km=25.0, quantum_band=C_BAND)
        out = span_entanglement_attempt(span)
        assert abs(fidelity(out.state, phi_plus()) - 1.0) < 1e-12

    def test_dephasing_moves_weight_to_phase_flip(self):
        p = 0.05
        span = FiberSpan(length_km=10.0, quantum_band=C_BAND, dephasing_p=p)
        out = span_entanglement_attempt(span)
        w = bell_diagonal_weights(out.state)
        assert np.max(np.abs(w - np.array([1 - p, 0.0, p, 0.0]))) < 1e-12

    def test_sop_fidelity_closed_form(self):
        theta = 0.3
        span = FiberSpan(length_km=10.0, quantum_band=C_BAND,
                         sop_drift_rate=theta, sop_recalibration_interval=1.0)
        out = span_entanglement_attempt(span)
        assert abs(fidelity(out.state, phi_plus()) - np.cos(theta / 2) ** 2) < 1e-12

    def test_background_noise_mixing(self):
        noise = 1e-3
        span = FiberSpan(length_km=25.0, quantum_band=C_BAND,
                         coexistence_noise_prob=noise)
        out = span_entanglement_attempt(span)
        p = out.success_probability
        w_noise = noise / (p + noise)
        want = (1 - w_noise) * 1.0 + w_noise * 0.25
        assert abs(fidelity(out.state, phi_plus()) - want) < 1e-12

    def test_heralding_excludes_vacuum(self):
        out = span_entanglement_attempt(_span(length=60.0))
        assert abs(np.trace(out.state.matrix) - 1.0) < 1e-12
        assert out.state.dim == 4

    def test_detector_efficiency_bounds(self):
        with pytest.raises(StateError):
            span_entanglement_attempt(_span(), detector_efficiency=0.0)


class TestMemoryDecay:
    def test_exponential_werner_mixing(self):
        tau, dwell = 0.4, 0.1
        lam = math.exp(-dwell / tau)
        out = memory_decay(phi_plus(), dwell, MemorySpec(coherence_time=tau), qubit=0)
        want = lam + (1 - lam) / 4
        assert abs(fidelity(out, phi_plus()) - want) < 1e-12

    def test_zero_dwell_identity(self, rng):
        dm = random_density_matrix(4, rng)
        out = memory_decay(dm, 0.0, MemorySpec(), qubit=1)
        assert np.max(np.abs(out.matrix - dm.matrix)) < 1e-15

    def test_either_qubit_same_bell_weights(self):
        w0 = bell_diagonal_weights(
            memory_decay(werner_state(0.9), 0.2, MemorySpec(), qubit=0))
        w1 = bell_diagonal_weights(
            memory_decay(werner_state(0.9), 0.2, MemorySpec(), qubit=1))
        assert np.max(np.abs(w0 - w1)) < 1e-12

    def test_validation(self, rng):
        with pytest.raises(StateError):
            memory_decay(phi_plus(), -1.0, MemorySpec(), qubit=0)
        with pytest.raises(DimensionError):
            memory_decay(random_density_matrix(2, rng), 0.1, MemorySpec(), qubit=0)
        with pytest.raises(DimensionError):
            memory_decay(phi_plus(), 0.1, MemorySpec(), qubit=2)


class TestEntanglementSwap:
    def test_matches_brute_force_on_bell_diagonal(self, rng):
        node = _node()
        for _ in range(15):
            wa, wb = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            a, b = bell_diag(wa), bell_diag(wb)
            got = entanglement_swap(a, b, node).state.matrix
            want = oracle_swap(a.matrix, b.matrix, outcomes=(1, 3))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_matches_brute_force_on_random_states(self, rng):
        node = _node()
        for _ in range(10):
            a = random_density_matrix(4, rng)
            b = random_density_matrix(4, rng)
            got = entanglement_swap(a, b, node).state.matrix
            want = oracle_swap(a.matrix, b.matrix, outcomes=(1, 3))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_werner_multiplication_law(self):
        node = _node()
        for f1 in np.linspace(0.25, 1.0, 6):
            for f2 in np.linspace(0.25, 1.0, 6):
                out = entanglement_swap(werner_state(f1), werner_state(f2), node)
                want = f1 * f2 + (1 - f1) * (1 - f2) / 3
                assert abs(fidelity(out.state, phi_plus()) - want) < 1e-10

    def test_bell_weights_xor_convolve(self, rng):
        node = _node()
        for _ in range(10):
            wa, wb = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            out = entanglement_swap(bell_diag(wa), bell_diag(wb), node)
            got = bell_diagonal_weights(out.state)
            want = np.zeros(4)
            for i in range(4):
                for j in range(4):
                    want[i ^ j] += wa[i] * wb[j]
            assert np.max(np.abs(got - want)) < 1e-12

    def test_visibility_penalty_dephases(self):
        out = entanglement_swap(phi_plus(), phi_plus(), _node(penalty=0.13))
        assert abs(fidelity(out.state, phi_plus()) - 0.87) < 1e-12

    def test_success_probability_reported(self):
        out = entanglement_swap(phi_plus(), phi_plus(), _node(bsm=0.43))
        assert out.success_probability == 0.43

    def test_dimension_checks(self, rng):
        with pytest.raises(DimensionError):
            entanglement_swap(random_density_matrix(2, rng), phi_plus(), _node())


class TestTeleport:
    def test_identity_through_phi_plus(self, rng):
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            st = pure_state(v)
            assert abs(fidelity(teleport(st, phi_plus()), st) - 1.0) < 1e-12

    def test_werner_resource_average_fidelity(self, rng):
        for f in (0.25, 0.5, 0.8, 1.0):
            for _ in range(5):
                v = rng.normal(size=2) + 1j * rng.normal(size=2)
                st = pure_state(v)
                out = teleport(st, werner_state(f))
                assert abs(fidelity(out, st) - (2 * f + 1) / 3) < 1e-9

    def test_unital_on_bell_diagonal_resources(self, rng):
        for _ in range(10):
            res = bell_diag(rng.dirichlet(np.ones(4)))
            out = teleport(maximally_mixed(2), res)
            assert np.max(np.abs(out.matrix - np.eye(2) / 2)) < 1e-12

    def test_linear_in_input(self, rng):
        res = random_density_matrix(4, rng)
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        mix = DensityMatrix(0.3 * a.matrix + 0.7 * b.matrix)
        lhs = teleport(mix, res).matrix
        rhs = 0.3 * teleport(a, res).matrix + 0.7 * teleport(b, res).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_checks(self, rng):
        with pytest.raises(DimensionError):
            teleport(phi_plus(), phi_plus())
        with pytest.raises(DimensionError):
            teleport(pure_state(ket(0, 2)), random_density_matrix(2, rng))


class TestWaitDistributions:
    def test_grid_moments(self):
        g = _GridDist(0.23, 1.7e-4)
        assert abs(g.mean - 1.7e-4 / 0.23) < 1e-18
        assert abs(np.sum(g.pmf) - 1.0) < 1e-12
        assert abs(np.dot(g.pmf, g.times) - g.mean) < 1e-12 * g.mean

    def test_grid_cdf_and_tail(self):
        g = _GridDist(0.3, 1.0)
        # P(T <= 2) with T geometric on {1, 2, ...}
        assert abs(g.cdf(2.0) - (0.3 + 0.7 * 0.3)) < 1e-12
        assert abs(g.cdf(2.5) - g.cdf(2.0)) < 1e-12
        brute_tail = float(np.sum(g.pmf[g.times > 2.0] * g.times[g.times > 2.0]))
        assert abs(g.tail_time_mean(2.0) - brute_tail) < 1e-12

    def test_grid_decay_above_matches_sum(self):
        g = _GridDist(0.3, 1.0)
        rate = 0.8
        x = 2.0
        brute = float(np.sum(
            g.pmf[g.times > x] * np.exp(-rate * (g.times[g.times > x] - x))
        ))
        assert abs(g.decay_above(x, rate) - brute) < 1e-12

    def test_expected_max_of_iid_geometrics(self):
        p, cyc = 0.23, 1.7e-4
        g1, g2 = _GridDist(p, cyc), _GridDist(p, cyc)
        emax = g1.mean + _expected_excess(g1, g2)
        want = cyc * (2.0 / p - 1.0 / (p * (2.0 - p)))
        assert abs(emax - want) < 1e-12 * want

    def test_excess_cross_branches_agree(self):
        g = _GridDist(0.3, 1.0)
        pt = _GridDist(1.0, 2.4)
        brute = float(np.sum(g.pmf * np.clip(g.times - pt.mean, 0.0, None)))
        assert abs(_expected_excess(pt, g) - brute) < 1e-12
        brute2 = float(np.sum(g.pmf * np.clip(pt.mean - g.times, 0.0, None)))
        assert abs(_expected_excess(g, pt) - brute2) < 1e-12

    def test_wait_decay_brute_force(self):
        g1, g2 = _GridDist(0.31, 1.0), _GridDist(0.17, 1.0)
        rate = 0.6
        brute = 0.0
        for ta, wa in zip(g1.times, g1.pmf):
            brute += wa * float(np.sum(
                g2.pmf * np.exp(-rate * np.clip(g2.times - ta, 0.0, None))
            ))
        assert abs(_expected_wait_decay(g1, g2, rate) - brute) < 1e-12
        assert _expected_wait_decay(g1, g2, 0.0) == 1.0

    def test_exp_limit_agrees_with_fine_grid(self):
        # small success probability: the grid converges to the exponential
        p, cyc = 2e-4, 1e-3
        g = _GridDist(p, cyc)
        e = _ExpDist(p / cyc)
        assert abs(g.mean - e.mean) < 1e-12 * e.mean
        for x in (0.5 * e.mean, e.mean, 2.0 * e.mean):
            assert abs(g.cdf(x) - e.cdf(x)) < 1e-3
            assert abs(g.tail_time_mean(x) - e.tail_time_mean(x)) < 1e-3 * e.mean
        rate = 0.3 / e.mean
        g2 = _GridDist(p, cyc)
        got_e = _expected_wait_decay(e, _ExpDist(p / cyc), rate)
        got_g = _expected_wait_decay(g, g2, rate)
        assert abs(got_e - got_g) < 1e-3

    def test_exp_decay_below_near_degenerate_rate(self):
        e = _ExpDist(2.0)
        x = 0.7
        # rate == lam hits the removable singularity branch
        want = 2.0 * x * math.exp(-2.0 * x)
        assert abs(e.decay_below(x, 2.0) - want) < 1e-12
        # and the generic branch nearby agrees continuously
        assert abs(e.decay_below(x, 2.0 + 1e-12) - want) < 1e-9


class TestBellVectorAlgebra:
    def test_decay_preserves_normalization(self, rng):
        w = rng.dirichlet(np.ones(4))
        out = _bell_decay(w, 0.73)
        assert abs(np.sum(out) - 1.0) < 1e-12
        assert abs(out[0] - (0.73 * w[0] + 0.27 / 4)) < 1e-12

    def test_dephase_swaps_phase_pairs(self):
        w = np.array([0.6, 0.2, 0.15, 0.05])
        out = _bell_dephase(w, 1.0)
        assert np.array_equal(out, w[[2, 3, 0, 1]])

    def test_convolve_is_commutative_with_identity(self, rng):
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        assert np.max(np.abs(_bell_convolve(a, b) - _bell_convolve(b, a))) < 1e-15
        e = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(_bell_convolve(a, e) - a)) < 1e-15

    def test_decay_matches_memory_decay(self):
        lam = math.exp(-0.2)
        w = np.array([0.7, 0.1, 0.1, 0.1])
        direct = _bell_decay(w, lam)
        via_state = bell_diagonal_weights(
            memory_decay(bell_diag(w), 0.2, MemorySpec(coherence_time=1.0), qubit=0)
        )
        assert np.max(np.abs(direct - via_state)) < 1e-12


class TestChainValidation:
    def test_span_node_count_mismatch(self):
        with pytest.raises(DimensionError):
            RepeaterChain(spans=(_span(), _span()), nodes=())

    def test_empty_chain(self):
        with pytest.raises(DimensionError):
            RepeaterChain(spans=())

    def test_parameter_positivity(self):
        with pytest.raises(StateError):
            RepeaterChain(spans=(_span(),), attempt_rate=0.0)
        with pytest.raises(StateError):
            RepeaterChain(spans=(_span(),), memory_cutoff=0.0)
        with pytest.raises(StateError):
            MemorySpec(coherence_time=0.0)
        with pytest.raises(StateError):
            MemorySpec(read_efficiency=0.0)
        with pytest.raises(StateError):
            QorsNode(memory=MemorySpec(), bsm_success_prob=0.0)


class TestMonteCarloEngine:
    def test_degenerate_span_is_exact(self):
        chain = RepeaterChain(spans=(FiberSpan(length_km=0.0),), attempt_rate=1e6)
        res = simulate_chain_mc(chain, trials=50, seed=1)
        assert res.pair_rate_hz == pytest.approx(1e6, abs=1e-6)
        assert abs(res.fidelity - 1.0) < 1e-12
        assert res.mean_latency_s == pytest.approx(1e-6, abs=1e-18)
        assert res.engine == "mc"

    def test_single_span_fidelity_deterministic(self):
        chain = RepeaterChain(spans=(_span(),), attempt_rate=1e6)
        res = simulate_chain_mc(chain, trials=500, seed=2)
        assert res.fidelity_stderr < 1e-15
        assert abs(res.fidelity - simulate_chain_analytic(chain).fidelity) < 1e-12

    def test_ideal_two_span_chain_deterministic(self):
        node = QorsNode(
            memory=MemorySpec(coherence_time=1e9, write_efficiency=1.0,
                              read_efficiency=1.0),
            bsm_success_prob=1.0, detector_efficiency=1.0,
        )
        chain = RepeaterChain(
            spans=(FiberSpan(length_km=0.0), FiberSpan(length_km=0.0)),
            nodes=(node,), attempt_rate=1e6,
        )
        res = simulate_chain_mc(chain, trials=50, seed=3)
        assert res.mean_latency_s == pytest.approx(1e-6, abs=1e-18)
        assert abs(res.fidelity - 1.0) < 1e-12

    def test_deterministic_across_workers_and_runs(self):
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        # Five blocks, the last one partial. At this count the means once
        # differed in the last digits when summed in column order.
        trials = 4 * MC_BLOCK + 1808
        a = simulate_chain_mc(chain, trials=trials, seed=5, workers=1)
        b = simulate_chain_mc(chain, trials=trials, seed=5, workers=2)
        c = simulate_chain_mc(chain, trials=trials, seed=5, workers=3)
        d = simulate_chain_mc(chain, trials=trials, seed=5, workers=1)
        for other in (b, c, d):
            assert a.fidelity == other.fidelity
            assert a.fidelity_stderr == other.fidelity_stderr
            assert a.pair_rate_hz == other.pair_rate_hz
            assert a.mean_latency_s == other.mean_latency_s
            assert a.rate_stderr == other.rate_stderr
            assert np.array_equal(a.mean_state.matrix, other.mean_state.matrix)

    def test_trials_do_not_depend_on_the_run_length(self):
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        models = _span_models(chain)
        short_t, short_b = _run_trial_range(models, chain, 5, 0, MC_BLOCK + 100)
        long_t, long_b = _run_trial_range(models, chain, 5, 0, 2 * MC_BLOCK + 37)
        assert np.array_equal(short_t, long_t[:MC_BLOCK + 100])
        assert np.array_equal(short_b, long_b[:MC_BLOCK + 100])
        tail_t, _ = _run_trial_range(models, chain, 5, MC_BLOCK - 30, MC_BLOCK + 100)
        assert np.array_equal(tail_t, short_t[MC_BLOCK - 30:])

    def test_work_budget_stops_a_starved_cutoff(self, tmp_path):
        from qorsim.planner import build_chain, load_route

        route = write_route(tmp_path, [0.0, 20.0, 45.0], defaults={"memory_cutoff": 1e-8})
        chain = build_chain(load_route(route))
        with pytest.raises(StateError, match="memory_cutoff 1e-08 s .* span cycle") as err:
            simulate_chain_mc(chain, trials=20, seed=42)
        # Two spans need (1 + 1) / q generations per trial without a cutoff;
        # the run stops within one vector step (20 trials) of the budget.
        node = chain.nodes[0]
        need = 2.0 / (node.bsm_success_prob * node.memory.read_efficiency**2)
        spent = int(re.search(r"after (\d+) span generations", str(err.value))[1])
        assert MC_WORK_FACTOR * need * 20 < spent <= MC_WORK_FACTOR * need * 20 + 20

    def test_long_chain_memory_is_bounded(self):
        # Seven spans: the slowest trials draw thousands of uniforms each.
        # Each trial's stream holds MC_CHUNK of them at a time.
        chain = RepeaterChain(spans=(_span(),) * 7, nodes=(_node(),) * 6,
                              attempt_rate=1e6, memory_cutoff=1.0)
        models = _span_models(chain)
        tracemalloc.start()
        try:
            _run_trial_range(models, chain, 3, 0, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_seed_changes_draws(self):
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        a = simulate_chain_mc(chain, trials=200, seed=5)
        b = simulate_chain_mc(chain, trials=200, seed=6)
        assert a.mean_latency_s != b.mean_latency_s

    def test_delivered_states_are_valid(self):
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        res = simulate_chain_mc(chain, trials=50, seed=9)
        assert isinstance(res.mean_state, DensityMatrix)
        assert isinstance(res, EndToEndResult)
        assert res.trials == 50
        assert res.fidelity_stderr > 0.0
        assert res.rate_stderr > 0.0

    def test_input_validation(self):
        chain = RepeaterChain(spans=(_span(),))
        with pytest.raises(StateError):
            simulate_chain_mc(chain, trials=0)
        with pytest.raises(StateError):
            simulate_chain_mc(chain, trials=10, workers=0)


def _dense_inputs(chain):
    """oracle_chain_trial's span and node tuples for a chain, with the
    pre-ready memory decay applied by the oracle's own depolarizer."""
    n = len(chain.spans)
    spans = []
    for i, span in enumerate(chain.spans):
        left = chain.nodes[i - 1] if i > 0 else None
        right = chain.nodes[i] if i < n - 1 else None
        attempt = span_entanglement_attempt(
            span,
            detector_efficiency=left.detector_efficiency if left else 1.0,
            memory=right.memory if right else None,
        )
        one_way = photon_dwell_time(span)
        left_rate = 1.0 / left.memory.coherence_time if left else 0.0
        right_rate = 1.0 / right.memory.coherence_time if right else 0.0
        rho = oracle_depolarize(attempt.state.matrix, 0, math.exp(-left_rate * one_way))
        rho = oracle_depolarize(rho, 1, math.exp(-right_rate * 2.0 * one_way))
        spans.append((attempt.success_probability, 1.0 / chain.attempt_rate + 2.0 * one_way,
                      one_way, rho, right_rate))
    nodes = [(nd.bsm_success_prob * nd.memory.read_efficiency**2,
              1.0 / nd.memory.coherence_time, nd.bsm_visibility_penalty)
             for nd in chain.nodes]
    return spans, nodes


class _ReplayedRow:
    """Trial ``index``'s uniforms as the engine's streams lay them out: row
    index % MC_BLOCK of the (MC_BLOCK, MC_CHUNK) chunks drawn in turn from
    default_rng([seed, index // MC_BLOCK]); geometric counts by inversion."""

    def __init__(self, seed, index):
        self._rng = np.random.default_rng([seed, index // MC_BLOCK])
        self._row = index % MC_BLOCK
        self._values = []

    def random(self):
        if not self._values:
            self._values = list(self._rng.random((MC_BLOCK, MC_CHUNK))[self._row][::-1])
        return self._values.pop()

    def geometric(self, p):
        return 1 + math.floor(np.log1p(-self.random()) / math.log1p(-p))


class TestBellEngineAgainstDenseOracle:
    """The block-batched Bell-weight Monte Carlo engine against the
    dense-state protocol run one trial at a time on the same streams. Each
    run straddles the first block boundary and ends in a partial block."""

    @pytest.mark.parametrize("n_spans, cutoff, coherence, penalty, trials", [
        (2, 1.0, 1.0, 0.0, 300),
        (3, 1.0, 1.0, 0.0, 80),
        (5, 1.0, 1.0, 0.0, 15),
        (2, 2e-4, 0.01, 0.0, 300),    # cutoff binds: mean span wait ~1.7 ms
        (3, 5e-4, 0.05, 0.07, 60),
        (2, 1.0, 1.0, 0.2, 300),
    ])
    def test_same_times_and_states(self, n_spans, cutoff, coherence, penalty, trials):
        chain = RepeaterChain(
            spans=tuple(_span(20.0, O_BAND) for _ in range(n_spans)),
            nodes=tuple(_node(coherence, penalty=penalty) for _ in range(n_spans - 1)),
            attempt_rate=1e6, memory_cutoff=cutoff,
        )
        seed = 11
        lo = MC_BLOCK - trials // 2
        hi = lo + trials
        times, bells = _run_trial_range(_span_models(chain), chain, seed, lo, hi)
        spans, nodes = _dense_inputs(chain)
        for i in range(lo, hi):
            t, rho = oracle_chain_trial(spans, nodes, cutoff, _ReplayedRow(seed, i))
            assert t == times[i - lo]
            want = bell_diagonal_weights(DensityMatrix(rho))
            assert np.max(np.abs(want - bells[i - lo])) < 1e-12
        if cutoff < 1.0:
            loose = dataclasses.replace(chain, memory_cutoff=1.0)
            free, _ = _run_trial_range(_span_models(loose), loose, seed, lo, hi)
            assert np.any(free != times)

    def test_non_bell_diagonal_span_state_rejected(self):
        chain = RepeaterChain(spans=(_span(),), attempt_rate=1e6)
        skewed = SpanAttempt(
            success_probability=0.1,
            state=pure_state(ket(0, 4)),   # |00>: Phi+/Phi- coherence 0.5
            transmittance=0.1,
        )
        with pytest.raises(StateError, match="not Bell-diagonal"):
            _span_models(chain, (skewed,))
        with pytest.raises(StateError, match="not Bell-diagonal"):
            simulate_chain_mc(chain, trials=10, attempts=(skewed,))
        with pytest.raises(DimensionError):
            _span_models(chain, (skewed, skewed))

    def test_invalid_delivered_weights_rejected(self, monkeypatch):
        import qorsim.repeater as repeater

        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(),), attempt_rate=1e6)
        monkeypatch.setattr(
            repeater, "_delivered_bells",
            lambda models, nodes, decays: np.tile([1.1, -0.1, 0.0, 0.0], (len(decays), 1)),
        )
        with pytest.raises(StateError, match="invalid Bell weights"):
            simulate_chain_mc(chain, trials=5)


class TestAnalyticEngine:
    def test_single_span_closed_form(self):
        chain = RepeaterChain(spans=(_span(),), attempt_rate=1e6)
        res = simulate_chain_analytic(chain)
        span = chain.spans[0]
        p = transmittance(span)
        cycle = 1e-6 + 2.0 * photon_dwell_time(span)
        assert abs(res.mean_latency_s - cycle / p) < 1e-15
        assert res.engine == "analytic"

    def test_two_span_matches_mc(self):
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        an = simulate_chain_analytic(chain)
        mc = simulate_chain_mc(chain, trials=30000, seed=13, workers=4)
        assert abs(an.fidelity - mc.fidelity) < 3.5 * mc.fidelity_stderr
        assert abs(an.pair_rate_hz - mc.pair_rate_hz) < 3.5 * mc.rate_stderr

    def test_three_span_approximation_stays_close(self):
        chain = RepeaterChain(
            spans=(_span(), _span(), _span()),
            nodes=(_node(0.05), _node(0.05)),
            attempt_rate=1e6, memory_cutoff=0.05,
        )
        an = simulate_chain_analytic(chain)
        mc = simulate_chain_mc(chain, trials=15000, seed=13, workers=4)
        assert abs(an.fidelity - mc.fidelity) / mc.fidelity < 0.01
        assert abs(an.pair_rate_hz - mc.pair_rate_hz) / mc.pair_rate_hz < 0.05

    def test_repeater_beats_direct_transmission(self):
        # 200 km O band: direct heralding is hopeless, a four-node chain is not
        direct = RepeaterChain(spans=(_span(200.0, O_BAND),), attempt_rate=1e6)
        rate_direct = simulate_chain_analytic(direct).pair_rate_hz
        spans = tuple(_span(40.0, O_BAND) for _ in range(5))
        nodes = tuple(_node() for _ in range(4))
        chain = RepeaterChain(spans=spans, nodes=nodes, attempt_rate=1e6)
        mc = simulate_chain_mc(chain, trials=300, seed=17, workers=4)
        assert mc.pair_rate_hz > 100.0 * rate_direct
        assert mc.fidelity > 0.5

    def test_mean_state_consistent_with_fidelity(self):
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        res = simulate_chain_analytic(chain)
        assert abs(fidelity(res.mean_state, phi_plus()) - res.fidelity) < 1e-10
