"""Span attempts, memory decay, swapping, teleportation, and both engines."""

import dataclasses
import itertools
import math
import os
import re
import tracemalloc
import warnings
from statistics import NormalDist
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from qorsim.fiber import (
    C_BAND,
    DEFAULT_FIBER_TYPES,
    O_BAND,
    FiberConfigError,
    FiberSpan,
    FiberSpec,
    photon_dwell_time,
    transmittance,
)
from qorsim.linalg import (
    DensityMatrix,
    DimensionError,
    StateError,
    bell_convolve,
    bell_decay,
    bell_dephase,
    bell_diagonal_state,
    bell_diagonal_weights,
    fidelity,
    pure_state,
)
from qorsim.planner import DEFAULT_PARAMS, RouteConfig, Site, build_chain, spans_table
from qorsim.qkd import OneWayRepeaterSpec, qec_max_span
from qorsim.repeater import (
    MC_GROUP,
    MC_WORK_FACTOR,
    EndToEndResult,
    MemorySpec,
    QorsNode,
    RepeaterChain,
    _expected_wait,
    _folded_bell,
    _GeomTime,
    _run_trial_range,
    _span_models,
    _SpanModel,
    _stream_key,
    _summed_wait,
    _TrialStream,
    entanglement_swap,
    memory_decay,
    simulate_chain_analytic,
    simulate_chain_mc,
    span_attempts,
    span_entanglement_attempt,
    teleport,
)

from conftest import write_route
from oracles import (
    dense_span_attempt,
    exact_domain_z_scores,
    ket,
    maximally_mixed,
    oracle_chain_trial,
    oracle_delivered_bells,
    oracle_depolarize,
    oracle_key,
    oracle_span_attempt,
    oracle_splitmix64,
    oracle_splitmix_uniform,
    oracle_swap,
    phi_plus,
    random_density_matrix,
    reference_bell_convolve,
    reference_bell_decay,
    reference_bell_dephase,
    reference_wait_terms,
    source_pair,
    werner_state,
)


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


def _random_span_attempts():
    """200 seeded spans over both bands with random dephasing, drift and
    noise, each as (span, detector efficiency, write efficiency, attempt)."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        span = FiberSpan(
            length_km=float(rng.uniform(0.0, 120.0)),
            quantum_band=(O_BAND, C_BAND)[rng.integers(2)],
            dephasing_p=float(rng.uniform(0.0, 0.3)),
            sop_drift_rate=float(rng.uniform(0.0, 2.0)),
            sop_recalibration_interval=float(rng.uniform(0.0, 1.5)),
            coexistence_noise_prob=float(rng.uniform(0.0, 1e-3)),
        )
        det, write = (float(x) for x in rng.uniform(0.1, 1.0, 2))
        got = span_entanglement_attempt(
            span, detector_efficiency=det, memory=MemorySpec(write_efficiency=write)
        )
        yield span, det, write, got


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
        assert abs(out.bell[0] - 1.0) < 1e-12

    def test_dephasing_moves_weight_to_phase_flip(self):
        p = 0.05
        span = FiberSpan(length_km=10.0, quantum_band=C_BAND, dephasing_p=p)
        out = span_entanglement_attempt(span)
        assert np.max(np.abs(out.bell - np.array([1 - p, 0.0, p, 0.0]))) < 1e-12

    def test_sop_fidelity_closed_form(self):
        theta = 0.3
        span = FiberSpan(length_km=10.0, quantum_band=C_BAND,
                         sop_drift_rate=theta, sop_recalibration_interval=1.0)
        out = span_entanglement_attempt(span)
        assert abs(out.bell[0] - np.cos(theta / 2) ** 2) < 1e-12

    def test_background_noise_mixing(self):
        noise = 1e-3
        span = FiberSpan(length_km=25.0, quantum_band=C_BAND,
                         coexistence_noise_prob=noise)
        out = span_entanglement_attempt(span)
        p = out.success_probability
        w_noise = noise / (p + noise)
        want = (1 - w_noise) * 1.0 + w_noise * 0.25
        assert abs(out.bell[0] - want) < 1e-12

    def test_heralding_excludes_vacuum(self):
        out = span_entanglement_attempt(_span(length=60.0))
        assert type(out.bell) is tuple and len(out.bell) == 4
        assert all(type(w) is float for w in out.bell)
        assert abs(math.fsum(out.bell) - 1.0) < 1e-12

    def test_detector_efficiency_bounds(self):
        with pytest.raises(StateError):
            span_entanglement_attempt(_span(), detector_efficiency=0.0)

    def test_matches_stage_by_stage_oracle(self):
        for span, det, write, got in _random_span_attempts():
            p, state = oracle_span_attempt(span, det, write)
            assert abs(got.success_probability - p) < 1e-14
            # Rebuilt from its weights, the attempt's state is the oracle's,
            # off-diagonal Bell-basis elements included.
            assert np.max(np.abs(bell_diagonal_state(got.bell).matrix - state)) < 1e-14

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        length=st.floats(0.0, 120.0),
        band=st.sampled_from([O_BAND, C_BAND]),
        dephasing=st.floats(0.0, 0.3),
        drift_rate=st.floats(0.0, 2.0),
        interval=st.floats(0.0, 1.5),
        noise=st.floats(0.0, 1e-3),
        insertion=st.floats(0.0, 3.0),
        det=st.floats(0.1, 1.0),
        write=st.floats(0.1, 1.0),
    )
    def test_closed_form_matches_dense_composition(
        self, length, band, dephasing, drift_rate, interval, noise, insertion, det, write
    ):
        # The closed form against the stage-by-stage oracle and against the
        # public dense layer, in P and in the full 4x4 state, off-diagonal
        # Bell-basis elements included.
        span = FiberSpan(
            length_km=length, quantum_band=band, dephasing_p=dephasing,
            sop_drift_rate=drift_rate, sop_recalibration_interval=interval,
            coexistence_noise_prob=noise, mux_insertion_loss_db=insertion,
        )
        got = span_entanglement_attempt(
            span, detector_efficiency=det, memory=MemorySpec(write_efficiency=write)
        )
        state = bell_diagonal_state(got.bell).matrix
        for want_p, want_state in (oracle_span_attempt(span, det, write),
                                   dense_span_attempt(span, det, write)):
            assert abs(got.success_probability - want_p) < 1e-14
            assert np.max(np.abs(state - want_state)) < 1e-14

    def test_reports_read_the_engines_weights(self):
        # The span table's fidelity and the engines' ready weights (a one-span
        # chain has no pre-ready decay) come from the attempt's one array.
        for span, _, _, _ in _random_span_attempts():
            chain = RepeaterChain(spans=(span,), attempt_rate=1e6)
            got = span_entanglement_attempt(span)
            (row,) = spans_table(chain)
            (model,) = _span_models(chain)
            assert row["fidelity"] == got.bell[0]
            assert np.array_equal(model.ready_bell, got.bell)

    def test_span_ends(self):
        # Two nodes that differ in every key: span i reads node i-1's
        # detector, swap and visibility and node i's memory; an end station
        # is ideal.
        a = QorsNode(memory=MemorySpec(coherence_time=0.7, write_efficiency=0.9,
                                       read_efficiency=0.8, cryogenic_required=True),
                     bsm_success_prob=0.5, bsm_visibility_penalty=0.05,
                     detector_efficiency=0.7)
        b = QorsNode(memory=MemorySpec(coherence_time=0.2, write_efficiency=0.6,
                                       read_efficiency=0.95, cryogenic_required=False),
                     bsm_success_prob=0.8, bsm_visibility_penalty=0.1,
                     detector_efficiency=0.85)
        chain = RepeaterChain(spans=(_span(10.0), _span(20.0), _span(30.0)), nodes=(a, b))
        # Per span: detector, write, front_rate, swap_prob, visibility_penalty,
        # right_decay_rate.
        want = [(1.0, 0.9, 0.0, 1.0, 0.0, 1.0 / 0.7),
                (0.7, 0.6, 1.0 / 0.7, 0.5 * 0.8**2, 0.05, 1.0 / 0.2),
                (0.85, 1.0, 1.0 / 0.2, 0.8 * 0.95**2, 0.1, 0.0)]
        for span, attempt, model, (det, write, *merge) in zip(
                chain.spans, span_attempts(chain), _span_models(chain), want):
            assert attempt.success_probability == write * det * transmittance(span)
            assert [model.front_rate, model.swap_prob, model.visibility_penalty,
                    model.right_decay_rate] == merge

    def test_heralds_whatever_arrives(self):
        # 450 km of O band passes about 1e-16 of the photons.
        span = FiberSpan(length_km=450.0)
        got = span_entanglement_attempt(
            span, detector_efficiency=0.8, memory=MemorySpec(write_efficiency=0.9)
        )
        p, state = oracle_span_attempt(span, 0.8, 0.9)
        assert 0.0 < got.success_probability == pytest.approx(p, rel=1e-12)
        assert np.max(np.abs(bell_diagonal_state(got.bell).matrix - state)) < 1e-12
        with pytest.raises(StateError, match="cannot herald"):
            span_entanglement_attempt(FiberSpan(length_km=9500.0))

    def test_source_pair_is_shared_and_frozen(self):
        pair = source_pair()
        want = pair.matrix.copy()
        for length in np.linspace(0.0, 100.0, 50):
            dense_span_attempt(_span(length=float(length)), 0.7, 1.0)
        assert source_pair() is pair
        assert not pair.matrix.flags.writeable
        np.testing.assert_array_equal(pair.matrix, want)
        vec = np.zeros(6)
        vec[[0, 3]] = 1.0 / np.sqrt(2.0)
        assert np.max(np.abs(pair.matrix - np.outer(vec, vec))) < 1e-16


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
            a, b = bell_diagonal_state(wa), bell_diagonal_state(wb)
            got = entanglement_swap(a, b, node).matrix
            want = oracle_swap(a.matrix, b.matrix, outcomes=(1, 3))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_matches_brute_force_on_random_states(self, rng):
        node = _node()
        for _ in range(10):
            a = random_density_matrix(4, rng)
            b = random_density_matrix(4, rng)
            got = entanglement_swap(a, b, node).matrix
            want = oracle_swap(a.matrix, b.matrix, outcomes=(1, 3))
            assert np.max(np.abs(got - want)) < 1e-12

    def test_werner_multiplication_law(self):
        node = _node()
        for f1 in np.linspace(0.25, 1.0, 6):
            for f2 in np.linspace(0.25, 1.0, 6):
                out = entanglement_swap(werner_state(f1), werner_state(f2), node)
                want = f1 * f2 + (1 - f1) * (1 - f2) / 3
                assert abs(fidelity(out, phi_plus()) - want) < 1e-10

    def test_bell_weights_xor_convolve(self, rng):
        node = _node()
        for _ in range(10):
            wa, wb = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            out = entanglement_swap(bell_diagonal_state(wa), bell_diagonal_state(wb), node)
            got = bell_diagonal_weights(out)
            want = np.zeros(4)
            for i in range(4):
                for j in range(4):
                    want[i ^ j] += wa[i] * wb[j]
            assert np.max(np.abs(got - want)) < 1e-12

    def test_visibility_penalty_dephases(self):
        out = entanglement_swap(phi_plus(), phi_plus(), _node(penalty=0.13))
        assert abs(fidelity(out, phi_plus()) - 0.87) < 1e-12

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
            res = bell_diagonal_state(rng.dirichlet(np.ones(4)))
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


def _grid(p, cycle, tail=1e-18):
    """Atoms and weights of a geometric ready time, listed term by term."""
    k = np.arange(1, math.ceil(math.log(tail) / math.log1p(-p)) + 2)
    return k * cycle, p * np.exp((k - 1) * math.log1p(-p))


def _brute_wait(a, b, r_a, r_b):
    """_expected_wait's three expectations as a double sum over atoms."""
    (ta, wa), (tb, wb) = a, b
    decay_a = decay_b = e_max = 0.0
    for t, w in zip(ta, wa):
        decay_a += w * np.dot(wb, np.exp(-r_a * np.clip(tb - t, 0.0, None)))
        decay_b += w * np.dot(wb, np.exp(-r_b * np.clip(t - tb, 0.0, None)))
        e_max += w * np.dot(wb, np.maximum(t, tb))
    return decay_a, decay_b, e_max


def _sum_over_atoms(a, b, r_a, r_b):
    """_expected_wait's three expectations as b's wait_terms summed over
    all the atoms of a, whichever side has the larger p."""
    x, w = a.atoms()
    return tuple(float(np.dot(w, t)) for t in b.wait_terms(x, r_a, r_b))


def _brute_terms(times, pmf, x, r_a, r_b):
    """wait_terms' three integrands at a point x as sums over atoms."""
    above, below = times > x, times < x
    return (
        np.sum(pmf[~above]) + np.sum(pmf[above] * np.exp(-r_a * (times[above] - x))),
        np.sum(pmf[~below]) + np.sum(pmf[below] * np.exp(-r_b * (x - times[below]))),
        x + np.sum(pmf * np.clip(times - x, 0.0, None)),
    )


# (p, cycle) of the two sides of a merge.
_ORIENTATION_CASES = [
    ((0.31, 1.0), (0.17, 0.5)),        # two geometric times
    ((1.0, 2.4), (0.3, 1.0)),          # a point mass and a geometric time
    ((5e-5, 2e-4), (0.3, 1.3e-4)),     # one side below GEOM_EXACT_MIN_P
]


class TestWaitDistributions:
    def test_grid_moments(self):
        g = _GeomTime(0.23, 1.7e-4)
        times, pmf = g.atoms()
        assert abs(g.mean - 1.7e-4 / 0.23) < 1e-18
        assert abs(np.sum(pmf) - 1.0) < 1e-12
        assert abs(np.dot(pmf, times) - g.mean) < 1e-12 * g.mean
        pt_times, pt_pmf = _GeomTime(1.0, 2.4).atoms()
        assert list(pt_times) == [2.4] and list(pt_pmf) == [1.0]

    def test_grid_terms_match_sums(self):
        g = _GeomTime(0.3, 1.0)
        times, pmf = _grid(0.3, 1.0)
        # Rates with ratio q exp(r_b cycle) below and above 1; points on,
        # between, below and a rounding error past the atoms.
        for x in (0.5, 1.0, 2.0, 2.5, 3.0 * (1.0 + 1e-15), 7.0):
            for r_a, r_b in ((0.0, 0.0), (0.8, 0.8), (0.8, 2.0), (2.0, 0.8)):
                brute = _brute_terms(times, pmf, x, r_a, r_b)
                for got, want in zip(g.wait_terms(x, r_a, r_b), brute):
                    assert abs(got - want) < 1e-12 * max(want, 1.0)

    def test_steep_rates_leave_cdf_and_sf(self):
        # At an infinite r_a only T <= x survives, and at r_b = 1e4 an atom a
        # tenth of a cycle or more below x weighs exp(-1000), 0 in floating
        # point: the first two integrands are P(T <= x) and P(T >= x).
        g = _GeomTime(0.3, 1.0)
        times, pmf = _grid(0.3, 1.0)
        for x in (0.5, 1.0, 2.0, 2.5, 3.0 * (1.0 + 1e-15)):
            sf = g.wait_terms(x, math.inf, 1e4)[1]
            assert abs(sf - float(np.sum(pmf[times >= x * (1 - 1e-12)]))) < 1e-12
        # P(T <= 2) with T geometric on {1, 2, ...}
        cdf = g.wait_terms(2.0, math.inf, 1e4)[0]
        assert abs(cdf - (0.3 + 0.7 * 0.3)) < 1e-12
        assert g.wait_terms(2.5, math.inf, 1e4)[0] == cdf
        # An atom a rounding error past x is a tie on both sides.
        assert g.wait_terms(2.0 * (1.0 - 1e-15), math.inf, 1e4)[:2] == g.wait_terms(
            2.0, math.inf, 1e4)[:2]
        # A tie belongs to both sides: P(T <= x) + P(T >= x) = 1 + P(T = x).
        assert abs(sum(g.wait_terms(2.0, math.inf, 1e4)[:2]) - 1.0 - 0.7 * 0.3) < 1e-12
        pt = _GeomTime(1.0, 2.4)
        assert pt.wait_terms(2.4, math.inf, 1e4)[:2] == (1.0, 1.0)
        assert pt.wait_terms(2.5, math.inf, 1e4)[1] == 0.0

    def test_ties_count_once(self):
        # Each integrand counts a tie once, so the integrands do not jump at
        # an atom.
        g = _GeomTime(0.3, 1.0)
        on_atom = g.wait_terms(2.0, 0.8, 2.0)
        for x in (2.0 * (1.0 - 1e-15), 2.0 * (1.0 + 1e-15)):
            assert np.allclose(g.wait_terms(x, 0.8, 2.0), on_atom, rtol=1e-13, atol=0.0)
        pt = _GeomTime(1.0, 2.4)
        assert pt.wait_terms(2.4, 0.5, 0.5) == (1.0, 1.0, 2.4)
        assert abs(pt.wait_terms(3.0, 0.5, 0.5)[1] - math.exp(-0.3)) < 1e-15

    def test_decay_below_at_degenerate_rate(self):
        # q exp(rate cycle) = 1: each of the m atoms below x weighs
        # p exp(-rate (x - cycle)), and P(T >= x) = q^m.
        g = _GeomTime(0.5, 1.0)
        rate = math.log(2.0)
        assert g.log_q + rate * g.cycle == 0.0
        for x, m in ((5.0, 4), (5.5, 5)):
            want = 0.5**m + m * 0.5 * math.exp(-rate * (x - 1.0))
            assert abs(g.wait_terms(x, 0.0, rate)[1] - want) < 1e-12
            # and the series nearby agrees continuously
            for r in (rate * (1 - 1e-9), rate * (1 + 1e-9)):
                assert abs(g.wait_terms(x, 0.0, r)[1] - want) < 1e-8

    def test_expected_max_of_iid_geometrics(self):
        p, cyc = 0.23, 1.7e-4
        emax = _expected_wait(_GeomTime(p, cyc), _GeomTime(p, cyc), 1.0, 1.0)[2]
        want = cyc * (2.0 / p - 1.0 / (p * (2.0 - p)))
        assert abs(emax - want) < 1e-12 * want

    def test_excess_cross_branches_agree(self):
        g = _GeomTime(0.3, 1.0)
        pt = _GeomTime(1.0, 2.4)
        times, pmf = _grid(0.3, 1.0)
        brute = float(np.sum(pmf * np.clip(times - pt.mean, 0.0, None)))
        assert abs(_expected_wait(pt, g, 0.5, 0.7)[2] - pt.mean - brute) < 1e-12
        brute2 = float(np.sum(pmf * np.clip(pt.mean - times, 0.0, None)))
        assert abs(_sum_over_atoms(g, pt, 0.7, 0.5)[2] - g.mean - brute2) < 1e-12

    def test_wait_decay_brute_force(self):
        # Shared cycles put atoms of both sides on the same times.
        for (p1, c1), (p2, c2) in (((0.31, 1.0), (0.17, 1.0)), ((0.31, 1.0), (0.17, 0.5)),
                                   ((0.31, 1.0), (1.0, 3.0))):
            a, b = _GeomTime(p1, c1), _GeomTime(p2, c2)
            brute = _brute_wait(_grid(p1, c1), _grid(p2, c2) if p2 < 1 else ([c2], [1.0]),
                                0.6, 0.9)
            got = _expected_wait(a, b, 0.6, 0.9)
            assert np.allclose(got, brute, rtol=1e-12, atol=0.0)
            # Summing over the other side's atoms gives the same numbers.
            d_b, d_a, e_max = _sum_over_atoms(b, a, 0.9, 0.6)
            assert np.allclose((d_a, d_b, e_max), brute, rtol=1e-12, atol=0.0)
        g1, g2 = _GeomTime(0.31, 1.0), _GeomTime(0.17, 1.0)
        assert abs(_expected_wait(g1, g2, 0.0, 0.0)[0] - 1.0) < 1e-15

    @pytest.mark.parametrize("a, b", _ORIENTATION_CASES)
    def test_merge_orientation_is_symmetric(self, a, b):
        # _expected_wait picks the summed side itself, so exchanging the
        # sides exchanges the two decay terms, bit for bit.
        a, b = _GeomTime(*a), _GeomTime(*b)
        d_a, d_b, e_max = _expected_wait(a, b, 0.6, 0.9)
        assert _expected_wait(b, a, 0.9, 0.6) == (d_b, d_a, e_max)

    def test_tiny_span_next_to_coarse_span_is_exact(self):
        # A span below GEOM_EXACT_MIN_P next to a coarse one: the coarse side
        # carries the atoms and nothing is approximated.
        tiny, coarse = (5e-5, 2e-4), (0.3, 1.3e-4)
        r_tiny, r_coarse = 0.7, 0.4
        got = _expected_wait(_GeomTime(*coarse), _GeomTime(*tiny), r_coarse, r_tiny)
        brute = _brute_wait(_grid(*coarse), _grid(*tiny), r_coarse, r_tiny)
        assert np.allclose(got, brute, rtol=1e-12, atol=0.0)

    def test_coarsened_atoms_agree_with_fine_grid(self):
        # Both sides below GEOM_EXACT_MIN_P: the atom side is coarsened to it
        # at the same mean. The fine grid sums over all its own atoms.
        a, b = _GeomTime(5e-5, 1e-3), _GeomTime(3e-5, 1.3e-3)
        r_a, r_b = 0.3 / a.mean, 0.5 / b.mean
        fine = _sum_over_atoms(a, b, r_a, r_b)
        got = _expected_wait(a, b, r_a, r_b)
        assert np.allclose(got, fine, rtol=1e-3, atol=0.0)
        assert not np.allclose(got, fine, rtol=1e-12, atol=0.0)


@st.composite
def _wait_case(draw, arrays=False):
    """A ready time b, a point x and two decay rates. Points fall on an
    atom of b, within 1e-12 of one, below the first (down to 1e-9 cycles)
    or anywhere; with arrays, x may be an array of 1 to 6 such points.
    Rates are zero, arbitrary, or r_b with q exp(r_b cycle) = 1 exactly (a
    cycle that is a power of two keeps r_b cycle = -log q in floating
    point)."""
    p = draw(st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=1.0)))
    rate_kind = draw(st.sampled_from(["zero", "any", "degenerate"] if p < 1.0 else ["zero", "any"]))
    if rate_kind == "degenerate":
        cycle = 2.0 ** -draw(st.integers(min_value=7, max_value=20))
    else:
        cycle = draw(st.floats(min_value=1e-6, max_value=1e-2))
    b = _GeomTime(p, cycle)

    def point():
        k = draw(st.integers(min_value=1, max_value=60))
        where = draw(st.sampled_from(["atom", "near", "below", "any"]))
        if where == "atom":
            return k * cycle
        if where == "near":
            return k * cycle * (1.0 + draw(st.floats(min_value=-1e-12, max_value=1e-12)))
        if where == "below":
            return cycle * draw(st.floats(min_value=1e-9, max_value=1.0, exclude_max=True))
        return cycle * draw(st.floats(min_value=1e-9, max_value=80.0))

    if arrays and draw(st.booleans()):
        x = np.array([point() for _ in range(draw(st.integers(min_value=1, max_value=6)))])
    else:
        x = point()
    rates = st.floats(min_value=0.0, max_value=1e4)
    if rate_kind == "zero":
        r_a = r_b = 0.0
    elif rate_kind == "any":
        r_a, r_b = draw(rates), draw(rates)
    else:
        r_a, r_b = draw(rates), -b.log_q / cycle
        assert b.log_q + r_b * cycle == 0.0
    return b, x, r_a, r_b


class TestFusedWaitTerms:
    """_GeomTime.wait_terms keeps the bits of the five closed forms it folds
    (reference_wait_terms), and the point-mass merge those of an atom
    array."""

    @settings(deadline=None)
    @given(_wait_case(arrays=True))
    # Points a rounding error past an atom, where m's tie tolerance matters.
    @example((_GeomTime(0.3, 1.0), 3.0 * (1.0 + 1e-15), 0.8, 2.0))
    @example((_GeomTime(1.0, 1e-3), np.array([1e-3 * (1.0 + 1e-13), 1e-12]), 5.0, 5.0))
    # q exp(r_b cycle) = 1, where the decay-below series is m terms of one size.
    @example((_GeomTime(0.5, 2.0**-10), 5.5 * 2.0**-10, 0.0, math.log(2.0) * 2.0**10))
    def test_terms_keep_the_reference_bits(self, case):
        b, x, r_a, r_b = case
        got = b.wait_terms(x, r_a, r_b)
        want = reference_wait_terms(b, x, r_a, r_b)
        for g, w in zip(got, want, strict=True):
            assert np.shape(g) == np.shape(x)
            assert np.array_equal(g, w)

    @settings(deadline=None)
    @given(_wait_case())
    def test_float_point_matches_one_atom_array(self, case):
        b, x, r_a, r_b = case
        xs = np.array([x])
        assert b.wait_terms(x, r_a, r_b) == tuple(t[0] for t in b.wait_terms(xs, r_a, r_b))

    @settings(deadline=None)
    @given(_wait_case())
    def test_point_mass_side_builds_no_atoms(self, case):
        b, x, r_a, r_b = case
        a = _GeomTime(1.0, x)
        times, weights = a.atoms()
        want = tuple(np.dot(weights, t) for t in b.wait_terms(times, r_a, r_b))
        with mock.patch.object(_GeomTime, "atoms", side_effect=AssertionError("atoms built")):
            got = _expected_wait(a, b, r_a, r_b)
        assert got == tuple(float(v) for v in want)


@st.composite
def _weight_stacks(draw):
    """Two stacks of weight vectors (a single vector is a stack of shape
    (4,)); b has a's shape or is one vector, broadcast against a's rows."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, max_side=7)) + (4,)
    unit = st.floats(min_value=0.0, max_value=1.0)
    a = draw(hnp.arrays(np.float64, shape, elements=unit))
    b = draw(hnp.arrays(np.float64, draw(st.sampled_from([shape, (4,)])), elements=unit))
    return a, b, draw(unit)


@st.composite
def _pair_chains(draw):
    """Chains of 1-7 spans of up to 60 km over both bands, with random
    dephasing and drift, background noise on or off for the whole chain,
    and nodes with random coherence times, efficiencies and visibility
    penalties (0 on some)."""
    n = draw(st.integers(1, 7))
    noisy = draw(st.booleans())
    spans = tuple(
        FiberSpan(
            length_km=draw(st.floats(0.0, 60.0)),
            quantum_band=draw(st.sampled_from([O_BAND, C_BAND])),
            dephasing_p=draw(st.floats(0.0, 0.3)),
            sop_drift_rate=draw(st.floats(0.0, 2.0)),
            sop_recalibration_interval=draw(st.floats(0.0, 1.5)),
            coexistence_noise_prob=draw(st.floats(1e-7, 1e-3)) if noisy else 0.0,
        )
        for _ in range(n)
    )
    nodes = tuple(
        _node(draw(st.floats(1e-3, 1.0)), write=draw(st.floats(0.1, 1.0)),
              read=draw(st.floats(0.5, 1.0)), det=draw(st.floats(0.1, 1.0)),
              penalty=draw(st.sampled_from([0.0, 0.02]) | st.floats(0.0, 0.5)))
        for _ in range(n - 1)
    )
    return RepeaterChain(spans=spans, nodes=nodes, attempt_rate=1e6)


def _reference_ready_bells(chain):
    """Each span's Bell weights at ready time as in _span_models, through
    the numpy references: the attempt's closed form (span_entanglement_attempt)
    and then the decay of its qubits before it is ready, the left one for one
    one-way delay, the right one for a round trip."""
    out = []
    last = len(chain.spans) - 1
    for i, span in enumerate(chain.spans):
        left = chain.nodes[i - 1] if i > 0 else None
        right = chain.nodes[i] if i < last else None
        write = right.memory.write_efficiency if right else 1.0
        p = write * (left.detector_efficiency if left else 1.0) * transmittance(span)
        half = span.sop_drift_rate * span.sop_recalibration_interval / 2.0
        s = math.sin(half) ** 2 / 3.0
        bell = reference_bell_dephase(np.array([math.cos(half) ** 2, s, s, s]),
                                      span.dephasing_p)
        noise = span.coexistence_noise_prob
        if noise > 0.0:
            bell = reference_bell_decay(bell, 1.0 - noise / (p + noise))
        one_way = photon_dwell_time(span)
        left_rate = 1.0 / left.memory.coherence_time if left else 0.0
        right_rate = 1.0 / right.memory.coherence_time if right else 0.0
        out.append(reference_bell_decay(
            bell, math.exp(-(left_rate * one_way + right_rate * 2.0 * one_way))))
    return out


def _assert_rows_match_references(a, b, p):
    """The four-float steps on every row of stack a (against b's matching
    row, or b itself when it is one vector) give the numpy references'
    bits on the whole stack, row for row."""
    convolved = reference_bell_convolve(a, b)
    dephased = reference_bell_dephase(a, p)
    decayed = reference_bell_decay(a, p)
    for idx in np.ndindex(a.shape[:-1]):
        row = a[idx].tolist()
        right = (b[idx] if b.ndim == a.ndim else b).tolist()
        assert np.array_equal(bell_convolve(row, right), convolved[idx])
        assert np.array_equal(bell_dephase(row, p), dephased[idx])
        assert np.array_equal(bell_decay(row, p), decayed[idx])


class TestBellVectorAlgebra:
    @given(_weight_stacks())
    def test_kernels_match_reference_bits(self, case):
        _assert_rows_match_references(*case)

    def test_kernels_match_reference_bits_on_engine_stacks(self, rng):
        a = rng.dirichlet(np.ones(4), size=(50, 7))
        b = rng.dirichlet(np.ones(4), size=(50, 7))
        for right in (b, b[0, 0]):
            for p in rng.uniform(0.0, 1.0, 5):
                _assert_rows_match_references(a, right, float(p))

    def test_kernels_take_one_pair_as_four_floats(self, rng):
        a, b = rng.dirichlet(np.ones(4), size=2)
        for out in (bell_decay(a, 0.9), bell_dephase(a, 0.1), bell_convolve(a, b),
                    bell_decay(a.tolist(), 0.9), bell_convolve(tuple(a), list(b))):
            assert isinstance(out, tuple) and len(out) == 4

    def test_decay_preserves_normalization(self, rng):
        w = rng.dirichlet(np.ones(4))
        out = bell_decay(w, 0.73)
        assert abs(np.sum(out) - 1.0) < 1e-12
        assert abs(out[0] - (0.73 * w[0] + 0.27 / 4)) < 1e-12

    def test_dephase_swaps_phase_pairs(self):
        w = np.array([0.6, 0.2, 0.15, 0.05])
        out = bell_dephase(w, 1.0)
        assert np.array_equal(out, w[[2, 3, 0, 1]])

    def test_convolve_is_commutative_with_identity(self, rng):
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        assert np.max(np.abs(np.subtract(bell_convolve(a, b), bell_convolve(b, a)))) < 1e-15
        e = np.array([1.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(np.subtract(bell_convolve(a, e), a))) < 1e-15

    def test_decay_matches_memory_decay(self):
        lam = math.exp(-0.2)
        w = np.array([0.7, 0.1, 0.1, 0.1])
        direct = np.array(bell_decay(w, lam))
        via_state = bell_diagonal_weights(
            memory_decay(bell_diagonal_state(w), 0.2, MemorySpec(coherence_time=1.0), qubit=0)
        )
        assert np.max(np.abs(direct - via_state)) < 1e-12

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_pair_chains())
    def test_engine_fold_matches_reference_fold_bits(self, chain):
        # Every ready state, the folded pair and the analytic result, worked
        # in four floats, carry the bits of the same fold through the numpy
        # references, signed zeros included.
        import qorsim.repeater as repeater

        ready = _reference_ready_bells(chain)
        models = _span_models(chain)
        for model, want in zip(models, ready):
            assert np.array(model.ready_bell).tobytes() == want.tobytes()
        c = ready[0]
        for node, right in zip(chain.nodes, ready[1:]):
            c = reference_bell_convolve(
                reference_bell_dephase(c, node.bsm_visibility_penalty), right)
        assert np.array(_folded_bell(models)).tobytes() == c.tobytes()
        with mock.patch.object(repeater, "_end_to_end", wraps=repeater._end_to_end) as spy:
            res = simulate_chain_analytic(chain)
        lam = spy.call_args.args[1]
        assert type(res.bell) is tuple and all(type(w) is float for w in res.bell)
        assert np.array(res.bell).tobytes() == reference_bell_decay(c, lam).tobytes()


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("make, error", [
        (lambda x: FiberSpec("T", {"O": x}), FiberConfigError),
        (lambda x: FiberSpec("T", {"O": 0.35}, group_index=x), FiberConfigError),
        (lambda x: FiberSpan(x), FiberConfigError),
        (lambda x: FiberSpan(1.0, sop_drift_rate=x), FiberConfigError),
        (lambda x: FiberSpan(1.0, sop_recalibration_interval=x), FiberConfigError),
        (lambda x: FiberSpan(1.0, mux_insertion_loss_db=x), FiberConfigError),
        (lambda x: MemorySpec(coherence_time=x), StateError),
        (lambda x: RepeaterChain(spans=(_span(),), attempt_rate=x), StateError),
        (lambda x: RepeaterChain(spans=(_span(),), memory_cutoff=x), StateError),
        (lambda x: OneWayRepeaterSpec(loss_threshold_db=x), StateError),
        (lambda x: qec_max_span(x, 3.0), StateError),
        (lambda x: qec_max_span(0.35, x), StateError),
        (lambda x: qec_max_span(0.35, 3.0, x), StateError),
    ], ids=[
        "fiber-attenuation", "fiber-group-index", "span-length",
        "span-drift-rate", "span-recalibration", "span-insertion-loss",
        "memory-coherence", "chain-attempt-rate", "chain-cutoff",
        "one-way-threshold", "qec-attenuation", "qec-threshold",
        "qec-fixed-losses",
    ])
    def test_constructors_reject_non_finite(self, make, error, bad):
        # A NaN cutoff would otherwise run as if there were no cutoff.
        with pytest.raises(error, match="inf"):
            make(bad)

    def test_decay_rate_must_stay_finite(self):
        # A waiting span pair decays at two nodes' rates, 2 / coherence_time.
        MemorySpec(coherence_time=1.2e-308)
        # Numpy scalars too: the quotient is formed in Python floats, so
        # numpy does not warn before the check raises.
        for t in (1e-308, 1e-310, 5e-324, np.float64(1e-310), np.float64(5e-324)):
            with pytest.raises(StateError, match=re.escape(f"coherence_time {t!r} outside")):
                MemorySpec(coherence_time=t)

    def test_overflowing_decay_rate_fails_both_engines(self):
        # A memory past MemorySpec's check decays at rate inf. In Monte
        # Carlo a zero wait (equal spans tie often) makes its decay exponent
        # inf * 0; the analytic engine gives the fully decayed pair.
        memory = MemorySpec()
        object.__setattr__(memory, "coherence_time", 1e-310)
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(QorsNode(memory=memory),),
                              attempt_rate=1e6, memory_cutoff=1.0)
        with pytest.raises(StateError, match="invalid Bell weights"):
            simulate_chain_mc(chain, trials=200, seed=1)
        assert simulate_chain_analytic(chain).fidelity == 0.25

    @pytest.mark.parametrize("penalty", [-0.1, 1.5, math.nan])
    def test_node_visibility_penalty_range(self, penalty):
        with pytest.raises(StateError, match="bsm_visibility_penalty"):
            QorsNode(bsm_visibility_penalty=penalty)


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
        # At this count the means once differed in the last digits when
        # summed in column order.
        trials = 10000
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
            assert np.array_equal(a.bell, other.bell)

    def test_pool_has_at_most_one_process_per_cpu(self, monkeypatch):
        # A process pool starts all its processes at once; an in-process
        # stand-in records the size asked for and runs the ranges in order.
        import concurrent.futures

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        wide = simulate_chain_mc(chain, trials=4 * 64, seed=5, workers=64)
        assert sizes and sizes[0] <= (os.cpu_count() or 1)
        narrow = simulate_chain_mc(chain, trials=4 * 64, seed=5, workers=1)
        for field in dataclasses.fields(EndToEndResult):
            assert np.array_equal(getattr(wide, field.name), getattr(narrow, field.name))

    def test_latency_statistics_are_the_plain_formulas(self):
        # The engine scales times by a power of two so that waits near the
        # heralding floor do not overflow; on ordinary waits the results are
        # the unscaled formulas to the last bit.
        chain = RepeaterChain(spans=(_span(), _span(40.0)), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        for trials, seed in ((3000, 5), (1, 6), (777, 7)):
            res = simulate_chain_mc(chain, trials=trials, seed=seed)
            times, _ = _run_trial_range(_span_models(chain), chain.memory_cutoff, seed, 0, trials)
            mean_t = float(times.mean())
            t_se = float(times.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
            assert res.mean_latency_s == mean_t
            assert res.pair_rate_hz == 1.0 / mean_t
            assert res.rate_stderr == t_se / mean_t**2

    def test_trials_do_not_depend_on_the_run_length(self):
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        models = _span_models(chain)
        short_t, short_x = _run_trial_range(models, chain.memory_cutoff, 5, 0, 2148)
        long_t, long_x = _run_trial_range(models, chain.memory_cutoff, 5, 0, 4133)
        assert np.array_equal(short_t, long_t[:2148])
        assert np.array_equal(short_x, long_x[:2148])
        tail_t, _ = _run_trial_range(models, chain.memory_cutoff, 5, 2018, 2148)
        assert np.array_equal(tail_t, short_t[2018:])

    def test_grouped_runs_do_not_change_results(self):
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        models = _span_models(chain)
        group = MC_GROUP
        hi = 2 * group + 37
        whole_t, whole_x = _run_trial_range(models, chain.memory_cutoff, 5, 0, hi)
        # Cut on group boundaries and between them, so the parts' groups
        # start at other trials than the whole run's.
        cuts = [0, 1000, 6144, group, group + 2059, 2 * group, hi]
        parts = [_run_trial_range(models, chain.memory_cutoff, 5, a, b)
                 for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(whole_t, np.concatenate([t for t, _ in parts]))
        assert np.array_equal(whole_x, np.concatenate([x for _, x in parts]))

    def test_numpy_integer_bounds(self):
        # Worker ranges come from np.linspace; the groups and the stream's
        # counters are built from them.
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        models = _span_models(chain)
        lo, hi = 1948, MC_GROUP + 100
        want_t, want_x = _run_trial_range(models, chain.memory_cutoff, 5, lo, hi)
        got_t, got_x = _run_trial_range(models, chain.memory_cutoff, 5, np.int64(lo), np.int64(hi))
        assert np.array_equal(want_t, got_t)
        assert np.array_equal(want_x, got_x)

    def test_group_memory_is_its_per_trial_arrays(self):
        # The stream holds one 8-byte state per trial, and the decay one
        # exponent, whatever the span count. A full group's peak is its
        # per-trial arrays (results, stream states, frames and their
        # temporaries): under 24 float64 words per trial at 2 and at 5
        # spans, less than the 32 buffered uniforms (256 B) per trial a
        # chunked stream held.
        def peak(n_spans, trials):
            chain = RepeaterChain(spans=(_span(),) * n_spans, nodes=(_node(),) * (n_spans - 1),
                                  attempt_rate=1e6, memory_cutoff=1.0)
            models = _span_models(chain)
            tracemalloc.start()
            try:
                _run_trial_range(models, chain.memory_cutoff, 3, 0, trials)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for n_spans in (2, 5):
            assert peak(n_spans, MC_GROUP) < MC_GROUP * 24 * 8
        # A longer run keeps two words per trial, the ready time and the
        # decay exponent, plus one group's working set at a time: about 6
        # words per trial over three groups.
        assert peak(2, 3 * MC_GROUP) < 3 * MC_GROUP * 7 * 8

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

    def test_work_budget_names_the_mean_span_wait(self, tmp_path):
        # A 1 s cutoff is 340 span cycles, but each 300 km span waits about
        # 1.5e8 s on average for its pair.
        from qorsim.planner import build_chain, load_route

        chain = build_chain(load_route(write_route(tmp_path, [0.0, 300.0, 600.0])))
        with pytest.raises(StateError, match="mean span wait of up to 1.46e\\+08 s"):
            simulate_chain_mc(chain, trials=2, seed=42)

    def test_one_stream_call_per_pass(self, monkeypatch):
        # Two spans whose cutoff never binds: a pass's one stream call takes
        # both span draws and the swap draw of every unfinished trial, so
        # pass p carries the trials that have failed p - 1 swaps. The
        # oracle finds each trial's swap count from its draws 2, 5, 8, ...
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(),),
                              attempt_rate=1e6, memory_cutoff=1.0)
        calls = []
        draws = _TrialStream.draws

        def counted(stream, idx, k=1):
            calls.append((k, len(idx)))
            return draws(stream, idx, k)

        monkeypatch.setattr(_TrialStream, "draws", counted)
        models = _span_models(chain)
        seed, trials = 8, 10000
        _run_trial_range(models, chain.memory_cutoff, seed, 0, trials)
        q = models[1].swap_prob
        swaps = []
        for i in range(trials):
            n = 1
            while oracle_splitmix_uniform(seed, i, 3 * n - 1) >= q:
                n += 1
            swaps.append(n)
        passes = max(swaps)
        assert passes > 5
        assert calls == [(3, sum(n >= p for n in swaps)) for p in range(1, passes + 1)]

    def test_long_chain_memory_is_bounded(self):
        # Seven spans: the slowest trials draw thousands of uniforms each,
        # and each trial's stream holds none of them.
        chain = RepeaterChain(spans=(_span(),) * 7, nodes=(_node(),) * 6,
                              attempt_rate=1e6, memory_cutoff=1.0)
        models = _span_models(chain)
        tracemalloc.start()
        try:
            _run_trial_range(models, chain.memory_cutoff, 3, 0, 8)
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
        # The mean Bell weights make a valid dense state.
        state = bell_diagonal_state(res.bell)
        assert np.max(np.abs(bell_diagonal_weights(state) - res.bell)) < 1e-15
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

    @pytest.mark.parametrize("kw", [
        {"trials": 10.5}, {"trials": True}, {"trials": 10.0}, {"trials": "10"},
        {"trials": np.float64(10.0)}, {"trials": None},
        {"workers": 2.5}, {"workers": True}, {"workers": 2.0}, {"workers": "2"},
    ])
    def test_trials_and_workers_must_be_integers(self, kw):
        # A float count would run floor(trials) trials while the result
        # and its standard errors used the float.
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(),), attempt_rate=1e6)
        args = {"trials": 10, "workers": 1, **kw}
        with pytest.raises(StateError, match="must be a positive integer"):
            simulate_chain_mc(chain, seed=7, **args)

    def test_trial_indices_fit_the_counter(self):
        # Trial i owns counters (i << 32) + 1 onward, so 2**32 trials fit
        # in 64 bits and one more would alias. Raised before any allocation.
        chain = RepeaterChain(spans=(_span(),))
        with pytest.raises(StateError, match="at most 4294967296 trials"):
            simulate_chain_mc(chain, trials=2**32 + 1)

    def test_bell_is_the_pairwise_mean_of_each_weight(self):
        # The result decays c by lam's mean; it is the mean of the trials'
        # delivered pairs, and its fidelity's standard error theirs. The
        # spans wait 1-1.4 ms on average: a 50 ms cutoff rarely binds,
        # a 1 ms one often does.
        trials = 5000
        for n_spans, cutoff in ((1, 0.05), (2, 0.05), (3, 0.05), (5, 0.05), (2, 1e-3)):
            chain = RepeaterChain(spans=(_span(),) * n_spans, nodes=(_node(0.01),) * (n_spans - 1),
                                  attempt_rate=1e6, memory_cutoff=cutoff)
            res = simulate_chain_mc(chain, trials=trials, seed=4)
            assert res.bell[0] == res.fidelity
            models = _span_models(chain)
            _, exponent = _run_trial_range(models, chain.memory_cutoff, 4, 0, trials)
            bells = reference_bell_decay(np.array(_folded_bell(models))[:, None],
                                         np.exp(-exponent))
            for g in range(4):
                assert abs(res.bell[g] - math.fsum(bells[g]) / trials) < 1e-15
            se = bells[0].std(ddof=1) / math.sqrt(trials)
            assert abs(res.fidelity_stderr - se) <= 1e-12 * se

    def test_one_trial_plan_raises_no_warnings(self, tmp_path):
        # The stream's uint64 arithmetic wraps by design; it must do so on
        # arrays, where numpy does not warn about overflow.
        from qorsim.planner import load_route, run_plan

        route = load_route(write_route(tmp_path, [0.0, 25.0, 50.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_plan(route, "entanglement", trials=1, seed=7)
        assert report["provenance"]["trials"] == 1

    @pytest.mark.parametrize("seed", [-1, -5, 2.5, "3", True, None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(),), attempt_rate=1e6)
        with pytest.raises(StateError, match="seed must be a non-negative integer"):
            simulate_chain_mc(chain, trials=10, seed=seed)

    def test_numpy_integer_seed(self):
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(),), attempt_rate=1e6)
        want = simulate_chain_mc(chain, trials=50, seed=7)
        got = simulate_chain_mc(chain, trials=50, seed=np.int64(7))
        assert got.mean_latency_s == want.mean_latency_s
        assert np.array_equal(got.bell, want.bell)
        # Numpy integer trial and worker counts are accepted too.
        got = simulate_chain_mc(chain, trials=np.int64(50), seed=7, workers=np.int32(1))
        assert got.trials == 50
        assert got.mean_latency_s == want.mean_latency_s
        assert np.array_equal(got.bell, want.bell)


def _dense_inputs(chain):
    """oracle_chain_trial's span and node tuples for a chain: each span's
    success probability from span_entanglement_attempt, its heralded state
    from oracle_span_attempt, and the pre-ready memory decay applied by the
    oracle's own depolarizer."""
    n = len(chain.spans)
    spans = []
    for i, span in enumerate(chain.spans):
        left = chain.nodes[i - 1] if i > 0 else None
        right = chain.nodes[i] if i < n - 1 else None
        det = left.detector_efficiency if left else 1.0
        attempt = span_entanglement_attempt(
            span, detector_efficiency=det, memory=right.memory if right else None
        )
        _, rho = oracle_span_attempt(span, det, right.memory.write_efficiency if right else 1.0)
        one_way = photon_dwell_time(span)
        left_rate = 1.0 / left.memory.coherence_time if left else 0.0
        right_rate = 1.0 / right.memory.coherence_time if right else 0.0
        rho = oracle_depolarize(rho, 0, math.exp(-left_rate * one_way))
        rho = oracle_depolarize(rho, 1, math.exp(-right_rate * 2.0 * one_way))
        spans.append((attempt.success_probability, 1.0 / chain.attempt_rate + 2.0 * one_way,
                      one_way, rho, right_rate))
    nodes = [(nd.bsm_success_prob * nd.memory.read_efficiency**2,
              1.0 / nd.memory.coherence_time, nd.bsm_visibility_penalty)
             for nd in chain.nodes]
    return spans, nodes


class _OracleTrial:
    """Trial ``index``'s uniforms from oracle_splitmix_uniform, in order;
    geometric counts by inversion."""

    def __init__(self, seed, index):
        self._seed, self._index, self._draws = seed, index, 0

    def random(self):
        u = oracle_splitmix_uniform(self._seed, self._index, self._draws)
        self._draws += 1
        return u

    def geometric(self, p):
        # One draw per generation; success 1 takes the first attempt.
        u = self.random()
        return 1 if p == 1.0 else 1 + math.floor(np.log1p(-u) / math.log1p(-p))


class TestTrialStream:
    """The counter-based stream against the scalar SplitMix64 oracle, the
    generator's published outputs, its range guard and a statistical
    sanity check."""

    @pytest.mark.parametrize("lo, count, sets", [
        (0, 4096, [[10, 11, 12], [40, 47, 70], [200, 1500, 2051], [2078, 4095]]),
        # The last trials a run may hold: their counters use the top bits.
        (2**32 - 120, 120, [[0, 1, 2], [5, 12, 30], [38, 39, 41], [60, 119]]),
    ], ids=["first-trials", "last-trials"])
    def test_uniforms_match_the_oracle(self, lo, count, sets):
        # Rows are read in lockstep sets at different paces, so each call
        # takes trials at different draw counts.
        seed = 13
        stream = _TrialStream(_stream_key(seed), lo, count)
        draws = {j: 0 for rows in sets for j in rows}
        pace = np.random.default_rng(3)
        for _ in range(100):
            idx = np.sort([j for rows in sets if pace.random() < 0.7 for j in rows])
            if not idx.size:
                continue
            want = [oracle_splitmix_uniform(seed, lo + j, draws[j]) for j in idx.tolist()]
            assert np.array_equal(stream.draws(idx)[0], want)
            for j in idx.tolist():
                draws[j] += 1
        assert min(draws.values()) > 50

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_draws_match_the_oracle(self, k):
        # Each call takes k draws from a random subset of trials, so calls
        # take trials at different draw counts. Some trials then give their
        # last draw back and draw again: they read that value first.
        seed, lo, count = 21, 4000, 48
        stream = _TrialStream(_stream_key(seed), lo, count)
        draws = np.zeros(count, dtype=int)
        pace = np.random.default_rng(k)

        def take(idx):
            got = stream.draws(idx, k)
            want = [[oracle_splitmix_uniform(seed, lo + j, int(draws[j]) + r) for j in idx.tolist()]
                    for r in range(k)]
            assert got.shape == (k, len(idx))
            assert np.array_equal(got, want)
            draws[idx] += k
            return got

        for _ in range(40):
            idx = np.sort(pace.choice(count, size=int(pace.integers(1, count)), replace=False))
            got = take(idx)
            keep = pace.random(len(idx)) < 0.4
            stream.give_back(idx[keep])
            draws[idx[keep]] -= 1
            again = take(idx[keep])
            assert np.array_equal(again[0], got[-1][keep])
        assert draws.min() > 10

    def test_reference_outputs(self):
        # The first outputs of Vigna's splitmix64.c seeded with 1234567.
        want = [6457827717110365317, 3203168211198807973, 9817491932198370423]
        assert [oracle_splitmix64(1234567, n) for n in (1, 2, 3)] == want
        # The engine's stream with that key: trial 0 reads outputs 1, 2, 3.
        stream = _TrialStream(1234567, 0, 1)
        got = [stream.draws(np.array([0]))[0, 0] for _ in want]
        assert got == [(z >> 11) * 2.0**-53 for z in want]

    @pytest.mark.parametrize("seed", [
        0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 1, 2**200 + 3,
        np.int64(7), np.uint32(2**32 - 1), np.uint64(2**64 - 1),
    ])
    def test_key_is_the_oracle_fold(self, seed):
        got = _stream_key(seed)
        assert type(got) is np.uint64 and got == oracle_key(int(seed))

    @settings(deadline=None)
    @given(st.integers(min_value=0, max_value=2**300))
    def test_key_matches_the_oracle(self, seed):
        assert _stream_key(seed) == oracle_key(seed)

    def test_small_seeds_give_distinct_keys(self):
        # Below 2**64 the key is SplitMix64 output number seed + 1 from
        # state 0, a bijection of the counter.
        keys = {int(_stream_key(seed)) for seed in range(2**16 + 1)}
        assert len(keys) == 2**16 + 1
        assert int(_stream_key(0)) == oracle_splitmix64(0, 1)

    def test_draw_count_guard(self):
        # A call draws at most once per trial, so the call count bounds every
        # trial's draw index; it stops before reaching the next trial's.
        stream = _TrialStream(_stream_key(5), 0, 3)
        idx = np.arange(3)
        stream._calls = 2**32 - 3
        stream.draws(idx)
        stream.draws(idx)
        with pytest.raises(StateError, match="at most 4294967295 uniforms"):
            stream.draws(idx)

    def test_draws_look_uniform_and_independent(self):
        # 256 trials x 256 draws: u[j, i] is draw j of trial i, 2**16 values.
        stream = _TrialStream(_stream_key(2024), 0, 256)
        idx = np.arange(256)
        u = np.array([stream.draws(idx)[0] for _ in range(256)])
        counts = np.bincount((u * 64).astype(int).ravel(), minlength=64)
        expected = u.size / 64
        # Chi-squared with 63 degrees of freedom: mean 63, sd 11.2.
        assert ((counts - expected) ** 2 / expected).sum() < 120
        # Neighbouring trials (i, j), (i + 1, j); successive draws (i, j),
        # (i, j + 1).
        for a, b in ((u[:, :-1], u[:, 1:]), (u[:-1], u[1:])):
            r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            assert abs(r) < 4.0 / math.sqrt(a.size)


class TestBellEngineAgainstDenseOracle:
    """The batched Bell-weight Monte Carlo engine against the dense-state
    protocol run one trial at a time on the same draws, from the scalar
    stream oracle. Each run starts at a trial other than 0."""

    @pytest.mark.parametrize("n_spans, cutoff, coherence, penalty, trials", [
        (2, 1.0, 1.0, 0.0, 300),
        (3, 1.0, 1.0, 0.0, 80),
        (5, 1.0, 1.0, 0.0, 15),
        (2, 2e-4, 0.01, 0.0, 300),    # cutoff binds: mean span wait ~1.7 ms
        (3, 5e-4, 0.05, 0.07, 60),
        (2, 1.0, 1.0, 0.2, 300),
        (1, 1.0, 1.0, 0.0, 300),      # a single span: no node, no swap draw
        (5, 2e-3, 0.05, 0.0, 10),     # frames race above node 0
        # Span lengths in km; a 0 km span heralds at its first attempt.
        pytest.param((0.0, 20.0, 20.0), 2e-4, 0.01, 0.0, 40, id="certain-first-span"),
        pytest.param((20.0, 0.0, 20.0), 2e-4, 0.01, 0.0, 40, id="certain-second-span"),
    ])
    def test_same_times_and_states(self, n_spans, cutoff, coherence, penalty, trials):
        lengths = (20.0,) * n_spans if isinstance(n_spans, int) else n_spans
        # A 0 km span is lossless, and the nodes at its ends write and
        # detect its photons with certainty.
        chain = RepeaterChain(
            spans=tuple(_span(km, O_BAND) if km else FiberSpan(length_km=0.0) for km in lengths),
            nodes=tuple(_node(coherence, penalty=penalty, write=0.9 if lengths[j] else 1.0,
                              det=0.8 if lengths[j + 1] else 1.0)
                        for j in range(len(lengths) - 1)),
            attempt_rate=1e6, memory_cutoff=cutoff,
        )
        seed = 11
        lo = 2048 - trials // 2
        hi = lo + trials
        models = _span_models(chain)
        times, exponent = _run_trial_range(models, chain.memory_cutoff, seed, lo, hi)
        bells = reference_bell_decay(np.array(_folded_bell(models))[:, None],
                                     np.exp(-exponent))
        spans, nodes = _dense_inputs(chain)
        for i in range(lo, hi):
            t, rho = oracle_chain_trial(spans, nodes, cutoff, _OracleTrial(seed, i))
            assert t == times[i - lo]
            want = bell_diagonal_weights(DensityMatrix(rho))
            assert np.max(np.abs(want - bells[:, i - lo])) < 1e-12
        if cutoff < 1.0:
            loose = dataclasses.replace(chain, memory_cutoff=1.0)
            free, _ = _run_trial_range(_span_models(loose), loose.memory_cutoff, seed, lo, hi)
            assert np.any(free != times)

    @pytest.mark.parametrize("n_spans", [2, 3, 4, 5, 6])
    def test_closed_form_fold_matches_per_node_fold(self, n_spans):
        # Random ready states, coherence times (so the frontier and span
        # rates differ at every node but the last), penalties and waits.
        rng = np.random.default_rng(100 + n_spans)
        nodes = tuple(
            _node(float(rng.uniform(1e-3, 1.0)), penalty=float(rng.uniform(0.0, 0.5)))
            for _ in range(n_spans - 1)
        )
        models = []
        for i in range(n_spans):
            left = nodes[i - 1] if i > 0 else None
            front_rate = 1.0 / left.memory.coherence_time if left else 0.0
            right_rate = 1.0 / nodes[i].memory.coherence_time if i < n_spans - 1 else 0.0
            models.append(_SpanModel(
                ready=_GeomTime(0.1, 1e-5),
                ready_bell=rng.dirichlet([20.0, 1.0, 1.0, 1.0]),
                right_decay_rate=right_rate, front_rate=front_rate,
                span_rate=front_rate + right_rate, swap_prob=0.5,
                visibility_penalty=left.bsm_visibility_penalty if left else 0.0,
                notify_s=1e-4,
            ))
        waits = rng.exponential(rng.uniform(1e-4, 0.3, 2 * (n_spans - 1)),
                                (500, 2 * (n_spans - 1)))
        # The engine's closed form: the folded pair decayed by the waits
        # times the models' rates, frontier then span at each node.
        exponent = np.zeros(len(waits))
        for j, m in enumerate(models[1:]):
            exponent = (exponent + m.front_rate * waits[:, 2 * j]) + m.span_rate * waits[:, 2 * j + 1]
        got = reference_bell_decay(np.array(_folded_bell(models))[:, None],
                                   np.exp(-exponent))
        want = oracle_delivered_bells(models, nodes, waits).T
        assert np.max(np.abs(got - want)) < 1e-15

    def test_invalid_delivered_weights_rejected(self, monkeypatch):
        import qorsim.repeater as repeater

        # A delivered pair is lam * c + (1 - lam) / 4: it is invalid when c
        # is, for both engines, or when a trial's lam leaves [0, 1].
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(),), attempt_rate=1e6)
        engines = (lambda: simulate_chain_mc(chain, trials=5),
                   lambda: simulate_chain_analytic(chain))
        with monkeypatch.context() as patch:
            patch.setattr(repeater, "_folded_bell", lambda models: np.array([1.1, -0.1, 0.0, 0.0]))
            for engine in engines:
                with pytest.raises(StateError, match="invalid Bell weights"):
                    engine()
        for exponent in (-1e-9, math.nan):
            monkeypatch.setattr(
                repeater, "_run_trial_range",
                lambda models, cutoff, seed, lo, hi: (np.ones(hi - lo), np.full(hi - lo, exponent)),
            )
            with pytest.raises(StateError, match="invalid Bell weights"):
                simulate_chain_mc(chain, trials=5)

    @pytest.mark.parametrize(
        "row, valid",
        [
            ([1.0 + 1e-12, -1e-12, 0.0, 0.0], True),
            ([1.0 + 2e-12, -2e-12, 0.0, 0.0], False),
            # 1 + 1e-10 itself rounds to a float above it; the last weight
            # makes the row's float sum the largest float not above it.
            ([0.25, 0.25, 0.25, np.nextafter(1.0 + 1e-10, 0.0) - 0.75], True),
            ([0.25, 0.25, 0.25, 0.25 + 2e-10], False),
            # min skips a NaN after the first weight; the sum test must not.
            ([math.nan, 0.5, 0.25, 0.25], False),
            ([0.5, 0.25, 0.25, math.nan], False),
            ([math.inf, 0.0, 0.0, 0.0], False),
        ],
    )
    def test_delivered_weight_check_boundaries(self, monkeypatch, row, valid):
        import qorsim.repeater as repeater

        # The weights are c, which both engines check once; every trial's
        # pair mixes c with I/4.
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(),), attempt_rate=1e6)
        monkeypatch.setattr(repeater, "_folded_bell", lambda models: np.array(row))
        engines = (lambda: simulate_chain_mc(chain, trials=3),
                   lambda: simulate_chain_analytic(chain))
        for engine in engines:
            if valid:
                engine()
            else:
                with pytest.raises(StateError, match="invalid Bell weights"):
                    engine()


# Drawn chains of the exact domain, and the Bonferroni z bound over their
# fidelity and rate comparisons at a family-wise false-alarm rate of 1e-3.
_EXACT_CHAINS = 20
_EXACT_Z = NormalDist().inv_cdf(1.0 - 1e-3 / (2 * 2 * _EXACT_CHAINS))

# Drawn chains outside the exact domain, half with a binding cutoff, and the
# one-sided Bonferroni z bound over their rate comparisons at a family-wise
# false-alarm rate of 1e-3.
_BOUND_CHAINS = 16
_BOUND_Z = NormalDist().inv_cdf(1.0 - 1e-3 / _BOUND_CHAINS)


def _approximate_domain_chain(rng, binding):
    """2-4 O-band spans of U(13, 16) km with dephasing U(0, 0.05), nodes
    with coherence time U(10, 50) ms, write, read and detector efficiencies
    U(0.6, 1) and BSM success U(0.3, 1), and a cutoff of U(1, 3) ms, which
    binds, or of 1e6 s."""
    count = int(rng.integers(2, 5))
    spans = tuple(
        FiberSpan(length_km=rng.uniform(13.0, 16.0), quantum_band=O_BAND,
                  dephasing_p=rng.uniform(0.0, 0.05))
        for _ in range(count)
    )
    nodes = tuple(
        _node(coherence=rng.uniform(0.01, 0.05), write=rng.uniform(0.6, 1.0),
              read=rng.uniform(0.6, 1.0), bsm=rng.uniform(0.3, 1.0),
              det=rng.uniform(0.6, 1.0))
        for _ in range(count - 1)
    )
    cutoff = rng.uniform(1e-3, 3e-3) if binding else 1e6
    return RepeaterChain(spans=spans, nodes=nodes, attempt_rate=1e6, memory_cutoff=cutoff)


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

    def test_exact_domain_matches_mc_on_drawn_chains(self, rng):
        # The analytic engine is exact on 1-2 spans with a cutoff that does
        # not bind, so each z-score is Monte Carlo noise alone.
        for _ in range(_EXACT_CHAINS):
            chain, z = exact_domain_z_scores(rng, trials=100_000)
            assert max(map(abs, z)) < _EXACT_Z, (chain, z)

    def test_rate_bounds_mc_on_drawn_chains(self, rng):
        # Outside the exact domain the analytic rate is at least the true
        # mean rate (simulate_chain_analytic says why), so Monte Carlo may
        # read any amount lower, but higher only by its noise.
        for i in range(_BOUND_CHAINS):
            chain = _approximate_domain_chain(rng, binding=i % 2 == 0)
            an = simulate_chain_analytic(chain)
            mc = simulate_chain_mc(chain, trials=4000, seed=int(rng.integers(2**32)))
            assert mc.pair_rate_hz <= an.pair_rate_hz + _BOUND_Z * mc.rate_stderr, chain

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

    def test_merges_match_double_sums(self):
        # Span 1 heralds more often than span 0, so the first merge sums over
        # span 1's atoms, and span 1 decays at both of its nodes' rates.
        chain = RepeaterChain(
            spans=(_span(40.0), _span(10.0), _span(25.0)),
            nodes=(_node(0.05, penalty=0.02), _node(0.03, penalty=0.01)),
            attempt_rate=1e6,
        )
        models = _span_models(chain)
        one_way = [photon_dwell_time(span) for span in chain.spans]
        assert models[1].ready.p > models[0].ready.p
        # The engine's model with each merge as a double sum over atoms.
        front, bell = _grid(models[0].ready.p, models[0].ready.cycle), models[0].ready_bell
        for i, (m, node) in enumerate(zip(models[1:], chain.nodes)):
            r_front = 1.0 / node.memory.coherence_time
            e_front, e_span, e_max = _brute_wait(
                front, _grid(m.ready.p, m.ready.cycle), r_front, r_front + m.right_decay_rate
            )
            # Exactly one side waits, so the expected merged pair is
            # f(EA, 1) + f(1, EB) - f(1, 1) for the decay factors' means.
            def merged(da, db):
                left = reference_bell_dephase(reference_bell_decay(np.array(bell), da),
                                              node.bsm_visibility_penalty)
                return reference_bell_convolve(
                    left, reference_bell_decay(np.array(m.ready_bell), db))

            bell = merged(e_front, 1.0) + merged(1.0, e_span) - merged(1.0, 1.0)
            last = i == len(chain.nodes) - 1
            # The last outcome must reach both end stations.
            notify = (max(one_way[-1], one_way[0] + one_way[1]) if last
                      else one_way[i + 1])
            mean = e_max / (node.bsm_success_prob * node.memory.read_efficiency**2) + notify
            bell = bell if last else reference_bell_decay(
                bell, math.exp(-m.right_decay_rate * notify))
            front = ([mean], [1.0])
        res = simulate_chain_analytic(chain)
        assert np.max(np.abs(res.bell - bell)) < 1e-12
        assert abs(res.fidelity - bell[0]) < 1e-12
        assert abs(res.mean_latency_s - mean) < 1e-12 * mean

    def test_near_threshold_chain_memory_is_bounded(self):
        # 102 km next to 17 km: the long span heralds at p ~ 1.9e-4, about
        # 194k grid atoms. The short span carries the sum over atoms.
        chain = RepeaterChain(spans=(_span(102.0, O_BAND), _span(17.0, O_BAND)),
                              nodes=(_node(),), attempt_rate=1e6)
        tracemalloc.start()
        try:
            simulate_chain_analytic(chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024

    def test_mean_state_consistent_with_fidelity(self):
        chain = RepeaterChain(spans=(_span(), _span()), nodes=(_node(0.05),),
                              attempt_rate=1e6, memory_cutoff=0.05)
        res = simulate_chain_analytic(chain)
        assert abs(fidelity(bell_diagonal_state(res.bell), phi_plus()) - res.fidelity) < 1e-10


# Site positions (km) of a 6-hut O-band route, ends included.
_SIX_HUT_POSITIONS = np.cumsum([0.0, 9.2, 8.1, 10.3, 9.7, 8.8, 9.5, 10.1])


def _hut_subset_chains():
    """The chain of every subset of the six huts, the empty one first."""
    ends, huts = (_SIX_HUT_POSITIONS[0], _SIX_HUT_POSITIONS[-1]), _SIX_HUT_POSITIONS[1:-1]
    subsets = [c for n in range(len(huts) + 1) for c in itertools.combinations(huts, n)]
    return [_route_chain(np.diff([ends[0], *c, ends[1]]), {}) for c in subsets]


def _result_bits(chain):
    return repr(dataclasses.astuple(simulate_chain_analytic(chain)))


class TestMergeCache:
    """A chain's one summed merge, its first, is cached by its six floats;
    a hit returns the bits the miss computed."""

    def test_hut_subsets_keep_their_bits(self):
        chains = _hut_subset_chains()
        cold = []
        for chain in chains:
            _summed_wait.cache_clear()
            cold.append(_result_bits(chain))
        # One warm pass: each of the h(h + 1)/2 first merges misses once.
        _summed_wait.cache_clear()
        assert [_result_bits(chain) for chain in chains] == cold
        info = _summed_wait.cache_info()
        assert (info.misses, info.hits) == (21, len(chains) - 1 - 21)
        # A second pass in reverse order only hits.
        assert [_result_bits(chain) for chain in chains[::-1]] == cold[::-1]
        assert _summed_wait.cache_info().misses == 21

    def test_key_holds_all_six_floats(self):
        def wait(p_a, cycle_a, p_b, cycle_b, r_a, r_b):
            return _expected_wait(_GeomTime(p_a, cycle_a), _GeomTime(p_b, cycle_b), r_a, r_b)

        base = (0.31, 1.0, 0.17, 0.5, 0.6, 0.9)
        for i in range(len(base)):
            moved = base[:i] + (base[i] * 1.25,) + base[i + 1:]
            _summed_wait.cache_clear()
            want = wait(*moved)
            _summed_wait.cache_clear()
            wait(*base)
            assert wait(*moved) == want

    def test_cache_stays_bounded(self):
        maxsize = _summed_wait.cache_info().maxsize
        _summed_wait.cache_clear()
        for k in range(maxsize + 50):
            chain = RepeaterChain(spans=(_span(20.0 + 1e-3 * k), _span(10.0)), nodes=(_node(),),
                                  attempt_rate=1e6)
            simulate_chain_analytic(chain)
            assert _summed_wait.cache_info().currsize <= maxsize
        assert _summed_wait.cache_info().currsize == maxsize

    def test_long_chain_adds_one_entry(self):
        chain = _route_chain([25.0] * 20, {})
        _summed_wait.cache_clear()
        simulate_chain_analytic(chain)
        assert _summed_wait.cache_info().currsize == 1

    @pytest.mark.parametrize("a, b", _ORIENTATION_CASES)
    def test_merge_orientation_is_symmetric_with_a_warm_cache(self, a, b):
        # Whichever order fills the cache, both orders read the cold bits.
        a, b = _GeomTime(*a), _GeomTime(*b)
        _summed_wait.cache_clear()
        d_a, d_b, e_max = _expected_wait(a, b, 0.6, 0.9)
        want = {(a, b): (d_a, d_b, e_max), (b, a): (d_b, d_a, e_max)}
        rates = {(a, b): (0.6, 0.9), (b, a): (0.9, 0.6)}
        for order in ([(a, b), (b, a)], [(b, a), (a, b)]):
            _summed_wait.cache_clear()
            for x, y in order + order:
                assert _expected_wait(x, y, *rates[x, y]) == want[x, y]


def _route_chain(lengths, params) -> RepeaterChain:
    """The chain of an O-band route with spans of ``lengths`` km and the
    given route keys over the defaults; RouteConfig checks each value
    against its PARAMS domain."""
    positions = np.concatenate([[0.0], np.cumsum(lengths)])
    sites = tuple(Site(f"S{i}", float(p), "ila") for i, p in enumerate(positions))
    sites = (dataclasses.replace(sites[0], kind="endpoint"), *sites[1:-1],
             dataclasses.replace(sites[-1], kind="endpoint"))
    route = RouteConfig("relations", sites, DEFAULT_FIBER_TYPES["NDSF"], O_BAND, True,
                        {**DEFAULT_PARAMS, **params})
    return build_chain(route)


# Windows inside the PARAMS domains of the keys the relations vary: wide
# enough to cross a metro route's regimes, and every chain in them has a
# finite analytic answer.
_RELATION_WINDOWS = {
    "detector_efficiency": st.floats(0.05, 1.0),
    "memory_read_efficiency": st.floats(0.05, 1.0),
    "bsm_success_prob": st.floats(0.05, 1.0),
    "memory_coherence_time": st.floats(-4.0, 1.0).map(lambda e: 10.0**e),
    "dephasing_p": st.floats(0.0, 0.5),
}
# Key: (direction of the pair rate, direction of the fidelity) as the key
# rises; +1 non-decreasing, -1 non-increasing, None unconstrained.
_RELATIONS = {
    "detector_efficiency": (+1, None),
    "memory_read_efficiency": (+1, None),
    "bsm_success_prob": (+1, None),
    "memory_coherence_time": (+1, +1),
    "dephasing_p": (None, -1),
}


class TestMetamorphicRelations:
    """Relations between analytic runs, exact up to rounding: a third check
    of the engine, beside the dense oracle and Monte Carlo, with no
    statistical slack (Chen et al., ACM Comput. Surv. 51(1), 2018).

    On O-band routes of 2-5 spans of 2-60 km, the pair rate is
    non-decreasing in detector_efficiency, memory_read_efficiency,
    bsm_success_prob and memory_coherence_time, and the fidelity is
    non-decreasing in memory_coherence_time and non-increasing in
    dephasing_p. Two relations on chains built in code see the decay of a
    waiting pair, which those cannot: on 0 km spans the fidelity rises with
    the coherence time, and at an ideal node it is higher where the faster
    side waits (dropping the merge's survival factor, or exchanging the
    frontier's and the span pair's decay rates, breaks one of them).

    The fidelity against detector_efficiency is left out: it is not
    monotone. On spans of 56, 33, 26, 57 and 54 km with the default keys,
    raising it from 0.51 to 0.78 takes the analytic fidelity from 0.3469 to
    0.3386. Monte Carlo gives 0.4981 and 0.4972 there, each +-0.0004 at
    200000 trials: the default cutoff (the 1 s coherence time) binds, which
    the analytic engine ignores.
    """

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        lengths=st.lists(st.floats(2.0, 60.0), min_size=2, max_size=5),
        base=st.fixed_dictionaries(_RELATION_WINDOWS),
        key=st.sampled_from(sorted(_RELATIONS)),
        data=st.data(),
    )
    def test_monotone_in_one_key(self, lengths, base, key, data):
        lo, hi = sorted(data.draw(st.tuples(_RELATION_WINDOWS[key], _RELATION_WINDOWS[key])))
        low = simulate_chain_analytic(_route_chain(lengths, {**base, key: lo}))
        high = simulate_chain_analytic(_route_chain(lengths, {**base, key: hi}))
        for sign, quantity in zip(_RELATIONS[key], ("pair_rate_hz", "fidelity")):
            if sign is not None:
                a, b = getattr(low, quantity), getattr(high, quantity)
                assert sign * (b - a) >= -1e-12 * max(abs(a), abs(b)), (key, lo, hi, quantity, a, b)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        spans=st.integers(2, 5),
        write=st.floats(0.3, 0.95),
        det=st.floats(0.3, 0.95),
        coherence=st.floats(-2.0, 0.0).map(lambda e: 10.0**e),
    )
    def test_waiting_alone_decays_the_pair(self, spans, write, det, coherence):
        # On lossless 0 km spans no time passes in flight, so a pair decays
        # only while one side of a merge waits for the other: the fidelity
        # rises strictly when the coherence time doubles.
        def fidelity_at(t):
            node = _node(coherence=t, write=write, det=det)
            chain = RepeaterChain(spans=(FiberSpan(length_km=0.0),) * spans,
                                  nodes=(node,) * (spans - 1), attempt_rate=1e6)
            return simulate_chain_analytic(chain).fidelity

        assert fidelity_at(2.0 * coherence) > fidelity_at(coherence)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        spans=st.integers(3, 5),
        fast=st.floats(0.3, 0.95),
        slow_share=st.floats(0.1, 0.9),
        coherence=st.floats(-3.0, 0.0).map(lambda e: 10.0**e),
    )
    def test_only_the_span_pair_waits_in_memory_at_an_ideal_node(self, spans, fast, slow_share,
                                                                 coherence):
        # Node 0's memory is ideal, so at the first merge a waiting frontier
        # does not decay, while a waiting span pair decays in node 1's
        # memory. On 0 km spans span 0 heralds with node 0's write
        # efficiency and span 1 with node 0's detector efficiency (node 1
        # writes perfectly). Exchanging the two leaves the first round, and
        # so every later merge, as it was: the fidelity is higher where the
        # frontier is the faster side.
        slow = fast * slow_share

        def fidelity_at(first, second):
            nodes = ((_node(coherence=1e300, write=first, det=second),)
                     + (_node(coherence=coherence, write=1.0),) * (spans - 2))
            chain = RepeaterChain(spans=(FiberSpan(length_km=0.0),) * spans, nodes=nodes,
                                  attempt_rate=1e6)
            return simulate_chain_analytic(chain).fidelity

        assert fidelity_at(fast, slow) > fidelity_at(slow, fast)


@pytest.mark.parametrize("make, error, match", [
    (lambda: QorsNode(detector_efficiency=0.0), StateError, "detector_efficiency"),
    (lambda: QorsNode(detector_efficiency=1.5), StateError, "detector_efficiency"),
    # |00> on both sides: the middle qubits have no odd-parity Bell component.
    (lambda: entanglement_swap(pure_state(ket(0, 4)), pure_state(ket(0, 4)), QorsNode()),
     StateError, "no support"),
], ids=["detector-efficiency-0", "detector-efficiency-above-1", "swap-without-support"])
def test_repeater_input_checks(make, error, match):
    with pytest.raises(error, match=match):
        make()
