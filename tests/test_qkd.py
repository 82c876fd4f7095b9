"""Key-rate estimation, span budgets, and deployment rule checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qorsim.fiber import C_BAND, O_BAND, FiberSpan, transmittance
from qorsim.linalg import (
    StateError,
    bell_diagonal_state,
    bell_diagonal_weights,
    bell_state,
    fidelity,
)
from qorsim.qkd import (
    R_COEXISTENCE,
    R_EXISTING_SITES,
    R_NO_CRYOGENICS,
    R_SPAN_REACH,
    TECH_ENTANGLEMENT,
    TECH_ONE_WAY,
    OneWayRepeaterSpec,
    assess_chain,
    bbm92_metrics,
    binary_entropy,
    key_metrics_from_result,
    qber_from_state,
    qec_max_span,
)
from qorsim.repeater import MemorySpec, QorsNode, RepeaterChain, simulate_chain_analytic

from oracles import oracle_qber, phi_plus, random_density_matrix, werner_state


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    @given(st.floats(min_value=1e-9, max_value=0.5 - 1e-9))
    def test_symmetry(self, p):
        assert abs(binary_entropy(p) - binary_entropy(1.0 - p)) < 1e-12

    def test_known_value(self):
        want = -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
        assert abs(binary_entropy(0.11) - want) < 1e-15

    def test_domain(self):
        with pytest.raises(StateError):
            binary_entropy(-0.01)
        with pytest.raises(StateError):
            binary_entropy(1.01)


class TestQber:
    def test_phi_plus_is_error_free(self):
        assert abs(qber_from_state(bell_state(0))) < 1e-12

    def test_single_flip_states_fail_one_basis(self):
        # a bit flip shows in Z only, a phase flip in X only: both average 1/2
        assert abs(qber_from_state(bell_state(1)) - 0.5) < 1e-12
        assert abs(qber_from_state(bell_state(2)) - 0.5) < 1e-12
        assert abs(qber_from_state(bell_state(3)) - 1.0) < 1e-12

    def test_werner_closed_form(self):
        for f in np.linspace(0.25, 1.0, 10):
            want = 2.0 * (1.0 - f) / 3.0
            assert abs(qber_from_state(werner_state(f)) - want) < 1e-12

    def test_bell_weight_closed_forms_hold_on_any_state(self, rng):
        # Full-rank states with every Bell-basis coherence present: QBER and
        # Phi+ fidelity read only the Bell weights even off the diagonal.
        for _ in range(500):
            rho = random_density_matrix(4, rng)
            assert abs(qber_from_state(rho) - oracle_qber(rho.matrix)) < 1e-14
            assert abs(bell_diagonal_weights(rho)[0] - fidelity(rho, phi_plus())) < 1e-14


class TestBbm92:
    def test_perfect_state_keeps_everything(self):
        m = bbm92_metrics(qber=0.0, sifted_rate_hz=500.0)
        assert m.secret_key_rate_hz == pytest.approx(500.0)
        assert m.secure

    def test_threshold_crossing(self):
        # 2 h2(q) = 1 at q ~= 0.1100278644
        below = bbm92_metrics(0.1095, 1000.0)
        above = bbm92_metrics(0.1105, 1000.0)
        assert below.secure and below.secret_key_rate_hz > 0.0
        assert not above.secure and above.secret_key_rate_hz == 0.0

    def test_rate_formula(self):
        q = 0.05
        m = bbm92_metrics(q, 1000.0)
        want = 1000.0 * max(0.0, 1.0 - 2.0 * binary_entropy(q))
        assert abs(m.secret_key_rate_hz - want) < 1e-9

    def test_validation(self):
        with pytest.raises(StateError):
            bbm92_metrics(0.6, 100.0)
        with pytest.raises(StateError):
            bbm92_metrics(0.05, -1.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_sifted_rate_must_be_finite(self, rate):
        # A NaN rate failed no check and gave NaN rates; an infinite one
        # gave an infinite key rate marked secure.
        with pytest.raises(StateError, match=r"sifted rate .* outside \[0, inf\)"):
            bbm92_metrics(0.05, rate)

    def test_from_simulation_result(self):
        chain = RepeaterChain(spans=(FiberSpan(length_km=25.0),), attempt_rate=1e6)
        res = simulate_chain_analytic(chain)
        m = key_metrics_from_result(res)
        assert m.sifted_rate_hz == pytest.approx(res.pair_rate_hz / 2.0)
        assert abs(m.qber - qber_from_state(bell_diagonal_state(res.bell))) < 1e-12
        assert m.secure

    def test_qber_above_half_gives_no_key(self):
        # Psi- pairs disagree in both bases: QBER 1, past the domain of
        # bbm92_metrics. The metrics report it, with no key.
        chain = RepeaterChain(spans=(FiberSpan(length_km=25.0),), attempt_rate=1e6)
        res = replace(simulate_chain_analytic(chain), bell=(0.0, 0.0, 0.0, 1.0))
        m = key_metrics_from_result(res)
        assert m.qber == 1.0
        assert m.sifted_rate_hz == pytest.approx(res.pair_rate_hz / 2.0)
        assert m.secret_key_rate_hz == 0.0 and not m.secure


class TestQecSpanBudget:
    def test_standard_c_band_reach(self):
        assert qec_max_span(0.2, loss_threshold_db=3.0) == 15.0

    def test_o_band_reach(self):
        assert abs(qec_max_span(0.35, loss_threshold_db=3.0) - 8.571428571428571) < 1e-9

    def test_fixed_losses_eat_budget(self):
        assert qec_max_span(0.2, 3.0, fixed_losses_db=1.0) == 10.0
        with pytest.raises(StateError):
            qec_max_span(0.2, 3.0, fixed_losses_db=3.0)

    def test_validation(self):
        with pytest.raises(StateError):
            qec_max_span(0.0)
        with pytest.raises(StateError):
            qec_max_span(0.2, loss_threshold_db=0.0)
        with pytest.raises(StateError):
            qec_max_span(0.2, fixed_losses_db=-1.0)


def _span_loss_db(span):
    return -10.0 * np.log10(transmittance(span))


class TestSpanLoss:
    def test_includes_mux_loss(self):
        span = FiberSpan(length_km=50.0, quantum_band=C_BAND,
                         mux_insertion_loss_db=1.0)
        assert abs(_span_loss_db(span) - (0.2 * 50.0 + 1.0)) < 1e-12

    def test_o_band_rate(self):
        span = FiberSpan(length_km=10.0, quantum_band=O_BAND)
        assert abs(_span_loss_db(span) - 3.5) < 1e-12


def _chain(lengths, coherence=1.0, cryo=False):
    spans = tuple(FiberSpan(length_km=x, quantum_band=O_BAND) for x in lengths)
    nodes = tuple(
        QorsNode(memory=MemorySpec(coherence_time=coherence, cryogenic_required=cryo))
        for _ in range(len(lengths) - 1)
    )
    return RepeaterChain(spans=spans, nodes=nodes, attempt_rate=1e6)


class TestAssessChain:
    def test_clean_entanglement_chain_is_feasible(self):
        rep = assess_chain(_chain([25.0, 25.0]), TECH_ENTANGLEMENT,
                           coexistence=True)
        assert rep.feasible
        assert rep.violations == ()

    def test_r1_requires_coexistence(self):
        rep = assess_chain(_chain([25.0, 25.0]), TECH_ENTANGLEMENT,
                           coexistence=False)
        codes = [v.requirement for v in rep.violations]
        assert codes == [R_COEXISTENCE]
        assert not rep.feasible

    def test_r2_heralding_reach(self):
        rep = assess_chain(_chain([120.0, 25.0]), TECH_ENTANGLEMENT,
                           coexistence=True, max_heralding_km=100.0)
        codes = [v.requirement for v in rep.violations]
        assert R_SPAN_REACH in codes
        assert R_EXISTING_SITES in codes
        r2 = next(v for v in rep.violations if v.requirement == R_SPAN_REACH)
        assert r2.span_index == 0

    def test_r3_only_with_r2(self):
        rep = assess_chain(_chain([90.0, 90.0]), TECH_ENTANGLEMENT,
                           coexistence=True, max_heralding_km=100.0)
        codes = [v.requirement for v in rep.violations]
        assert R_EXISTING_SITES not in codes

    def test_r4_flags_each_cryogenic_node(self):
        rep = assess_chain(_chain([25.0, 25.0, 25.0], cryo=True),
                           TECH_ENTANGLEMENT, coexistence=True)
        r4 = [v for v in rep.violations if v.requirement == R_NO_CRYOGENICS]
        assert len(r4) == 2
        assert sorted(v.span_index for v in r4) == [0, 1]
        assert not rep.feasible

    def test_one_way_span_budget(self):
        spec = OneWayRepeaterSpec(loss_threshold_db=3.0, cryogenic_required=False)
        # O band limit: 3.0 / 0.35 = 8.571 km
        ok = assess_chain(_chain([8.0, 8.0]), TECH_ONE_WAY, coexistence=True,
                          one_way_spec=spec)
        assert ok.feasible
        bad = assess_chain(_chain([25.0, 8.0]), TECH_ONE_WAY, coexistence=True,
                           one_way_spec=spec)
        codes = [v.requirement for v in bad.violations]
        assert R_SPAN_REACH in codes
        assert R_EXISTING_SITES in codes

    def test_one_way_reach_charges_insertion_loss(self):
        # 1 dB of insertion loss leaves 2 dB of the O-band budget: 5.71 km.
        def chain(km, insertion=1.0):
            span = FiberSpan(length_km=km, quantum_band=O_BAND,
                             mux_insertion_loss_db=insertion)
            return RepeaterChain(spans=(span,), attempt_rate=1e6)

        assert assess_chain(chain(5.0), TECH_ONE_WAY).feasible
        bad = assess_chain(chain(7.0), TECH_ONE_WAY)
        assert [v.requirement for v in bad.violations] == [R_SPAN_REACH, R_EXISTING_SITES]
        assert "5.71429 km" in bad.violations[0].detail
        assert "1 dB insertion loss" in bad.violations[0].detail
        # Insertion loss that uses the whole budget leaves no length in reach.
        spec = OneWayRepeaterSpec(loss_threshold_db=3.0)
        whole = assess_chain(chain(5.0, insertion=3.0), TECH_ONE_WAY, one_way_spec=spec)
        r2 = [v for v in whole.violations if v.requirement == R_SPAN_REACH]
        assert len(r2) == 1 and r2[0].span_index == 0
        assert "insertion loss 3 dB uses the whole 3 dB" in r2[0].detail
        assert not whole.feasible

    def test_one_way_cryogenics_is_route_level(self):
        spec = OneWayRepeaterSpec(loss_threshold_db=3.0, cryogenic_required=True)
        rep = assess_chain(_chain([8.0, 8.0]), TECH_ONE_WAY, coexistence=True,
                           one_way_spec=spec)
        r4 = [v for v in rep.violations if v.requirement == R_NO_CRYOGENICS]
        assert len(r4) == 1
        assert r4[0].span_index is None

    def test_violation_messages_name_the_numbers(self):
        rep = assess_chain(_chain([120.0, 25.0]), TECH_ENTANGLEMENT,
                           coexistence=True, max_heralding_km=100.0)
        r2 = next(v for v in rep.violations if v.requirement == R_SPAN_REACH)
        assert "120" in r2.detail
        assert "100" in r2.detail

    def test_unknown_technology(self):
        with pytest.raises(StateError):
            assess_chain(_chain([25.0, 25.0]), "carrier-pigeon", coexistence=True)

    @pytest.mark.parametrize("limit", [math.nan, 0.0, -1.0, math.inf])
    @pytest.mark.parametrize("tech", [TECH_ENTANGLEMENT, TECH_ONE_WAY])
    def test_heralding_limit_must_be_positive_and_finite(self, tech, limit):
        # A NaN limit compared false against every span length, so a 500 km
        # span passed R2 and the chain read feasible.
        with pytest.raises(StateError, match=r"max_heralding_km .* outside \(0, inf\)"):
            assess_chain(_chain([500.0]), tech, max_heralding_km=limit)

    def test_one_way_defaults_to_stock_spec(self):
        rep = assess_chain(_chain([8.0, 8.0]), TECH_ONE_WAY, coexistence=True)
        assert rep.feasible
        bad = assess_chain(_chain([9.0, 8.0]), TECH_ONE_WAY, coexistence=True)
        assert not bad.feasible
