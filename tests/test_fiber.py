"""Fiber catalog, link budget, and the per-span channel stack."""

import itertools
import math
import re

import numpy as np
import pytest

from qorsim.channels import (
    apply_channel,
    compose,
    dephasing_channel,
    embed_qubit_channel,
    loss_channel,
    sop_rotation_channel,
    verify_cptp,
)
from qorsim.fiber import (
    BANDS,
    C_BAND,
    DEFAULT_FIBER_TYPES,
    L_BAND,
    NDSF,
    O_BAND,
    SPEED_OF_LIGHT_M_S,
    Band,
    FiberConfigError,
    FiberSpan,
    FiberSpec,
    photon_dwell_time,
    span_channel_stack,
    transmittance,
)
from qorsim.linalg import DensityMatrix, StateError


class TestCatalog:
    def test_band_registry(self):
        assert set(BANDS) == {"O", "C", "L"}
        assert BANDS["O"] is O_BAND
        assert [b.name for b in (O_BAND, C_BAND, L_BAND)] == ["O", "C", "L"]

    def test_ndsf_attenuations(self):
        assert NDSF.attenuation(C_BAND) == 0.20
        assert NDSF.attenuation(L_BAND) == 0.22
        assert NDSF.attenuation(O_BAND) == 0.35
        assert NDSF.group_index == 1.468
        assert DEFAULT_FIBER_TYPES["NDSF"] is NDSF

    def test_unknown_band_raises(self):
        exotic = Band("S")
        with pytest.raises(FiberConfigError):
            NDSF.attenuation(exotic)

    def test_spec_validation(self):
        with pytest.raises(FiberConfigError):
            FiberSpec("bad", {"C": -0.2})
        with pytest.raises(FiberConfigError):
            FiberSpec("bad", {})
        with pytest.raises(FiberConfigError):
            FiberSpec("bad", {"C": 0.2}, group_index=0.9)


class TestSpanGeometry:
    def test_transmittance_closed_form(self):
        span = FiberSpan(length_km=25.0, quantum_band=C_BAND,
                         mux_insertion_loss_db=1.0)
        want = 10.0 ** (-(0.20 * 25.0 + 1.0) / 10.0)
        assert abs(transmittance(span) - want) < 1e-15

    def test_zero_length_span_only_insertion_loss(self):
        span = FiberSpan(length_km=0.0, mux_insertion_loss_db=3.0)
        assert abs(transmittance(span) - 10.0 ** -0.3) < 1e-15
        clean = FiberSpan(length_km=0.0)
        assert transmittance(clean) == 1.0

    def test_dwell_time(self):
        span = FiberSpan(length_km=80.0)
        want = 80.0e3 * 1.468 / SPEED_OF_LIGHT_M_S
        assert abs(photon_dwell_time(span) - want) < 1e-18

    def test_band_selects_attenuation(self):
        lo = FiberSpan(length_km=50.0, quantum_band=C_BAND)
        ho = FiberSpan(length_km=50.0, quantum_band=O_BAND)
        assert transmittance(ho) < transmittance(lo)

    def test_validation(self):
        with pytest.raises(FiberConfigError):
            FiberSpan(length_km=-1.0)
        with pytest.raises(FiberConfigError):
            FiberSpan(length_km=1.0, dephasing_p=1.5)
        with pytest.raises(FiberConfigError):
            FiberSpan(length_km=1.0, coexistence_noise_prob=1.0)
        with pytest.raises(FiberConfigError):
            FiberSpan(length_km=1.0, sop_drift_rate=-1.0)
        with pytest.raises(FiberConfigError):
            FiberSpan(length_km=1.0, mux_insertion_loss_db=-0.1)

    def test_span_checks_band_at_construction(self):
        narrow = FiberSpec("C-only", {"C": 0.2})
        with pytest.raises(FiberConfigError):
            FiberSpan(length_km=1.0, fiber=narrow, quantum_band=O_BAND)


class TestSpanStack:
    def _span(self):
        return FiberSpan(
            length_km=25.0, quantum_band=C_BAND, mux_insertion_loss_db=1.0,
            dephasing_p=1e-3, sop_drift_rate=5e4,
            sop_recalibration_interval=1e-6, coexistence_noise_prob=1e-5,
        )

    def test_stack_matches_catalog_composition(self):
        # (drift rate, interval) pairs whose angle runs from 0 up to pi.
        drifts = [(0.0, 0.0), (0.0, 3.0), (5e4, 1e-6), (1.0, 1.0),
                  (2.0, math.pi / 4), (math.pi, 1.0)]
        for length, band, p, (omega, dt), insertion in itertools.product(
            [0.0, 0.5, 9.0, 25.0, 60.0, 120.0],
            [O_BAND, C_BAND, L_BAND],
            [0.0, 1e-3, 0.3, 0.5, 1.0],
            drifts,
            [0.0, 1.0, 3.7],
        ):
            span = FiberSpan(
                length_km=length, quantum_band=band, dephasing_p=p,
                sop_drift_rate=omega, sop_recalibration_interval=dt,
                mux_insertion_loss_db=insertion,
            )
            qubit = compose(dephasing_channel(p), sop_rotation_channel(omega, dt))
            expected = compose(embed_qubit_channel(qubit),
                               loss_channel(transmittance(span)))
            got = span_channel_stack(span)
            assert np.array_equal(got.operators, expected.operators), span

    def test_overflowing_drift_angle_is_non_finite(self):
        # Each factor is finite, the product is inf: cos and sin give NaN,
        # which the rotation channel rejects. A span rejects the product
        # itself, so its stack never computes them.
        with np.errstate(invalid="ignore"):
            with pytest.raises(
                StateError, match="^Kraus operator 0 contains non-finite entries$"
            ):
                sop_rotation_channel(1e200, 1e200)
        with pytest.raises(FiberConfigError, match=re.escape(
                "sop_drift_rate * sop_recalibration_interval overflows: 1e+200 * 1e+200")):
            FiberSpan(length_km=1.0, sop_drift_rate=1e200, sop_recalibration_interval=1e200)
        # Numpy scalars too: the product is formed in Python floats, so
        # numpy does not warn before the check raises.
        with pytest.raises(FiberConfigError, match="sop_recalibration_interval overflows"):
            FiberSpan(length_km=1.0, sop_drift_rate=np.float64(1e200),
                      sop_recalibration_interval=np.float64(1e200))
        # A finite angle near the top of the float range still builds a
        # trace-preserving stack.
        span = FiberSpan(length_km=1.0, sop_drift_rate=1e108, sop_recalibration_interval=1e200)
        assert verify_cptp(span_channel_stack(span)).valid

    def test_stack_is_cptp(self):
        report = verify_cptp(span_channel_stack(self._span()))
        assert report.valid and report.trace_preserving

    def test_stack_survival_equals_transmittance(self):
        span = self._span()
        stack = span_channel_stack(span)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        out = apply_channel(stack, DensityMatrix(rho))
        survive = float(np.real(out.matrix[0, 0] + out.matrix[1, 1]))
        assert abs(survive - transmittance(span)) < 1e-12

    def test_stack_vacuum_absorbing(self):
        stack = span_channel_stack(self._span())
        vac = np.zeros((3, 3), dtype=complex)
        vac[2, 2] = 1.0
        out = apply_channel(stack, DensityMatrix(vac))
        assert abs(out.matrix[2, 2].real - 1.0) < 1e-12

    def test_clean_span_is_pure_loss(self):
        span = FiberSpan(length_km=10.0, quantum_band=C_BAND)
        stack = span_channel_stack(span)
        eta = transmittance(span)
        vec = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        out = apply_channel(stack, DensityMatrix(np.outer(vec, vec)))
        # no dephasing, no rotation: coherence scales exactly with eta
        assert abs(out.matrix[0, 1] - eta / 2) < 1e-12
