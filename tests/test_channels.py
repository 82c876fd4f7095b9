"""Kraus channels, the qubit catalog, and the Gaussian symplectic layer."""

import numpy as np
import pytest

import qorsim
from qorsim import channels, repeater
from qorsim.channels import (
    RAIL_DIM,
    VACUUM_INDEX,
    KrausChannel,
    apply_channel,
    apply_to_subsystem,
    choi_matrix,
    completeness_operator,
    compose,
    dephasing_channel,
    depolarizing_channel,
    embed_qubit_channel,
    loss_channel,
    rotation_unitary,
    sop_rotation_channel,
    verify_cptp,
)
from qorsim.fiber import FiberSpan, span_channel_stack
from qorsim.linalg import (
    MAX_DIM,
    DensityMatrix,
    DimensionError,
    StateError,
    fidelity,
)

from oracles import (
    GaussianHamiltonian,
    SymplecticTransform,
    averaged_rotation_fidelity,
    beamsplitter_to_kraus,
    gaussian_evolve,
    identity_channel,
    mode_transmittance,
    oracle_apply_to_subsystem,
    phi_plus,
    random_density_matrix,
    symplectic_form,
)


def _random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_kraus_set(rng, out_dim, in_dim, n):
    """n random (out_dim, in_dim) operators with sum K^dag K = I: a random
    isometry cut into n row blocks."""
    shape = (n * out_dim, in_dim)
    z = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q, _ = np.linalg.qr(z)
    return tuple(q.reshape(n, out_dim, in_dim))


class TestKrausChannelContainer:
    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            KrausChannel(())

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DimensionError):
            KrausChannel((np.eye(2), np.eye(3)))

    def test_rejects_nonfinite(self):
        op = np.array([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(StateError):
            KrausChannel((op,))

    def test_nonfinite_error_names_the_operator(self):
        ops = [np.eye(2, dtype=complex) for _ in range(3)]
        ops[2] = np.array([[1.0, 0.0], [0.0, np.nan]])
        with pytest.raises(StateError, match="Kraus operator 2 "):
            KrausChannel(tuple(ops))
        stacked = np.stack([np.eye(3, dtype=complex)] * 6)
        stacked[4, 0, 2] = complex(0.0, np.inf)
        with pytest.raises(StateError, match="Kraus operator 4 contains non-finite"):
            KrausChannel(stacked)

    def test_rejects_three_dimensional_operator(self):
        with pytest.raises(DimensionError, match="Kraus operator 0 must be a 2-d array"):
            KrausChannel((np.zeros((2, 2, 2)),))

    def test_rejects_dimension_above_limit(self):
        big = np.eye(MAX_DIM + 1, dtype=complex)
        with pytest.raises(DimensionError, match="exceeds limit"):
            KrausChannel((big,))

    @pytest.mark.parametrize(
        "source_type", [tuple, np.array], ids=["tuple", "ndarray"]
    )
    def test_operators_are_read_only_copies(self, rng, source_type):
        source = source_type(_random_kraus_set(rng, 3, 2, 4))
        channel = KrausChannel(source)
        want = np.array(source)
        assert isinstance(channel.operators, np.ndarray)
        assert channel.operators.shape == (4, 3, 2)
        assert not channel.operators.flags.writeable
        with pytest.raises(ValueError):
            channel.operators[0][0, 0] = 1
        source[0][0, 0] = 5.0
        np.testing.assert_array_equal(channel.operators, want)

    def test_incomplete_set_reports_not_valid(self):
        # Container accepts it (soft invariant); the verifier flags it.
        c = KrausChannel((0.5 * np.eye(2, dtype=complex),))
        report = verify_cptp(c)
        assert not report.trace_preserving
        assert not report.valid
        assert report.completeness_residual > 0.7

    def test_choi_always_psd_for_operator_sums(self, rng):
        for _ in range(50):
            ops = tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                        for _ in range(3))
            report = verify_cptp(KrausChannel(ops))
            assert report.completely_positive

    def test_completeness_operator(self, rng):
        c = depolarizing_channel(0.4)
        assert np.max(np.abs(completeness_operator(c) - np.eye(2))) < 1e-12

    @pytest.mark.parametrize("shape", [(3, 4, 2), (2, 2, 3), (1, 3, 3)])
    def test_array_algebra_matches_per_operator_sums(self, rng, shape):
        # Unnormalised complex operators: a complete set would hide a
        # conjugate on the wrong side of completeness_operator.
        ops = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        channel = KrausChannel(ops)
        comp = sum(k.conj().T @ k for k in ops)
        choi = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in ops)
        assert np.max(np.abs(completeness_operator(channel) - comp)) < 1e-12
        assert np.max(np.abs(choi_matrix(channel) - choi)) < 1e-12

    def test_equality_is_identity(self):
        c = depolarizing_channel(0.4)
        assert c == c
        assert c != depolarizing_channel(0.4)


class TestApplyAndCompose:
    def test_apply_preserves_trace(self, rng):
        for p in (0.0, 0.3, 1.0):
            c = depolarizing_channel(p)
            dm = random_density_matrix(2, rng)
            out = apply_channel(c, dm)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    def test_apply_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            apply_channel(depolarizing_channel(0.1), random_density_matrix(3, rng))

    def test_compose_matches_sequential_apply(self, rng):
        a = depolarizing_channel(0.2)
        b = dephasing_channel(0.3)
        dm = random_density_matrix(2, rng)
        seq = apply_channel(b, apply_channel(a, dm))
        once = apply_channel(compose(a, b), dm)
        assert np.max(np.abs(seq.matrix - once.matrix)) < 1e-12

    def test_compose_operator_order(self, rng):
        # Non-square operators (2 -> 3, then 3 -> 4) pin the reshape too.
        a = KrausChannel(_random_kraus_set(rng, 3, 2, 3))
        b = KrausChannel(_random_kraus_set(rng, 4, 3, 2))
        got = compose(a, b).operators
        want = tuple(y @ x for y in b.operators for x in a.operators)
        assert len(got) == len(want) == 6
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_apply_non_square_channel(self, rng):
        channel = KrausChannel(_random_kraus_set(rng, 3, 2, 2))
        dm = random_density_matrix(2, rng)
        got = apply_channel(channel, dm)
        want = sum(k @ dm.matrix @ k.conj().T for k in channel.operators)
        assert got.dim == 3
        assert np.max(np.abs(got.matrix - want)) < 1e-13

    def test_compose_choi_associativity(self):
        a = depolarizing_channel(0.2)
        b = dephasing_channel(0.3)
        c = depolarizing_channel(0.1)
        lhs = choi_matrix(compose(compose(a, b), c))
        rhs = choi_matrix(compose(a, compose(b, c)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_apply_to_subsystem_matches_kron(self, rng):
        c = dephasing_channel(0.25)
        dm = random_density_matrix(4, rng)
        got = apply_to_subsystem(c, dm, 1, [2, 2])
        ops = tuple(np.kron(np.eye(2), k) for k in c.operators)
        want = sum(k @ dm.matrix @ k.conj().T for k in ops)
        assert np.max(np.abs(got.matrix - want)) < 1e-12

    @pytest.mark.parametrize(
        "dims",
        [[3, 2], [2, 3], [2, 2, 2], [2, 3, 2], [1, 3], [3, 1], [2, 1, 3]],
    )
    def test_apply_to_subsystem_matches_oracle(self, rng, dims):
        for index, d in enumerate(dims):
            for n in (1, 2, 4):
                channel = KrausChannel(_random_kraus_set(rng, d, d, n + 1))
                dm = random_density_matrix(int(np.prod(dims)), rng)
                got = apply_to_subsystem(channel, dm, index, dims)
                want = oracle_apply_to_subsystem(channel, dm, index, dims)
                assert np.max(np.abs(got.matrix - want.matrix)) < 1e-13

    @pytest.mark.parametrize("index, dims", [(0, [3, 2]), (1, [2, 3]), (1, [2, 3, 2])])
    def test_apply_span_stack_matches_oracle(self, rng, index, dims):
        span = FiberSpan(length_km=40.0, dephasing_p=0.05, sop_drift_rate=0.4,
                         sop_recalibration_interval=1.0)
        channel = span_channel_stack(span)
        assert len(channel.operators) == 24
        for _ in range(5):
            dm = random_density_matrix(int(np.prod(dims)), rng)
            got = apply_to_subsystem(channel, dm, index, dims)
            want = oracle_apply_to_subsystem(channel, dm, index, dims)
            assert np.max(np.abs(got.matrix - want.matrix)) < 1e-13

    def test_apply_to_subsystem_checks(self, rng):
        dm = random_density_matrix(4, rng)
        with pytest.raises(DimensionError):
            apply_to_subsystem(dephasing_channel(0.1), dm, 2, [2, 2])
        with pytest.raises(DimensionError):
            apply_to_subsystem(dephasing_channel(0.1), dm, 0, [2, 3])


class TestQubitCatalog:
    def test_depolarizing_closed_form(self, rng):
        p = 0.37
        dm = random_density_matrix(2, rng)
        out = apply_channel(depolarizing_channel(p), dm)
        want = (1 - p) * dm.matrix + p * np.eye(2) / 2
        assert np.max(np.abs(out.matrix - want)) < 1e-12

    def test_depolarizing_extremes(self, rng):
        dm = random_density_matrix(2, rng)
        same = apply_channel(depolarizing_channel(0.0), dm)
        assert np.max(np.abs(same.matrix - dm.matrix)) < 1e-12
        flat = apply_channel(depolarizing_channel(1.0), dm)
        assert np.max(np.abs(flat.matrix - np.eye(2) / 2)) < 1e-12

    def test_dephasing_scales_coherences(self, rng):
        p = 0.2
        dm = random_density_matrix(2, rng)
        out = apply_channel(dephasing_channel(p), dm)
        assert abs(out.matrix[0, 1] - (1 - 2 * p) * dm.matrix[0, 1]) < 1e-12
        assert abs(out.matrix[0, 0] - dm.matrix[0, 0]) < 1e-12

    def test_probability_bounds(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(StateError):
                depolarizing_channel(bad)
            with pytest.raises(StateError):
                dephasing_channel(bad)

    def test_rotation_unitary_properties(self, rng):
        for _ in range(20):
            axis = _random_axis(rng)
            theta = rng.uniform(0, 2 * np.pi)
            u = rotation_unitary(theta, axis)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            # trace fixes the rotation angle
            assert abs(np.trace(u) - 2 * np.cos(theta / 2)) < 1e-12

    def test_sop_averaged_bell_fidelity(self):
        for theta in (0.0, 0.05, 0.4, 1.3, 3.0):
            c = sop_rotation_channel(theta, 1.0)
            out = apply_to_subsystem(c, phi_plus(), 0, [2, 2])
            want = np.cos(theta / 2) ** 2
            assert abs(fidelity(out, phi_plus()) - want) < 1e-12
            assert abs(averaged_rotation_fidelity(theta) - want) < 1e-15

    def test_sop_averaged_matches_axis_sampling(self):
        # Monte Carlo oracle: Haar-average explicit rotations and compare
        # with the closed-form Pauli mixture.
        theta = 1.0
        avg = apply_to_subsystem(
            sop_rotation_channel(theta, 1.0), phi_plus(), 0, [2, 2]
        )
        g = np.random.default_rng(3)
        n = 200000
        axes = g.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        # u = c I - i s (n . sigma), stacked
        u = np.empty((n, 2, 2), dtype=complex)
        u[:, 0, 0] = c - 1j * s * axes[:, 2]
        u[:, 0, 1] = -1j * s * (axes[:, 0] - 1j * axes[:, 1])
        u[:, 1, 0] = -1j * s * (axes[:, 0] + 1j * axes[:, 1])
        u[:, 1, 1] = c + 1j * s * axes[:, 2]
        rho = phi_plus().matrix.reshape(2, 2, 2, 2)
        # act on qubit 0: U rho U^dag, averaged
        acc = np.einsum("nab,bicj,ndc->naidj", u, rho, u.conj()).mean(axis=0)
        err = np.max(np.abs(acc.reshape(4, 4) - avg.matrix))
        assert err < 3e-3, err

    def test_sop_sampled_is_unitary_channel(self, rng):
        c = KrausChannel((rotation_unitary(2.0 * 0.5, _random_axis(rng)),))
        assert len(c.operators) == 1
        assert verify_cptp(c).valid


class TestRailChannels:
    def test_loss_survival_probability(self):
        eta = 0.37
        c = loss_channel(eta)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        out = apply_channel(c, DensityMatrix(rho))
        assert abs(out.matrix[0, 0].real - eta) < 1e-12
        assert abs(out.matrix[VACUUM_INDEX, VACUUM_INDEX].real - (1 - eta)) < 1e-12

    def test_loss_vacuum_is_fixed_point(self):
        rho = np.zeros((3, 3), dtype=complex)
        rho[VACUUM_INDEX, VACUUM_INDEX] = 1.0
        out = apply_channel(loss_channel(0.2), DensityMatrix(rho))
        assert abs(out.matrix[VACUUM_INDEX, VACUUM_INDEX].real - 1.0) < 1e-12

    def test_loss_preserves_polarization_coherence(self):
        # within the surviving block the two levels stay coherent
        vec = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        rho = DensityMatrix(np.outer(vec, vec))
        out = apply_channel(loss_channel(0.5), rho)
        assert abs(out.matrix[0, 1] - 0.25) < 1e-12

    def test_embed_commutes_with_compose(self, rng):
        # Exactly: the vacuum entry multiplies 1 by 1, and the photon block
        # gains only +0.0 terms from the vacuum index.
        for n_a, n_b in ((1, 1), (2, 4), (3, 2), (4, 4)):
            a = KrausChannel(_random_kraus_set(rng, 2, 2, n_a + 1))
            b = KrausChannel(_random_kraus_set(rng, 2, 2, n_b + 1))
            once = embed_qubit_channel(compose(a, b))
            each = compose(embed_qubit_channel(a), embed_qubit_channel(b))
            np.testing.assert_array_equal(once.operators, each.operators)

    def test_embed_qubit_channel_blocks(self, rng):
        c = embed_qubit_channel(depolarizing_channel(0.3))
        assert c.in_dim == RAIL_DIM
        assert verify_cptp(c).valid
        # qubit block transforms as the original channel
        dm2 = random_density_matrix(2, rng)
        big = np.zeros((3, 3), dtype=complex)
        big[:2, :2] = dm2.matrix
        out = apply_channel(c, DensityMatrix(big))
        want = apply_channel(depolarizing_channel(0.3), dm2)
        assert np.max(np.abs(out.matrix[:2, :2] - want.matrix)) < 1e-12
        # vacuum untouched
        vac = np.zeros((3, 3), dtype=complex)
        vac[VACUUM_INDEX, VACUUM_INDEX] = 1.0
        out = apply_channel(c, DensityMatrix(vac))
        assert abs(out.matrix[VACUUM_INDEX, VACUUM_INDEX].real - 1.0) < 1e-12

    def test_beamsplitter_dilation_equals_loss(self):
        for eta in (0.0, 0.25, 0.613, 1.0):
            bs = beamsplitter_to_kraus(eta)
            lc = loss_channel(eta)
            for i in range(3):
                for j in range(3):
                    e = np.zeros((3, 3), dtype=complex)
                    e[i, j] = 1.0
                    a = sum(k @ e @ k.conj().T for k in bs.operators)
                    b = sum(k @ e @ k.conj().T for k in lc.operators)
                    assert np.max(np.abs(a - b)) < 1e-12

    def test_eta_bounds(self):
        for bad in (-0.01, 1.01):
            with pytest.raises(StateError):
                loss_channel(bad)
            with pytest.raises(StateError):
                beamsplitter_to_kraus(bad)


class TestGaussianLayer:
    def test_symplectic_form_shape(self):
        omega = symplectic_form(2)
        assert omega.shape == (4, 4)
        assert np.max(np.abs(omega + omega.T)) < 1e-15

    def test_transform_rejects_nonsymplectic(self):
        with pytest.raises(StateError):
            SymplecticTransform(2.0 * np.eye(2))

    def test_transform_rejects_odd_dim(self):
        with pytest.raises(DimensionError):
            SymplecticTransform(np.eye(3))

    def test_phase_rotation_closed_form(self):
        h = GaussianHamiltonian(
            coupling=np.array([[1.0]]), squeezing=np.zeros((1, 1)),
            duration_s=np.pi / 2,
        )
        s = gaussian_evolve(h)
        want = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert np.max(np.abs(s.matrix - want)) < 1e-12

    def test_beamsplitter_closed_form(self):
        kt = 0.7
        h = GaussianHamiltonian(
            coupling=np.array([[0.0, 1.0], [1.0, 0.0]]),
            squeezing=np.zeros((2, 2)), duration_s=kt,
        )
        s = gaussian_evolve(h)
        c, sn = np.cos(kt), np.sin(kt)
        want = np.array([
            [c, 0, 0, sn],
            [0, c, -sn, 0],
            [0, sn, c, 0],
            [-sn, 0, 0, c],
        ])
        assert np.max(np.abs(s.matrix - want)) < 1e-12
        assert abs(mode_transmittance(s, 0) - c ** 2) < 1e-12
        assert abs(mode_transmittance(s, 1) - c ** 2) < 1e-12

    def test_single_mode_squeezing_closed_form(self):
        r = 0.8
        h = GaussianHamiltonian(
            coupling=np.zeros((1, 1)), squeezing=np.array([[r]]), duration_s=1.0,
        )
        s = gaussian_evolve(h)
        want = np.array([
            [np.cosh(r), -np.sinh(r)],
            [-np.sinh(r), np.cosh(r)],
        ])
        assert np.max(np.abs(s.matrix - want)) < 1e-12
        # singular values e^{+-r} regardless of squeezing axis
        sv = np.linalg.svd(s.matrix, compute_uv=False)
        assert abs(sv[0] - np.exp(r)) < 1e-12
        assert abs(sv[1] - np.exp(-r)) < 1e-12

    def test_random_hamiltonians_give_symplectic(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            k = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            k = (k + k.conj().T) / 2
            d = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            d = (d + d.T) / 2
            h = GaussianHamiltonian(
                coupling=k, squeezing=0.4 * d, duration_s=float(rng.uniform(0, 2))
            )
            s = gaussian_evolve(h).matrix
            omega = symplectic_form(n)
            assert np.max(np.abs(s @ omega @ s.T - omega)) < 1e-9

    def test_hamiltonian_validation(self):
        with pytest.raises(StateError):
            GaussianHamiltonian(
                coupling=np.array([[0.0, 1.0], [0.0, 0.0]]),
                squeezing=np.zeros((2, 2)), duration_s=1.0,
            )
        with pytest.raises(StateError):
            GaussianHamiltonian(
                coupling=np.zeros((2, 2)),
                squeezing=np.array([[0.0, 1.0], [-1.0, 0.0]]), duration_s=1.0,
            )
        with pytest.raises(StateError):
            GaussianHamiltonian(
                coupling=np.zeros((1, 1)), squeezing=np.zeros((1, 1)),
                duration_s=-1.0,
            )

    def test_mode_transmittance_range_check(self):
        s = gaussian_evolve(GaussianHamiltonian(
            coupling=np.zeros((1, 1)), squeezing=np.zeros((1, 1)), duration_s=0.0,
        ))
        assert abs(mode_transmittance(s, 0) - 1.0) < 1e-12
        with pytest.raises(DimensionError):
            mode_transmittance(s, 1)


class TestIdentityChannel:
    def test_identity_is_noop(self, rng):
        dm = random_density_matrix(3, rng)
        out = apply_channel(identity_channel(3), dm)
        assert np.max(np.abs(out.matrix - dm.matrix)) < 1e-15


@pytest.mark.parametrize("make, error, match", [
    (lambda: compose(depolarizing_channel(0.1), loss_channel(0.5)),
     DimensionError, "cannot compose"),
    # An isometry from a qubit into three levels: complete, not square.
    (lambda: apply_to_subsystem(KrausChannel((np.eye(3, 2),)), phi_plus(), 0, [2, 2]),
     DimensionError, "square channel"),
    (lambda: rotation_unitary(1.0, [1.0, 0.0]), DimensionError, "3-vector"),
    (lambda: rotation_unitary(1.0, [0.0, 0.0, 0.0]), StateError, "zero norm"),
    (lambda: sop_rotation_channel(-1.0, 1.0), StateError, "nonnegative"),
    (lambda: sop_rotation_channel(1.0, -1.0), StateError, "nonnegative"),
    (lambda: embed_qubit_channel(loss_channel(0.5)), DimensionError, "only qubit channels"),
], ids=["compose-dims", "subsystem-non-square", "axis-not-3-vector", "axis-zero",
        "sop-negative-rate", "sop-negative-interval", "embed-non-qubit"])
def test_channel_input_checks(make, error, match):
    with pytest.raises(error, match=match):
        make()


@pytest.mark.parametrize("name", ["memory_decay", "entanglement_swap", "teleport"])
def test_dense_pair_operations_are_one_object(name):
    # The dense pair operations live here; repeater and the package
    # re-export them, so each name is one function wherever it is imported.
    assert getattr(repeater, name) is getattr(channels, name) is getattr(qorsim, name)
