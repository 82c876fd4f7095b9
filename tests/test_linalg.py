"""Density-matrix container, partial trace, Bell toolbox, Uhlmann fidelity."""

import numpy as np
import pytest

from qorsim.linalg import (
    BELL_KETS,
    BELL_SIDE_OPS,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    DensityMatrix,
    DimensionError,
    StateError,
    apply_unitary,
    bell_diagonal_state,
    bell_diagonal_weights,
    bell_state,
    fidelity,
    ket,
    maximally_mixed,
    partial_trace,
    phi_plus,
    pure_state,
    random_density_matrix,
    random_unitary,
    tensor,
    werner_state,
)


class TestDensityMatrixValidation:
    def test_accepts_valid_state(self, rng):
        dm = random_density_matrix(5, rng)
        assert dm.dim == 5
        assert abs(np.trace(dm.matrix) - 1.0) < 1e-12

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            DensityMatrix(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        with pytest.raises(StateError):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(StateError):
            DensityMatrix(m)

    def test_rejects_nan(self):
        m = np.diag([np.nan, 1.0]).astype(complex)
        with pytest.raises(StateError):
            DensityMatrix(m)

    @pytest.mark.parametrize("entries, error", [
        # Smallest eigenvalue, against PSD_TOL = 1e-10; the negative one is
        # listed last so that its place in the spectrum is not the first.
        ([[1.0 + 0.5e-10, 0.0], [0.0, -0.5e-10]], None),
        ([[1.0 + 2e-10, 0.0], [0.0, -2e-10]], "negative eigenvalue"),
        # Trace, against TRACE_TOL = 1e-10.
        ([[0.5 + 0.5e-10, 0.0], [0.0, 0.5]], None),
        ([[0.5 + 2e-10, 0.0], [0.0, 0.5]], "trace"),
        ([[0.5 - 2e-10, 0.0], [0.0, 0.5]], "trace"),
        # Hermiticity, against HERMITICITY_TOL = 1e-12.
        ([[0.5, 0.1 + 0.5e-12], [0.1, 0.5]], None),
        ([[0.5, 0.1 + 2e-12], [0.1, 0.5]], "not Hermitian"),
        ([[0.5, 0.1j + 2e-12j], [-0.1j, 0.5]], "not Hermitian"),
        # Non-finite entries fail before any other check (see also
        # test_rejects_nan).
        ([[0.5, np.nan], [np.nan, 0.5]], "non-finite"),
        ([[0.5, 0.0], [0.0, np.inf]], "non-finite"),
    ])
    def test_validation_boundaries(self, entries, error):
        m = np.array(entries, dtype=complex)
        if error is None:
            assert np.array_equal(DensityMatrix(m).matrix, m)
        else:
            with pytest.raises(StateError, match=error):
                DensityMatrix(m)

    def test_eigenvalue_boundary_in_a_rotated_basis(self):
        # The same spectra as above, off the computational basis.
        u = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2)
        for lo, error in ((-0.5e-10, None), (-2e-10, "negative eigenvalue")):
            m = u @ np.diag([1.0 - lo, lo]) @ u.conj().T
            m = (m + m.conj().T) / 2
            if error is None:
                DensityMatrix(m)
            else:
                with pytest.raises(StateError, match=error):
                    DensityMatrix(m)

    def test_rejects_oversized(self):
        with pytest.raises(DimensionError):
            DensityMatrix(np.eye(128, dtype=complex) / 128)

    def test_matrix_is_immutable(self):
        dm = maximally_mixed(2)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 9.0


def _partial_trace_loops(rho, dims, keep):
    """Independent oracle: explicit index loops, no einsum."""
    keep = list(keep)
    traced = [i for i in range(len(dims)) if i not in keep]
    kdim = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((kdim, kdim), dtype=complex)

    def unravel(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def ravel(idx, subset):
        flat = 0
        for i in subset:
            flat = flat * dims[i] + idx[i]
        return flat

    n = int(np.prod(dims))
    for a in range(n):
        ia = unravel(a)
        for b in range(n):
            ib = unravel(b)
            if all(ia[t] == ib[t] for t in traced):
                out[ravel(ia, keep), ravel(ib, keep)] += rho[a, b]
    return out


class TestPartialTrace:
    @pytest.mark.parametrize("dims,keep", [
        ([2, 2], [0]),
        ([2, 2], [1]),
        ([2, 3], [0]),
        ([2, 3], [1]),
        ([2, 2, 2], [0, 2]),
        ([2, 2, 2], [1]),
        ([3, 2, 2], [0, 1]),
        ([2, 2, 3], [2]),
    ])
    def test_matches_loop_oracle(self, rng, dims, keep):
        for _ in range(25):
            dm = random_density_matrix(int(np.prod(dims)), rng)
            got = partial_trace(dm, dims, keep)
            want = _partial_trace_loops(dm.matrix, dims, keep)
            assert np.max(np.abs(got.matrix - want)) < 1e-12

    def test_keep_everything_is_identity(self, rng):
        dm = random_density_matrix(6, rng)
        out = partial_trace(dm, [2, 3], [0, 1])
        assert np.max(np.abs(out.matrix - dm.matrix)) < 1e-14

    def test_product_state_factors(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        joint = tensor(a, b)
        assert np.max(np.abs(partial_trace(joint, [2, 3], [0]).matrix - a.matrix)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, [2, 3], [1]).matrix - b.matrix)) < 1e-12

    def test_output_is_valid_state(self, rng):
        for _ in range(50):
            dm = random_density_matrix(8, rng)
            out = partial_trace(dm, [2, 2, 2], [1])
            assert abs(np.trace(out.matrix) - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(out.matrix)) > -1e-12

    def test_bad_dims_raise(self, rng):
        dm = random_density_matrix(4, rng)
        with pytest.raises(DimensionError):
            partial_trace(dm, [2, 3], [0])
        with pytest.raises(DimensionError):
            partial_trace(dm, [2, 2], [2])
        with pytest.raises(DimensionError):
            partial_trace(dm, [2, 2], [])


class TestTensorAndUnitary:
    def test_tensor_dims_multiply(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        assert tensor(a, b).dim == 6

    def test_tensor_matches_kron(self, rng):
        a = random_density_matrix(2, rng)
        b = random_density_matrix(2, rng)
        assert np.max(np.abs(tensor(a, b).matrix - np.kron(a.matrix, b.matrix))) < 1e-15

    def test_apply_unitary_conjugates(self, rng):
        dm = random_density_matrix(3, rng)
        u = random_unitary(3, rng)
        out = apply_unitary(dm, u)
        assert np.max(np.abs(out.matrix - u @ dm.matrix @ u.conj().T)) < 1e-12

    def test_apply_unitary_rejects_nonunitary(self, rng):
        dm = random_density_matrix(2, rng)
        with pytest.raises(StateError):
            apply_unitary(dm, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_random_unitary_is_unitary(self, rng):
        for dim in (2, 3, 5):
            for _ in range(20):
                u = random_unitary(dim, rng)
                assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12


class TestBellToolbox:
    def test_bell_kets_orthonormal(self):
        g = BELL_KETS @ BELL_KETS.conj().T
        assert np.max(np.abs(g - np.eye(4))) < 1e-15

    def test_bell_kets_from_side_operators(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        for k, op in enumerate(BELL_SIDE_OPS):
            want = np.kron(np.eye(2), op) @ phi
            assert np.max(np.abs(BELL_KETS[k] - want)) < 1e-15

    def test_side_operators_are_pauli_group(self):
        assert np.array_equal(BELL_SIDE_OPS[0], PAULI_I)
        assert np.array_equal(BELL_SIDE_OPS[1], PAULI_X)
        assert np.array_equal(BELL_SIDE_OPS[2], PAULI_Z)
        assert np.max(np.abs(BELL_SIDE_OPS[3] - PAULI_X @ PAULI_Z)) < 1e-15

    def test_phi_plus_is_bell_zero(self):
        assert np.max(np.abs(phi_plus().matrix - bell_state(0).matrix)) < 1e-15

    def test_bell_state_index_range(self):
        with pytest.raises(DimensionError):
            bell_state(4)

    def test_weights_invert_synthesis(self, rng):
        for _ in range(20):
            w = rng.dirichlet(np.ones(4))
            rho = bell_diagonal_state(w)
            want = sum(w[k] * np.outer(BELL_KETS[k], BELL_KETS[k].conj()) for k in range(4))
            assert np.max(np.abs(rho.matrix - want)) < 1e-15
            got = bell_diagonal_weights(rho)
            assert np.max(np.abs(got - w)) < 1e-12

    def test_werner_fidelity_roundtrip(self):
        for f in (0.25, 0.3, 0.6, 1.0):
            w = werner_state(f)
            assert abs(bell_diagonal_weights(w)[0] - f) < 1e-12
            assert abs(fidelity(w, phi_plus()) - f) < 1e-12

    def test_werner_bounds(self):
        with pytest.raises(StateError):
            werner_state(1.2)
        with pytest.raises(StateError):
            werner_state(-0.1)

    def test_ket_errors(self):
        with pytest.raises(DimensionError):
            ket(3, 3)
        with pytest.raises(DimensionError):
            ket(-1, 2)

    def test_pure_state_normalizes(self):
        dm = pure_state(np.array([3.0, 4.0]))
        assert abs(np.trace(dm.matrix) - 1.0) < 1e-12
        assert abs(dm.matrix[0, 0] - 9.0 / 25.0) < 1e-12

    def test_pure_state_rejects_zero_vector(self):
        with pytest.raises(StateError):
            pure_state(np.zeros(2))


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        for _ in range(30):
            dm = random_density_matrix(4, rng)
            assert abs(fidelity(dm, dm) - 1.0) < 1e-12

    def test_symmetry(self, rng):
        for _ in range(30):
            a = random_density_matrix(3, rng)
            b = random_density_matrix(3, rng)
            assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-10

    def test_pure_pure_is_overlap(self, rng):
        for _ in range(30):
            u = random_unitary(4, rng)
            psi, phi = u[:, 0], u @ np.ones(4) / 2.0
            want = abs(np.vdot(psi, phi)) ** 2
            got = fidelity(pure_state(psi), pure_state(phi))
            assert abs(got - want) < 1e-12

    def test_pure_target_is_expectation(self, rng):
        for _ in range(30):
            dm = random_density_matrix(3, rng)
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            v /= np.linalg.norm(v)
            want = float(np.real(v.conj() @ dm.matrix @ v))
            assert abs(fidelity(pure_state(v), dm) - want) < 1e-12
            assert abs(fidelity(dm, pure_state(v)) - want) < 1e-12

    def test_orthogonal_pure_states(self):
        assert fidelity(pure_state(ket(0, 2)), pure_state(ket(1, 2))) < 1e-12

    def test_bounds(self, rng):
        for _ in range(50):
            a = random_density_matrix(2, rng)
            b = random_density_matrix(2, rng)
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0

    def test_mixed_mixed_matches_eigen_oracle(self, rng):
        # Full-rank pairs: compare against the direct sqrt(sqrt(a) b sqrt(a))
        # definition evaluated with an independent eigendecomposition.
        for _ in range(20):
            a = random_density_matrix(3, rng)
            b = random_density_matrix(3, rng)
            wa, va = np.linalg.eigh(a.matrix)
            ra = (va * np.sqrt(np.clip(wa, 0, None))) @ va.conj().T
            inner = ra @ b.matrix @ ra
            w = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
            want = float(np.sum(np.sqrt(w)) ** 2)
            assert abs(fidelity(a, b) - want) < 1e-8

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            fidelity(random_density_matrix(2, rng), random_density_matrix(3, rng))

    def test_maximally_mixed_vs_pure(self):
        assert abs(fidelity(maximally_mixed(2), pure_state(ket(0, 2))) - 0.5) < 1e-12
        assert abs(fidelity(maximally_mixed(4), phi_plus()) - 0.25) < 1e-12
