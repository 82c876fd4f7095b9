"""Dense complex linear algebra for density-operator simulation.

Everything here works on small dense complex matrices (dimension at most
MAX_DIM): states are validated density operators, plain numpy arrays stand
in for unitaries and Kraus operators. Arrays wrapped in a DensityMatrix are
copied and frozen, so states are immutable and safe to share. The
Bell-weight algebra of two-qubit pairs and the one Bell-basis change live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 64

# Validation tolerances for density operators and unitaries.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNITARY_TOL = 1e-10


class DimensionError(ValueError):
    """Operands have missing, mismatched, or unsupported dimensions."""


class StateError(ValueError):
    """A matrix violates a density-operator invariant."""


def _as_complex_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be a 2-d array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise StateError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class DensityMatrix:
    """A validated density operator.

    Construction enforces hermiticity (max deviation 1e-12), unit trace
    (1e-10) and positive semidefiniteness (eigenvalues above -1e-10), and
    freezes the underlying array.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_complex_matrix(self.matrix, "density matrix")
        rows, cols = arr.shape
        if rows != cols:
            raise DimensionError(f"density matrix must be square, got {arr.shape}")
        if not 1 <= rows <= MAX_DIM:
            raise DimensionError(
                f"dimension {rows} outside supported range 1..{MAX_DIM}"
            )
        herm = np.abs(arr - arr.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise StateError(f"not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = complex(arr.trace())
        if abs(tr - 1.0) > TRACE_TOL:
            raise StateError(f"trace {tr:.12g} differs from 1 beyond {TRACE_TOL:g}")
        # eigvalsh returns ascending eigenvalues; entries are finite here.
        lo = float(np.linalg.eigvalsh(arr)[0])
        if lo < -PSD_TOL:
            raise StateError(f"negative eigenvalue {lo:.3e} below -{PSD_TOL:g}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Tensor (Kronecker) product of two states, a on the left."""
    if not isinstance(a, DensityMatrix) or not isinstance(b, DensityMatrix):
        raise TypeError("tensor expects two DensityMatrix operands")
    if a.dim * b.dim > MAX_DIM:
        raise DimensionError(
            f"product dimension {a.dim * b.dim} exceeds limit {MAX_DIM}"
        )
    return DensityMatrix(np.kron(a.matrix, b.matrix))


def partial_trace(rho: DensityMatrix, dims: list[int], keep: list[int]) -> DensityMatrix:
    """Trace out all subsystems not listed in keep.

    dims gives the subsystem dimensions in tensor order; keep lists the
    subsystem indices to retain (output ordering follows tensor order).
    """
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise DimensionError("subsystem dimensions must be positive")
    total = int(np.prod(dims))
    if total != rho.dim:
        raise DimensionError(
            f"dims {dims} give total dimension {total}, state has {rho.dim}"
        )
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise DimensionError("keep must name at least one subsystem")
    if keep[0] < 0 or keep[-1] >= n:
        raise DimensionError(f"keep indices {keep} out of range for {n} subsystems")

    t = rho.matrix.reshape(dims + dims)
    keep_set = set(keep)
    row = list(range(n))
    # Traced subsystems share their row index with the column side, which
    # contracts the diagonal; kept ones stay free.
    col = [n + i if i in keep_set else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, row + col, out)
    d = int(np.prod([dims[i] for i in keep]))
    return DensityMatrix(reduced.reshape(d, d))


def _matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F(rho, sigma) = (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    When either operand is pure the expression collapses to an expectation
    value, which is evaluated directly (the general eigensolver route turns
    rank deficiency into sqrt-of-noise errors around 1e-8). Mixed pairs go
    through the squared trace norm of sqrt(rho) sqrt(sigma).
    """
    if rho.dim != sigma.dim:
        raise DimensionError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    for a, b in ((rho, sigma), (sigma, rho)):
        w, v = np.linalg.eigh(a.matrix)
        if w[-1] >= 1.0 - 1e-11:
            vec = v[:, -1]
            f = float(w[-1] * np.real(vec.conj() @ b.matrix @ vec))
            return min(max(f, 0.0), 1.0)
    product = _matrix_sqrt_psd(rho.matrix) @ _matrix_sqrt_psd(sigma.matrix)
    f = float(np.linalg.svd(product, compute_uv=False).sum() ** 2)
    return min(max(f, 0.0), 1.0)


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    """Conjugate a state by a unitary: rho -> U rho U^dag."""
    u = _as_complex_matrix(u, "unitary")
    if u.shape != (rho.dim, rho.dim):
        raise DimensionError(f"unitary shape {u.shape} does not match dim {rho.dim}")
    defect = np.abs(u.conj().T @ u - np.eye(rho.dim)).max()
    if defect > UNITARY_TOL:
        raise StateError(f"matrix is not unitary: max |U^dag U - I| = {defect:.3e}")
    out = u @ rho.matrix @ u.conj().T
    return DensityMatrix((out + out.conj().T) / 2)


# Pauli operators and two-qubit Bell basis.

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Bell kets ordered (Phi+, Psi+, Phi-, Psi-): |beta_k> = (I x sigma_k)|Phi+>
# with sigma_k in (I, X, Z, XZ). Index arithmetic under Pauli errors is the
# Klein four-group: X flips bit 0, Z flips bit 1.
_PHI_PLUS_KET = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_SIDE_OPS = (PAULI_I, PAULI_X, PAULI_Z, PAULI_X @ PAULI_Z)
BELL_KETS = np.stack(
    [np.kron(np.eye(2), op) @ _PHI_PLUS_KET for op in BELL_SIDE_OPS]
)


def pure_state(vec: np.ndarray) -> DensityMatrix:
    """Density operator |v><v| of a normalized state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise StateError("state vector has zero norm")
    v = v / norm
    return DensityMatrix(np.outer(v, v.conj()))


def bell_state(index: int) -> DensityMatrix:
    """Bell pair by index: 0 Phi+, 1 Psi+, 2 Phi-, 3 Psi-."""
    if not 0 <= index < 4:
        raise DimensionError("Bell index must be 0..3")
    return pure_state(BELL_KETS[index])


def bell_basis(m: np.ndarray) -> np.ndarray:
    """Two-qubit matrix m in the Bell basis: entry (j, k) is <beta_j|m|beta_k>."""
    return BELL_KETS.conj() @ m @ BELL_KETS.T


def bell_diagonal_weights(rho: DensityMatrix) -> np.ndarray:
    """Diagonal of a two-qubit state in the Bell basis (length-4 vector)."""
    if rho.dim != 4:
        raise DimensionError("Bell projection needs a two-qubit state")
    return bell_basis(rho.matrix).diagonal().real.copy()


def bell_diagonal_state(weights) -> DensityMatrix:
    """Two-qubit state diagonal in the Bell basis with the given weights."""
    w = np.asarray(weights, dtype=float)
    return DensityMatrix(BELL_KETS.T @ (w[:, None] * BELL_KETS.conj()))


# Bell-weight algebra: weights in BELL_KETS order. The decay, dephasing and
# swap steps take one pair, any length-4 sequence of weights, and return its
# four new weights as a tuple of floats.

def bell_decay(b, lam) -> tuple[float, float, float, float]:
    """Depolarize one or both qubits with total survival weight lam:
    lam * b[k] + (1 - lam) / 4."""
    b0, b1, b2, b3 = b
    mixed = (1.0 - lam) / 4.0
    return (lam * b0 + mixed, lam * b1 + mixed, lam * b2 + mixed, lam * b3 + mixed)


def bell_dephase(b, p: float) -> tuple[float, float, float, float]:
    """Phase-flip one qubit with probability p: (1 - p) * b[k] + p * b[k ^ 2]."""
    b0, b1, b2, b3 = b
    q = 1.0 - p
    return (q * b0 + p * b2, q * b1 + p * b3, q * b2 + p * b0, q * b3 + p * b1)


def bell_convolve(a, b) -> tuple[float, float, float, float]:
    """Bell weights after swapping pairs a and b: out[k] = sum_g a[g] b[g ^ k],
    summed over g in order."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        ((a0 * b0 + a1 * b1) + a2 * b2) + a3 * b3,
        ((a0 * b1 + a1 * b0) + a2 * b3) + a3 * b2,
        ((a0 * b2 + a1 * b3) + a2 * b0) + a3 * b1,
        ((a0 * b3 + a1 * b2) + a2 * b1) + a3 * b0,
    )
