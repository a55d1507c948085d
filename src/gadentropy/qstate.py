"""Exact single-qubit density-matrix primitives.

Basis convention throughout the package: index 0 = ground = |H>,
index 1 = excited = |V>.  All entropies are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Shared numerical tolerance for validation and support checks.
ATOL = 1e-12


class StateValidationError(ValueError):
    """A density-matrix invariant is violated; carries the violation size."""

    def __init__(self, message: str, magnitude: float):
        super().__init__(f"{message} (violation magnitude {magnitude:.3e})")
        self.magnitude = magnitude


class NotHermitianError(StateValidationError):
    pass


class TraceDeviationError(StateValidationError):
    pass


class NegativeEigenvalueError(StateValidationError):
    pass


@dataclass(frozen=True)
class QubitState:
    """Immutable 2x2 density matrix.

    The wrapped array is copied and marked read-only, so instances are safe
    to share across threads and processes.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def from_bloch(cls, x: float, y: float, z: float) -> "QubitState":
        return cls(
            0.5
            * np.array(
                [[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=np.complex128
            )
        )

    @classmethod
    def diagonal(cls, p_ground: float, p_excited: float) -> "QubitState":
        return cls(np.diag([p_ground, p_excited]).astype(np.complex128))

    @classmethod
    def pure(cls, ket) -> "QubitState":
        """Projector |psi><psi| from a (normalized) 2-vector."""
        v = np.asarray(ket, dtype=np.complex128).reshape(2)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))

    def bloch_vector(self) -> np.ndarray:
        m = self.matrix
        return np.array(
            [2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real]
        )

    def isclose(self, other: "QubitState", atol: float = ATOL) -> bool:
        return bool(np.allclose(self.matrix, other.matrix, atol=atol, rtol=0.0))


# Common fixed states.
MAXIMALLY_MIXED = QubitState.diagonal(0.5, 0.5)
PLUS = QubitState.pure([1.0, 1.0])  # |D><D|


def validate(state: QubitState) -> None:
    """Raise the first violated invariant (Hermiticity, trace, positivity)."""
    m = state.matrix
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > ATOL:
        raise NotHermitianError("matrix is not Hermitian", herm_dev)
    trace_dev = abs(float(np.trace(m).real) - 1.0) + abs(float(np.trace(m).imag))
    if trace_dev > ATOL:
        raise TraceDeviationError("trace differs from 1", trace_dev)
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -ATOL:
        raise NegativeEigenvalueError("matrix has a negative eigenvalue", -min_eig)


def eigenvalues(state: QubitState) -> np.ndarray:
    """Ascending eigenvalues with sub-tolerance negatives clamped to 0."""
    eigs = np.linalg.eigvalsh(state.matrix)
    return np.clip(eigs, 0.0, None)


def von_neumann_entropy(state: QubitState) -> float:
    """S(rho) = -tr(rho ln rho) in nats, with 0 ln 0 := 0."""
    eigs = eigenvalues(state)
    nz = eigs[eigs > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def relative_entropy(rho: QubitState, sigma: QubitState) -> float:
    """D(rho || sigma) = tr(rho ln rho - rho ln sigma) in nats.

    Returns +inf when the support of rho is not contained in the support of
    sigma (threshold 1e-12 on sigma's eigenvalues and on the corresponding
    weight of rho).
    """
    rho_eigs = eigenvalues(rho)
    nz = rho_eigs[rho_eigs > 0.0]
    tr_rho_ln_rho = float(np.sum(nz * np.log(nz)))

    sigma_eigs, sigma_vecs = np.linalg.eigh(sigma.matrix)
    # Weight of rho on each eigenvector of sigma.
    weights = np.real(np.einsum("ji,jk,ki->i", sigma_vecs.conj(), rho.matrix, sigma_vecs))
    tr_rho_ln_sigma = 0.0
    for s, w in zip(sigma_eigs, weights):
        if s <= ATOL:
            if w > ATOL:
                return math.inf
        else:
            tr_rho_ln_sigma += w * math.log(s)
    return tr_rho_ln_rho - tr_rho_ln_sigma


def dephase(state: QubitState) -> QubitState:
    """Remove off-diagonal elements (energy-eigenbasis dephasing map)."""
    m = state.matrix
    return QubitState(np.diag(np.diag(m)))


def l1_coherence(state: QubitState) -> float:
    """Sum of absolute values of off-diagonal elements; 2|rho_01| for a qubit."""
    return 2.0 * float(np.abs(state.matrix[0, 1]))


def rel_entropy_coherence(state: QubitState) -> float:
    """Relative entropy of coherence C(rho) = S(dephase(rho)) - S(rho)."""
    return von_neumann_entropy(dephase(state)) - von_neumann_entropy(state)


def fidelity(rho: QubitState, sigma: QubitState) -> float:
    """Uhlmann fidelity; closed form for qubits tr(rho sigma) + 2 sqrt(det rho det sigma)."""
    overlap = float(np.trace(rho.matrix @ sigma.matrix).real)
    det_prod = float(np.linalg.det(rho.matrix).real * np.linalg.det(sigma.matrix).real)
    f = overlap + 2.0 * math.sqrt(max(det_prod, 0.0))
    return min(max(f, 0.0), 1.0)
