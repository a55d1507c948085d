"""Exact single-qubit density-matrix primitives.

Basis convention throughout the package: index 0 = ground = |H>,
index 1 = excited = |V>.  All entropies are in nats.

The entropies act on stacked complex arrays of shape (..., 2, 2)
(`bloch_matrices` and its inverse `bloch_vectors`, `von_neumann_entropies`
and `relative_entropies`), computed with batched `eigvalsh`/`eigh`;
`relative_entropies` takes the weights of rho on sigma's eigenvectors, for
its tr(rho ln sigma) part, in one batched matmul.  The relative entropy of
coherence, S(dephased(rho)) - S(rho), is scored on matrices inside
`budget.productions`, and for the sweeps in closed form by `bloch.coherence`.
`QubitState` holds one such matrix, and `relative_entropy` scores a pair of
them as a Python float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Shared numerical tolerance for support checks and state comparisons.
ATOL = 1e-12


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
        return cls(bloch_matrices((x, y, z)))

    def bloch_vector(self) -> np.ndarray:
        return bloch_vectors(self.matrix)


# |D><D| from |D> = [1, 1] / ||[1, 1]||: each entry is the square of the rounded
# amplitude, 0.4999999999999999, not the 0.5 that `from_bloch(1, 0, 0)` gives.
_D = np.array([1.0, 1.0]) / np.linalg.norm([1.0, 1.0])
PLUS = QubitState(np.outer(_D, _D))


def bloch_matrices(b) -> np.ndarray:
    """Density matrices (I + x X + y Y + z Z) / 2, shape (..., 2, 2), of
    Bloch vectors b of shape (..., 3)."""
    x, y, z = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    out = np.empty(x.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = 0.5 * (1.0 + z)
    out[..., 0, 1] = 0.5 * (x - 1j * y)
    out[..., 1, 0] = 0.5 * (x + 1j * y)
    out[..., 1, 1] = 0.5 * (1.0 - z)
    return out


def bloch_vectors(rho) -> np.ndarray:
    """Bloch vectors (x, y, z), shape (..., 3), of stacked (..., 2, 2) density
    matrices: the inverse of `bloch_matrices`."""
    return np.stack([2.0 * rho[..., 0, 1].real, -2.0 * rho[..., 0, 1].imag,
                     (rho[..., 0, 0] - rho[..., 1, 1]).real], axis=-1)


def _tr_x_ln_x(eigs) -> np.ndarray:
    """sum lam ln lam over the last axis, with negatives clamped to 0 and 0 ln 0 := 0."""
    eigs = np.clip(eigs, 0.0, None)
    return np.sum(eigs * np.log(np.where(eigs > 0.0, eigs, 1.0)), axis=-1)


def von_neumann_entropies(rho) -> np.ndarray:
    """S(rho) = -tr(rho ln rho) of stacked (..., 2, 2) density matrices."""
    return -_tr_x_ln_x(np.linalg.eigvalsh(rho))


def relative_entropies(rho, sigma) -> np.ndarray:
    """D(rho || sigma) = tr(rho ln rho - rho ln sigma) of stacked (..., 2, 2)
    density matrices; the leading axes of rho and sigma broadcast.

    +inf where the support of rho is not contained in the support of sigma:
    an eigenvalue of sigma at most ATOL on which rho has weight above ATOL.
    """
    rho = np.asarray(rho)
    sigma_eigs, sigma_vecs = np.linalg.eigh(sigma)
    # tr(rho ln sigma) from the weight of rho on each eigenvector v_i of sigma,
    # sum_jk rho_jk conj(v_ji) v_ki: vec(rho) as a (1, 4) row times the (4, 2)
    # matrix of the products conj(v_ji) v_ki.
    products = sigma_vecs.conj()[..., :, None, :] * sigma_vecs[..., None, :, :]
    weights = (rho.reshape(rho.shape[:-2] + (1, 4))
               @ products.reshape(products.shape[:-3] + (4, 2)))[..., 0, :].real
    supported = sigma_eigs > ATOL
    cross = np.where(supported, weights * np.log(np.where(supported, sigma_eigs, 1.0)),
                     np.where(weights > ATOL, -np.inf, 0.0))
    return _tr_x_ln_x(np.linalg.eigvalsh(rho)) - np.sum(cross, axis=-1)


def relative_entropy(rho: QubitState, sigma: QubitState) -> float:
    """D(rho || sigma) = tr(rho ln rho - rho ln sigma) in nats.

    Returns +inf when the support of rho is not contained in the support of
    sigma (threshold 1e-12 on sigma's eigenvalues and on the corresponding
    weight of rho).
    """
    return float(relative_entropies(rho.matrix, sigma.matrix))
