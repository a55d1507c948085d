"""Four-basis single-qubit tomography with binomial shot noise.

Projection bases are H, V, R, D with |R> = (|H> + i|V>)/sqrt(2) and
|D> = (|H> + |V>)/sqrt(2).  Counts are per-basis binomial draws; the state
is reconstructed by Bloch-vector linear inversion followed by a radial
projection back into the Bloch ball when noise pushes the estimate outside.
Error bars come from a parametric bootstrap at the observed frequencies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bloch
from .qstate import QubitState, validate

BASIS_LABELS = ("H", "V", "R", "D")

# Identifier of the sampling RNG, recorded in harness output metadata.
# Cross-implementation bit-identity of draws is a non-goal.
RNG_ALGORITHM = "numpy.random.Generator(PCG64)"

# Stream tag separating bootstrap draws from count draws.
_BOOTSTRAP_STREAM = 0xB007


@dataclass(frozen=True)
class Reconstruction:
    """Reconstructed state with per-element bootstrap standard errors.

    stderr[i, j] combines real and imaginary spread of element (i, j).
    bootstrap_bloch holds the resampled reconstructions as (n_bootstrap, 3)
    Bloch vectors so downstream quantities (entropy productions) can get
    error bars from the same draw.
    """

    state: QubitState
    stderr: np.ndarray
    n_bootstrap: int
    bootstrap_bloch: np.ndarray

    @property
    def bootstrap_states(self) -> tuple[QubitState, ...]:
        """The resampled reconstructions as states."""
        return tuple(QubitState.from_bloch(*b) for b in self.bootstrap_bloch)


def projector_probabilities(state: QubitState) -> np.ndarray:
    """Born probabilities (p_H, p_V, p_R, p_D)."""
    return bloch.born_probabilities(state.bloch_vector())


def inversion_from_frequencies(frequencies) -> np.ndarray:
    """Linear inversion from (f_H, f_V, f_R, f_D) to a Hermitian unit-trace
    matrix; may be unphysical (see `bloch.invert`)."""
    x, y, z = bloch.invert(frequencies)
    return 0.5 * np.array(
        [[1.0 + z, x - 1j * y], [x + 1j * y, 1.0 - z]], dtype=np.complex128
    )


def project_to_physical(m: np.ndarray) -> QubitState:
    """Radially project a Bloch vector of length > 1 back to the sphere.

    For unit-trace Hermitian 2x2 input this is the Frobenius-nearest valid
    state; physical input passes through unchanged.
    """
    x = 2.0 * float(m[0, 1].real)
    y = -2.0 * float(m[0, 1].imag)
    z = float((m[0, 0] - m[1, 1]).real)
    length = np.sqrt(x * x + y * y + z * z)
    if length <= 1.0:
        return QubitState(m)
    return QubitState.from_bloch(x / length, y / length, z / length)


def draw_frequencies(probs, shots: int, seed: int, n_bootstrap: int) -> np.ndarray:
    """Frequencies (..., 1 + n_bootstrap, 4) of the runs with Born probabilities
    `probs` (..., 4): each run's observed frequencies (index 0, all runs drawn
    from `seed` in C order), then its parametric resamples at them (from a
    separate stream of `seed`)."""
    observed = (np.random.default_rng(seed).binomial(shots, probs) / shots)[..., None, :]
    rng = np.random.default_rng(np.random.SeedSequence((seed, _BOOTSTRAP_STREAM)))
    resampled = rng.binomial(shots, observed, size=observed.shape[:-2] + (n_bootstrap, 4))
    return np.concatenate([observed, resampled / shots], axis=-2)


def reconstruct_with_errors(
    state: QubitState, shots: int, seed: int, n_bootstrap: int = 200
) -> Reconstruction:
    """Simulate one tomography run and bootstrap its uncertainty.

    Resamples per-basis binomials at the observed frequencies n_bootstrap
    times and reports the elementwise standard error over the resampled
    reconstructions.  Deterministic given seed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if n_bootstrap < 2:
        raise ValueError("n_bootstrap must be >= 2")
    blochs = bloch.project(bloch.invert(
        draw_frequencies(projector_probabilities(state), shots, seed, n_bootstrap)))
    estimate = QubitState.from_bloch(*blochs[0])
    validate(estimate)
    # Element (0, 0) and (1, 1) carry z/2; the off-diagonals carry (x -+ i y)/2.
    var_x, var_y, var_z = np.var(blochs[1:], axis=0, ddof=1)
    stderr = 0.5 * np.sqrt(np.array([[var_z, var_x + var_y], [var_x + var_y, var_z]]))
    return Reconstruction(
        state=estimate, stderr=stderr, n_bootstrap=n_bootstrap, bootstrap_bloch=blochs[1:]
    )
