"""Four-basis single-qubit tomography with binomial shot noise.

Projection bases are H, V, R, D with |R> = (|H> + i|V>)/sqrt(2) and
|D> = (|H> + |V>)/sqrt(2).  Counts are per-basis binomial draws, and error
bars come from a parametric bootstrap at the observed frequencies.  The
sweeps invert the drawn frequencies with `bloch.invert` and project them as
`bloch.project` does; `project_to_physical` is the matrix reference for that.
"""

from __future__ import annotations

import numpy as np

from .qstate import QubitState

# Identifier of the sampling RNG, recorded in harness output metadata.
# Cross-implementation bit-identity of draws is a non-goal.
RNG_ALGORITHM = "numpy.random.Generator(PCG64)"

# Stream tag separating bootstrap draws from count draws.
_BOOTSTRAP_STREAM = 0xB007


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
    separate stream of `seed`, each basis's resamples back to back)."""
    observed = np.random.default_rng(seed).binomial(shots, probs) / shots
    rng = np.random.default_rng(np.random.SeedSequence((seed, _BOOTSTRAP_STREAM)))
    # Consecutive draws that share (shots, p) reuse numpy's binomial set-up.
    resampled = rng.binomial(shots, observed[..., None], size=observed.shape + (n_bootstrap,))
    return np.concatenate([observed[..., None, :], resampled.swapaxes(-1, -2) / shots], axis=-2)
