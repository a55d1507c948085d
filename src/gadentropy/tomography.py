"""Four-basis single-qubit tomography with binomial shot noise.

Projection bases are H, V, R, D with |R> = (|H> + i|V>)/sqrt(2) and
|D> = (|H> + |V>)/sqrt(2).  Counts are per-basis binomial draws, and error
bars come from a parametric bootstrap at the observed frequencies.  The
sweeps invert the drawn frequencies with `bloch.invert` and score them with
`bloch.production`, which projects them into the Bloch ball.
"""

from __future__ import annotations

import numpy as np

# Identifier of the sampling RNG, recorded in harness output metadata.
# Cross-implementation bit-identity of draws is a non-goal.
RNG_ALGORITHM = "numpy.random.Generator(PCG64)"


def draw_frequencies(probs, shots: int, seed, n_bootstrap: int) -> np.ndarray:
    """Frequencies (..., 1 + n_bootstrap, 4) of the runs with Born probabilities
    `probs` (..., 4), all from one generator `default_rng(seed)`: first every
    run's observed frequencies (index 0, runs in C order), then every run's
    parametric resamples at them (each basis's resamples back to back)."""
    rng = np.random.default_rng(seed)
    observed = rng.binomial(shots, probs) / shots
    # Consecutive draws that share (shots, p) reuse numpy's binomial set-up.
    resampled = rng.binomial(shots, observed[..., None], size=observed.shape + (n_bootstrap,))
    return np.concatenate([observed[..., None, :], resampled.swapaxes(-1, -2) / shots], axis=-2)
