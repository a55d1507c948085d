"""Four-basis single-qubit tomography with binomial shot noise.

Projection bases are H, V, R, D with |R> = (|H> + i|V>)/sqrt(2) and
|D> = (|H> + |V>)/sqrt(2).  Counts are per-basis binomial draws, and error
bars come from a parametric bootstrap at the observed frequencies.  The
sweeps invert each basis-major block (rows, 4, 1 + n_bootstrap) with
`bloch.invert` and score it with `bloch.production`, which projects the
estimates into the Bloch ball.
"""

from __future__ import annotations

import numpy as np

# Identifier of the sampling RNG, recorded in harness output metadata.
# Cross-implementation bit-identity of draws is a non-goal.
RNG_ALGORITHM = "numpy.random.Generator(PCG64)"
# Most runs (rows x (1 + n_bootstrap)) one block of `draw_frequencies` holds,
# unless one row alone has more: 2**12 runs of 4 frequencies are 128 kB.
BLOCK_RUNS = 2**12


def draw_frequencies(probs, shots: int, seed, n_bootstrap: int):
    """Yield the frequencies of the runs with Born probabilities `probs`
    (rows, 4) as basis-major blocks (block rows, 4, 1 + n_bootstrap), rows in
    order, each of at most `BLOCK_RUNS` runs (at least one row): per row and
    basis, the observed frequency (index 0), then its resamples at it.

    All come from one generator `default_rng(seed)`: first every row's
    observed counts, then per row and basis its resamples back to back.
    numpy draws an array of binomials in C order, so the stream does not
    depend on the block size.
    """
    rng = np.random.default_rng(seed)
    counts = rng.binomial(shots, probs)
    rows = max(1, BLOCK_RUNS // (1 + n_bootstrap))
    for start in range(0, len(counts), rows):
        block = counts[start:start + rows, :, None]
        # Consecutive draws that share (shots, p) reuse numpy's binomial set-up.
        resampled = rng.binomial(shots, block / shots, size=block.shape[:2] + (n_bootstrap,))
        yield np.concatenate([block, resampled], axis=-1) / shots
