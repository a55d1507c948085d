"""Four-basis single-qubit tomography with binomial shot noise.

Projection bases are H, V, R, D with |R> = (|H> + i|V>)/sqrt(2) and
|D> = (|H> + |V>)/sqrt(2).  `estimates` measures the evolved states it is
given: per-basis binomial counts, a parametric bootstrap at the observed
frequencies for the error bars, and the scores of both.
"""

from __future__ import annotations

import numpy as np

from . import bloch

# Identifier of the sampling RNG, recorded in harness output metadata.
# Cross-implementation bit-identity of draws is a non-goal.
RNG_ALGORITHM = "numpy.random.Generator(PCG64)"
# Most runs (rows x (1 + n_bootstrap)) `estimates` resamples and scores at a
# time, unless one row alone has more: 2**12 runs of 4 frequencies are 128 kB.
BLOCK_RUNS = 2**12


def estimates(initial, final, p, shots: int, seed, n_bootstrap: int, population: bool):
    """Per-row (point, stderr, projected count), shape (3, rows), of the production
    measured by tomography, `shots` shots per basis, of Bloch vectors `final`
    (rows, 3) evolved from prepared states `initial`, a (|b|, z) pair of (rows,) arrays.

    All draws come from one generator `default_rng(seed)`: first every row's
    observed counts, then per row and basis its `n_bootstrap` resamples at
    the observed frequency, back to back, drawn and scored one block of at
    most `BLOCK_RUNS` runs (at least one row) at a time; numpy draws an array
    of binomials in C order, so the stream does not depend on the block size.
    `bloch.production` scores each run from `initial`, both dephased when
    `population`: the point is the observed run's score, the stderr the
    resamples' sample std, and the count is of runs with |b| > 1.
    """
    rng = np.random.default_rng(seed)
    counts = rng.binomial(shots, bloch.born_probabilities(final))
    out = np.empty((3, len(counts)))
    rows = max(1, BLOCK_RUNS // (1 + n_bootstrap))
    # Reused by every block: fresh 128 kB arrays made malloc trim and refault its heap.
    buffer = np.empty((min(rows, len(counts)), 4, 1 + n_bootstrap))
    for start in range(0, len(counts), rows):
        block = slice(start, start + rows)
        observed = counts[block, :, None]
        # Basis-major: each basis's contiguous plane inverts into a Bloch component plane.
        freqs = buffer[:len(observed)]
        freqs[..., :1] = observed
        # Consecutive draws that share (shots, p) reuse numpy's binomial set-up.
        freqs[..., 1:] = rng.binomial(shots, observed / shots, size=freqs[..., 1:].shape)
        freqs /= shots
        x, y, z = bloch.invert(freqs.swapaxes(1, 2))
        length = np.sqrt(x * x + y * y + z * z)
        prepared = [part[block, None] for part in initial]
        production = bloch.production(prepared, (length, z), p[block, None], population)
        out[:, block] = (production[:, 0], np.std(production[:, 1:], axis=1, ddof=1),
                         np.sum(length > 1.0, axis=1))
    return out
