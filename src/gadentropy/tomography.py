"""Four-basis single-qubit tomography with binomial shot noise.

Projection bases are H, V, R, D with |R> = (|H> + i|V>)/sqrt(2) and
|D> = (|H> + |V>)/sqrt(2).  `counts` draws the per-basis binomial counts of
the evolved states it is given; `estimates` scores the counts it is given,
with a parametric bootstrap at the observed frequencies for the error bars.
"""

from __future__ import annotations

import numpy as np

from . import bloch

# Identifier of the sampling RNG, recorded in harness output metadata.
# Cross-implementation bit-identity of draws is a non-goal.
RNG_ALGORITHM = "numpy.random.Generator(PCG64)"
# Each experiment's draws in order (`counts`, then `estimates`), as the sidecar records them.
STREAM_DERIVATION = ("experiment e (1 coherent, 2 dephased) draws from "
                     "numpy.random.default_rng((config.seed, e)) its determinate rows' runs in "
                     "CSV order, then all their resamples, each basis's (H, V, R, D) back to back")
# Most runs (rows x (1 + n_bootstrap)) `estimates` resamples and scores at a
# time, unless one row alone has more: 2**12 runs of 4 frequencies are 128 kB.
BLOCK_RUNS = 2**12


def counts(final, shots: int, seed):
    """Observed counts (rows, 4) of `shots` shots per basis of Bloch vectors `final` (rows, 3),
    drawn row by row, H, V, R, D, from `default_rng(seed)`, and that generator to continue."""
    rng = np.random.default_rng(seed)
    return rng.binomial(shots, bloch.born_probabilities(final)), rng


def estimates(counts, rng, initial, p, shots: int, n_bootstrap: int, population: bool):
    """Per-row (point, stderr, projected count), shape (3, rows), of the production
    measured by the observed `counts` (rows, 4), `shots` shots per basis, of states
    prepared as `initial`, a (|b|, z) pair of (rows,) arrays.

    `rng` continues the stream `counts` began: per row and basis its
    `n_bootstrap` resamples at the observed frequency, back to back, drawn and
    scored one block of at most `BLOCK_RUNS` runs (at least one row) at a time;
    numpy draws an array of binomials in C order, so the stream does not depend
    on the block size.  `bloch.production` scores each run from `initial`, both
    dephased when `population`: the point is the observed run's score, the
    stderr the resamples' sample std, and the count is of runs with |b| > 1.
    """
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
