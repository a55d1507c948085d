"""Four-basis single-qubit tomography with binomial shot noise.

Projection bases are H, V, R, D with |R> = (|H> + i|V>)/sqrt(2) and
|D> = (|H> + |V>)/sqrt(2).  `counts` draws the per-basis binomial counts of
the evolved states it is given; `estimates` scores the counts it is given
and puts a 95% interval on each score, in closed form from the same counts.
"""

from __future__ import annotations

import numpy as np

from . import bloch

# Identifier of the sampling RNG, recorded in harness output metadata.
# Cross-implementation bit-identity of draws is a non-goal.
RNG_ALGORITHM = "numpy.random.Generator(PCG64)"
# Each experiment's draws in order, as the sidecar records them.
STREAM_DERIVATION = ("experiment e (1 coherent, 2 dephased) draws from "
                     "numpy.random.default_rng((config.seed, e)) its determinate rows' "
                     "counts in CSV order, each row's H, V, R, D")
# The normal quantile of every 95% interval; a stderr is the interval's width / (2 Z95).
Z95 = 1.96


def streams(seed) -> tuple:
    """The generators of experiment 1 (coherent) and 2 (dephased), `default_rng((seed, e))`."""
    return tuple(np.random.default_rng((seed, e)) for e in (1, 2))


def counts(final, shots: int, seed) -> np.ndarray:
    """Observed counts (rows, 4) of `shots` shots per basis of Bloch vectors `final` (rows, 3),
    drawn row by row, H, V, R, D, from `default_rng(seed)`: `seed` itself if a Generator."""
    return np.random.default_rng(seed).binomial(shots, bloch.born_probabilities(final))


def wilson(k, n):
    """(k / n, lo, hi): the proportion of k successes in n trials and Wilson's
    95% score interval for it (J. Am. Stat. Assoc. 22, 209, 1927)."""
    f = np.asarray(k, dtype=float) / n
    shrink = 1.0 + Z95 * Z95 / n
    centre = (f + Z95 * Z95 / (2.0 * n)) / shrink
    half = Z95 * np.sqrt(f * (1.0 - f) / n + Z95 * Z95 / (4.0 * n * n)) / shrink
    return f, centre - half, centre + half


def difference(first, second):
    """(a - b, lo, hi) of two independent (estimate, lo, hi) triples, by MOVER
    (Zou & Donner, Stat. Med. 27, 1693, 2008): each limit of the difference
    combines the distances to the limits of its two parts.  On two Wilson
    triples it is Newcombe's hybrid score interval (Stat. Med. 17, 873, 1998,
    method 10)."""
    (a, a_lo, a_hi), (b, b_lo, b_hi) = first, second
    d = a - b
    return d, d - np.hypot(a - a_lo, b_hi - b), d + np.hypot(a_hi - a, b - b_lo)


def estimates(counts, initial, p, shots: int, population: bool):
    """(point, lo, hi, projected) per row of the production measured by the
    observed `counts` (rows, 4), `shots` shots per basis, of states prepared as
    `initial`, a (|b|, z) pair of (rows,) arrays.

    `bloch.production` scores the run's inverted Bloch vector b from `initial`,
    both dephased when `population`; `projected` flags the runs with |b| > 1,
    which it projects into the ball.  [lo, hi] is a 95% interval that holds
    the point:
    - the population part is a concave function of z alone, largest at
      z = 2p - 1, so its interval is the image of Newcombe's interval for
      z = f_H - f_V, widened to hold the projected z;
    - the total's is the point +- Z95 first-order (delta-method) sd of the
      projected estimator, at the observed frequencies.
    """
    freqs = counts / shots
    x, y, z = bloch.invert(freqs)
    length = np.sqrt(x * x + y * y + z * z)
    point = bloch.production(initial, (length, z), p, population)
    if population:
        _, z_lo, z_hi = difference(wilson(counts[:, 0], shots), wilson(counts[:, 1], shots))
        scored = z / np.maximum(length, 1.0)
        ends = np.minimum(z_lo, scored), np.maximum(z_hi, scored)
        low, high, top = (bloch.production(initial, (np.abs(v), v), p, True)
                          for v in (*ends, np.clip(2.0 * p - 1.0, *ends)))
        lo, hi = np.minimum(np.minimum(low, high), point), np.maximum(top, point)
        return point, lo, hi, length > 1.0
    # The gradient of S(min(1, |b|)) + k z / max(1, |b|) is a b + (k / max(1, |b|)) e_z,
    # k = artanh(2p - 1): inside the ball a = -artanh(|b|) / |b| (a b -> 0 at b = 0);
    # on and outside it S = 0 and only the flux's a = -k z / |b|^3 remains.
    k = np.arctanh(2.0 * p - 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # each branch off its own side
        a = np.where(length < 1.0, -np.arctanh(length) / length, -k * z / length**3)
    a[length == 0.0] = 0.0
    f_h, f_v, f_r, f_d = freqs.T
    variance = ((a * x) ** 2 * 4.0 * f_d * (1.0 - f_d) + (a * y) ** 2 * 4.0 * f_r * (1.0 - f_r)
                + (a * z + k / np.maximum(length, 1.0)) ** 2
                * (f_h * (1.0 - f_h) + f_v * (1.0 - f_v))) / shots
    half = Z95 * np.sqrt(variance)
    return point, point - half, point + half, length > 1.0
