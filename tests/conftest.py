"""Test-wide settings and helpers.

Hypothesis draws the same examples on every run and has no per-example
deadline, so a slow host neither changes nor fails a test.  The helpers:

- `violation`, `l1_coherence` and `fidelity` measure 2x2 density matrices in
  ways the package itself does not need, and `dephased` removes their
  off-diagonal elements;
- `random_density_matrices` draws stacks of full-rank states, and
  `random_state` one `QubitState` uniform in the Bloch ball;
- `BENCH_RK4_CASES` lists the benchmark's Lindblad-vs-Kraus cases, and
  `bath_of_occupation` gives the bath of each;
- `nearest_states` projects matrices onto the valid states by `eigh`, the
  reference for the sweep's radial projection, and `nearest_vectors` does the
  same to Bloch vectors;
- `coherences` takes the relative entropy of coherence of matrices from
  `productions`;
- `length_z` gives the (|b|, z) pairs that the `bloch` entropy functions take,
  and `relative_entropy_to_thermal` scores Bloch vectors with the sweep's
  scorer `bloch.production`;
- `frequencies` states one experiment's stream of draws on its own, without
  the package's sampler, and `reconstruct` inverts one state's draw and
  projects it by `eigh`;
- `binomial_pmf`, `lattice_verdicts` and `lattice_coverage` give the exact
  coverage of an interval that is a function of two independent binomial
  counts, as a sum over their lattice, `population_coverage` that of the
  sweep's population interval, and `projection_bound` a bound on what its
  neglect of the radial projection leaves out;
- `records` joins the blocks of a sweep into one array of its records."""

import math

import numpy as np
from hypothesis import settings

from gadentropy import bloch, sweep, tomography
from gadentropy.budget import productions
from gadentropy.channel import BathSpec
from gadentropy.qstate import ATOL, QubitState, bloch_matrices, bloch_vectors

settings.register_profile("gadentropy", derandomize=True, deadline=None)
settings.load_profile("gadentropy")


def violation(m):
    """The first density-matrix invariant that the 2x2 matrix m breaks by more
    than ATOL, as (name, size), in the order Hermiticity, unit trace,
    positivity; None for a valid state."""
    m = np.asarray(m)
    trace = complex(np.trace(m))
    for name, size in (("not Hermitian", float(np.max(np.abs(m - m.conj().T)))),
                       ("trace differs from 1", abs(trace.real - 1.0) + abs(trace.imag)),
                       ("negative eigenvalue", -float(np.linalg.eigvalsh(m)[0]))):
        if size > ATOL:
            return name, size
    return None


def l1_coherence(rho):
    """Sum of the off-diagonal moduli of stacked (..., 2, 2) matrices, 2 |rho_01|."""
    return 2.0 * np.abs(np.asarray(rho)[..., 0, 1])


def dephased(rho):
    """Stacked (..., 2, 2) matrices with their off-diagonal elements removed."""
    return rho * np.eye(2)


def fidelity(rho, sigma):
    """Uhlmann fidelity of stacked (..., 2, 2) qubit density matrices, in the
    qubit closed form tr(rho sigma) + 2 sqrt(det rho det sigma), clipped to [0, 1]."""
    overlap = np.einsum("...ij,...ji->...", rho, sigma).real
    dets = np.linalg.det(rho).real * np.linalg.det(sigma).real
    return np.clip(overlap + 2.0 * np.sqrt(np.maximum(dets, 0.0)), 0.0, 1.0)


def random_density_matrices(rng, shape):
    """A A^dag / tr(A A^dag) for complex Gaussian A, shape (*shape, 2, 2):
    full-rank states with complex coherences (Bloch y != 0)."""
    a = rng.normal(size=(*shape, 2, 2)) + 1j * rng.normal(size=(*shape, 2, 2))
    m = a @ a.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1)[..., None, None]


def random_state(rng):
    """A `QubitState` drawn uniformly from the Bloch ball."""
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0)
    return QubitState.from_bloch(*v)


# The benchmark's Lindblad-vs-Kraus cases: omega = gamma0 = 1, a bath of
# occupation nbar, and the time t.
BENCH_RK4_CASES = [(nbar, t) for nbar in (0.0, 0.125, 1.0) for t in (0.1, 0.5, 1.0, 2.0)]


def bath_of_occupation(nbar):
    return BathSpec(omega_s=1.0, temperature=0.0 if nbar == 0.0 else 1.0 / math.log1p(1.0 / nbar),
                    gamma0=1.0)


def nearest_states(m):
    """The Frobenius-nearest density matrices to stacked (..., 2, 2) Hermitian
    matrices m: m's eigenvectors, with its eigenvalues projected onto the
    probability simplex (shifted by one common amount, then clipped at 0)."""
    eigs, vecs = np.linalg.eigh(m)
    low, high = eigs[..., 0], eigs[..., 1]
    # Both eigenvalues stay positive after the shift exactly when high - low < 1.
    shift = np.where(high - low < 1.0, 0.5 * (low + high - 1.0), high - 1.0)
    eigs = np.maximum(eigs - shift[..., None], 0.0)
    return (vecs * eigs[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def nearest_vectors(b):
    """The Bloch vectors of the `nearest_states` to those of b, shape (..., 3)."""
    return bloch_vectors(nearest_states(bloch_matrices(b)))


def coherences(rho):
    """C(rho) = S(dephased(rho)) - S(rho) of stacked (..., 2, 2) matrices: the
    coherence production of a full decay (r = 1), whose final state is diagonal
    and so has C = 0."""
    return productions(rho, 0.5, 1.0)[2]


def length_z(b):
    """(|b|, z) of Bloch vectors b, shape (..., 3)."""
    b = np.asarray(b, dtype=float)
    return np.linalg.norm(b, axis=-1), b[..., 2]


def relative_entropy_to_thermal(b, p):
    """D(rho || diag(p, 1 - p)) of Bloch vectors b, shape (..., 3), projected
    into the ball: `bloch.production` from b to the thermal state (0, 0, 2p - 1),
    whose own D is 0, also at p = 1."""
    thermal = 2.0 * np.asarray(p, dtype=float) - 1.0
    return bloch.production(length_z(b), (np.abs(thermal), thermal), p, population=False)


def frequencies(probs, shots, seed):
    """The documented stream of one experiment at Born probabilities `probs`
    (..., 4): the observed frequencies of one binomial draw of every run's
    counts from `default_rng(seed)`."""
    return np.random.default_rng(seed).binomial(shots, np.asarray(probs, dtype=float)) / shots


def reconstruct(state, shots, seed):
    """The tomography of `state`, projected into the ball by `eigh` as the
    sweep's scorer does radially: the run's Bloch vector."""
    freqs = frequencies(bloch.born_probabilities(state.bloch_vector()), shots, seed)
    return nearest_vectors(np.stack(bloch.invert(freqs), axis=-1))


def binomial_pmf(n, q):
    """(k, pmf) of Binomial(n, q), q in (0, 1), over the k whose pmf is above 1e-16."""
    k = np.arange(n + 1)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                           for i in range(n + 1)])
    pmf = np.exp(log_choose + k * math.log(q) + (n - k) * math.log1p(-q))
    keep = pmf > 1e-16
    return k[keep], pmf[keep]


# (p, r, shots, exact coverage to four digits) of Newcombe's interval imaged
# through the population production, summed over the H, V lattice.
NEWCOMBE_TABLE = [
    (0.9, 0.95, 500, 0.9607), (0.9, 0.95, 100, 0.9635), (0.6, 0.9, 500, 0.9742),
    (0.99, 0.99, 100, 0.9210), (0.99, 1.0, 100, 0.9483), (0.6, 1.0, 500, 0.9511),
    (0.75, 0.8, 1000, 0.9490), (0.9, 0.5, 10_000, 0.9500), (0.9, 1.0, 500, 0.9475)]


def lattice_verdicts(interval, truth, q_h, q_v, shots):
    """(P(n_H) P(n_V), lo <= truth <= hi) over the (n_H, n_V) lattice of two
    independent counts n_H ~ Binomial(shots, q_h) and n_V ~ Binomial(shots, q_v),
    with `interval(n_h, n_v)` mapping two count arrays of one shape to (lo, hi)."""
    (k_h, w_h), (k_v, w_v) = binomial_pmf(shots, q_h), binomial_pmf(shots, q_v)
    lo, hi = interval(*np.meshgrid(k_h, k_v, indexing="ij"))
    return np.outer(w_h, w_v), (lo <= truth) & (truth <= hi)


def lattice_coverage(interval, truth, q_h, q_v, shots):
    """Exact coverage of `truth` by an interval of two independent binomial
    counts: the sum of P(n_H) P(n_V) over the lattice where lo <= truth <= hi."""
    weights, covered = lattice_verdicts(interval, truth, q_h, q_v, shots)
    return float(np.sum(weights * covered))


def _population_lattice(p, r, shots, n_r, n_d):
    """(interval, truth, q_h, q_v) of the dephased experiment at (p, r) for
    `lattice_verdicts`: the population interval of `tomography.estimates` at
    fixed R and D counts n_r, n_d, widened by 1e-12 (see `population_coverage`)."""
    z = r * (2.0 * p - 1.0)
    truth = productions(bloch_matrices([[1.0, 0.0, 0.0]]), p, r)[1][0]

    def interval(n_h, n_v):
        size = n_h.size
        counts = np.stack([n_h.ravel(), n_v.ravel(), np.full(size, n_r), np.full(size, n_d)],
                          axis=-1)
        zero = np.zeros(size)
        _, lo, hi, _ = tomography.estimates(counts, (zero, zero), np.full(size, p), shots, True)
        return lo.reshape(n_h.shape) - 1e-12, hi.reshape(n_h.shape) + 1e-12

    return interval, truth, (1.0 + z) / 2.0, (1.0 - z) / 2.0


def population_coverage(p, r, shots):
    """Exact coverage of the analytic population production at (p, r) by the
    interval of `tomography.estimates`, `shots` even.  The dephased preparation
    is the maximally mixed state, so the evolved z is r (2p - 1) and c plays no
    part.  R and D counts are shots / 2, so x = y = 0 and no run is projected:
    the sum ignores the radial projection, which moves the interval only for
    runs outside the ball.  `projection_bound` bounds what that leaves out:
    below 5e-5 at every tabulated point of at most 1000 shots (0 at 11 of 12,
    3.56e-5 at (0.9, 0.95, 100)), and at 10^4 shots no run in the supports
    leaves the ball.  The interval is widened by the 1e-12 tolerance that
    holds the closed forms to the `eigh` reference: at r = 1 the truth is the
    largest value the production takes, which the interval's upper end reaches
    in exact arithmetic, and round-off alone would decide the comparison."""
    return lattice_coverage(*_population_lattice(p, r, shots, shots // 2, shots // 2), shots)


def projection_bound(p, r, shots, tail=1e-13):
    """A bound on |exact coverage - `population_coverage`(p, r, shots)|, the
    exact coverage summed over all four counts, R and D included.

    R and D counts are Binomial(shots, 1/2), independent of H and V, and reach
    the interval only through s = x^2 + y^2.  A larger s only widens it: the
    projected z / max(1, |b|) moves towards 0, and `estimates` widens the
    z-interval to hold it.  So a run's verdict cannot fall as s grows.  Each
    (n_H, n_V) is judged at s = 0 and at the least s of the R, D support whose
    tail probability P(S >= s) is at most `tail`; where the two agree, the
    verdict can differ only beyond that s.  The bound is the lattice mass
    whose two verdicts differ, plus `tail`."""
    k, w = binomial_pmf(shots, 0.5)
    x = 2.0 * k / shots - 1.0
    s, mass = (x[:, None] ** 2 + x**2).ravel(), np.outer(w, w).ravel()  # over (n_D, n_R)
    values, inverse = np.unique(s, return_inverse=True)
    tails = np.cumsum(np.bincount(inverse.ravel(), mass)[::-1])[::-1]  # P(S >= value)
    n_d, n_r = divmod(int(np.argmax(s == values[np.argmax(tails <= tail)])), k.size)
    _, inside = lattice_verdicts(*_population_lattice(p, r, shots, shots // 2, shots // 2), shots)
    weights, outside = lattice_verdicts(*_population_lattice(p, r, shots, k[n_r], k[n_d]), shots)
    return float(np.sum(weights * (inside != outside))) + tail


def records(config):
    """Every record of the sweep `config`, in row order: its blocks joined."""
    return np.concatenate(list(sweep.blocks(config)))
