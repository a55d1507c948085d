"""Test-wide settings and helpers.

Hypothesis draws the same examples on every run and has no per-example
deadline, so a slow host neither changes nor fails a test.  The helpers:

- `violation`, `l1_coherence` and `fidelity` measure 2x2 density matrices in
  ways the package itself does not need;
- `random_density_matrices` draws stacks of full-rank states, and
  `random_state` one `QubitState` uniform in the Bloch ball;
- `nearest_states` projects matrices onto the valid states by `eigh`, the
  reference for the sweep's radial projection, and `nearest_vectors` does the
  same to Bloch vectors;
- `coherences` takes the relative entropy of coherence of matrices from
  `productions`;
- `length_z` gives the (|b|, z) pairs that the `bloch` entropy functions take,
  and `relative_entropy_to_thermal` scores Bloch vectors with the sweep's
  scorer `bloch.production`;
- `frequencies` states one experiment's stream of draws on its own, without
  the package's sampler, and `reconstruct` inverts one state's stream and
  projects it by `eigh`."""

import numpy as np
from hypothesis import settings

from gadentropy import bloch
from gadentropy.budget import productions
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


def frequencies(probs, shots, seed, n_bootstrap):
    """The documented stream of one experiment at Born probabilities `probs`
    (..., 4), as a basis-major stack (..., 4, 1 + n_bootstrap) of frequencies:
    from `default_rng(seed)`, one binomial draw of every run's observed
    counts, then one draw of all their resamples at the observed frequencies."""
    rng = np.random.default_rng(seed)
    counts = rng.binomial(shots, np.asarray(probs, dtype=float))[..., None]
    resampled = rng.binomial(shots, counts / shots, size=counts.shape[:-1] + (n_bootstrap,))
    return np.concatenate([counts, resampled], axis=-1) / shots


def reconstruct(state, shots, seed, n_bootstrap):
    """The tomography of `state`, projected into the ball by `eigh` as the
    sweep's scorer does radially: the run's Bloch vector, then its resamples'."""
    freqs = frequencies(bloch.born_probabilities(state.bloch_vector()), shots, seed, n_bootstrap)
    return nearest_vectors(np.stack(bloch.invert(freqs.T), axis=-1))
