"""The statistics of the documented tomography stream (`frequencies`),
inverted by `bloch.invert`: unbiased estimates, and bootstrap error bars at
the binomial scale.  `bloch` itself is held to the 2x2 reference in
`test_bloch.py`, and `tomography.estimates` in `test_sweep.py`."""

import math

import numpy as np
from conftest import frequencies, nearest_vectors, reconstruct

from gadentropy import bloch
from gadentropy.qstate import QubitState


class TestStatisticalConsistency:
    def test_mean_bloch_vector_unbiased(self):
        # Mean reconstructed Bloch vector over 1000 runs stays within
        # 5 standard errors of the truth, per component.
        state = QubitState.from_bloch(0.3, -0.2, 0.4)
        shots = 10_000
        runs = np.broadcast_to(bloch.born_probabilities(state.bloch_vector()), (1000, 4))
        observed = frequencies(runs, shots, 0, 2)[..., 0]
        vectors = nearest_vectors(np.stack(bloch.invert(observed), axis=-1))
        mean = vectors.mean(axis=0)
        stderr = vectors.std(axis=0, ddof=1) / math.sqrt(len(vectors))
        for got, want, err in zip(mean, state.bloch_vector(), stderr):
            assert abs(got - want) < 5 * err

    def test_bootstrap_stderr_calibrated(self):
        # stderr of <sigma_z> vs the analytic binomial scale at 1e4 shots
        state = QubitState.from_bloch(0.1, 0.05, 0.4)  # interior, projection inert
        shots = 10_000
        boot = float(np.std(reconstruct(state, shots, 77, 400)[1:, 2], ddof=1))
        f = 0.7  # p_H for this state
        analytic = 2.0 * math.sqrt(f * (1.0 - f) / shots)
        assert analytic / 1.5 <= boot <= analytic * 1.5

    def test_resamples_keep_each_basis_apart(self):
        # Resamples are drawn basis by basis; each column must hold its own basis's
        # binomial draws at that basis's observed frequency, with none mixed in.
        shots, n = 1000, 5000
        freqs = frequencies(np.array([0.7, 0.3, 0.5, 0.9]), shots, 3, n).T
        observed, resampled = freqs[0], freqs[1:]
        assert resampled.shape == (n, 4)
        variance = observed * (1.0 - observed) / shots
        assert np.all(np.abs(resampled.mean(axis=0) - observed) < 5.0 * np.sqrt(variance / n))
        assert np.all(np.abs(resampled.var(axis=0, ddof=1) / variance - 1.0) < 0.1)
