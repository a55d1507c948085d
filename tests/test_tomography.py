"""The statistics of tomography: the documented stream (`frequencies`),
inverted by `bloch.invert`, gives unbiased Bloch vectors, and the bootstrap
stderr of `tomography.estimates` matches the spread of its point estimates.
`bloch` itself is held to the 2x2 reference in `test_bloch.py`, and
`tomography.estimates` to the eigh path in `test_sweep.py`."""

import math

import numpy as np
from conftest import frequencies, length_z, nearest_vectors

from gadentropy import bloch, tomography
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
        # 400 independent rows of the coherent state (1, 0, 0) at p = 0.9, r = 0.5:
        # in each experiment the median stderr matches the sd of the point estimates.
        p, coherent = np.full(400, 0.9), np.tile([1.0, 0.0, 0.0], (400, 1))
        for e, prepared in enumerate((coherent, bloch.dephase(coherent)), start=1):
            final = bloch.gad(prepared, p, 0.5)
            point, stderr, _ = tomography.estimates(*tomography.counts(final, 10_000, (77, e)),
                                                    length_z(prepared), p, 10_000, 200,
                                                    population=e == 2)
            assert 0.8 <= np.median(stderr) / np.std(point, ddof=1) <= 1.25
