import math

import numpy as np
import pytest

from gadentropy import bloch
from gadentropy.qstate import (
    MAXIMALLY_MIXED,
    PLUS,
    QubitState,
    fidelity,
    validate,
)
from gadentropy.tomography import draw_frequencies, project_to_physical


def random_state(rng):
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0)
    return QubitState.from_bloch(*v)


def reconstruct(state, shots, seed, n_bootstrap):
    """The sweep's tomography of `state`: the run's Bloch vector, then its resamples."""
    probs = bloch.born_probabilities(state.bloch_vector())
    return bloch.project(bloch.invert(draw_frequencies(probs, shots, seed, n_bootstrap)))


class TestProjectorProbabilities:
    def test_maximally_mixed(self):
        assert np.allclose(bloch.born_probabilities(MAXIMALLY_MIXED.bloch_vector()), 0.5)

    def test_plus_state(self):
        assert np.allclose(
            bloch.born_probabilities(PLUS.bloch_vector()), [0.5, 0.5, 0.5, 1.0], atol=1e-12
        )

    def test_evolved_state(self):
        c = math.sqrt(0.5) / 2.0
        state = QubitState([[0.7, c], [c, 0.3]])
        expected = [0.7, 0.3, 0.5, 0.5 + c]
        assert np.allclose(bloch.born_probabilities(state.bloch_vector()), expected, atol=1e-12)

    def test_r_basis_reads_imaginary_part(self):
        right = QubitState.pure([1.0, 1j])
        probs = bloch.born_probabilities(right.bloch_vector())
        assert probs[2] == pytest.approx(1.0, abs=1e-12)

    def test_hv_sum_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            probs = bloch.born_probabilities(random_state(rng).bloch_vector())
            assert probs[0] + probs[1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


class TestSimulateCounts:
    """The observed run of `draw_frequencies` (index 0): one binomial draw per basis."""

    def test_certain_outcomes(self):
        ground = QubitState.diagonal(1.0, 0.0)
        probs = bloch.born_probabilities(ground.bloch_vector())
        observed = draw_frequencies(probs, 1000, 5, 2)[0]
        assert observed[0] == 1.0  # p_H = 1
        assert observed[1] == 0.0  # p_V = 0

    def test_deterministic_given_seed(self):
        probs = bloch.born_probabilities(PLUS.bloch_vector())
        assert np.array_equal(draw_frequencies(probs, 10_000, 9, 10),
                              draw_frequencies(probs, 10_000, 9, 10))

    def test_binomial_statistics(self):
        probs = bloch.born_probabilities(PLUS.bloch_vector())
        counts = 100_000 * draw_frequencies(probs, 100_000, 10, 2)[0]
        assert counts[3] == 100_000  # p_D = 1
        sigma = math.sqrt(100_000 * 0.25)
        assert abs(counts[0] - 50_000) < 5 * sigma


class TestLinearInversion:
    def test_exact_frequencies_identity(self):
        m = QubitState.from_bloch(*bloch.invert([0.5, 0.5, 0.5, 0.5])).matrix
        assert np.allclose(m, MAXIMALLY_MIXED.matrix, atol=1e-15)

    def test_exact_frequencies_plus(self):
        m = QubitState.from_bloch(*bloch.invert([0.5, 0.5, 0.5, 1.0])).matrix
        assert np.allclose(m, PLUS.matrix, atol=1e-15)

    def test_unphysical_intermediate_allowed(self):
        # f_H = 1 and f_D = 1 give a Bloch vector of length sqrt(2)
        m = QubitState.from_bloch(*bloch.invert([1.0, 0.0, 0.5, 1.0])).matrix
        assert np.max(np.abs(m - m.conj().T)) < 1e-15
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.eigvalsh(m)[0] < -1e-3

    def test_round_trip_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            state = random_state(rng)
            probs = bloch.born_probabilities(state.bloch_vector())
            recon = project_to_physical(QubitState.from_bloch(*bloch.invert(probs)).matrix)
            assert np.max(np.abs(recon.matrix - state.matrix)) < 1e-12


class TestProjectToPhysical:
    def test_physical_input_unchanged(self):
        m = np.array(MAXIMALLY_MIXED.matrix)
        assert project_to_physical(m).isclose(MAXIMALLY_MIXED)

    def test_overlong_x_axis(self):
        m = 0.5 * np.array([[1.0, 1.2], [1.2, 1.0]], dtype=complex)
        out = project_to_physical(m)
        assert out.isclose(PLUS, atol=1e-12)

    def test_general_direction_rescaled(self):
        m = QubitState.from_bloch(0.6, 0.8, 0.6).matrix  # length > 1
        out = project_to_physical(np.array(m))
        v = out.bloch_vector()
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(v / np.linalg.norm(v), np.array([0.6, 0.8, 0.6]) / np.linalg.norm([0.6, 0.8, 0.6]))
        assert np.linalg.eigvalsh(out.matrix)[0] == pytest.approx(0.0, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            v = rng.normal(size=3) * 1.5
            m = QubitState.from_bloch(*v).matrix
            once = project_to_physical(np.array(m))
            twice = project_to_physical(np.array(once.matrix))
            assert once.isclose(twice)


class TestReconstructWithErrors:
    def test_convergence_at_large_shots(self):
        states = [PLUS, MAXIMALLY_MIXED, QubitState([[0.7, 0.353553], [0.353553, 0.3]])]
        for i, state in enumerate(states):
            estimate = QubitState.from_bloch(*reconstruct(state, 100_000, 100 + i, 2)[0])
            assert fidelity(estimate, state) >= 0.999

    def test_pure_state_reconstruction_is_physical(self):
        for seed in range(20):
            validate(QubitState.from_bloch(*reconstruct(PLUS, 500, seed, 2)[0]))


class TestStatisticalConsistency:
    def test_mean_bloch_vector_unbiased(self):
        # Mean reconstructed Bloch vector over 1000 runs stays within
        # 5 standard errors of the truth, per component.
        state = QubitState.from_bloch(0.3, -0.2, 0.4)
        shots = 10_000
        runs = np.broadcast_to(bloch.born_probabilities(state.bloch_vector()), (1000, 4))
        vectors = bloch.project(bloch.invert(draw_frequencies(runs, shots, 0, 2)[:, 0]))
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
        freqs = draw_frequencies(np.array([0.7, 0.3, 0.5, 0.9]), shots, 3, n)
        observed, resampled = freqs[0], freqs[1:]
        assert resampled.shape == (n, 4)
        variance = observed * (1.0 - observed) / shots
        assert np.all(np.abs(resampled.mean(axis=0) - observed) < 5.0 * np.sqrt(variance / n))
        assert np.all(np.abs(resampled.var(axis=0, ddof=1) / variance - 1.0) < 0.1)
