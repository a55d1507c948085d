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
from gadentropy.tomography import (
    draw_frequencies,
    inversion_from_frequencies,
    project_to_physical,
    projector_probabilities,
    reconstruct_with_errors,
)


def random_state(rng):
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0)
    return QubitState.from_bloch(*v)


class TestProjectorProbabilities:
    def test_maximally_mixed(self):
        assert np.allclose(projector_probabilities(MAXIMALLY_MIXED), 0.5)

    def test_plus_state(self):
        assert np.allclose(
            projector_probabilities(PLUS), [0.5, 0.5, 0.5, 1.0], atol=1e-12
        )

    def test_evolved_state(self):
        c = math.sqrt(0.5) / 2.0
        state = QubitState([[0.7, c], [c, 0.3]])
        expected = [0.7, 0.3, 0.5, 0.5 + c]
        assert np.allclose(projector_probabilities(state), expected, atol=1e-12)

    def test_r_basis_reads_imaginary_part(self):
        right = QubitState.pure([1.0, 1j])
        probs = projector_probabilities(right)
        assert probs[2] == pytest.approx(1.0, abs=1e-12)

    def test_hv_sum_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            probs = projector_probabilities(random_state(rng))
            assert probs[0] + probs[1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


class TestSimulateCounts:
    """The observed run of `draw_frequencies` (index 0): one binomial draw per basis."""

    def test_certain_outcomes(self):
        ground = QubitState.diagonal(1.0, 0.0)
        observed = draw_frequencies(projector_probabilities(ground), 1000, 5, 2)[0]
        assert observed[0] == 1.0  # p_H = 1
        assert observed[1] == 0.0  # p_V = 0

    def test_deterministic_given_seed(self):
        a = draw_frequencies(projector_probabilities(PLUS), 10_000, 9, 10)
        b = draw_frequencies(projector_probabilities(PLUS), 10_000, 9, 10)
        assert np.array_equal(a, b)

    def test_binomial_statistics(self):
        counts = 100_000 * draw_frequencies(projector_probabilities(PLUS), 100_000, 10, 2)[0]
        assert counts[3] == 100_000  # p_D = 1
        sigma = math.sqrt(100_000 * 0.25)
        assert abs(counts[0] - 50_000) < 5 * sigma


class TestLinearInversion:
    def test_exact_frequencies_identity(self):
        m = inversion_from_frequencies([0.5, 0.5, 0.5, 0.5])
        assert np.allclose(m, MAXIMALLY_MIXED.matrix, atol=1e-15)

    def test_exact_frequencies_plus(self):
        m = inversion_from_frequencies([0.5, 0.5, 0.5, 1.0])
        assert np.allclose(m, PLUS.matrix, atol=1e-15)

    def test_unphysical_intermediate_allowed(self):
        # f_H = 1 and f_D = 1 give a Bloch vector of length sqrt(2)
        m = inversion_from_frequencies([1.0, 0.0, 0.5, 1.0])
        assert np.max(np.abs(m - m.conj().T)) < 1e-15
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.eigvalsh(m)[0] < -1e-3

    def test_round_trip_on_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            state = random_state(rng)
            probs = projector_probabilities(state)
            recon = project_to_physical(inversion_from_frequencies(probs))
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
            rec = reconstruct_with_errors(state, 100_000, seed=100 + i, n_bootstrap=2)
            assert fidelity(rec.state, state) >= 0.999

    def test_minimal_bootstrap_runs(self):
        rec = reconstruct_with_errors(PLUS, 1000, seed=7, n_bootstrap=2)
        assert rec.stderr.shape == (2, 2)
        assert np.all(np.isfinite(rec.stderr))

    def test_pure_state_reconstruction_is_physical(self):
        for seed in range(20):
            rec = reconstruct_with_errors(PLUS, 500, seed=seed, n_bootstrap=2)
            validate(rec.state)

    def test_deterministic_given_seed(self):
        a = reconstruct_with_errors(PLUS, 2000, seed=3, n_bootstrap=10)
        b = reconstruct_with_errors(PLUS, 2000, seed=3, n_bootstrap=10)
        assert np.allclose(a.state.matrix, b.state.matrix)
        assert np.allclose(a.stderr, b.stderr)

    def test_rejects_tiny_bootstrap(self):
        with pytest.raises(ValueError):
            reconstruct_with_errors(PLUS, 100, seed=0, n_bootstrap=1)


class TestStatisticalConsistency:
    def test_mean_bloch_vector_unbiased(self):
        # Mean reconstructed Bloch vector over 1000 runs stays within
        # 5 standard errors of the truth, per component.
        state = QubitState.from_bloch(0.3, -0.2, 0.4)
        shots = 10_000
        runs = np.broadcast_to(projector_probabilities(state), (1000, 4))
        vectors = bloch.project(bloch.invert(draw_frequencies(runs, shots, 0, 2)[:, 0]))
        mean = vectors.mean(axis=0)
        stderr = vectors.std(axis=0, ddof=1) / math.sqrt(len(vectors))
        for got, want, err in zip(mean, state.bloch_vector(), stderr):
            assert abs(got - want) < 5 * err

    def test_bootstrap_stderr_calibrated(self):
        # stderr of <sigma_z> vs the analytic binomial scale at 1e4 shots
        state = QubitState.from_bloch(0.1, 0.05, 0.4)  # interior, projection inert
        shots = 10_000
        rec = reconstruct_with_errors(state, shots, seed=77, n_bootstrap=400)
        z_samples = [
            (s.matrix[0, 0] - s.matrix[1, 1]).real for s in rec.bootstrap_states
        ]
        boot = float(np.std(z_samples, ddof=1))
        f = 0.7  # p_H for this state
        analytic = 2.0 * math.sqrt(f * (1.0 - f) / shots)
        assert analytic / 1.5 <= boot <= analytic * 1.5
