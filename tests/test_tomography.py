import math

import numpy as np
import pytest
from conftest import (
    fidelity,
    frequencies,
    length_z,
    nearest_states,
    nearest_vectors,
    violation,
)

from gadentropy import bloch
from gadentropy.channel import equilibrium_states
from gadentropy.qstate import (
    ATOL,
    PLUS,
    QubitState,
    bloch_matrices,
    bloch_vectors,
    dephased,
    relative_entropies,
)

MIXED = np.eye(2) / 2


def random_state(rng):
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0)
    return QubitState.from_bloch(*v)


def reconstruct(state, shots, seed, n_bootstrap):
    """The tomography of `state`, projected into the ball by `eigh` as the
    sweep's scorer does radially: the run's Bloch vector, then its resamples."""
    probs = bloch.born_probabilities(state.bloch_vector())
    freqs = frequencies(probs, shots, seed, n_bootstrap).T
    return nearest_vectors(np.stack(bloch.invert(freqs), axis=-1))


class TestBornProbabilities:
    def test_maximally_mixed(self):
        assert np.allclose(bloch.born_probabilities(bloch_vectors(MIXED)), 0.5)

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
        ket = np.array([1.0, 1j]) / math.sqrt(2.0)
        right = QubitState(np.outer(ket, ket.conj()))
        probs = bloch.born_probabilities(right.bloch_vector())
        assert probs[2] == pytest.approx(1.0, abs=1e-12)

    def test_hv_sum_to_one(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            probs = bloch.born_probabilities(random_state(rng).bloch_vector())
            assert probs[0] + probs[1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)


class TestObservedDraw:
    """The observed run of the documented stream (run index 0): one binomial draw per basis."""

    def test_certain_outcomes(self):
        probs = bloch.born_probabilities(bloch_vectors(np.diag([1.0, 0.0])))
        observed = frequencies(probs, 1000, 5, 2)[:, 0]
        assert observed[0] == 1.0  # p_H = 1
        assert observed[1] == 0.0  # p_V = 0

    def test_deterministic_given_seed(self):
        probs = bloch.born_probabilities(PLUS.bloch_vector())
        assert np.array_equal(frequencies(probs, 10_000, 9, 10),
                              frequencies(probs, 10_000, 9, 10))

    def test_binomial_statistics(self):
        probs = bloch.born_probabilities(PLUS.bloch_vector())
        counts = 100_000 * frequencies(probs, 100_000, 10, 2)[:, 0]
        assert counts[3] == 100_000  # p_D = 1
        sigma = math.sqrt(100_000 * 0.25)
        assert abs(counts[0] - 50_000) < 5 * sigma


class TestInvert:
    def test_exact_frequencies_identity(self):
        m = QubitState.from_bloch(*bloch.invert([0.5, 0.5, 0.5, 0.5])).matrix
        assert np.allclose(m, MIXED, atol=1e-15)

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
            inverted = np.stack(bloch.invert(bloch.born_probabilities(state.bloch_vector())))
            for recon in (bloch_matrices(inverted), nearest_states(bloch_matrices(inverted))):
                assert np.max(np.abs(recon - state.matrix)) < 1e-12


class TestRadialProjection:
    """The projection inside `bloch.production`, the sweep's scorer, against
    the Frobenius-nearest state found by `eigh` (`nearest_states`): both
    parts of the production from a fixed initial state score the final
    state's projection."""

    INITIAL, P = np.array([0.6, 0.0, 0.3]), 0.8

    def scores(self, final):
        """(total, population) of `bloch.production` from INITIAL to Bloch vectors `final`."""
        return [bloch.production(length_z(self.INITIAL), length_z(final), self.P, population)
                for population in (False, True)]

    def reference(self, final):
        """(total, population) scored by eigh from INITIAL to the density matrices
        `final`, dephased for the population part."""
        eq = equilibrium_states(self.P)
        return [relative_entropies(part(bloch_matrices(self.INITIAL)), eq)
                - relative_entropies(part(final), eq) for part in (lambda m: m, dephased)]

    def assert_scores(self, final, want):
        for got, expected in zip(self.scores(final), self.reference(want)):
            assert np.allclose(got, expected, atol=ATOL, rtol=0.0)

    def test_physical_input_unchanged(self):
        rng = np.random.default_rng(44)
        inside = np.concatenate([np.zeros((1, 3)), [PLUS.bloch_vector()],
                                 [random_state(rng).bloch_vector() for _ in range(20)]])
        m = bloch_matrices(inside)
        assert np.allclose(nearest_states(m), m, atol=ATOL, rtol=0.0)
        self.assert_scores(inside, m)

    def test_overlong_x_axis(self):
        m = 0.5 * np.array([[1.0, 1.2], [1.2, 1.0]], dtype=complex)
        assert np.allclose(nearest_states(m), PLUS.matrix, atol=ATOL, rtol=0.0)
        self.assert_scores(bloch_vectors(m), PLUS.matrix)
        self.assert_scores(bloch_vectors(m), nearest_states(m))

    def test_general_direction_rescaled(self):
        overlong = np.array([0.6, 0.8, 0.6])  # length > 1
        nearest = nearest_states(bloch_matrices(overlong))
        assert np.linalg.eigvalsh(nearest)[0] == pytest.approx(0.0, abs=1e-12)
        self.assert_scores(overlong, bloch_matrices(overlong / np.linalg.norm(overlong)))
        self.assert_scores(overlong, nearest)

    def test_idempotent(self):
        # Projecting first changes no score.
        rng = np.random.default_rng(43)
        for _ in range(50):
            raw = rng.normal(size=3) * 1.5
            once = nearest_vectors(raw)
            for got, again, want in zip(self.scores(raw), self.scores(once),
                                        self.reference(bloch_matrices(once))):
                assert np.allclose([got, again], want, atol=ATOL, rtol=0.0)


class TestTomographyEstimates:
    def test_convergence_at_large_shots(self):
        states = [PLUS, QubitState(MIXED), QubitState([[0.7, 0.353553], [0.353553, 0.3]])]
        for i, state in enumerate(states):
            estimate = bloch_matrices(reconstruct(state, 100_000, 100 + i, 2)[0])
            assert fidelity(estimate, state.matrix) >= 0.999

    def test_pure_state_reconstruction_is_physical(self):
        for seed in range(20):
            assert violation(bloch_matrices(reconstruct(PLUS, 500, seed, 2)[0])) is None


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
