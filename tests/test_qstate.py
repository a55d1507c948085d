import math

import numpy as np
import pytest
from conftest import (
    coherences,
    fidelity,
    l1_coherence,
    random_density_matrices,
    random_state,
    violation,
)
from hypothesis import example, given
from hypothesis import strategies as st

from gadentropy.channel import equilibrium_states
from gadentropy.qstate import (
    PLUS,
    ATOL,
    QubitState,
    cross_terms,
    dephased,
    relative_entropies,
    relative_entropy,
    von_neumann_entropies,
)

LN2 = math.log(2.0)
MIXED = np.eye(2) / 2


def random_matrices(rng, n):
    """A (n, 2, 2) stack of `random_state` draws, in draw order."""
    return np.array([random_state(rng).matrix for _ in range(n)])


def closed_form_eigs(state):
    # lambda = 1/2 +- sqrt((dpop/2)^2 + |c|^2) for a unit-trace qubit state
    m = state.matrix
    dpop = (m[0, 0] - m[1, 1]).real
    gap = math.sqrt((dpop / 2.0) ** 2 + abs(m[0, 1]) ** 2)
    return 0.5 - gap, 0.5 + gap


class TestValidate:
    def test_maximally_mixed_is_valid(self):
        assert violation(MIXED) is None

    def test_classical_mixture_is_valid(self):
        assert violation(np.diag([0.9, 0.1])) is None

    def test_negative_eigenvalue_detected(self):
        name, size = violation(QubitState([[0.5, 0.6], [0.6, 0.5]]).matrix)
        assert name == "negative eigenvalue"
        assert size == pytest.approx(0.1, abs=1e-12)

    def test_non_hermitian_detected(self):
        assert violation(QubitState([[0.5, 0.3], [0.1, 0.5]]).matrix)[0] == "not Hermitian"

    def test_trace_deviation_detected(self):
        name, size = violation(QubitState([[0.6, 0.0], [0.0, 0.5]]).matrix)
        assert name == "trace differs from 1"
        assert size == pytest.approx(0.1, abs=1e-12)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            QubitState(np.eye(3))


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropies(PLUS.matrix) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_ln2(self):
        assert von_neumann_entropies(MIXED) == pytest.approx(LN2, abs=1e-12)

    def test_classical_mixture_binary_entropy(self):
        # H(0.9) evaluated directly
        expected = -(0.9 * math.log(0.9) + 0.1 * math.log(0.1))
        got = von_neumann_entropies(np.diag([0.9, 0.1]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.325083, abs=1e-6)

    def test_range_on_random_states(self):
        s = von_neumann_entropies(random_matrices(np.random.default_rng(11), 100))
        assert np.all((-1e-12 <= s) & (s <= LN2 + 1e-12))

    def test_agrees_with_closed_form(self):
        rho = random_matrices(np.random.default_rng(12), 100)
        expected = [-sum(lam * math.log(lam) for lam in closed_form_eigs(QubitState(m)) if lam > 0)
                    for m in rho]
        assert von_neumann_entropies(rho) == pytest.approx(expected, abs=1e-12)


class TestRelativeEntropy:
    def test_identical_states_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            state = random_state(rng)
            assert relative_entropy(state, state) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_diagonal(self):
        expected = -(0.5 * math.log(0.9) + 0.5 * math.log(0.1))
        got = relative_entropy(PLUS, QubitState(np.diag([0.9, 0.1])))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.203973, abs=1e-6)

    def test_support_violation_infinite(self):
        assert relative_entropy(QubitState(MIXED), QubitState(np.diag([1.0, 0.0]))) == math.inf

    def test_support_match_on_pure_pair(self):
        assert relative_entropy(PLUS, PLUS) == pytest.approx(0.0, abs=1e-10)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            rho, sigma = random_state(rng), random_state(rng)
            d = relative_entropy(rho, sigma)
            assert d >= -1e-10

    @given(st.lists(st.one_of(st.floats(0.0, 1e-11), st.floats(0.0, 1.0)), min_size=1,
                    max_size=8), st.floats(0.0, 1.0))
    @example([0.0, ATOL, math.nextafter(ATOL, 1.0), 2 * ATOL, 0.5, 1.0], 1.0)
    def test_support_rule_at_p1(self, excited, phase):
        # rho = [[1 - w, c], [c*, w]] against diag(1, 0): +inf exactly when w > ATOL.
        w = np.array(excited)
        c = np.sqrt(w * (1.0 - w)) * phase
        rho = np.stack([np.stack([1.0 - w, c], -1), np.stack([c, w], -1)], -2).astype(complex)
        got = relative_entropies(rho, equilibrium_states(1.0))
        assert np.array_equal(np.isposinf(got), w > ATOL)
        finite = ~np.isinf(got)
        gap = np.abs(got[finite] + von_neumann_entropies(rho[finite]))
        assert np.max(gap, initial=0.0) < 1e-12
        ground = QubitState(equilibrium_states(1.0))
        assert [relative_entropy(QubitState(m), ground) == math.inf
                for m in rho] == list(w > ATOL)


class TestCrossTerms:
    @staticmethod
    def by_einsum(rho, sigma_eigs, sigma_vecs):
        """tr(rho ln sigma) with the weights as one three-operand einsum."""
        weights = np.einsum("...ji,...jk,...ki->...i", sigma_vecs.conj(), rho, sigma_vecs).real
        supported = sigma_eigs > ATOL
        return np.sum(np.where(supported, weights * np.log(np.where(supported, sigma_eigs, 1.0)),
                               np.where(weights > ATOL, -np.inf, 0.0)), axis=-1)

    # The stacks `productions` (4 states per sigma) and `check`'s contractivity
    # row (2 states per sigma) score.  sigma 0-4 are diag(1, 0), off which the
    # ground state rho[0, 0] is supported and every other rho is not.
    @pytest.mark.parametrize("n_rho", [4, 2])
    def test_matches_the_three_operand_einsum(self, n_rho):
        rng = np.random.default_rng(15)
        n = 60
        rho = random_density_matrices(rng, (n_rho, n))
        rho[0, 0] = np.diag([1.0, 0.0])
        sigma = random_density_matrices(rng, (n,))
        sigma[:5] = np.diag([1.0, 0.0])
        eigs, vecs = np.linalg.eigh(sigma)
        got, want = cross_terms(rho, eigs, vecs), self.by_einsum(rho, eigs, vecs)
        assert got.shape == (n_rho, n)
        infinite = np.zeros((n_rho, n), dtype=bool)
        infinite[:, :5] = True
        infinite[0, 0] = False
        assert np.array_equal(np.isneginf(got), infinite)
        assert np.array_equal(np.isneginf(want), infinite)
        assert np.max(np.abs(got[~infinite] - want[~infinite])) <= 1e-14


class TestDephase:
    def test_plus_becomes_maximally_mixed(self):
        assert np.allclose(dephased(PLUS.matrix), MIXED, atol=ATOL, rtol=0.0)

    def test_idempotent_on_diagonal(self):
        state = np.diag([0.3, 0.7])
        assert np.allclose(dephased(state), state, atol=ATOL, rtol=0.0)

    def test_off_diagonals_exactly_zero(self):
        out = dephased(random_matrices(np.random.default_rng(15), 20))
        assert np.all(out[:, 0, 1] == 0)
        assert np.all(out[:, 1, 0] == 0)
        assert [violation(m) for m in out] == [None] * 20

    def test_evolved_state_dephases_to_populations(self):
        state = np.array([[0.7, 0.353553], [0.353553, 0.3]])
        assert np.allclose(dephased(state), np.diag([0.7, 0.3]), atol=ATOL, rtol=0.0)


class TestCoherenceMeasures:
    def test_l1_of_plus(self):
        assert l1_coherence(PLUS.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_l1_of_diagonal(self):
        assert l1_coherence(np.diag([0.2, 0.8])) == 0.0

    def test_rel_entropy_coherence_diagonal_zero(self):
        assert coherences(np.diag([0.4, 0.6])) == pytest.approx(0.0, abs=1e-12)

    def test_rel_entropy_coherence_of_plus(self):
        assert coherences(PLUS.matrix) == pytest.approx(LN2, abs=1e-12)

    def test_rel_entropy_coherence_closed_form(self):
        # eigenvalues 0.5 +- sqrt(0.165) for the p=0.9, r=0.5 evolved state
        c = math.sqrt(0.5) / 2.0
        state = QubitState([[0.7, c], [c, 0.3]])
        gap = math.sqrt(0.04 + c * c)
        s_rho = 0.0
        for lam in (0.5 - gap, 0.5 + gap):
            s_rho -= lam * math.log(lam)
        expected = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3)) - s_rho
        got = coherences(state.matrix)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.2996261, abs=1e-6)

    def test_dephasing_never_lowers_entropy(self):
        c = coherences(random_matrices(np.random.default_rng(16), 100))
        assert np.all(c >= -1e-12)


class TestDecompositionIdentity:
    def test_relative_entropy_splits(self):
        # D(rho||sigma_diag) = D(dephased(rho)||sigma_diag) + C(rho)
        rng = np.random.default_rng(17)
        rho, sigma = [], []
        for _ in range(100):
            rho.append(random_state(rng).matrix)
            w = rng.uniform(0.05, 0.95)
            sigma.append(equilibrium_states(w))
        rho, sigma = np.array(rho), np.array(sigma)
        lhs = relative_entropies(rho, sigma)
        rhs = relative_entropies(dephased(rho), sigma) + coherences(rho)
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestFidelity:
    def test_self_fidelity(self):
        rho = random_matrices(np.random.default_rng(18), 20)
        assert fidelity(rho, rho) == pytest.approx(np.ones(20), abs=1e-10)

    def test_orthogonal_pure_states(self):
        h, v = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        assert fidelity(h, v) == pytest.approx(0.0, abs=1e-12)

    def test_mixed_vs_pure(self):
        assert fidelity(MIXED, np.diag([1.0, 0.0])) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(19)
        pairs = np.array([[random_state(rng).matrix, random_state(rng).matrix] for _ in range(50)])
        f = fidelity(pairs[:, 0], pairs[:, 1])
        assert np.all((0.0 <= f) & (f <= 1.0))
        assert f == pytest.approx(fidelity(pairs[:, 1], pairs[:, 0]), abs=1e-12)


def test_qubitstate_is_immutable():
    state = QubitState(MIXED)
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 2.0
