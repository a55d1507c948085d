import math

import numpy as np
import pytest
from conftest import (
    BENCH_RK4_CASES,
    bath_of_occupation,
    random_density_matrices,
    random_state,
    violation,
)

from gadentropy import channel
from gadentropy.channel import (
    SIGMA_MINUS,
    SIGMA_PLUS,
    BathSpec,
    GadChannel,
    ParameterOutOfRangeError,
    _liouvillian,
    _rk4_step,
    apply,
    apply_kraus,
    channel_for,
    compose,
    equilibrium_state,
    equilibrium_states,
    evolve_master_equation,
    kraus_stack,
    p_from_temperature,
    r_from_time,
)
from gadentropy.qstate import ATOL, PLUS, QubitState

P_GRID = np.linspace(0.5, 1.0, 11)
R_GRID = np.linspace(0.0, 1.0, 11)


def read_only(rho):
    rho.setflags(write=False)
    return rho


# omega/T = ln 9 gives nbar = 0.125 and p = 0.9
BATH_LN9 = BathSpec(omega_s=math.log(9.0), temperature=1.0, gamma0=1.0)


class TestChannelParameters:
    @pytest.mark.parametrize("p,r", [(0.4, 0.5), (1.1, 0.5), (0.9, -0.1), (0.9, 1.5)])
    def test_out_of_range_rejected(self, p, r):
        with pytest.raises(ParameterOutOfRangeError):
            GadChannel(p, r)

    def test_boundaries_accepted(self):
        GadChannel(0.5, 0.0)
        GadChannel(1.0, 1.0)


class TestKrausOperators:
    def test_identity_channel(self):
        ops = kraus_stack(1.0, 0.0)
        assert np.allclose(ops[0], np.eye(2))
        for m in ops[1:]:
            assert np.allclose(m, 0.0)

    def test_full_damping_infinite_temperature(self):
        m0, m1, m2, m3 = kraus_stack(0.5, 1.0)
        s = math.sqrt(0.5)
        assert np.allclose(m0, s * np.diag([1.0, 0.0]))
        assert np.allclose(m1, s * np.array([[0, 1], [0, 0]]))
        assert np.allclose(m2, s * np.diag([0.0, 1.0]))
        assert np.allclose(m3, s * np.array([[0, 0], [1, 0]]))

    def test_stack_is_real(self):
        assert kraus_stack(*np.meshgrid(P_GRID, R_GRID, indexing="ij")).dtype == np.float64


class TestApply:
    # The shapes `check` applies the map at: one state on the (p, r) grid, a
    # stack of states on that grid, and one channel per state.
    @pytest.mark.parametrize("rho_shape, pr_shape", [
        ((), (11, 11)), ((9, 1, 1), (11, 11)), ((100,), (100,))],
        ids=["state-on-grid", "stack-on-grid", "paired"])
    def test_superoperator_matches_the_kraus_sum(self, rho_shape, pr_shape):
        rng = np.random.default_rng(20)
        rho = random_density_matrices(rng, rho_shape)
        p, r = rng.uniform(0.5, 1.0, pr_shape), rng.uniform(0.0, 1.0, pr_shape)
        kraus = kraus_stack(p, r)
        want = sum(m @ rho @ m.conj().swapaxes(-1, -2) for m in np.moveaxis(kraus, -3, 0))
        got = apply_kraus(rho, p, r)
        assert got.shape == np.broadcast_shapes(rho_shape, pr_shape) + (2, 2)
        assert np.max(np.abs(got - want)) <= 1e-15

    # Strided views (every third state, and transposed, that is conjugated,
    # states), real float64 states, a read-only stack (as `QubitState.matrix`
    # is) and one state broadcast with zero strides go through the same real
    # matmul.
    @pytest.mark.parametrize("view", [
        lambda rho: rho[::3], lambda rho: rho.swapaxes(-1, -2), lambda rho: rho.real,
        read_only, lambda rho: np.broadcast_to(rho[0], rho.shape)],
        ids=["strided", "transposed", "float64", "read-only", "zero-stride"])
    def test_superoperator_matches_the_kraus_sum_on_any_layout(self, view):
        rng = np.random.default_rng(28)
        rho = view(random_density_matrices(rng, (300,)))
        p, r = rng.uniform(0.5, 1.0, rho.shape[0]), rng.uniform(0.0, 1.0, rho.shape[0])
        kraus = kraus_stack(p, r)
        want = sum(m @ rho @ m.swapaxes(-1, -2) for m in np.moveaxis(kraus, -3, 0))
        got = apply_kraus(rho, p, r)
        assert got.dtype == np.complex128
        assert got.shape == rho.shape
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_r_zero_is_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            state = random_state(rng)
            out = apply(GadChannel(rng.uniform(0.5, 1.0), 0.0), state)
            assert np.allclose(out.matrix, state.matrix, atol=ATOL, rtol=0.0)

    def test_full_damping_reaches_equilibrium(self):
        rng = np.random.default_rng(22)
        for p in P_GRID:
            out = apply(GadChannel(p, 1.0), random_state(rng))
            assert np.allclose(out.matrix, equilibrium_states(p), atol=ATOL, rtol=0.0)

    def test_plus_state_at_p09_r05(self):
        out = apply(GadChannel(0.9, 0.5), PLUS)
        c = math.sqrt(0.5) / 2.0
        assert np.allclose(out.matrix, [[0.7, c], [c, 0.3]], atol=ATOL, rtol=0.0)

    def test_output_always_valid(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            ch = GadChannel(rng.uniform(0.5, 1.0), rng.uniform(0.0, 1.0))
            assert violation(apply(ch, random_state(rng)).matrix) is None

    def test_off_diagonal_decay_independent_of_p(self):
        for r in R_GRID:
            expected = 0.5 * math.sqrt(1.0 - r)
            for p in P_GRID:
                out = apply(GadChannel(p, r), PLUS)
                assert abs(out.matrix[0, 1].real - expected) < 1e-12


class TestEquilibrium:
    def test_infinite_temperature(self):
        assert np.allclose(equilibrium_state(GadChannel(0.5, 0.3)).matrix, np.diag([0.5, 0.5]),
                           atol=ATOL, rtol=0.0)

    def test_p09(self):
        assert np.allclose(equilibrium_state(GadChannel(0.9, 0.3)).matrix, np.diag([0.9, 0.1]),
                           atol=ATOL, rtol=0.0)

    def test_zero_temperature_is_ground(self):
        assert np.allclose(equilibrium_state(GadChannel(1.0, 0.3)).matrix, np.diag([1.0, 0.0]),
                           atol=ATOL, rtol=0.0)

    def test_fixed_point_on_grid(self):
        for p in P_GRID:
            eq = QubitState(equilibrium_states(p))
            for r in R_GRID:
                assert np.allclose(apply(GadChannel(p, r), eq).matrix, eq.matrix,
                                   atol=ATOL, rtol=0.0)


class TestCompose:
    def test_identity_composition(self):
        assert compose(0.0, 0.4) == pytest.approx(0.4, abs=1e-15)

    def test_absorbing(self):
        assert compose(1.0, 0.4) == pytest.approx(1.0, abs=1e-15)

    def test_half_half(self):
        assert compose(0.5, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_matches_sequential_application(self):
        # Cases drawn one by one (p, r1, r2, then the state), scored in one stack.
        rng = np.random.default_rng(25)
        p, r1, r2, states = map(np.array, zip(*[
            (rng.uniform(0.5, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
             random_state(rng).matrix) for _ in range(50)]))
        seq = apply_kraus(apply_kraus(states, p, r1), p, r2)
        one = apply_kraus(states, p, compose(r1, r2))
        assert np.max(np.abs(seq - one)) <= ATOL


class TestBathMappings:
    def test_r_at_zero_time(self):
        assert r_from_time(BATH_LN9, 0.0) == 0.0

    def test_r_asymptote(self):
        assert r_from_time(BATH_LN9, 1e6) == pytest.approx(1.0, abs=1e-12)

    def test_r_at_unit_time(self):
        # nbar = 0.125 so (2 nbar + 1) gamma0 = 1.25
        assert BATH_LN9.mean_occupation == pytest.approx(0.125, abs=1e-12)
        assert r_from_time(BATH_LN9, 1.0) == pytest.approx(
            1.0 - math.exp(-1.25), abs=1e-12
        )

    def test_r_monotone_in_time(self):
        times = np.linspace(0.0, 5.0, 50)
        values = [r_from_time(BATH_LN9, t) for t in times]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterOutOfRangeError):
            r_from_time(BATH_LN9, -0.1)

    def test_nan_time_rejected(self):
        with pytest.raises(ParameterOutOfRangeError, match="t must be >= 0, got nan"):
            r_from_time(BATH_LN9, math.nan)

    def test_infinite_time_is_full_damping(self):
        assert r_from_time(BATH_LN9, math.inf) == 1.0

    def test_cold_bath_has_no_occupation(self):
        # omega/T = 1000: exp(omega/T) overflows, exp(-omega/T) underflows to 0.
        cold = BathSpec(omega_s=1.0, temperature=1e-3, gamma0=1.0)
        zero = BathSpec(omega_s=1.0, temperature=0.0, gamma0=1.0)
        assert cold.mean_occupation == 0.0
        assert r_from_time(cold, 1.0) == r_from_time(zero, 1.0)
        assert p_from_temperature(cold) == 1.0

    def test_occupation_overflow_rejected(self):
        # omega/T underflows to 0, so nbar ~ T/omega is not a float.
        hot = BathSpec(omega_s=1e-200, temperature=1e200, gamma0=1.0)
        for use in (lambda: hot.mean_occupation, lambda: r_from_time(hot, 1.0),
                    lambda: channel_for(hot, 1.0), lambda: evolve_master_equation(hot, PLUS, 1.0)):
            with pytest.raises(ParameterOutOfRangeError, match="nbar overflows"):
                use()

    def test_p_high_temperature_limit(self):
        bath = BathSpec(omega_s=1.0, temperature=1e9, gamma0=1.0)
        assert p_from_temperature(bath) == pytest.approx(0.5, abs=1e-6)

    def test_p_zero_temperature(self):
        bath = BathSpec(omega_s=1.0, temperature=0.0, gamma0=1.0)
        assert p_from_temperature(bath) == 1.0
        assert bath.mean_occupation == 0.0

    def test_p_ln9(self):
        assert p_from_temperature(BATH_LN9) == pytest.approx(0.9, abs=1e-12)


def generator(bath):
    return _liouvillian(bath.gamma0, bath.mean_occupation)


class TestLindblad:
    """The generator d rho/dt = L vec(rho), read as a 2x2 matrix."""

    def test_stationary_at_equilibrium(self):
        eq = equilibrium_states(p_from_temperature(BATH_LN9))
        deriv = generator(BATH_LN9) @ eq.reshape(4)
        assert np.max(np.abs(deriv)) < 1e-12

    def test_spontaneous_emission_rate(self):
        bath = BathSpec(omega_s=1.0, temperature=0.0, gamma0=1.0)
        excited = np.diag([0.0, 1.0])
        deriv = (generator(bath) @ excited.reshape(4)).reshape(2, 2)
        assert deriv[1, 1].real == pytest.approx(-1.0, abs=1e-12)

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            deriv = (generator(BATH_LN9) @ random_state(rng).matrix.reshape(4)).reshape(2, 2)
            assert abs(np.trace(deriv)) < 1e-12
            assert np.max(np.abs(deriv - deriv.conj().T)) < 1e-12

    def test_matches_dissipator_sandwich_form(self):
        # D[L] rho = L rho L^dag - {L^dag L, rho} / 2, written out per operator.
        lower = np.array([[0.0, 1.0], [0.0, 0.0]])
        nbar = BATH_LN9.mean_occupation
        rng = np.random.default_rng(27)
        for _ in range(20):
            rho = random_state(rng).matrix
            want = sum(
                rate * (op @ rho @ op.T - 0.5 * (op.T @ op @ rho + rho @ op.T @ op))
                for rate, op in ((nbar + 1.0, lower), (nbar, lower.T))
            )
            got = (generator(BATH_LN9) @ rho.reshape(4)).reshape(2, 2)
            assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("temperature", [0.0, 1.0, 20.0])
    def test_generator_matches_the_kron_sum(self, temperature):
        # Each dissipator as (L kron L*) - ((L^dag L) kron I + I kron (L^dag L)^T) / 2.
        bath = BathSpec(omega_s=math.log(9.0), temperature=temperature, gamma0=0.7)
        nbar, eye = bath.mean_occupation, np.eye(2)
        want = np.zeros((4, 4), dtype=complex)
        for rate, op in ((bath.gamma0 * (nbar + 1.0), SIGMA_MINUS),
                         (bath.gamma0 * nbar, SIGMA_PLUS)):
            anti = op.conj().T @ op
            want += rate * (np.kron(op, op.conj())
                            - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T)))
        assert np.array_equal(_liouvillian(bath.gamma0, nbar), want)


class TestMasterEquationIntegration:
    def test_zero_time_returns_initial(self):
        assert evolve_master_equation(BATH_LN9, PLUS, 0.0) is PLUS

    def test_equilibrium_unchanged(self):
        eq = QubitState(equilibrium_states(p_from_temperature(BATH_LN9)))
        out = evolve_master_equation(BATH_LN9, eq, 2.0)
        assert np.max(np.abs(out.matrix - eq.matrix)) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterOutOfRangeError, match="t must be >= 0"):
            evolve_master_equation(BATH_LN9, PLUS, -1e-3)

    @pytest.mark.parametrize("t, message", [
        (math.nan, "t must be >= 0, got nan"), (math.inf, "t must be finite, got inf")])
    def test_non_finite_time_rejected(self, t, message):
        with pytest.raises(ParameterOutOfRangeError, match=message):
            evolve_master_equation(BATH_LN9, PLUS, t)

    @pytest.mark.parametrize("bath, t", [
        (BathSpec(1.0, 0.0, 1e300), 1e10),  # t / dt = 1e313
        (BathSpec(1.0, 1e300, 1e10), 1.0),  # gamma0 (2 nbar + 1) overflows, so dt = 0
    ], ids=["steps-overflow", "rate-overflows"])
    def test_step_count_beyond_a_float_rejected(self, bath, t):
        with pytest.raises(ParameterOutOfRangeError, match="more steps of"):
            evolve_master_equation(bath, PLUS, t)

    def test_huge_finite_step_count_still_integrates(self):
        # 1e303 steps: the step's matrix power squares its way there.
        bath = BathSpec(omega_s=1.0, temperature=0.0, gamma0=1.0)
        out = evolve_master_equation(bath, PLUS, 1e300)
        assert np.allclose(out.matrix, np.diag([1.0, 0.0]), atol=ATOL, rtol=0.0)

    def test_cold_bath_matches_zero_temperature(self):
        cold = BathSpec(omega_s=1.0, temperature=1e-3, gamma0=1.0)
        zero = BathSpec(omega_s=1.0, temperature=0.0, gamma0=1.0)
        assert np.array_equal(evolve_master_equation(cold, PLUS, 1.0).matrix,
                              evolve_master_equation(zero, PLUS, 1.0).matrix)

    @pytest.mark.parametrize("nbar, t", BENCH_RK4_CASES)
    def test_horner_step_matches_the_taylor_sum(self, monkeypatch, nbar, t):
        # The step the integrator takes, against sum_k (hL)^k / k!, k <= 4.
        steps = []
        monkeypatch.setattr(channel, "_rk4_step", lambda hl: steps.append(hl) or _rk4_step(hl))
        bath = bath_of_occupation(nbar)
        out = evolve_master_equation(bath, PLUS, t)
        (hl,) = steps
        want = sum(np.linalg.matrix_power(hl, k) / math.factorial(k) for k in range(5))
        assert np.max(np.abs(_rk4_step(hl) - want)) <= 1e-15
        assert np.max(np.abs(out.matrix - apply(channel_for(bath, t), PLUS).matrix)) < 1e-6

    @pytest.mark.parametrize("t", [5e-4, 1e-5])
    def test_time_shorter_than_one_step_takes_one_step(self, t):
        # The default step at this bath is 1e-3, so t is covered by one step of t.
        bath = BathSpec(omega_s=1.0, temperature=0.0, gamma0=1.0)
        out = evolve_master_equation(bath, PLUS, t)
        expected = apply(channel_for(bath, t), PLUS)
        assert np.max(np.abs(out.matrix - expected.matrix)) < 1e-12

    def test_output_valid(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            out = evolve_master_equation(BATH_LN9, random_state(rng), 0.7)
            assert violation(out.matrix) is None


class TestBathSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(omega_s=0.0, temperature=1.0, gamma0=1.0),
            dict(omega_s=1.0, temperature=-1.0, gamma0=1.0),
            dict(omega_s=1.0, temperature=1.0, gamma0=0.0),
            dict(omega_s=math.inf, temperature=1.0, gamma0=1.0),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ParameterOutOfRangeError):
            BathSpec(**kwargs)
