import math

import numpy as np
import pytest
from conftest import random_density_matrices

from gadentropy.budget import (
    NEG_FLOOR,
    EntropyConsistencyError,
    IndeterminateEntropyError,
    _checked,
    budget,
    productions,
)
from gadentropy.channel import (
    GadChannel,
    apply,
    apply_kraus,
    equilibrium_state,
    equilibrium_states,
)
from gadentropy.prep import PrepSetting, prepare
from gadentropy.qstate import (
    PLUS,
    QubitState,
    bloch_matrices,
    dephased,
    relative_entropies,
    relative_entropy,
    von_neumann_entropies,
)

LN2 = math.log(2.0)
EQ_09 = QubitState(np.diag([0.9, 0.1])).matrix
MIXED = QubitState(np.eye(2) / 2).matrix

# Frozen oracle values at (alpha=0, p=0.9, r=1): computed from the
# closed-form relative entropies of diagonal/pure qubit states.
SIGMA_TOTAL_ANCHOR = 1.203972804325936
SIGMA_POP_ANCHOR = 0.5108256237659907


class TestTotalProduction:
    """The raw signed total production, and the strict rules `budget` applies to it."""

    def test_no_evolution_no_production(self):
        assert productions(PLUS.matrix, 0.9, 0.0)[0] == pytest.approx(0.0, abs=1e-10)

    def test_full_decay_anchor(self):
        got = productions(PLUS.matrix, 0.9, 1.0)[0]
        assert got == pytest.approx(SIGMA_TOTAL_ANCHOR, abs=1e-12)

    def test_already_at_equilibrium(self):
        assert productions(MIXED, 0.5, 0.7)[0] == pytest.approx(0.0, abs=1e-12)

    def test_infinite_when_only_initial_diverges(self):
        # At p = 1, r = 1 the mixed state decays to the ground state.
        assert productions(MIXED, 1.0, 1.0)[0] == math.inf

    def test_indeterminate_when_both_diverge(self):
        raw = productions(MIXED, 1.0, 0.0)[0]
        assert math.isnan(raw)
        with pytest.raises(IndeterminateEntropyError):
            _checked(raw, "total")

    def test_large_negative_raises(self):
        # A drop below -NEG_FLOOR, and a drop to -inf (only the final state
        # diverges); no channel gives either, so the raw values are literal.
        for raw in (-2.0 * NEG_FLOOR, -SIGMA_TOTAL_ANCHOR, -math.inf):
            with pytest.raises(EntropyConsistencyError):
                _checked(raw, "total")

    def test_round_off_negative_clamps_to_zero(self):
        got = [_checked(raw, "total") for raw in (-NEG_FLOOR, -1e-12)]
        assert got == [0.0, 0.0]
        assert all(type(v) is float and math.copysign(1.0, v) == 1.0 for v in got)


class TestPopulationProduction:
    def test_diagonal_fixed(self):
        assert productions(EQ_09, 0.9, 0.5)[1] == pytest.approx(0.0, abs=1e-12)

    def test_full_decay_anchor(self):
        got = productions(PLUS.matrix, 0.9, 1.0)[1]
        assert got == pytest.approx(SIGMA_POP_ANCHOR, abs=1e-12)

    def test_populations_starting_at_equilibrium(self):
        # dephased(initial) = eq, so the population part vanishes for any r
        c = 0.2
        initial = np.array([[0.9, c], [c, 0.1]], dtype=complex)
        assert productions(initial, 0.9, np.array([0.2, 0.5, 1.0]))[1] == pytest.approx(
            np.zeros(3), abs=1e-10
        )


class TestCoherenceProduction:
    def test_diagonal_initial_no_coherence(self):
        assert productions(EQ_09, 0.9, 0.5)[2] == 0.0

    def test_full_decay_of_plus(self):
        assert productions(PLUS.matrix, 0.9, 1.0)[2] == pytest.approx(LN2, abs=1e-12)

    def test_partial_decay_closed_form(self):
        # PLUS at p = 0.9, r = 0.5 decays to [[0.7, c], [c, 0.3]].
        c = math.sqrt(0.5) / 2.0
        assert np.allclose(apply_kraus(PLUS.matrix, 0.9, 0.5), [[0.7, c], [c, 0.3]],
                           atol=1e-12, rtol=0.0)
        gap = math.sqrt(0.04 + c * c)
        s_final = -sum(l * math.log(l) for l in (0.5 - gap, 0.5 + gap))
        s_pops = -(0.7 * math.log(0.7) + 0.3 * math.log(0.3))
        expected = LN2 - (s_pops - s_final)
        got = productions(PLUS.matrix, 0.9, 0.5)[2]
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.3935211, abs=1e-6)


class TestProductions:
    """`productions` runs `eigvalsh` on the initial and final states only: it
    reads the spectra of their dephased states off the diagonals, and takes the
    equilibrium's `eigh` decomposition in closed form.  Here each term is scored
    on its own by the eigh path, `relative_entropies` against
    `equilibrium_states(p)` and `von_neumann_entropies` of the initial and final
    states and of their dephased states."""

    @pytest.mark.parametrize("rho_shape", [(60,), (9, 1, 1)], ids=["paired", "stack-on-grid"])
    def test_matches_the_separate_productions(self, rho_shape):
        rng = np.random.default_rng(40)
        initial = random_density_matrices(rng, rho_shape)
        # One channel per state, or the 11x11 grid; both hold p = 1 with r < 1
        # and with r = 1.
        if rho_shape == (60,):
            p = np.where(np.arange(60) % 10 == 0, 1.0, rng.uniform(0.5, 1.0, 60))
            r = np.where(np.arange(60) % 20 == 0, 1.0, rng.uniform(0.0, 1.0, 60))
        else:
            p, r = np.meshgrid(np.linspace(0.5, 1.0, 11), np.linspace(0.0, 1.0, 11),
                               indexing="ij")
        final, eq = apply_kraus(initial, p, r), equilibrium_states(p)

        def drop(a, b):
            with np.errstate(invalid="ignore"):  # inf - inf is the indeterminate nan
                return relative_entropies(a, eq) - relative_entropies(b, eq)

        def coherence(rho):
            return von_neumann_entropies(dephased(rho)) - von_neumann_entropies(rho)

        want = (drop(initial, final), drop(dephased(initial), dephased(final)),
                coherence(initial) - coherence(final))
        got = productions(initial, p, r)
        shape = np.broadcast_shapes(rho_shape, p.shape)
        for g, w in zip(got, want):
            assert g.shape == w.shape == shape
            np.testing.assert_array_equal(g, w)
        # At p = 1 the excited weight makes D(initial || eq) = +inf: inf - inf
        # is nan while r < 1, and +inf at r = 1, where the final state is the
        # ground state.  (The map never raises the excited weight at p = 1, so
        # no drop reaches -inf.)
        p, r = np.broadcast_to(p, shape), np.broadcast_to(r, shape)
        for raw in got[:2]:
            assert np.array_equal(np.isnan(raw), (p == 1.0) & (r < 1.0))
            assert np.array_equal(np.isposinf(raw), (p == 1.0) & (r == 1.0))
        assert np.all(np.isfinite(got[2]))

    def test_edges_match_the_separate_productions(self):
        # Pure states (0 ln 0 on the diagonal route) and thermal weights at and
        # next to the ATOL support cut-off, where the random states above reach
        # neither; the eigh path is the same as above.
        initial = bloch_matrices([[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, 1, 0], [0.6, 0, 0.8],
                                  [0, 0.6, -0.8], [0, 0, 0]])[:, None, None]
        p = np.array([0.5, 0.75, 1 - 1e-13, 1 - 1e-12, 1 - 1e-11, 1.0])[:, None]
        r = np.array([0.0, 0.5, 1.0])
        final, eq = apply_kraus(initial, p, r), equilibrium_states(p)
        with np.errstate(invalid="ignore"):  # inf - inf is the indeterminate nan
            want = (relative_entropies(initial, eq) - relative_entropies(final, eq),
                    relative_entropies(dephased(initial), eq)
                    - relative_entropies(dephased(final), eq),
                    (von_neumann_entropies(dephased(initial)) - von_neumann_entropies(initial))
                    - (von_neumann_entropies(dephased(final)) - von_neumann_entropies(final)))
        got = productions(initial, p, r)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        # Every state but the ground pole has excited weight, and the thermal
        # weight 1 - p is at most ATOL at p = 1 - 1e-13, 1 - 1e-12 and 1: the
        # total and population drops are inf - inf while r < 1, +inf at r = 1.
        assert [np.isnan(g).sum() for g in got] == [36, 36, 0]
        assert [np.isinf(g).sum() for g in got] == [18, 18, 0]

    def test_eigvalsh_scores_only_the_initial_and_final_states(self, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda a: calls.append((name, np.shape(a))) or real(a))

        spy("eigvalsh")
        spy("eigh")
        rng = np.random.default_rng(41)
        productions(random_density_matrices(rng, (60,)), rng.uniform(0.5, 1.0, 60),
                    rng.uniform(0.0, 1.0, 60))
        assert calls == [("eigvalsh", (2, 60, 2, 2))]


class TestBudget:
    def test_identity_channel_zero_budget(self):
        b = budget(PLUS, GadChannel(0.9, 0.0))
        assert b.total == pytest.approx(0.0, abs=1e-10)
        assert b.population == pytest.approx(0.0, abs=1e-10)
        assert b.coherence == pytest.approx(0.0, abs=1e-10)

    def test_equilibrium_initial_zero_budget(self):
        b = budget(QubitState(MIXED), GadChannel(0.5, 0.7))
        assert (b.total, b.population, b.coherence) == (0.0, 0.0, 0.0)

    def test_indeterminate_at_p1_r0(self):
        with pytest.raises(IndeterminateEntropyError):
            budget(PLUS, GadChannel(1.0, 0.5))

    def test_dephased_initial_gives_zero_coherence(self):
        initial = QubitState(dephased(prepare(PrepSetting(0.1)).matrix))
        b = budget(initial, GadChannel(0.8, 0.6))
        assert b.coherence == 0.0
        assert b.total == pytest.approx(b.population, abs=1e-10)


class TestCoherencePSpread:
    def test_coherence_part_varies_slightly_with_p(self):
        # The off-diagonal decay is p-independent, but the coherence part of
        # the production depends on the evolved populations, hence on p.
        # Frozen spread at r=0.5, alpha=0 documents the effect.
        got_09 = budget(PLUS, GadChannel(0.9, 0.5)).coherence
        got_06 = budget(PLUS, GadChannel(0.6, 0.5)).coherence
        assert got_09 == pytest.approx(0.3935210974934994, abs=1e-10)
        assert got_06 == pytest.approx(0.4152526599202312, abs=1e-10)
        assert abs(got_06 - got_09) == pytest.approx(0.0217, abs=5e-4)


def test_per_state_wrappers_return_python_floats_and_states():
    # The benchmark reads these per-state results as Python floats and states.
    ch = GadChannel(0.9, 0.5)
    eq = equilibrium_state(ch)
    final = apply(ch, PLUS)
    assert type(final) is QubitState
    assert type(eq) is QubitState
    result = budget(PLUS, ch)
    floats = [result.total, result.population, result.coherence,
              relative_entropy(PLUS, eq), relative_entropy(final, eq),
              relative_entropy(PLUS, QubitState(equilibrium_states(1.0)))]
    assert all(type(v) is float for v in floats)
    assert floats[5] == math.inf
