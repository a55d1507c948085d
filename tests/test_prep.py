import math

import numpy as np
import pytest
from conftest import l1_coherence, violation

from gadentropy import bloch
from gadentropy.channel import GadChannel, apply
from gadentropy.prep import (
    ALPHA_MAX,
    AngleOutOfRangeError,
    CoherenceOutOfRangeError,
    PrepSetting,
    alpha_for_coherence,
    coherent_bloch_x,
    prepare,
)
from gadentropy.qstate import ATOL, PLUS, QubitState, dephased

MIXED = np.eye(2) / 2


def prepared(alpha, dephase=False):
    """The preparation at HWP1 angle alpha, with its off-diagonals removed
    when `dephase` (the dephased preparation)."""
    state = prepare(PrepSetting(alpha))
    return QubitState(dephased(state.matrix)) if dephase else state


class TestPrepare:
    def test_alpha_zero_gives_plus(self):
        assert np.allclose(prepare(PrepSetting(0.0)).matrix, PLUS.matrix, atol=ATOL, rtol=0.0)

    def test_alpha_pi_over_8_gives_mixed(self):
        state = prepare(PrepSetting(math.pi / 8.0))
        assert np.allclose(state.matrix, MIXED, atol=ATOL, rtol=0.0)

    def test_alpha_for_08_coherence(self):
        # 9.22 degrees prepares off-diagonal 0.400
        state = prepare(PrepSetting(math.radians(9.22)))
        assert state.matrix[0, 1].real == pytest.approx(0.400, abs=5e-4)

    def test_dephased_always_maximally_mixed(self):
        for alpha in np.linspace(0.0, math.pi / 4.0, 9):
            assert np.allclose(prepared(alpha, dephase=True).matrix, MIXED, atol=ATOL, rtol=0.0)

    def test_equal_populations_and_validity(self):
        for alpha in np.linspace(0.0, math.pi / 4.0, 9):
            state = prepare(PrepSetting(alpha))
            assert violation(state.matrix) is None
            assert state.matrix[0, 0].real == 0.5
            assert state.matrix[1, 1].real == 0.5

    def test_l1_coherence_is_cos_4alpha(self):
        for alpha in np.linspace(0.0, math.pi / 4.0, 9):
            state = prepare(PrepSetting(alpha))
            for got in (l1_coherence(state.matrix), abs(coherent_bloch_x(alpha))):
                assert got == pytest.approx(abs(math.cos(4.0 * alpha)), abs=1e-12)

    def test_dephase_matches_dephased_preparation(self):
        # The sweep dephases the preparation's Bloch vector with bloch.dephase.
        for alpha in np.linspace(0.0, math.pi / 4.0, 9):
            b = QubitState.from_bloch(*bloch.dephase(prepare(PrepSetting(alpha)).bloch_vector()))
            assert np.allclose(prepared(alpha, dephase=True).matrix, b.matrix, atol=ATOL, rtol=0.0)

    def test_angle_out_of_range(self):
        with pytest.raises(AngleOutOfRangeError):
            PrepSetting(-0.1)
        with pytest.raises(AngleOutOfRangeError):
            PrepSetting(math.pi / 2.0)

    def test_angle_bound_is_exact(self):
        # radians(45) == pi / 4 exactly, so the bound needs no slack.
        assert math.radians(45.0) == ALPHA_MAX
        assert PrepSetting(ALPHA_MAX).alpha == ALPHA_MAX
        with pytest.raises(AngleOutOfRangeError):
            PrepSetting(math.nextafter(ALPHA_MAX, 1.0))


class TestAlphaForCoherence:
    def test_extremes(self):
        assert alpha_for_coherence(1.0) == 0.0
        assert alpha_for_coherence(0.0) == pytest.approx(math.pi / 8.0, abs=1e-15)

    def test_reference_angles(self):
        assert math.degrees(alpha_for_coherence(0.8)) == pytest.approx(9.22, abs=0.01)
        assert math.degrees(alpha_for_coherence(0.6)) == pytest.approx(13.28, abs=0.01)
        assert math.degrees(alpha_for_coherence(0.4)) == pytest.approx(16.61, abs=0.01)

    def test_round_trip(self):
        for c in np.linspace(0.0, 1.0, 21):
            alpha = alpha_for_coherence(c)
            assert l1_coherence(prepare(PrepSetting(alpha)).matrix) == pytest.approx(
                c, abs=1e-12
            )

    def test_out_of_range(self):
        with pytest.raises(CoherenceOutOfRangeError):
            alpha_for_coherence(1.2)
        with pytest.raises(CoherenceOutOfRangeError):
            alpha_for_coherence(-0.1)


class TestGadClosedForm:
    """Prepared states through the sweep's GAD map, `bloch.gad`."""

    def test_r_zero_returns_prepared(self):
        initial = prepare(PrepSetting(0.2)).bloch_vector()
        assert np.allclose(bloch.gad(initial, 0.8, 0.0), initial, rtol=0.0, atol=1e-12)

    def test_r_one_returns_equilibrium(self):
        for alpha, dephase in ((0.1, False), (0.1, True), (0.0, False)):
            out = bloch.gad(prepared(alpha, dephase).bloch_vector(), 0.75, 1.0)
            assert np.allclose(out, [0.0, 0.0, 0.5], rtol=0.0, atol=1e-15)

    def test_reference_point(self):
        out = bloch.gad(prepare(PrepSetting(0.0)).bloch_vector(), 0.9, 0.5)
        assert np.allclose(out, [math.sqrt(0.5), 0.0, 0.4], rtol=0.0, atol=1e-12)

    def test_oracle_agreement_dense_grid(self):
        ps, rs = np.linspace(0.5, 1.0, 11), np.linspace(0.0, 1.0, 11)
        for alpha in np.linspace(0.0, math.pi / 4.0, 9):
            for dephase in (False, True):
                state = prepared(alpha, dephase)
                closed = bloch.gad(state.bloch_vector(), *np.meshgrid(ps, rs, indexing="ij"))
                kraus = [[apply(GadChannel(p, r), state).bloch_vector() for r in rs] for p in ps]
                assert np.max(np.abs(closed - kraus)) < 1e-12
