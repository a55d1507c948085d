"""The stacked (..., 2, 2) forms of `qstate`, `channel` and `budget` against
the `bloch` closed forms, and the per-state functions left over them."""

import math

import numpy as np
import pytest
from conftest import coherences, length_z, relative_entropy_to_thermal
from hypothesis import example, given
from hypothesis import strategies as st

from gadentropy import bloch, channel, qstate
from gadentropy.budget import IndeterminateEntropyError, budget, productions
from gadentropy.channel import GadChannel
from gadentropy.qstate import ATOL, PLUS, QubitState

TOL = 1e-12

# Bloch vectors anywhere in the ball, pure states (radius 1) included.
BALL = st.builds(
    lambda radius, theta, phi: radius * np.array([
        math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]),
    st.one_of(st.just(1.0), st.floats(0.0, 1.0)), st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi))
LEADING = st.one_of(st.just(()), st.tuples(st.integers(1, 6)),
                    st.tuples(st.integers(1, 3), st.integers(1, 3)))


@st.composite
def stacks(draw):
    """Bloch vectors of shape (*lead, 3) with p in [0.5, 1) and r in [0, 1]
    of shape lead, for lead = (), (n,) or (a, b)."""
    lead = draw(LEADING)
    n = math.prod(lead)

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n))).reshape(lead)

    b = np.array(draw(st.lists(BALL, min_size=n, max_size=n))).reshape(lead + (3,))
    return b, column(st.floats(0.5, 1.0, exclude_max=True)), column(st.floats(0.0, 1.0))


def pauli_matrices(b):
    """(I + x X + y Y + z Z) / 2, written out with the Pauli matrices."""
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    return 0.5 * (np.eye(2) + np.einsum("...i,ijk->...jk", b, paulis))


def assert_close(got, want, shape):
    """Shape `shape`, and equal (infinities and nan included) or within TOL."""
    assert np.shape(got) == shape
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):  # inf - inf where both are infinite
        gap = np.where(same, 0.0, np.abs(np.asarray(got) - want))
    assert np.max(gap, initial=0.0) < TOL


@given(stacks())
def test_stacked_entropies_match_the_closed_forms(case):
    b, p, _ = case
    rho = qstate.bloch_matrices(b)
    assert_close(rho, pauli_matrices(b), b.shape[:-1] + (2, 2))
    # S(rho) = ln 2 - D(rho || I/2): the entropy inside the closed forms.
    assert_close(qstate.von_neumann_entropies(rho),
                 math.log(2.0) - relative_entropy_to_thermal(b, 0.5), p.shape)
    assert_close(coherences(rho), bloch.coherence(*length_z(b)), p.shape)
    eq = channel.equilibrium_states(p)
    assert_close(qstate.relative_entropies(rho, eq), relative_entropy_to_thermal(b, p),
                 p.shape)


@given(stacks())
def test_stacked_kraus_map_and_productions_match_the_closed_forms(case):
    b, p, r = case
    rho = qstate.bloch_matrices(b)
    kraus = channel.kraus_stack(p, r)
    assert kraus.shape == p.shape + (4, 2, 2)
    completeness = np.einsum("...kji,...kjl->...il", kraus.conj(), kraus)
    assert_close(completeness, np.eye(2), p.shape + (2, 2))
    final = bloch.gad(b, p, r)
    assert_close(channel.apply_kraus(rho, p, r), pauli_matrices(final), p.shape + (2, 2))

    def drop(f, *args):
        with np.errstate(invalid="ignore"):  # inf - inf near p = 1, as in `productions`
            return f(b, *args) - f(final, *args)

    total, population, coherence = productions(rho, p, r)
    assert_close(total, drop(relative_entropy_to_thermal, p), p.shape)
    assert_close(population, drop(lambda v, q: relative_entropy_to_thermal(
        bloch.dephase(v), q), p), p.shape)
    assert_close(coherence, drop(lambda v: bloch.coherence(*length_z(v))), p.shape)
    # The sweeps' scorer, on (|b|, z) pairs.
    for part, dephased in ((total, False), (population, True)):
        assert_close(part, bloch.production(length_z(b), length_z(final), p, dephased), p.shape)


@given(st.lists(st.one_of(st.floats(0.0, 1e-11), st.floats(0.0, 1.0)), min_size=1,
                max_size=8), st.floats(0.0, 1.0))
@example([0.0, ATOL, math.nextafter(ATOL, 1.0), 2 * ATOL, 0.5, 1.0], 1.0)
def test_support_rule_at_p1(excited, phase):
    # rho = [[1 - w, c], [c*, w]] against diag(1, 0): +inf exactly when w > ATOL.
    w = np.array(excited)
    c = np.sqrt(w * (1.0 - w)) * phase
    rho = np.stack([np.stack([1.0 - w, c], -1), np.stack([c, w], -1)], -2).astype(complex)
    got = qstate.relative_entropies(rho, channel.equilibrium_states(1.0))
    assert np.array_equal(np.isposinf(got), w > ATOL)
    finite = ~np.isinf(got)
    assert_close(got[finite], -qstate.von_neumann_entropies(rho[finite]), (finite.sum(),))
    ground = QubitState(channel.equilibrium_states(1.0))
    assert [qstate.relative_entropy(QubitState(m), ground) == math.inf
            for m in rho] == list(w > ATOL)


@given(BALL.filter(lambda v: v[2] <= 0.9), st.floats(0.0, 0.99))
def test_budget_at_p1_is_indeterminate(b, r):
    # Excited weight >= 0.05 stays above ATOL after GAD(1, r <= 0.99): inf - inf.
    state = QubitState.from_bloch(*b)
    with pytest.raises(IndeterminateEntropyError):
        budget(state, GadChannel(1.0, r))
    total, population, _ = productions(state.matrix, 1.0, r)
    assert math.isnan(total) and math.isnan(population)


def test_per_state_wrappers_return_python_floats_and_states():
    ch = GadChannel(0.9, 0.5)
    eq = channel.equilibrium_state(ch)
    final = channel.apply(ch, PLUS)
    assert type(final) is QubitState
    assert type(eq) is QubitState
    result = budget(PLUS, ch)
    floats = [result.total, result.population, result.coherence,
              qstate.relative_entropy(PLUS, eq), qstate.relative_entropy(final, eq),
              qstate.relative_entropy(PLUS, QubitState(channel.equilibrium_states(1.0)))]
    assert all(type(v) is float for v in floats)
    assert floats[5] == math.inf
