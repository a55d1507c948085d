"""The one home of the comparisons between the closed forms of `bloch` and
the 2x2 density-matrix path (eigh entropies, Kraus map, eigh projection),
which stays their reference: `gad`, `born_probabilities`, `invert`,
`coherence`, and `production` with its projection into the ball and its
p = 1 support rule, on fixture vectors and anywhere in the ball; and on
stacks of any leading shape, the matrix forms `qstate.bloch_matrices` and
`budget.productions` against them.  Fixture vectors outside the ball are put
into it by the eigh projection (`nearest_vectors`, `nearest_states`) where a
function needs a state, as `bloch.production` puts them radially."""

import math

import numpy as np
import pytest
from conftest import (
    coherences,
    length_z,
    nearest_states,
    nearest_vectors,
    relative_entropy_to_thermal,
)
from hypothesis import example, given
from hypothesis import strategies as st

from gadentropy import bloch
from gadentropy.budget import productions
from gadentropy.channel import GadChannel, apply, apply_kraus, equilibrium_states
from gadentropy.qstate import (
    ATOL,
    QubitState,
    bloch_matrices,
    dephased,
    relative_entropies,
    von_neumann_entropies,
)

TOL = 1e-12

# Bloch vectors anywhere in the ball, centre and pure states (radius 1)
# included, bath weights p in [0.5, 1) and damping strengths r in [0, 1].
BALL = st.builds(
    lambda radius, theta, phi: radius * np.array([
        math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]),
    st.one_of(st.just(1.0), st.floats(0.0, 1.0)), st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi))
WEIGHT = st.floats(0.5, 1.0, exclude_max=True)
STRENGTH = st.floats(0.0, 1.0)
LEADING = st.one_of(st.just(()), st.tuples(st.integers(1, 6)),
                    st.tuples(st.integers(1, 3), st.integers(1, 3)))


@st.composite
def stacks(draw):
    """Bloch vectors of shape (*lead, 3) in BALL, with p in WEIGHT and r in
    STRENGTH of shape lead, for lead = (), (n,) or (a, b)."""
    lead = draw(LEADING)
    n = math.prod(lead)

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n))).reshape(lead)

    b = np.array(draw(st.lists(BALL, min_size=n, max_size=n))).reshape(lead + (3,))
    return b, column(WEIGHT), column(STRENGTH)


def close(got, want) -> bool:
    """Equal (infinities and nan included) or within TOL, element by element."""
    got, want = np.asarray(got), np.asarray(want)
    with np.errstate(invalid="ignore"):  # inf - inf where both are infinite
        near = np.abs(got - want) < TOL
    return bool(np.all((got == want) | (np.isnan(got) & np.isnan(want)) | near))


def pauli_matrices(b):
    """(I + x X + y Y + z Z) / 2, written out with the Pauli matrices."""
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    return 0.5 * (np.eye(2) + np.einsum("...i,ijk->...jk", b, paulis))


def projector_frequencies(b):
    """<k| rho |k> for the kets k of H, V, R, D and the matrices rho of Bloch
    vectors b, which need not be states: shape (..., 4)."""
    s = 1.0 / math.sqrt(2.0)
    kets = np.array([[1.0, 0.0], [0.0, 1.0], [s, 1j * s], [s, s]])  # H, V, R, D
    return np.einsum("ki,...ij,kj->...k", kets.conj(), bloch_matrices(b), kets).real


def random_vectors(rng, n, radius=(0.0, 1.0)):
    """n Bloch vectors with uniform directions and lengths in `radius`."""
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True) * rng.uniform(*radius, size=(n, 1))


@pytest.fixture(params=["interior", "pure", "axes", "out_of_ball"])
def vectors(request):
    rng = np.random.default_rng(2402)
    if request.param == "interior":
        return random_vectors(rng, 300)
    if request.param == "pure":
        return random_vectors(rng, 300, (1.0, 1.0))
    if request.param == "axes":
        eye = np.eye(3)
        return np.concatenate([eye, -eye, np.zeros((1, 3))])
    return random_vectors(rng, 300, (1.0, 1.6))


def test_entropy_matches_eigh(vectors):
    # S(rho) = ln 2 - D(rho || I/2): the entropy inside the closed forms.
    want = von_neumann_entropies(nearest_states(bloch_matrices(vectors)))
    assert np.max(np.abs(math.log(2.0) - relative_entropy_to_thermal(vectors, 0.5) - want)) < TOL


def test_coherence_matches_eigh(vectors):
    want = coherences(bloch_matrices(vectors))
    assert np.max(np.abs(bloch.coherence(*length_z(vectors)) - want)) < TOL


@pytest.mark.parametrize("p", [0.5, 0.6, 0.9, 1.0 - 1e-9])
def test_relative_entropy_matches_eigh(vectors, p):
    want = relative_entropies(nearest_states(bloch_matrices(vectors)), equilibrium_states(p))
    assert np.max(np.abs(relative_entropy_to_thermal(vectors, p) - want)) < TOL


def test_relative_entropy_support_rule_at_p1():
    # Weight on the excited state diverges; the ground state does not.  The
    # production to the thermal state |0>, whose own D is 0, is D itself.
    vectors = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0 - 1e-13], [0.6, 0.0, 0.8],
                        [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    want = relative_entropies(bloch_matrices(vectors), equilibrium_states(1.0))
    got = bloch.production(length_z(vectors), (1.0, 1.0), 1.0, population=False)
    assert np.isposinf(want[2:]).all() and np.isposinf(got[2:]).all()
    assert np.max(np.abs(got[:2] - want[:2])) < TOL
    # Between |0>-pole states of excited weight 0, ATOL and 2 ATOL, at and just
    # inside the cut-off: finite where neither state diverges, +-inf where one
    # does, nan (inf - inf) where both do.
    z = 1.0 - 2.0 * np.array([0.0, ATOL, 2.0 * ATOL])
    poles = bloch_matrices(z[:, None] * (0.0, 0.0, 1.0))
    for p in (1.0, 1.0 - 1e-13):
        d = relative_entropies(poles, equilibrium_states(p))
        with np.errstate(invalid="ignore"):
            want = d[:, None] - d[None, :]
        for population in (False, True):
            got = bloch.production((np.abs(z)[:, None], z[:, None]), (np.abs(z), z), p,
                                   population)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert np.array_equal(got[np.isinf(got)], want[np.isinf(got)])
            finite = np.isfinite(want)
            assert np.isfinite(got[finite]).all()
            assert np.max(np.abs(got[finite] - want[finite])) < TOL


def test_relative_entropy_broadcasts_over_p():
    rng = np.random.default_rng(5)
    vectors = random_vectors(rng, 50)
    p = rng.uniform(0.5, 0.99, size=50)
    want = relative_entropies(bloch_matrices(vectors), equilibrium_states(p))
    assert np.max(np.abs(relative_entropy_to_thermal(vectors, p) - want)) < TOL


def test_project_matches_matrix_projection(vectors):
    # `production` projects each final state into the ball before scoring it;
    # the reference scores the eigh projection of its matrix, dephased for the
    # population part.  The weights next to 1 approach the support cut-off
    # 1 - p <= ATOL, where the flux coefficient k = ln(p / (1 - p)) / 2 is largest.
    initial = np.array([0.6, 0.0, 0.3])
    for p in (0.8, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 2e-12):
        eq = equilibrium_states(p)
        for population, part in ((False, lambda m: m), (True, dephased)):
            got = bloch.production(length_z(initial), length_z(vectors), p, population)
            want = (relative_entropies(part(bloch_matrices(initial)), eq)
                    - relative_entropies(part(nearest_states(bloch_matrices(vectors))), eq))
            assert np.max(np.abs(got - want)) < TOL


def test_born_probabilities_match_projectors(vectors):
    inside = nearest_vectors(vectors)
    got = bloch.born_probabilities(inside)
    assert np.max(np.abs(got - projector_frequencies(inside))) < TOL


def test_inversion_round_trip(vectors):
    inside = nearest_vectors(vectors)
    inverted = np.stack(bloch.invert(bloch.born_probabilities(inside)), axis=-1)
    assert np.max(np.abs(inverted - inside)) < TOL
    # Outside the ball too, where shot noise puts estimates: no clipping.
    inverted = np.stack(bloch.invert(projector_frequencies(vectors)), axis=-1)
    assert np.max(np.abs(inverted - vectors)) < TOL


def test_gad_matches_kraus_map(vectors):
    inside = nearest_vectors(vectors)
    for p in (0.5, 0.75, 1.0):
        for r in (0.0, 0.3, 1.0):
            got = bloch.gad(inside, p, r)
            want = apply_kraus(bloch_matrices(inside), p, r)
            assert np.max(np.abs(bloch_matrices(got) - want)) < TOL
            assert np.max(np.linalg.norm(got, axis=-1)) <= 1.0 + TOL


def test_functions_broadcast_over_leading_axes():
    rng = np.random.default_rng(9)
    vectors = random_vectors(rng, 24).reshape(2, 3, 4, 3)
    flat = vectors.reshape(-1, 3)
    assert bloch.coherence(*length_z(vectors)).shape == (2, 3, 4)
    assert np.array_equal(bloch.coherence(*length_z(vectors)).ravel(),
                          bloch.coherence(*length_z(flat)))
    assert bloch.born_probabilities(vectors).shape == (2, 3, 4, 4)
    assert relative_entropy_to_thermal(vectors, 0.8).shape == (2, 3, 4)


@given(BALL, WEIGHT, STRENGTH)
def test_gad_matches_kraus_map_anywhere_in_the_ball(b, p, r):
    got = bloch.gad(b, p, r)
    want = apply(GadChannel(p, r), QubitState.from_bloch(*b))
    assert np.max(np.abs(QubitState.from_bloch(*got).matrix - want.matrix)) < TOL
    assert np.linalg.norm(got) <= 1.0 + TOL


@given(BALL, WEIGHT)
@example(np.zeros(3), 1.0 - 1e-10)  # a thermal weight just above the support cut-off
def test_entropies_match_eigh_anywhere_in_the_ball(b, p):
    rho = bloch_matrices(b)
    assert close(relative_entropy_to_thermal(b, p),
                 float(relative_entropies(rho, equilibrium_states(p))))
    assert close(bloch.coherence(*length_z(b)), coherences(rho))


@given(BALL, WEIGHT, STRENGTH)
def test_gad_never_increases_relative_entropy_to_thermal(b, p, r):
    # D(b || eq) - D(gad(b) || eq) >= 0: the production of a GAD step.
    assert bloch.production(length_z(b), length_z(bloch.gad(b, p, r)), p, False) >= -1e-10


@given(stacks())
def test_stacked_matrices_and_productions_match_the_closed_forms(case):
    # `bloch_matrices` is the Pauli sum, and `productions` (eigh entropies of
    # the Kraus-mapped stack) scores what the closed forms score on (|b|, z).
    b, p, r = case
    rho = bloch_matrices(b)
    assert rho.shape == p.shape + (2, 2) and close(rho, pauli_matrices(b))
    final = bloch.gad(b, p, r)

    def drop(f, *args):
        with np.errstate(invalid="ignore"):  # inf - inf near p = 1, as in `productions`
            return f(b, *args) - f(final, *args)

    total, population, coherence = productions(rho, p, r)
    assert total.shape == population.shape == coherence.shape == p.shape
    assert close(total, drop(relative_entropy_to_thermal, p))
    assert close(population, drop(lambda v, q: relative_entropy_to_thermal(
        bloch.dephase(v), q), p))
    assert close(coherence, drop(lambda v: bloch.coherence(*length_z(v))))
    assert close(total, bloch.production(length_z(b), length_z(final), p, False))
    assert close(population, bloch.production(length_z(b), length_z(final), p, True))
