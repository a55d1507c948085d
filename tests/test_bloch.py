"""The closed-form Bloch-array functions against the 2x2 density-matrix path
(eigh entropies, Kraus map, matrix projection), which stays their reference."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gadentropy import bloch
from gadentropy.channel import GadChannel, apply
from gadentropy.qstate import (
    QubitState,
    rel_entropy_coherence,
    relative_entropy,
    von_neumann_entropy,
)
from gadentropy.tomography import project_to_physical

TOL = 1e-12

# Bloch vectors anywhere in the ball (centre and surface included), bath
# weights p in [0.5, 1) and damping strengths r in [0, 1].
BALL = st.builds(
    lambda radius, theta, phi: radius * np.array([
        math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]),
    st.floats(0.0, 1.0), st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi))
WEIGHT = st.floats(0.5, 1.0, exclude_max=True)
STRENGTH = st.floats(0.0, 1.0)


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


def states(vectors):
    return [QubitState.from_bloch(*v) for v in vectors]


def test_entropy_matches_eigh(vectors):
    want = [von_neumann_entropy(s) for s in states(vectors)]
    assert np.max(np.abs(bloch.entropy(vectors) - want)) < TOL


def test_coherence_matches_eigh(vectors):
    want = [rel_entropy_coherence(s) for s in states(vectors)]
    assert np.max(np.abs(bloch.coherence(vectors) - want)) < TOL


@pytest.mark.parametrize("p", [0.5, 0.6, 0.9, 1.0 - 1e-9])
def test_relative_entropy_matches_eigh(vectors, p):
    eq = QubitState.diagonal(p, 1.0 - p)
    want = [relative_entropy(s, eq) for s in states(vectors)]
    assert np.max(np.abs(bloch.relative_entropy_to_thermal(vectors, p) - want)) < TOL


def test_relative_entropy_support_rule_at_p1():
    # Weight on the excited state diverges; the ground state does not.
    vectors = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0 - 1e-13], [0.6, 0.0, 0.8],
                        [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    eq = QubitState.diagonal(1.0, 0.0)
    want = [relative_entropy(s, eq) for s in states(vectors)]
    got = bloch.relative_entropy_to_thermal(vectors, 1.0)
    assert np.isinf(want[2:]).all() and np.isinf(got[2:]).all()
    assert np.max(np.abs(got[:2] - want[:2])) < TOL


def test_relative_entropy_broadcasts_over_p():
    rng = np.random.default_rng(5)
    vectors = random_vectors(rng, 50)
    p = rng.uniform(0.5, 0.99, size=50)
    want = [relative_entropy(s, QubitState.diagonal(q, 1.0 - q))
            for s, q in zip(states(vectors), p)]
    assert np.max(np.abs(bloch.relative_entropy_to_thermal(vectors, p) - want)) < TOL


def test_project_matches_matrix_projection(vectors):
    got = bloch.project(vectors)
    for v, g in zip(vectors, got):
        want = project_to_physical(QubitState.from_bloch(*v).matrix)
        assert np.max(np.abs(QubitState.from_bloch(*g).matrix - want.matrix)) < TOL
    assert np.all(np.linalg.norm(got, axis=-1) <= 1.0 + TOL)


def test_born_probabilities_match_projectors(vectors):
    inside = bloch.project(vectors)
    s = 1.0 / math.sqrt(2.0)
    kets = np.array([[1.0, 0.0], [0.0, 1.0], [s, 1j * s], [s, s]])  # H, V, R, D
    for v, got in zip(inside, bloch.born_probabilities(inside)):
        m = QubitState.from_bloch(*v).matrix
        want = [np.real(k.conj() @ m @ k) for k in kets]
        assert np.max(np.abs(got - want)) < TOL


def test_inversion_round_trip(vectors):
    inside = bloch.project(vectors)
    assert np.max(np.abs(bloch.invert(bloch.born_probabilities(inside)) - inside)) < TOL


def test_gad_matches_kraus_map(vectors):
    inside = bloch.project(vectors)
    for p in (0.5, 0.75, 1.0):
        for r in (0.0, 0.3, 1.0):
            got = bloch.gad(inside, p, r)
            for v, g in zip(inside, got):
                want = apply(GadChannel(p, r), QubitState.from_bloch(*v))
                assert np.max(np.abs(QubitState.from_bloch(*g).matrix - want.matrix)) < TOL


def test_functions_broadcast_over_leading_axes():
    rng = np.random.default_rng(9)
    vectors = random_vectors(rng, 24).reshape(2, 3, 4, 3)
    flat = vectors.reshape(-1, 3)
    assert bloch.entropy(vectors).shape == (2, 3, 4)
    assert np.array_equal(bloch.entropy(vectors).ravel(), bloch.entropy(flat))
    assert bloch.born_probabilities(vectors).shape == (2, 3, 4, 4)
    assert bloch.relative_entropy_to_thermal(vectors, 0.8).shape == (2, 3, 4)


def close(got, want) -> bool:
    """Equal (infinities included) or within TOL."""
    return got == want or abs(got - want) < TOL


@given(BALL, WEIGHT, STRENGTH)
def test_gad_matches_kraus_map_anywhere_in_the_ball(b, p, r):
    got = bloch.gad(b, p, r)
    want = apply(GadChannel(p, r), QubitState.from_bloch(*b))
    assert np.max(np.abs(QubitState.from_bloch(*got).matrix - want.matrix)) < TOL
    assert np.linalg.norm(got) <= 1.0 + TOL


@given(BALL, WEIGHT)
@example(np.zeros(3), 1.0 - 1e-10)  # a thermal weight just above the support cut-off
def test_entropies_match_eigh_anywhere_in_the_ball(b, p):
    state = QubitState.from_bloch(*b)
    assert close(bloch.relative_entropy_to_thermal(b, p),
                 relative_entropy(state, QubitState.diagonal(p, 1.0 - p)))
    assert close(bloch.coherence(b), rel_entropy_coherence(state))


@given(BALL, WEIGHT, STRENGTH)
def test_gad_never_increases_relative_entropy_to_thermal(b, p, r):
    before = bloch.relative_entropy_to_thermal(b, p)
    assert bloch.relative_entropy_to_thermal(bloch.gad(b, p, r), p) <= before + 1e-10
