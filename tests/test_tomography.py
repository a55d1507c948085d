"""The statistics of tomography: the documented stream (`frequencies`),
inverted by `bloch.invert`, gives unbiased Bloch vectors; the intervals of
`tomography.estimates` equal scalar references (Wilson, Newcombe, the image
of Newcombe's interval, and a finite difference of the eigh path for the
total's first-order sd); their stderr matches the spread of the point
estimates; and the exact coverage sum over the binomial lattice is checked
against a plain loop and against published numbers.  `bloch` itself is held
to the 2x2 reference in `test_bloch.py`, the points of `tomography.estimates`
to the eigh path and the coverage of the sweep's intervals in `test_sweep.py`."""

import math

import numpy as np
import pytest
from conftest import (NEWCOMBE_TABLE, binomial_pmf, dephased, frequencies, lattice_coverage,
                      length_z, nearest_states, nearest_vectors, population_coverage)

from gadentropy import bloch, channel, qstate, tomography
from gadentropy.qstate import QubitState

Z = tomography.Z95


def scalar_wilson(k, n):
    """Wilson's score interval for k successes in n trials, one row at a time."""
    f = k / n
    centre = (k + Z * Z / 2) / (n + Z * Z)
    half = Z * math.sqrt(k * (n - k) / n + Z * Z / 4) / (n + Z * Z)
    return f, centre - half, centre + half


def scalar_mover(first, second):
    """MOVER limits of first - second, from two (estimate, lo, hi) triples."""
    (a, a_lo, a_hi), (b, b_lo, b_hi) = first, second
    return (a - b, a - b - math.sqrt((a - a_lo) ** 2 + (b_hi - b) ** 2),
            a - b + math.sqrt((a_hi - a) ** 2 + (b - b_lo) ** 2))


def reference_production(initial, b, p, population):
    """D(initial || eq) - D(state || eq) by eigh, for Bloch vectors `initial`
    and `b` (..., 3), b projected onto the nearest state, both dephased when
    `population`."""
    rho_0, rho = qstate.bloch_matrices(initial), nearest_states(qstate.bloch_matrices(b))
    if population:
        rho_0, rho = dephased(rho_0), dephased(rho)
    eq = channel.equilibrium_states(p)
    return qstate.relative_entropies(rho_0, eq) - qstate.relative_entropies(rho, eq)


def random_counts(rng, rows, shots):
    """(rows, 4) counts of states drawn uniformly in the ball."""
    v = rng.normal(size=(rows, 3))
    v *= (rng.uniform(size=(rows, 1)) ** (1 / 3)) / np.linalg.norm(v, axis=1, keepdims=True)
    return rng.binomial(shots, bloch.born_probabilities(v)), v


class TestStatisticalConsistency:
    def test_mean_bloch_vector_unbiased(self):
        # Mean reconstructed Bloch vector over 1000 runs stays within
        # 5 standard errors of the truth, per component.
        state = QubitState.from_bloch(0.3, -0.2, 0.4)
        shots = 10_000
        runs = np.broadcast_to(bloch.born_probabilities(state.bloch_vector()), (1000, 4))
        observed = frequencies(runs, shots, 0)
        vectors = nearest_vectors(np.stack(bloch.invert(observed), axis=-1))
        mean = vectors.mean(axis=0)
        stderr = vectors.std(axis=0, ddof=1) / math.sqrt(len(vectors))
        for got, want, err in zip(mean, state.bloch_vector(), stderr):
            assert abs(got - want) < 5 * err

    def test_interval_stderr_calibrated(self):
        # 400 independent rows of the coherent state (1, 0, 0) at p = 0.9, r = 0.5:
        # in each experiment the median stderr, the interval's width / (2 Z95),
        # matches the sd of the point estimates.
        p, coherent = np.full(400, 0.9), np.tile([1.0, 0.0, 0.0], (400, 1))
        for e, prepared in enumerate((coherent, bloch.dephase(coherent)), start=1):
            final = bloch.gad(prepared, p, 0.5)
            point, lo, hi, _ = tomography.estimates(tomography.counts(final, 10_000, (77, e)),
                                                    length_z(prepared), p, 10_000,
                                                    population=e == 2)
            stderr = (hi - lo) / (2 * Z)
            assert 0.8 <= np.median(stderr) / np.std(point, ddof=1) <= 1.25


class TestIntervals:
    @pytest.mark.parametrize("shots", [1, 3, 50, 10_000])
    def test_wilson_and_newcombe_match_scalar_references(self, shots):
        counts, _ = random_counts(np.random.default_rng(shots), 40, shots)
        wilsons = [tomography.wilson(counts[:, j], shots) for j in range(4)]
        newcombe = tomography.difference(wilsons[0], wilsons[1])
        for k, row in enumerate(counts.tolist()):
            for j in range(4):
                assert [w[k] for w in wilsons[j]] == pytest.approx(
                    scalar_wilson(row[j], shots), abs=1e-12)
            want = scalar_mover(scalar_wilson(row[0], shots), scalar_wilson(row[1], shots))
            assert [v[k] for v in newcombe] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("shots", [3, 50, 10_000])
    def test_population_interval_is_the_image_of_newcombe(self, shots):
        # The population part as a function of z is scored by eigh; its image of
        # Newcombe's interval widened to the projected z is the min over the two
        # ends and the max at 2p - 1 clipped into it, then widened to the point.
        # The last four runs have z = 1 and x = 1, so their projected z, 1 / sqrt(2 + y^2),
        # lies below Newcombe's interval once it is narrow (50 shots and more).
        rng = np.random.default_rng(shots + 1)
        counts, _ = random_counts(rng, 40, shots)
        counts[-4:] = [[shots, 0, n_r, shots] for n_r in (0, shots // 3, shots // 2, shots)]
        initial = rng.uniform(-1.0, 1.0, size=40) * np.array([[0.0], [0.0], [1.0]])
        p = rng.uniform(0.5, 0.99, size=40)
        point, lo, hi, _ = tomography.estimates(counts, length_z(initial.T), p, shots, True)
        widened = 0
        for k, row in enumerate(counts.tolist()):
            _, z_lo, z_hi = scalar_mover(scalar_wilson(row[0], shots),
                                         scalar_wilson(row[1], shots))
            x, y, z = bloch.invert(np.array(row) / shots)
            scored = z / max(1.0, math.sqrt(x * x + y * y + z * z))
            ends = min(z_lo, scored), max(z_hi, scored)
            widened += ends != (z_lo, z_hi)
            top = min(max(2 * p[k] - 1, ends[0]), ends[1])
            low_end, high_end, peak = reference_production(
                initial[:, k], [[0.0, 0.0, v] for v in (*ends, top)], p[k], True)
            assert point[k] == pytest.approx(
                reference_production(initial[:, k], [x, y, z], p[k], True), abs=1e-12)
            assert lo[k] == pytest.approx(min(low_end, high_end, point[k]), abs=1e-12)
            assert hi[k] == pytest.approx(max(peak, point[k]), abs=1e-12)
        assert widened >= (4 if shots >= 50 else 0)

    @pytest.mark.parametrize("shots", [20, 500, 10_000])
    def test_total_sd_is_a_finite_difference_of_the_eigh_path(self, shots):
        # The total's interval is point +- Z95 sd, with sd^2 the sum over the
        # Bloch components of (dSigma/db_i)^2 var(b_i), and var(b_i) from the
        # observed frequencies.  Here the gradient is a central difference of the
        # eigh path, step 1e-6, at runs inside and outside the ball but not
        # within 1e-3 of its surface or centre.
        rng = np.random.default_rng(shots + 2)
        counts, _ = random_counts(rng, 60, shots)
        counts[:20, 3] = shots  # x = 1: these runs lie outside the ball unless y = z = 0
        b = np.stack(bloch.invert(counts / shots), axis=-1)
        length = np.linalg.norm(b, axis=-1)
        keep = (np.abs(length - 1.0) > 1e-3) & (length > 1e-3)
        counts, b = counts[keep], b[keep]
        assert (np.linalg.norm(b, axis=-1) > 1).sum() >= 5 and len(b) >= 30
        rows = len(b)
        initial = rng.uniform(-0.5, 0.5, size=(rows, 3))  # inside the ball
        p = rng.uniform(0.55, 0.99, size=rows)
        point, lo, hi, _ = tomography.estimates(counts, length_z(initial), p, shots, False)
        f_h, f_v, f_r, f_d = (counts / shots).T
        variances = np.stack([4 * f_d * (1 - f_d), 4 * f_r * (1 - f_r),
                              f_h * (1 - f_h) + f_v * (1 - f_v)], axis=-1) / shots
        step = 1e-6 * np.eye(3)
        gradient = np.stack([(reference_production(initial, b + step[i], p, False)
                              - reference_production(initial, b - step[i], p, False)) / 2e-6
                             for i in range(3)], axis=-1)
        sd = np.sqrt(np.sum(gradient**2 * variances, axis=-1))
        assert np.max(np.abs((hi - lo) / (2 * Z) - sd)) < 1e-6
        assert np.allclose(point, (lo + hi) / 2, rtol=0.0, atol=1e-12)


class TestExactCoverage:
    @pytest.mark.parametrize("q, shots", [(0.5, 40), (0.93, 500), (0.02, 1000)])
    def test_lattice_sum_of_a_wilson_interval_is_a_plain_loop(self, q, shots):
        # An interval of n_H alone: the lattice sum over n_V adds up to 1 per n_H.
        def interval(n_h, n_v):
            return tomography.wilson(n_h, shots)[1:]

        want = 0.0
        for k in range(shots + 1):
            _, low, high = scalar_wilson(k, shots)
            if low <= q <= high:
                want += math.comb(shots, k) * q**k * (1 - q) ** (shots - k)
        assert lattice_coverage(interval, q, q, 0.3, shots) == pytest.approx(want, abs=1e-12)
        k, pmf = binomial_pmf(shots, q)
        assert pmf.min() > 1e-16 and abs(pmf.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("p, r, shots, coverage", NEWCOMBE_TABLE)
    def test_population_coverage_reproduces_the_newcombe_table(self, p, r, shots, coverage):
        # Exact coverage of Newcombe's interval imaged through the population
        # production, radial projection ignored: test_sweep.py bounds what that
        # leaves out (`TestErrorBarCoverage`, conftest `projection_bound`).
        assert round(population_coverage(p, r, shots), 4) == coverage
