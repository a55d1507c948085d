"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math

import numpy as np
import pytest
from conftest import fidelity, reconstruct

from gadentropy import cli, tomography
from gadentropy.budget import budget
from gadentropy.channel import (
    BathSpec,
    GadChannel,
    apply,
    channel_for,
    equilibrium_state,
    evolve_master_equation,
    kraus_stack,
)
from gadentropy.prep import PrepSetting, alpha_for_coherence, prepare
from gadentropy.qstate import (
    PLUS,
    QubitState,
    bloch_matrices,
    relative_entropy,
)

P_GRID_11 = np.linspace(0.5, 1.0, 11)
R_GRID_11 = np.linspace(0.0, 1.0, 11)
ALPHA_GRID_9 = np.linspace(0.0, math.pi / 4.0, 9)


def _report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


# --- independent oracle -----------------------------------------------------
# Entropies recomputed from scratch: closed-form 2x2 eigenvalues
# lambda = 1/2 +- sqrt((dpop/2)^2 + |c|^2) and direct scalar sums, no calls
# into the library's entropy code.

def oracle_entropy_pair(pops, off):
    gap = math.sqrt(((pops[0] - pops[1]) / 2.0) ** 2 + abs(off) ** 2)
    eigs = [0.5 - gap, 0.5 + gap]
    s = 0.0
    for lam in eigs:
        if lam > 1e-15:
            s -= lam * math.log(lam)
    return s


def oracle_rel_entropy_to_diag(pops, off, eq_pops):
    # D(rho || diag(eq)) = -S(rho) - sum_i pops_i ln eq_i
    s_rho = oracle_entropy_pair(pops, off)
    return -s_rho - pops[0] * math.log(eq_pops[0]) - pops[1] * math.log(eq_pops[1])


def oracle_budget(alpha, p, r):
    cos4a = math.cos(4.0 * alpha)
    pg = p * r + (1.0 - r) / 2.0
    pe = 1.0 - pg
    pc = cos4a * math.sqrt(1.0 - r) / 2.0
    eq = (p, 1.0 - p)
    d_init = oracle_rel_entropy_to_diag((0.5, 0.5), cos4a / 2.0, eq)
    d_final = oracle_rel_entropy_to_diag((pg, pe), pc, eq)
    total = d_init - d_final
    d_init_pop = oracle_rel_entropy_to_diag((0.5, 0.5), 0.0, eq)
    d_final_pop = oracle_rel_entropy_to_diag((pg, pe), 0.0, eq)
    population = d_init_pop - d_final_pop
    coherence = total - population
    return total, population, coherence


def test_criterion_1_kraus_completeness():
    worst = 0.0
    for p in P_GRID_11:
        for r in R_GRID_11:
            total = sum(m.conj().T @ m for m in kraus_stack(p, r))
            worst = max(worst, float(np.max(np.abs(total - np.eye(2)))))
    _report("1 Kraus completeness (11x11 grid)", worst < 1e-12,
            f"max deviation {worst:.3e} < 1e-12")


def test_criterion_2_closed_form_oracle():
    worst = 0.0
    for alpha in ALPHA_GRID_9:
        cos4a = math.cos(4.0 * alpha)
        state = prepare(PrepSetting(alpha))
        for p in P_GRID_11:
            for r in R_GRID_11:
                out = apply(GadChannel(p, r), state).matrix
                pg = p * r + (1.0 - r) / 2.0
                pe = (1.0 + r) / 2.0 - p * r
                pc = cos4a * math.sqrt(1.0 - r) / 2.0
                expected = np.array([[pg, pc], [pc, pe]])
                worst = max(worst, float(np.max(np.abs(out - expected))))
    _report("2 closed-form evolved state (9x11x11 grid)", worst < 1e-12,
            f"max deviation {worst:.3e} < 1e-12")


def test_criterion_3_lindblad_kraus_equivalence():
    worst = 0.0
    for nbar in (0.0, 0.125, 1.0):
        # temperature realizing the target occupation at omega_s = 1
        temperature = 0.0 if nbar == 0.0 else 1.0 / math.log(1.0 + 1.0 / nbar)
        bath = BathSpec(omega_s=1.0, temperature=temperature, gamma0=1.0)
        assert bath.mean_occupation == pytest.approx(nbar, abs=1e-12)
        for t in (0.1, 0.5, 1.0, 2.0):
            integrated = evolve_master_equation(bath, PLUS, t)
            kraus = apply(channel_for(bath, t), PLUS)
            worst = max(
                worst, float(np.max(np.abs(integrated.matrix - kraus.matrix)))
            )
    _report("3 Lindblad/Kraus equivalence", worst < 1e-6,
            f"max elementwise deviation {worst:.3e} < 1e-6")


def test_criterion_4_decomposition():
    rng = np.random.default_rng(404)
    worst_add = 0.0
    worst_neg = 0.0
    for _ in range(1000):
        alpha = rng.uniform(0.0, math.pi / 4.0)
        p = rng.uniform(0.5, 1.0 - 1e-9)
        r = rng.uniform(0.0, 1.0)
        b = budget(prepare(PrepSetting(alpha)), GadChannel(p, r))
        worst_add = max(worst_add, abs(b.total - (b.population + b.coherence)))
        worst_neg = max(worst_neg, -min(b.total, b.population, b.coherence))
    ok = worst_add < 1e-10 and worst_neg <= 1e-10
    _report("4 decomposition additivity + non-negativity (1000 triples)", ok,
            f"max additivity gap {worst_add:.3e}, max negativity {worst_neg:.3e}")


def test_criterion_5_contractivity_monotonicity():
    rng = np.random.default_rng(505)
    violations = 0
    for _ in range(500):
        v = rng.normal(size=3)
        v = v / np.linalg.norm(v) * rng.uniform() ** (1.0 / 3.0)
        state = QubitState.from_bloch(*v)
        ch = GadChannel(rng.uniform(0.5, 1.0 - 1e-9), rng.uniform(0.0, 1.0))
        eq = equilibrium_state(ch)
        if relative_entropy(apply(ch, state), eq) > relative_entropy(state, eq) + 1e-10:
            violations += 1
    monotone = True
    scenarios = [(p, 0.0) for p in (0.9, 0.75, 0.6)]
    scenarios += [(0.9, alpha_for_coherence(c)) for c in (0.8, 0.6, 0.4)]
    for p, alpha in scenarios:
        previous = -1e-10
        for r in np.linspace(0.0, 1.0, 21):
            total = budget(prepare(PrepSetting(alpha)), GadChannel(p, r)).total
            if total < previous - 1e-10:
                monotone = False
            previous = total
    ok = violations == 0 and monotone
    _report("5 contractivity + monotonicity in r", ok,
            f"{violations} contractivity violations, monotone={monotone}")


def test_criterion_6_anchor_values():
    expected = oracle_budget(0.0, 0.9, 1.0)
    b = budget(PLUS, GadChannel(0.9, 1.0))
    got = (b.total, b.population, b.coherence)
    anchors = (1.203973, 0.510826, 0.693147)
    ok = all(abs(g - e) < 1e-12 for g, e in zip(got, expected)) and all(
        abs(g - a) < 1e-5 for g, a in zip(got, anchors)
    )
    _report("6 anchor values at (alpha=0, p=0.9, r=1)", ok,
            f"got ({got[0]:.6f}, {got[1]:.6f}, {got[2]:.6f}) vs {anchors} +- 1e-5")


def test_criterion_7_qualitative_claims():
    # (a) at high bath temperature the population part almost vanishes
    b = budget(PLUS, GadChannel(0.6, 1.0))
    ratio = b.population / b.total
    oracle_total, oracle_pop, _ = oracle_budget(0.0, 0.6, 1.0)
    pinned = 0.028604531339663685  # oracle_pop / oracle_total, frozen
    ok_a = (
        ratio <= 0.15
        and abs(ratio - oracle_pop / oracle_total) < 1e-12
        and abs(ratio - pinned) < 1e-12
    )
    # (b) smaller initial coherence, smaller coherence contribution
    values = [
        budget(
            prepare(PrepSetting(alpha_for_coherence(c))), GadChannel(0.9, 1.0)
        ).coherence
        for c in (0.4, 0.6, 0.8)
    ]
    ok_b = values[0] < values[1] < values[2]
    _report("7 qualitative regime claims", ok_a and ok_b,
            f"pop/total ratio {ratio:.6f} (pinned {pinned:.6f}), "
            f"sigma_coh at r=1 {['%.4f' % v for v in values]} increasing")


def test_criterion_8_tomography_fidelity():
    states = [PLUS, QubitState(np.eye(2) / 2), apply(GadChannel(0.9, 0.5), PLUS)]
    estimates = np.array([reconstruct(state, 100_000, 1000 * i + seed, 2)[0]
                          for i, state in enumerate(states) for seed in range(100)])
    truths = np.repeat([state.matrix for state in states], 100, axis=0)
    mean_fid = float(np.mean(fidelity(bloch_matrices(estimates), truths)))

    # 200 trials of PLUS, (|b|, z) = (1, 0), evolved at p = 0.9, r = 0.5, as the sweep
    # measures them.
    sigma_true = budget(PLUS, GadChannel(0.9, 0.5)).total
    sigma, stderr, _ = tomography.estimates(
        *tomography.counts(np.tile(states[2].bloch_vector(), (200, 1)), 10_000, 0),
        (np.ones(200), np.zeros(200)), np.full(200, 0.9), 10_000, 200, False)
    covered = int(np.sum(np.abs(sigma - sigma_true) <= 3.0 * stderr))
    ok = mean_fid >= 0.999 and covered >= 190
    _report("8 tomography fidelity + error-bar coverage", ok,
            f"mean fidelity {mean_fid:.5f} >= 0.999, "
            f"{covered}/200 trials within 3 stderr (need >= 190)")


def test_criterion_9_csv_determinism(tmp_path):
    args = ["fig2", "--shots", "2000", "--bootstrap", "50", "--seed", "31415"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    _report("9 CSV determinism (fig2, same seed)", identical,
            f"byte-identical={identical} over {len(out_a.read_bytes())} bytes")
