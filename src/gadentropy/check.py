"""The property suite behind `gadentropy check`.

Each row holds a documented invariant on a fixed grid or on seeded random
cases.  The GAD map and the tomography round trip are evaluated with the
`bloch` closed forms that the sweeps run, and compared with the 2x2
density-matrix reference (Kraus operators, eigh entropies), which computes
the same quantities independently.  Every row scores one stack: the grid rows
run on (11, 11) p, r meshgrid arrays, and the random cases come from the
stdlib `random.Random(seed)`, drawn one case after another, then scored in
one call of the reference's stacked forms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import bloch, prep, qstate
from . import channel as chn
from .budget import ADDITIVITY_TOL, NEG_FLOOR, productions


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str


@dataclass
class PropertyReport:
    results: list[PropertyResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in self.results]
        lines.append("ALL PASS" if self.passed else "FAILURES PRESENT")
        return "\n".join(lines)


def _random_bloch(rng: random.Random) -> tuple[float, float, float]:
    """A Bloch vector drawn uniformly from the unit ball."""
    v = [rng.gauss(0.0, 1.0) for _ in range(3)]
    scale = rng.random() ** (1.0 / 3.0) / math.hypot(*v)
    return v[0] * scale, v[1] * scale, v[2] * scale


def run_property_suite(seed: int) -> PropertyReport:
    """Run every module invariant on documented grids with a fixed seed."""
    rng = random.Random(seed)
    p, r = np.meshgrid(np.linspace(0.5, 1.0, 11), np.linspace(0.0, 1.0, 11), indexing="ij")

    def dev(a, b) -> float:
        return float(np.max(np.abs(a - b)))

    def within(worst: float) -> tuple[bool, str]:
        return worst < 1e-12, f"max deviation {worst:.3e}"

    def random_pr() -> tuple[float, float]:
        return rng.uniform(0.5, 1.0 - 1e-9), rng.uniform(0.0, 1.0)

    def completeness() -> tuple[bool, str]:
        kraus = chn.kraus_stack(p, r)
        return within(dev(np.einsum("...kji,...kjl->...il", kraus.conj(), kraus), np.eye(2)))

    def closed_form() -> tuple[bool, str]:
        # The nine wave-plate preparations through the Kraus map and through
        # bloch.gad, both on the stacked (9, 11, 11) grid.
        initial = np.array([(prep.coherent_bloch_x(a), 0.0, 0.0)
                            for a in np.linspace(0.0, math.pi / 4.0, 9)])[:, None, None]
        kraus = qstate.bloch_vectors(chn.apply_kraus(qstate.bloch_matrices(initial), p, r))
        return within(dev(kraus, bloch.gad(initial, p, r)))

    def contractivity() -> tuple[bool, str]:
        # Cases drawn one by one (state, then p and r), scored in one stack;
        # a non-finite relative entropy counts as a violation.
        b, p, r = zip(*[(_random_bloch(rng), *random_pr()) for _ in range(500)])
        states, eq = qstate.bloch_matrices(b), chn.equilibrium_states(p)
        before = qstate.relative_entropies(states, eq)
        after = qstate.relative_entropies(chn.apply_kraus(states, p, r), eq)
        violations = int(np.sum(~(after <= before + 1e-10)))
        return violations == 0, f"{violations} violations"

    def additivity() -> tuple[bool, str]:
        # Cases drawn one by one (wave-plate angle, then p and r), scored in
        # one stack of raw signed productions.
        x, p, r = np.array([(prep.coherent_bloch_x(rng.uniform(0.0, math.pi / 4.0)), *random_pr())
                            for _ in range(1000)]).T
        sigma = np.stack(productions(qstate.bloch_matrices(x[:, None] * (1.0, 0.0, 0.0)), p, r))
        gap = float(np.max(np.abs(sigma[0] - (sigma[1] + sigma[2]))))
        neg = float(np.max(-sigma, initial=0.0))
        return (bool(np.all(np.isfinite(sigma))) and gap < ADDITIVITY_TOL
                and neg <= NEG_FLOOR,
                f"max additivity gap {gap:.3e}, max negativity {neg:.3e}")

    def composition() -> tuple[bool, str]:
        # Cases drawn one by one (p, r1, r2, then the state), scored in one
        # stack: two channels in sequence against their composition.
        cases = np.array([(rng.uniform(0.5, 1.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
                           *_random_bloch(rng)) for _ in range(100)])
        (p, r1, r2), states = cases[:, :3].T, qstate.bloch_matrices(cases[:, 3:])
        return within(dev(chn.apply_kraus(chn.apply_kraus(states, p, r1), p, r2),
                          chn.apply_kraus(states, p, chn.compose(r1, r2))))

    def round_trip() -> tuple[bool, str]:
        # The sweep's tomography path on the stacked states: Born
        # probabilities, linear inversion, projection into the Bloch ball.
        b = np.array([_random_bloch(rng) for _ in range(200)])
        return within(dev(bloch.project(bloch.invert(bloch.born_probabilities(b))), b))

    checks = (
        ("kraus completeness (11x11 grid)", completeness),
        ("equilibrium fixed point (11x11 grid)", lambda: within(dev(
            chn.apply_kraus(chn.equilibrium_states(p), p, r), chn.equilibrium_states(p)))),
        ("closed-form evolved state (9x11x11 grid)", closed_form),
        ("relative-entropy contractivity (500 random cases)", contractivity),
        ("budget additivity + non-negativity (1000 random triples)", additivity),
        ("coherence decay sqrt(1-r), p-independent", lambda: within(dev(
            chn.apply_kraus(qstate.PLUS.matrix, p, r)[..., 0, 1].real, 0.5 * np.sqrt(1.0 - r)))),
        ("semigroup composition (100 random cases)", composition),
        ("tomography exact-frequency round trip (200 random states)", round_trip),
    )
    return PropertyReport([PropertyResult(name, *check()) for name, check in checks])
