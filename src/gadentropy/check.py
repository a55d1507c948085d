"""The property suite behind `gadentropy check`.

Each row holds a documented invariant on a fixed grid or on seeded random
cases.  The GAD map and the tomography round trip are evaluated with the
`bloch` closed forms that the sweeps run, and compared with the 2x2
density-matrix reference (Kraus operators, eigh entropies), which computes
the same quantities independently.  The random cases come from the stdlib
`random.Random(seed)`, one case after another; the contractivity and
additivity rows then score all their cases in one call of the reference's
stacked forms, and the other rows run one state at a time.
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


def run_property_suite(seed: int = 1234) -> PropertyReport:
    """Run every module invariant on documented grids with a fixed seed."""
    rng = random.Random(seed)
    ps, rs = np.linspace(0.5, 1.0, 11), np.linspace(0.0, 1.0, 11)
    grid = [chn.GadChannel(p, r) for p in ps for r in rs]
    preps = [prep.prepare(prep.PrepSetting(a)) for a in np.linspace(0.0, math.pi / 4.0, 9)]

    def dev(a, b) -> float:
        return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))

    def within(worst: float) -> tuple[bool, str]:
        return worst < 1e-12, f"max deviation {worst:.3e}"

    def random_pr(p: float | None = None) -> tuple[float, float]:
        p = rng.uniform(0.5, 1.0 - 1e-9) if p is None else p
        return p, rng.uniform(0.0, 1.0)

    def closed_form() -> tuple[bool, str]:
        # bloch.gad once on the stacked (9, 11, 11) grid, the Kraus map per state.
        initial = np.array([state.bloch_vector() for state in preps])
        closed = bloch.gad(initial[:, None, None], *np.meshgrid(ps, rs, indexing="ij"))
        kraus = [chn.apply(ch, state).bloch_vector() for state in preps for ch in grid]
        return within(dev(kraus, closed.reshape(-1, 3)))

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

    def composition(p: float) -> float:
        ch1, ch2 = chn.GadChannel(*random_pr(p)), chn.GadChannel(*random_pr(p))
        state = qstate.QubitState.from_bloch(*_random_bloch(rng))
        return dev(chn.apply(ch2, chn.apply(ch1, state)).matrix,
                   chn.apply(chn.compose(ch1, ch2), state).matrix)

    def round_trip() -> tuple[bool, str]:
        # The sweep's tomography path on the stacked states: Born
        # probabilities, linear inversion, projection into the Bloch ball.
        b = np.array([_random_bloch(rng) for _ in range(200)])
        return within(dev(bloch.project(bloch.invert(bloch.born_probabilities(b))), b))

    checks = (
        ("kraus completeness (11x11 grid)", lambda: within(max(
            dev(sum(m.conj().T @ m for m in chn.kraus_stack(ch.p, ch.r)), np.eye(2))
            for ch in grid))),
        ("equilibrium fixed point (11x11 grid)", lambda: within(max(
            dev(chn.apply(ch, chn.equilibrium_state(ch)).matrix,
                chn.equilibrium_state(ch).matrix) for ch in grid))),
        ("closed-form evolved state (9x11x11 grid)", closed_form),
        ("relative-entropy contractivity (500 random cases)", contractivity),
        ("budget additivity + non-negativity (1000 random triples)", additivity),
        ("coherence decay sqrt(1-r), p-independent", lambda: within(max(
            abs(float(chn.apply(ch, qstate.PLUS).matrix[0, 1].real)
                - 0.5 * math.sqrt(1.0 - ch.r)) for ch in grid))),
        ("semigroup composition (100 random cases)", lambda: within(max(
            composition(rng.uniform(0.5, 1.0)) for _ in range(100)))),
        ("tomography exact-frequency round trip (200 random states)", round_trip),
    )
    return PropertyReport([PropertyResult(name, *check()) for name, check in checks])
