"""The property suite behind `gadentropy check`.

Each row holds a documented invariant on a fixed grid or on seeded random
cases.  The `bloch` closed forms that the sweeps run are checked: the GAD
map against the 2x2 density-matrix reference (Kraus operators), which
computes it independently, and the tomography round trip `invert` of
`born_probabilities` against the states it starts from.  Every row scores
one stack: the grid rows run on (11, 11) p, r meshgrid arrays.  The random
rows draw from one stdlib `random.Random(seed)`, in the order they are
listed: each row takes all its uniforms in one `randbytes` call, maps them
onto its cases with array arithmetic, and scores them in one call of the
reference's stacked forms.  Contractivity scores its states before and after
the channel as one (2, 500) stack: one `eigvalsh`, and one `eigh` of the
equilibria.  `numpy.random` is never imported.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

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
    results: list[PropertyResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in self.results]
        lines.append("ALL PASS" if self.passed else "FAILURES PRESENT")
        return "\n".join(lines)


def _uniforms(rng: random.Random, shape: tuple[int, ...]) -> np.ndarray:
    """Doubles uniform in [0, 1), in multiples of 2**-53: the top 53 bits of
    each little-endian 64-bit word of one `rng.randbytes` call."""
    words = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8")
    return (words >> 11).reshape(shape) * 2.0 ** -53


def _ball(u: np.ndarray) -> np.ndarray:
    """(n, 3) Bloch vectors uniform in the unit ball, from (3, n) uniforms:
    z = 2 u0 - 1 and azimuth 2 pi u1 give a uniform direction (Archimedes'
    theorem), and the radius u2**(1/3) a uniform density in the volume."""
    z, phi = 2.0 * u[0] - 1.0, 2.0 * np.pi * u[1]
    s = np.sqrt(1.0 - z * z)
    return np.cbrt(u[2])[:, None] * np.stack((s * np.cos(phi), s * np.sin(phi), z), axis=-1)


def run_property_suite(seed: int) -> PropertyReport:
    """Run every module invariant on documented grids with a fixed seed."""
    rng = random.Random(seed)
    p, r = np.meshgrid(np.linspace(0.5, 1.0, 11), np.linspace(0.0, 1.0, 11), indexing="ij")

    def dev(a, b) -> float:
        return float(np.max(np.abs(a - b)))

    def within(worst: float) -> tuple[bool, str]:
        return worst < 1e-12, f"max deviation {worst:.3e}"

    def random_p(u: np.ndarray) -> np.ndarray:
        return 0.5 + (0.5 - 1e-9) * u  # p in [0.5, 1 - 1e-9]: the equilibrium stays full rank

    def completeness() -> tuple[bool, str]:
        kraus = chn.kraus_stack(p, r)
        return within(dev(np.einsum("...kji,...kjl->...il", kraus.conj(), kraus), np.eye(2)))

    def closed_form() -> tuple[bool, str]:
        # The nine wave-plate preparations through the Kraus map and through
        # bloch.gad, both on the stacked (9, 11, 11) grid.
        initial = np.array([(prep.coherent_bloch_x(a), 0.0, 0.0)
                            for a in np.linspace(0.0, prep.ALPHA_MAX, 9)])[:, None, None]
        kraus = qstate.bloch_vectors(chn.apply_kraus(qstate.bloch_matrices(initial), p, r))
        return within(dev(kraus, bloch.gad(initial, p, r)))

    def contractivity() -> tuple[bool, str]:
        # 5 x 500 uniforms: three for the state, then p and r.  A non-finite
        # relative entropy counts as a violation.
        u = _uniforms(rng, (5, 500))
        p, r = random_p(u[3]), u[4]
        states = qstate.bloch_matrices(_ball(u[:3]))
        before, after = qstate.relative_entropies(
            np.stack((states, chn.apply_kraus(states, p, r))), chn.equilibrium_states(p))
        violations = int(np.sum(~(after <= before + 1e-10)))
        return violations == 0, f"{violations} violations"

    def additivity() -> tuple[bool, str]:
        # 3 x 1000 uniforms: the wave-plate angle, then p and r.  Scored in
        # one stack of raw signed productions.
        u = _uniforms(rng, (3, 1000))
        x = np.array([prep.coherent_bloch_x(a) for a in (prep.ALPHA_MAX * u[0]).tolist()])
        p, r = random_p(u[1]), u[2]
        sigma = np.stack(productions(qstate.bloch_matrices(x[:, None] * (1.0, 0.0, 0.0)), p, r))
        gap = float(np.max(np.abs(sigma[0] - (sigma[1] + sigma[2]))))
        neg = float(np.max(-sigma, initial=0.0))
        return (bool(np.all(np.isfinite(sigma))) and gap < ADDITIVITY_TOL
                and neg <= NEG_FLOOR,
                f"max additivity gap {gap:.3e}, max negativity {neg:.3e}")

    def composition() -> tuple[bool, str]:
        # 6 x 100 uniforms: p in [0.5, 1], r1, r2, then three for the state.
        # Two channels in sequence against their composition.
        u = _uniforms(rng, (6, 100))
        p, r1, r2, states = 0.5 + 0.5 * u[0], u[1], u[2], qstate.bloch_matrices(_ball(u[3:]))
        return within(dev(chn.apply_kraus(chn.apply_kraus(states, p, r1), p, r2),
                          chn.apply_kraus(states, p, chn.compose(r1, r2))))

    def round_trip() -> tuple[bool, str]:
        # 3 x 200 uniforms for the states, through the Bloch tomography closed
        # forms: Born probabilities, then linear inversion.
        b = _ball(_uniforms(rng, (3, 200)))
        return within(dev(np.stack(bloch.invert(bloch.born_probabilities(b)), axis=-1), b))

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
