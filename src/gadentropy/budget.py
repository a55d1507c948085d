"""Entropy production of a qubit relaxing toward a thermal state, split into
a population part and a coherence part.

Total production is the drop in relative entropy to the equilibrium state;
the population part is the same drop computed on dephased states, and the
coherence part is the drop in relative entropy of coherence.  The three are
additive: total = population + coherence.

`productions` applies the channel to stacked (..., 2, 2) density matrices
and gives the three raw signed values: `eigvalsh` gives the spectra of the
initial and final states.  The dephased states and the equilibrium
diag(p, 1 - p) are diagonal, so the dephased spectra and the cross terms
tr(rho ln eq) = rho_11 ln(1 - p) + rho_00 ln p are read off the diagonals.
`budget` scores one state with it and applies the strict rules (clamp of
round-off negatives, errors on inf - inf and on negativity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import GadChannel, apply_kraus
from .qstate import ATOL, QubitState, _tr_x_ln_x, von_neumann_entropies

# Values in [-NEG_FLOOR, 0) are floating-point noise and clamp to 0; anything
# more negative is a genuine positivity violation.
NEG_FLOOR = 1e-10
ADDITIVITY_TOL = 1e-10


class IndeterminateEntropyError(ArithmeticError):
    """Both relative entropies are infinite (inf - inf); restrict p < 1 or r > 0."""


class EntropyConsistencyError(RuntimeError):
    """A component came out negative beyond the numerical floor."""


@dataclass(frozen=True)
class EntropyBudget:
    """The triple (total, population, coherence), each >= 0, in nats."""

    total: float
    population: float
    coherence: float


def productions(initial, p, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw signed (Sigma, Sigma_pop, Sigma_coh) of stacked (..., 2, 2) initial
    states under GAD(p, r), relative to the channel's own equilibrium; the
    leading axes of initial, p and r broadcast.  Only the initial and final
    states go to `eigvalsh`; the dephased states' spectra are their diagonals,
    and so are the weights of tr(rho ln eq), one cross term per state and its
    dephased twin: -inf where rho_11 > ATOL but 1 - p <= ATOL."""
    final = apply_kraus(initial, p, r)
    states = np.stack(np.broadcast_arrays(initial, final))
    diagonals = np.diagonal(states, axis1=-2, axis2=-1).real
    # (states, dephased states) x (initial, final)
    entropy = np.stack((von_neumann_entropies(states), -_tr_x_ln_x(diagonals)))
    # The weights on eq's eigenvalues (1 - p, p) at |1>, |0>, which dephasing keeps.
    p = np.asarray(p, dtype=float)
    eq, weights = np.stack((1.0 - p, p), axis=-1), diagonals[..., ::-1]
    supported = eq > ATOL
    cross = np.sum(np.where(supported, weights * np.log(np.where(supported, eq, 1.0)),
                            np.where(weights > ATOL, -np.inf, 0.0)), axis=-1)
    relative = -entropy - cross
    coherence = entropy[1] - entropy[0]  # C = S(dephased) - S
    with np.errstate(invalid="ignore"):  # inf - inf is the indeterminate nan
        total, population = relative[:, 0] - relative[:, 1]
        return total, population, coherence[0] - coherence[1]


def _checked(value, label: str) -> float:
    """A raw relative-entropy drop as a float, with `budget`'s strict rules:
    inf - inf raises IndeterminateEntropyError, a drop to -inf raises
    EntropyConsistencyError, +inf passes, and a finite value is clamped."""
    value = float(value)
    if math.isnan(value):
        raise IndeterminateEntropyError(
            f"{label} production is inf - inf; restrict p < 1 or r > 0"
        )
    if value == -math.inf:
        raise EntropyConsistencyError(
            f"{label}: relative entropy increased to infinity along the evolution"
        )
    if value == math.inf:
        return value
    if value < -NEG_FLOOR:
        raise EntropyConsistencyError(f"{label} production is negative: {value:.3e}")
    return max(value, 0.0)


def budget(initial: QubitState, ch: GadChannel) -> EntropyBudget:
    """Apply the channel and return (Sigma, Sigma_pop, Sigma_coh).

    The equilibrium reference is always taken from the channel itself.
    Verifies additivity total = population + coherence to 1e-10.
    """
    raw = productions(initial.matrix, ch.p, ch.r)
    total, population, coherence = (
        _checked(value, label) for value, label in zip(raw, ("total", "population", "coherence")))
    if math.isfinite(total) and math.isfinite(population):
        gap = abs(total - (population + coherence))
        if gap > ADDITIVITY_TOL:
            raise EntropyConsistencyError(
                f"additivity violated by {gap:.3e} at p={ch.p}, r={ch.r}"
            )
    return EntropyBudget(total=total, population=population, coherence=coherence)
