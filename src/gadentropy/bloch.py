"""Closed-form single-qubit quantities on stacked Bloch vectors.

Bloch vectors b = (x, y, z) are float arrays of shape (..., 3), with
rho = (I + x X + y Y + z Z) / 2, and every function broadcasts over the
leading axes.  Index 0 is the ground state |H>, so rho_00 = (1 + z) / 2.  The
eigenvalues of rho are (1 +- |b|) / 2, so the entropy functions take a state
as its length |b| and z alone, and a production is an entropy change minus a
flux linear in z: S(final) - S(initial) - k (z_initial - z_final) with
k = ln(p / (1 - p)) / 2 = beta omega / 2.  Entropies are in nats.  The 2x2
matrix code in `qstate` (eigh) and `channel` (Kraus operators) computes the
same quantities by other means and serves as their reference; the tests hold
the sweeps' scorer `production` to it, projection into the Bloch ball included.
"""

from __future__ import annotations

import numpy as np

from .qstate import ATOL


def gad(b, p, r) -> np.ndarray:
    """The GAD channel as an affine map: x, y -> sqrt(1 - r) (x, y) and
    z -> (1 - r) z + r (2p - 1)."""
    b = np.asarray(b, dtype=float)
    shrink = np.sqrt(1.0 - r)
    z = b[..., 2] * (1.0 - r) + r * (2.0 * p - 1.0)
    return np.stack(np.broadcast_arrays(b[..., 0] * shrink, b[..., 1] * shrink, z), axis=-1)


def dephase(b) -> np.ndarray:
    """Energy-basis dephasing keeps only z."""
    return np.asarray(b, dtype=float) * (0.0, 0.0, 1.0)


def born_probabilities(b) -> np.ndarray:
    """(p_H, p_V, p_R, p_D) = ((1 + z), (1 - z), (1 + y), (1 + x)) / 2, in [0, 1]."""
    x, y, z = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.clip(0.5 * np.stack([1.0 + z, 1.0 - z, 1.0 + y, 1.0 + x], axis=-1), 0.0, 1.0)


def invert(freqs) -> tuple:
    """Linear inversion of (f_H, f_V, f_R, f_D), shape (..., 4), into the three
    Bloch component arrays (x, y, z) = (2 f_D - 1, 2 f_R - 1, f_H - f_V).

    Shot noise can leave the result outside the unit ball; see `production`.
    """
    f_h, f_v, f_r, f_d = np.moveaxis(np.asarray(freqs, dtype=float), -1, 0)
    return 2.0 * f_d - 1.0, 2.0 * f_r - 1.0, f_h - f_v


def _entropy_of_length(length) -> np.ndarray:
    """-sum lam ln lam over lam = (1 +- length) / 2; a lam <= 0 adds lam ln 1 = 0."""
    low, high = 0.5 * (1.0 - length), 0.5 * (1.0 + length)
    return -(low * np.log(np.where(low > 0.0, low, 1.0)) + high * np.log(high))


def coherence(length, z) -> np.ndarray:
    """Relative entropy of coherence S(dephase(rho)) - S(rho), of (|b|, z) = (length, z)."""
    return _entropy_of_length(np.abs(z)) - _entropy_of_length(length)


def production(initial, final, p, population: bool) -> np.ndarray:
    """Entropy production D(initial || eq) - D(final || eq), eq = diag(p, 1 - p).

    The states are (|b|, z) pairs, projected into the Bloch ball as
    (min(1, |b|), z / max(1, |b|)), the radial projection to the
    Frobenius-nearest state, then dephased to (|z|, z) when `population`.
    As D(rho || eq) = -S(rho) - ln(p (1 - p)) / 2 - k z, it is the entropy
    change minus a flux (Landi & Paternostro, Rev. Mod. Phys. 93, 035008):
    S(final) - S(initial) - k (z_initial - z_final), k = ln(p / (1 - p)) / 2 = beta omega / 2.
    p lies in [0.5, 1].  At 1 - p <= ATOL, k drops ln(1 - p), and a state with
    weight above ATOL on |1> has D = +inf (as in `qstate.relative_entropies`):
    inf - inf is nan.
    """
    def entropy_and_z(length, z):
        z = z / np.maximum(length, 1.0)
        return _entropy_of_length(np.abs(z) if population else np.minimum(length, 1.0)), z

    p = np.asarray(p, dtype=float)
    supported = 1.0 - p > ATOL
    k = 0.5 * (np.log(p) - np.log(np.where(supported, 1.0 - p, 1.0)))
    (s_initial, z_initial), (s_final, z_final) = entropy_and_z(*initial), entropy_and_z(*final)
    sigma = s_final - s_initial - k * (z_initial - z_final)
    if supported.all():
        return sigma
    divergent = [np.where(supported | (0.5 * (1.0 - z) <= ATOL), 0.0, np.inf)
                 for z in (z_initial, z_final)]
    with np.errstate(invalid="ignore"):
        return sigma + divergent[0] - divergent[1]
