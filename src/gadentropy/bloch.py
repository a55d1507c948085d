"""Closed-form single-qubit quantities on stacked Bloch vectors.

Every function takes Bloch vectors b = (x, y, z) as a float array of shape
(..., 3), with rho = (I + x X + y Y + z Z) / 2, and broadcasts over the
leading axes.  Index 0 is the ground state |H>, so rho_00 = (1 + z) / 2.  The
eigenvalues of rho are (1 +- |b|) / 2, so each entropy is a function of |b|
and z alone.  Entropies are in nats.  The 2x2 density-matrix code in
`qstate` (eigh), `channel` (Kraus operators) and
`tomography.project_to_physical` computes the same quantities by other means
and serves as their reference.
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


def invert(freqs) -> np.ndarray:
    """Linear inversion of (f_H, f_V, f_R, f_D): b = (2 f_D - 1, 2 f_R - 1, f_H - f_V).

    Shot noise can leave the result outside the unit ball; see `project`.
    """
    f_h, f_v, f_r, f_d = np.moveaxis(np.asarray(freqs, dtype=float), -1, 0)
    return np.stack([2.0 * f_d - 1.0, 2.0 * f_r - 1.0, f_h - f_v], axis=-1)


def project(b) -> np.ndarray:
    """Radial projection b / max(1, |b|): the Frobenius-nearest state."""
    b = np.asarray(b, dtype=float)
    return b / np.maximum(np.linalg.norm(b, axis=-1), 1.0)[..., None]


def _entropy_of_length(length) -> np.ndarray:
    """-sum lam ln lam over lam = (1 +- length) / 2; a negative lam counts as 0."""
    low, high = np.maximum(0.5 * (1.0 - length), 0.0), 0.5 * (1.0 + length)
    return -(low * np.log(np.where(low > 0.0, low, 1.0)) + high * np.log(high))


def entropy(b) -> np.ndarray:
    """Von Neumann entropy S(rho)."""
    return _entropy_of_length(np.linalg.norm(b, axis=-1))


def coherence(b) -> np.ndarray:
    """Relative entropy of coherence S(dephase(rho)) - S(rho)."""
    return _entropy_of_length(np.abs(np.asarray(b)[..., 2])) - entropy(b)


def relative_entropy_to_thermal(b, p) -> np.ndarray:
    """D(rho || diag(p, 1 - p)) = -S(rho) - rho_00 ln p - rho_11 ln(1 - p).

    A thermal weight at most ATOL contributes nothing when rho's weight there
    is also at most ATOL, and makes D = +inf otherwise (the support rule of
    `qstate.relative_entropy`).
    """
    b = np.asarray(b, dtype=float)
    return relative_entropy_of_length(np.linalg.norm(b, axis=-1), b[..., 2], p)


def relative_entropy_of_length(length, z, p) -> np.ndarray:
    """`relative_entropy_to_thermal` of the state with Bloch length `length` and
    z component `z`; ln p and ln(1 - p) are taken once, on p's own shape."""
    p = np.asarray(p, dtype=float)
    cross = []
    for weight, thermal in ((0.5 * (1.0 + z), p), (0.5 * (1.0 - z), 1.0 - p)):
        supported = thermal > ATOL
        cross.append(np.where(supported, weight * np.log(np.where(supported, thermal, 1.0)),
                              np.where(weight > ATOL, -np.inf, 0.0)))
    return -_entropy_of_length(length) - (cross[0] + cross[1])
