"""Wave-plate parametrized state preparation.

A half-wave plate at angle alpha followed by an incoherent path split and a
second half-wave plate fixed at pi/8 prepares a state with equal populations
and off-diagonal element cos(4 alpha)/2.  The sweep's dephased preparation,
a path difference beyond the coherence length, is `bloch.dephase` of this
state.  Angles are radians; `sweep` parses `alpha_deg` and `coherence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .qstate import QubitState

ALPHA_MAX = math.pi / 4.0


class AngleOutOfRangeError(ValueError):
    pass


class CoherenceOutOfRangeError(ValueError):
    pass


@dataclass(frozen=True)
class PrepSetting:
    """HWP1 angle alpha in [0, pi/4]."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= ALPHA_MAX:
            raise AngleOutOfRangeError(
                f"alpha must be in [0, pi/4], got {self.alpha}"
            )


def coherent_bloch_x(alpha: float) -> float:
    """Bloch x = cos(4 alpha) of the coherent preparation at HWP1 angle alpha
    (y = z = 0).  Scalar `math.cos`, so the sweep and `prepare` get one float."""
    return math.cos(4.0 * alpha)


def prepare(setting: PrepSetting) -> QubitState:
    """The prepared photon state for a given wave-plate setting:
    (|H><H| + |V><V|)/2 + cos(4 alpha)(|H><V| + |V><H|)/2."""
    return QubitState.from_bloch(coherent_bloch_x(setting.alpha), 0.0, 0.0)


def alpha_for_coherence(c: float) -> float:
    """The HWP1 angle giving l1 coherence c: alpha = arccos(c) / 4."""
    if not 0.0 <= c <= 1.0:
        raise CoherenceOutOfRangeError(f"coherence must be in [0, 1], got {c}")
    return math.acos(c) / 4.0
