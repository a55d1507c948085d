"""Generalized amplitude damping (GAD) channel for a single qubit.

The channel is parametrized by the temperature weight p in [0.5, 1] and the
damping strength r in [0, 1].  A matched Lindblad master-equation integrator
is provided as an independent cross-check of the Kraus map; the two pictures
are linked by r = 1 - exp[-(2 nbar + 1) gamma0 t] and
p = 1 / (1 + exp(-omega/T)).

Both pictures act as 4x4 superoperators on the row-major 4-vector vec(rho):
the Kraus map as sum_k M_k kron M_k, built by one batched real matmul and
applied to the real and imaginary parts of vec(rho) by another; the
integrator's generator as a sum of two dissipators, stepped by the RK4
polynomial in Horner form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import QubitState

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)  # |0><1|
SIGMA_PLUS = SIGMA_MINUS.conj().T


class ParameterOutOfRangeError(ValueError):
    pass


@dataclass(frozen=True)
class GadChannel:
    """Temperature weight p in [0.5, 1] and damping strength r in [0, 1]."""

    p: float
    r: float

    def __post_init__(self):
        if not 0.5 <= self.p <= 1.0:
            raise ParameterOutOfRangeError(f"p must be in [0.5, 1], got {self.p}")
        if not 0.0 <= self.r <= 1.0:
            raise ParameterOutOfRangeError(f"r must be in [0, 1], got {self.r}")


@dataclass(frozen=True)
class BathSpec:
    """Thermal bath with hbar = k_B = 1 units.

    omega_s: system transition frequency, temperature: bath temperature in
    the same units, gamma0: spontaneous emission rate.
    """

    omega_s: float
    temperature: float
    gamma0: float

    def __post_init__(self):
        if not (math.isfinite(self.omega_s) and self.omega_s > 0):
            raise ParameterOutOfRangeError(f"omega_s must be positive, got {self.omega_s}")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ParameterOutOfRangeError(
                f"temperature must be >= 0, got {self.temperature}"
            )
        if not (math.isfinite(self.gamma0) and self.gamma0 > 0):
            raise ParameterOutOfRangeError(f"gamma0 must be positive, got {self.gamma0}")

    @property
    def mean_occupation(self) -> float:
        """Bose occupation nbar = 1 / (exp(omega/T) - 1); 0 at T = 0.

        Written as exp(-x) / (1 - exp(-x)), x = omega/T, which underflows to 0
        for a cold bath where exp(x) would overflow; refused where nbar ~ 1/x
        overflows."""
        if self.temperature == 0.0:
            return 0.0
        x = self.omega_s / self.temperature
        nbar = math.exp(-x) / -math.expm1(-x) if x > 0.0 else math.inf
        if nbar == math.inf:
            raise ParameterOutOfRangeError(f"nbar overflows at omega_s / temperature = {x}")
        return nbar


def kraus_stack(p, r) -> np.ndarray:
    """The four GAD Kraus matrices M0..M3 (M0, M1 relaxation; M2, M3
    excitation) as a real (..., 4, 2, 2) stack over the broadcast p and r
    arrays, p in [0.5, 1] and r in [0, 1]."""
    p, r = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(r, dtype=float))
    sp, sq, sr, s1r = np.sqrt(p), np.sqrt(1.0 - p), np.sqrt(r), np.sqrt(1.0 - r)
    out = np.zeros(p.shape + (4, 2, 2))
    out[..., 0, 0, 0] = sp
    out[..., 0, 1, 1] = sp * s1r
    out[..., 1, 0, 1] = sp * sr
    out[..., 2, 0, 0] = sq * s1r
    out[..., 2, 1, 1] = sq
    out[..., 3, 1, 0] = sq * sr
    return out


def apply_kraus(rho, p, r) -> np.ndarray:
    """rho -> sum_k M_k rho M_k^dagger on stacked (..., 2, 2) density
    matrices; the leading axes of rho, p and r broadcast.

    The Kraus matrices are real, so the map is the real 4x4 superoperator
    sum_k M_k kron M_k acting on row-major vec(rho), as in `_liouvillian`.
    It acts on the real and imaginary parts of vec(rho), the two columns of
    one real matmul; the result is complex128.
    """
    kraus = kraus_stack(p, r)
    lead = kraus.shape[:-3]
    flat = kraus.reshape(lead + (4, 4))  # (..., k, ij)
    # (K^T K)[ij, lm] = sum_k M_k[i, j] M_k[l, m], reordered to [il, jm].
    gram = flat.swapaxes(-1, -2) @ flat
    superop = gram.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(lead + (4, 4))
    rho = np.asarray(rho)
    out = superop @ np.stack((rho.real, rho.imag), axis=-1).reshape(rho.shape[:-2] + (4, 2))
    return out.view(np.complex128).reshape(out.shape[:-2] + (2, 2))


def apply(ch: GadChannel, state: QubitState) -> QubitState:
    """rho -> sum_k M_k rho M_k^dagger."""
    return QubitState(apply_kraus(state.matrix, ch.p, ch.r))


def equilibrium_states(p) -> np.ndarray:
    """Thermal fixed points diag(p, 1 - p), shape (..., 2, 2), of a p array."""
    p = np.asarray(p, dtype=float)
    out = np.zeros(p.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = p
    out[..., 1, 1] = 1.0 - p
    return out


def equilibrium_state(ch: GadChannel) -> QubitState:
    """Thermal fixed point diag(p, 1 - p)."""
    return QubitState(equilibrium_states(ch.p))


def compose(r1, r2):
    """Same-temperature semigroup composition: the channel (p, r2) after (p, r1)
    is the channel (p, r12), r12 = 1 - (1 - r1)(1 - r2), elementwise."""
    return 1.0 - (1.0 - r1) * (1.0 - r2)


def r_from_time(bath: BathSpec, t: float) -> float:
    """r(t) = 1 - exp[-(2 nbar + 1) gamma0 t]; 1 at t = inf."""
    if not t >= 0:  # also refuses nan
        raise ParameterOutOfRangeError(f"t must be >= 0, got {t}")
    return -math.expm1(-(2.0 * bath.mean_occupation + 1.0) * bath.gamma0 * t)


def p_from_temperature(bath: BathSpec) -> float:
    """p(T) = 1 / (1 + exp(-omega/T)); limits 0.5 (T -> inf) and 1 (T -> 0)."""
    if bath.temperature == 0.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(-bath.omega_s / bath.temperature))


def channel_for(bath: BathSpec, t: float) -> GadChannel:
    """The GAD channel matching evolution under `bath` for time t."""
    return GadChannel(p_from_temperature(bath), r_from_time(bath, t))


def _dissipator(op: np.ndarray) -> np.ndarray:
    """D[L] rho = L rho L^dag - (1/2){L^dag L, rho} as a 4x4 matrix on
    row-major vec(rho), using vec(A rho B) = (A kron B^T) vec(rho)."""
    # L^dag L by einsum: a matmul here, at import, would make every process
    # allocate BLAS buffers, even one that never calls BLAS.
    anti = np.einsum("ji,jk->ik", op.conj(), op)
    eye = np.eye(2)
    return np.kron(op, op.conj()) - 0.5 * (np.kron(anti, eye) + np.kron(eye, anti.T))


_DECAY, _EXCITATION = _dissipator(SIGMA_MINUS), _dissipator(SIGMA_PLUS)


def _liouvillian(bath: BathSpec) -> np.ndarray:
    """The master equation's generator as a 4x4 matrix on row-major vec(rho):
    d rho/dt = gamma0 (nbar+1) D[sigma-] rho + gamma0 nbar D[sigma+] rho."""
    nbar = bath.mean_occupation
    return bath.gamma0 * (nbar + 1.0) * _DECAY + bath.gamma0 * nbar * _EXCITATION


def _rk4_step(hl: np.ndarray) -> np.ndarray:
    """The classical RK4 step rho <- T(hL) rho of a linear generator, as a
    4x4 matrix: T is the degree-4 Taylor polynomial of exp, here in Horner
    form I + hL (I + hL/2 (I + hL/3 (I + hL/4)))."""
    eye = np.eye(4)
    step = eye
    for k in (4, 3, 2, 1):
        step = eye + (hl / k) @ step
    return step


def evolve_master_equation(bath: BathSpec, initial: QubitState, t: float) -> QubitState:
    """Fixed-step classical 4th-order integration of the master equation.

    The step is at most 1e-3 / [gamma0 (2 nbar + 1)]: t splits into the fewest
    equal steps no longer than that, one step when t is shorter; t >= 0 and
    t / dt must be finite.  The integrator knows only the Lindblad generator,
    never the Kraus map, so it checks the latter.
    """
    if not t >= 0:  # also refuses nan
        raise ParameterOutOfRangeError(f"t must be >= 0, got {t}")
    if t == math.inf:
        raise ParameterOutOfRangeError(f"t must be finite, got {t}")
    if t == 0.0:
        return initial
    dt = 1e-3 / (bath.gamma0 * (2.0 * bath.mean_occupation + 1.0))
    # dt is 0 when the rate overflows; t / dt overflows for a long enough t.
    steps = t / dt if dt > 0.0 else math.inf
    if steps == math.inf:
        raise ParameterOutOfRangeError(f"t = {t} takes more steps of {dt} than a float holds")
    n_steps = max(1, math.ceil(steps - 1e-9))
    # n steps of a linear generator are the n-th power of one step.
    step = _rk4_step((t / n_steps) * _liouvillian(bath))
    rho = (np.linalg.matrix_power(step, n_steps) @ initial.matrix.reshape(4)).reshape(2, 2)
    # Re-symmetrize to scrub integrator round-off.
    return QubitState(0.5 * (rho + rho.conj().T))
