"""Independent oracle for the benchmark's outputs: numpy and math only.

Nothing here imports gadentropy.  Every quantity is computed in closed form
on the Bloch vector (x, y, z) of a single qubit:

- the GAD channel is the affine map x, y -> x, y * sqrt(1 - r) and
  z -> z (1 - r) + r (2p - 1);
- the eigenvalues of the state are (1 +- |b|) / 2;
- the relative entropy to the thermal state diag(p, 1 - p) is
  D = -S(rho) - rho_00 ln p - rho_11 ln(1 - p), with rho_00 = (1 + z) / 2.

The sweep's coherent preparation with l1 coherence c has Bloch vector
(c, 0, 0); its dephased twin is the maximally mixed state (0, 0, 0).
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Columns the oracle reads.  The CSV may carry more (diagnostics), never fewer.
CSV_REQUIRED = (
    "p", "r", "alpha_deg", "coherence_initial",
    "sigma_total", "sigma_pop", "sigma_coh",
    "sigma_total_tomo", "sigma_total_tomo_stderr",
    "sigma_pop_tomo", "sigma_pop_tomo_stderr",
    "sigma_coh_tomo", "sigma_coh_tomo_stderr",
    "indeterminate",
)
TOMO_COLUMNS = (
    "sigma_total_tomo", "sigma_total_tomo_stderr", "sigma_pop_tomo",
    "sigma_pop_tomo_stderr", "sigma_coh_tomo", "sigma_coh_tomo_stderr",
)

# The CSV keeps 12 significant digits; the package subtracts O(1) relative
# entropies, so near-zero productions carry ~1e-15 absolute round-off.
RTOL = 1e-9
ATOL = 1e-11
# Kraus map vs closed form, and RK4 (default step) vs closed form.
KRAUS_TOL = 1e-12
RK4_TOL = 1e-6

# Loose z-score bounds that hold across seeds and draw orders.  With many
# resamples |z| is half-normal (median 0.674); with 2 resamples the stderr
# has one degree of freedom and |z| is |Cauchy| (median 1), so only the
# median is checked there.
Z_MEDIAN_RANGE = (0.25, 2.5)
Z_TAIL = 5.0
Z_TAIL_MAX_FRAC = 0.05
Z_TAIL_MIN_BOOTSTRAP = 30


def entropy_from_length(length) -> np.ndarray:
    """Von Neumann entropy (nats) of a qubit with Bloch length |b|."""
    length = np.clip(np.asarray(length, dtype=float), 0.0, 1.0)
    out = np.zeros_like(length)
    for lam in ((1.0 + length) / 2.0, (1.0 - length) / 2.0):
        nz = lam > 0.0
        out[nz] -= lam[nz] * np.log(lam[nz])
    return out


def relative_entropy_to_thermal(bloch, p) -> np.ndarray:
    """D(rho || diag(p, 1-p)) for Bloch vectors of shape (..., 3); p < 1."""
    b = np.asarray(bloch, dtype=float)
    p = np.asarray(p, dtype=float)
    z = b[..., 2]
    s = entropy_from_length(np.linalg.norm(b, axis=-1))
    return -s - 0.5 * (1.0 + z) * np.log(p) - 0.5 * (1.0 - z) * np.log1p(-p)


def coherence_entropy(bloch) -> np.ndarray:
    """Relative entropy of coherence S(dephase(rho)) - S(rho)."""
    b = np.asarray(bloch, dtype=float)
    return entropy_from_length(np.abs(b[..., 2])) - entropy_from_length(
        np.linalg.norm(b, axis=-1)
    )


def gad_apply(bloch, p, r) -> np.ndarray:
    """The GAD channel as an affine map on Bloch vectors."""
    b = np.asarray(bloch, dtype=float)
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    shrink = np.sqrt(1.0 - r)
    return np.stack(
        [b[..., 0] * shrink, b[..., 1] * shrink, b[..., 2] * (1.0 - r) + r * (2.0 * p - 1.0)],
        axis=-1,
    )


def budget(p, r, c):
    """Analytic (total, population, coherence) production for the sweep's
    coherent preparation with l1 coherence c.  Requires p < 1."""
    p, r, c = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (p, r, c)))
    zeros = np.zeros_like(c)
    initial = np.stack([c, zeros, zeros], axis=-1)
    final = gad_apply(initial, p, r)
    total = relative_entropy_to_thermal(initial, p) - relative_entropy_to_thermal(final, p)
    deph_initial = np.zeros_like(initial)
    deph_final = final * np.array([0.0, 0.0, 1.0])
    population = relative_entropy_to_thermal(deph_initial, p) - relative_entropy_to_thermal(
        deph_final, p
    )
    coherence = coherence_entropy(initial) - coherence_entropy(final)
    return total, population, coherence


def bloch_of_matrix(m) -> np.ndarray:
    """Bloch vector of a 2x2 density matrix (nested lists or array)."""
    m = np.asarray(m, dtype=complex)
    return np.array([2.0 * m[0, 1].real, -2.0 * m[0, 1].imag, (m[0, 0] - m[1, 1]).real])


def nbar_temperature(nbar: float, omega: float = 1.0) -> float:
    """Bath temperature giving Bose occupation nbar at frequency omega."""
    return 0.0 if nbar == 0.0 else omega / math.log1p(1.0 / nbar)


def thermal_channel(nbar: float, gamma0: float, t: float) -> tuple[float, float]:
    """(p, r) of the GAD channel matching a thermal bath for time t."""
    p = (nbar + 1.0) / (2.0 * nbar + 1.0)
    r = -math.expm1(-(2.0 * nbar + 1.0) * gamma0 * t)
    return p, r


def _close(got, want) -> np.ndarray:
    return np.abs(got - want) <= ATOL + RTOL * np.abs(want)


def check_sweep_csv(text: str, grid) -> dict:
    """Check a sweep CSV against the closed forms.

    `grid` is (p_values, coherences, r_values, n_bootstrap); rows are expected
    in (p, coherence, r) order.  Returns counts of attempted rows, failed rows
    (missing rows included), a list of failure reasons, and the z-score
    statistics.
    """
    p_values, coherences, r_values, n_bootstrap = grid
    P, C, R = (a.ravel() for a in np.meshgrid(p_values, coherences, r_values, indexing="ij"))
    expected = len(P)
    reasons: list[str] = []

    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in CSV_REQUIRED if c not in (reader.fieldnames or ())]
    if missing:
        return {"attempted": expected, "failed": expected,
                "reasons": [f"CSV lacks columns {missing}"], "z": {}}
    try:
        table = {c: [] for c in CSV_REQUIRED}
        for row in reader:
            for c in CSV_REQUIRED:
                table[c].append(float(row[c]))
        cols = {c: np.array(v, dtype=float) for c, v in table.items()}
    except (TypeError, ValueError) as exc:
        return {"attempted": expected, "failed": expected,
                "reasons": [f"unparseable CSV: {exc}"], "z": {}}
    n = min(len(cols["p"]), expected)
    bad = np.zeros(expected, dtype=bool)
    if len(cols["p"]) != expected:
        reasons.append(f"{len(cols['p'])} rows, expected {expected}")
        bad[n:] = True
    cols = {c: v[:n] for c, v in cols.items()}
    P, C, R = P[:n], C[:n], R[:n]

    def flag(mask, why):
        mask = np.asarray(mask, dtype=bool)
        if mask.any():
            reasons.append(f"{int(mask.sum())} rows: {why}")
            bad[:n] |= mask

    flag(~_close(cols["p"], P) | ~_close(cols["r"], R), "grid (p, r) out of order")
    flag(~_close(cols["coherence_initial"], C), "coherence_initial mismatch")
    flag(~_close(cols["alpha_deg"], np.degrees(np.arccos(C) / 4.0)), "alpha_deg mismatch")
    indeterminate = P >= 1.0
    flag((cols["indeterminate"] != 0) != indeterminate, "indeterminate flag is not exactly p = 1")

    det = ~indeterminate
    total, pop, coh = budget(np.where(det, P, 0.5), R, C)
    for name, want in (("sigma_total", total), ("sigma_pop", pop), ("sigma_coh", coh)):
        flag(det & ~_close(cols[name], want), f"{name} differs from closed form")
    flag(det & ~_close(cols["sigma_total"], cols["sigma_pop"] + cols["sigma_coh"]),
         "additivity total = pop + coh violated")
    finite = np.all([np.isfinite(cols[c]) for c in TOMO_COLUMNS], axis=0)
    flag(det & ~finite, "non-finite tomography column")
    flag(det & finite & ~_close(cols["sigma_coh_tomo"],
                                cols["sigma_total_tomo"] - cols["sigma_pop_tomo"]),
         "sigma_coh_tomo != total_tomo - pop_tomo")
    flag(det & finite & ~_close(cols["sigma_coh_tomo_stderr"],
                                np.hypot(cols["sigma_total_tomo_stderr"],
                                         cols["sigma_pop_tomo_stderr"])),
         "sigma_coh_tomo_stderr != hypot of the two stderrs")
    flag(det & finite & ((cols["sigma_total_tomo_stderr"] < 0)
                         | (cols["sigma_pop_tomo_stderr"] < 0)), "negative stderr")

    z_stats = z_score_check(cols, det & finite, n_bootstrap)
    if not z_stats["ok"]:
        reasons.append(f"tomography z-scores out of range: {z_stats}")
    failed = int(bad.sum()) + (0 if z_stats["ok"] else 1)
    return {"attempted": expected, "failed": min(failed, expected),
            "reasons": reasons, "z": z_stats}


def z_score_check(cols: dict, mask, n_bootstrap: int) -> dict:
    """|tomography - analytic| / stderr over the determinate rows."""
    zs = []
    for analytic, tomo, err in (
        ("sigma_total", "sigma_total_tomo", "sigma_total_tomo_stderr"),
        ("sigma_pop", "sigma_pop_tomo", "sigma_pop_tomo_stderr"),
    ):
        dev = np.abs(cols[tomo][mask] - cols[analytic][mask])
        e = cols[err][mask]
        with np.errstate(divide="ignore", invalid="ignore"):
            zs.append(np.where(e > 0, dev / np.where(e > 0, e, 1.0),
                               np.where(dev > 0, np.inf, 0.0)))
    z = np.concatenate(zs)
    if z.size == 0:
        return {"ok": True, "n": 0}
    median = float(np.median(z))
    tail = float(np.mean(z > Z_TAIL))
    ok = Z_MEDIAN_RANGE[0] <= median <= Z_MEDIAN_RANGE[1]
    if n_bootstrap >= Z_TAIL_MIN_BOOTSTRAP:
        ok = ok and tail <= Z_TAIL_MAX_FRAC
    return {"ok": bool(ok), "n": int(z.size), "median_abs_z": round(median, 4),
            "frac_above_5": round(tail, 4)}
