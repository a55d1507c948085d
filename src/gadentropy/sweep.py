"""Figure-reproduction sweeps.

Each grid point runs the two-experiment protocol: the coherent preparation
gives the total entropy production, the dephased preparation gives the
population part, and the coherence part is their difference.  Both the
analytic path and the shot-noise tomography path are recorded per row.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import platform
from dataclasses import dataclass

import numpy as np

from . import bloch, prep, tomography

DEFAULT_SHOTS = 10_000
DEFAULT_BOOTSTRAP = 200
DEFAULT_SEED = 20240
DEFAULT_R_POINTS = 21
# Most runs (grid rows x (1 + n_bootstrap)) one experiment may draw; at fig2's
# 0.15 kB per run that is about 0.6 GB.
MAX_RUNS = 2**22

FIG2_P_VALUES = (0.9, 0.75, 0.6)
FIG3_P_VALUES = (0.9,)
FIG3_COHERENCES = (0.8, 0.6, 0.4)


class ConfigError(ValueError):
    pass


@dataclass
class SweepConfig:
    """Declarative description of a (p, alpha, r, shots, seed) grid."""

    scenario: str = "custom"
    p_values: tuple[float, ...] = FIG2_P_VALUES
    alphas: tuple[float, ...] = (0.0,)  # HWP1 angles in radians; 0 gives coherence 1
    r_grid: tuple[float, ...] | int = DEFAULT_R_POINTS  # an int n: n uniform points on [0, 1]
    shots: int = DEFAULT_SHOTS
    n_bootstrap: int = DEFAULT_BOOTSTRAP
    seed: int = DEFAULT_SEED
    output_path: str = "sweep.csv"

    def __post_init__(self):
        if self.scenario not in ("fig2", "fig3", "custom"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        # numpy's binomial takes the shot count as a C long.
        if not 1 <= self.shots <= np.iinfo(np.int64).max or self.n_bootstrap < 2 or self.seed < 0:
            raise ConfigError("shots must be in [1, 2**63 - 1], n_bootstrap >= 2 and seed >= 0")
        points = self.r_grid if isinstance(self.r_grid, int) else len(self.r_grid)
        rows = len(self.p_values) * len(self.alphas) * points
        if rows * (1 + self.n_bootstrap) > MAX_RUNS:
            raise ConfigError(f"{rows} grid rows x (1 + n_bootstrap = {self.n_bootstrap}) "
                              f"runs exceed the bound of {MAX_RUNS} runs per experiment")
        if isinstance(self.r_grid, int):  # built only once the bound has passed
            self.r_grid = tuple(np.linspace(0.0, 1.0, self.r_grid))
        if not self.p_values or not self.alphas or not self.r_grid:
            raise ConfigError("p_values, alphas and r_grid must be non-empty")
        for name, values, low, high in (
            ("p_values", self.p_values, 0.5, 1.0),
            ("alphas", self.alphas, 0.0, prep.ALPHA_MAX),
            ("r_grid", self.r_grid, 0.0, 1.0),
        ):
            bad = [v for v in values if not low <= v <= high]
            if bad:
                raise ConfigError(f"{name} must lie in [{low:g}, {high:g}], got {float(bad[0]):g}")


def fig2_config(**overrides) -> SweepConfig:
    """Maximum initial coherence, three bath temperatures."""
    return SweepConfig(**{"scenario": "fig2", "p_values": FIG2_P_VALUES, "alphas": (0.0,),
                          "output_path": "fig2.csv", **overrides})


def fig3_config(**overrides) -> SweepConfig:
    """Fixed bath temperature, three initial coherences."""
    return SweepConfig(**{"scenario": "fig3", "p_values": FIG3_P_VALUES,
                          "alphas": tuple(map(prep.alpha_for_coherence, FIG3_COHERENCES)),
                          "output_path": "fig3.csv", **overrides})


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _alphas_from_degrees(text: str) -> tuple[float, ...]:
    # Checked in degrees: radians() of a negative subnormal is -0.0, inside the range.
    degrees, high = _floats(text), math.degrees(prep.ALPHA_MAX)
    bad = [a for a in degrees if not 0.0 <= a <= high]
    if bad:
        raise ValueError(f"alpha_deg must lie in [0, {high:g}], got {bad[0]:g}")
    return tuple(map(math.radians, degrees))


def _r_points(text: str) -> int:
    if int(text) < 2:
        raise ValueError(f"a uniform r grid needs at least 2 points, got {text}")
    return int(text)


# Config-file key -> (SweepConfig field, parser of the value text).
_CONFIG_KEYS = {
    "scenario": ("scenario", str),
    "p_values": ("p_values", _floats),
    "alpha_deg": ("alphas", _alphas_from_degrees),
    "coherence": ("alphas", lambda text: tuple(map(prep.alpha_for_coherence, _floats(text)))),
    "r_grid": ("r_grid", _floats),
    "r_points": ("r_grid", _r_points),
    "shots": ("shots", int),
    "n_bootstrap": ("n_bootstrap", int),
    "seed": ("seed", int),
    "out": ("output_path", str),
}


def settings(entries) -> dict:
    """SweepConfig keyword arguments from (where, key, text) triples, where
    `where` names the entry's source in error messages.

    Unknown or repeated keys, two keys for one setting (alpha_deg and
    coherence, r_grid and r_points) and unparseable values raise ConfigError.
    """
    kwargs: dict = {}
    for where, key, text in entries:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        name, parse = _CONFIG_KEYS[key]
        if name in kwargs:
            raise ConfigError(f"{where}: {key!r} repeats or conflicts with an earlier key")
        try:
            kwargs[name] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    return kwargs


def load_config(path: str, **overrides) -> SweepConfig:
    """Parse a flat key-value config file (key = value, '#' comments) through
    `settings`, with `overrides` set over its entries; text that is not UTF-8
    or a line without '=' raises ConfigError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # newline=None splits lines as a text-mode file does (\n, \r, \r\n).
        lines = io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc

    def entries():
        for lineno, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            yield f"{path}:{lineno}", key, value

    return SweepConfig(**{**settings(entries()), **overrides})


# One record per grid point: the CSV columns in order, then two counters left
# out of the CSV.  `projected` counts reconstructions (both experiments, runs
# and resamples) projected into the Bloch ball, `nonfinite` the bootstrap
# samples dropped from the stderrs as non-finite.  The run's seed is no
# column: the sidecar records it once.
SWEEP_DTYPE = np.dtype([(name, float) for name in (
    "p", "r", "alpha_deg", "coherence_initial", "sigma_total", "sigma_pop", "sigma_coh",
    "sigma_total_tomo", "sigma_total_tomo_stderr", "sigma_pop_tomo", "sigma_pop_tomo_stderr",
    "sigma_coh_tomo", "sigma_coh_tomo_stderr",
)] + [("indeterminate", int), ("projected", int), ("nonfinite", int)])
CSV_COLUMNS = SWEEP_DTYPE.names[:14]
# One CSV line per `%`: 12 significant digits for floats, ints as written.
_CSV_LINE = ",".join("%.12g" if SWEEP_DTYPE[name] == float else "%d"
                     for name in CSV_COLUMNS) + "\n"
_CSV_BLOCK = 4096  # rows turned into Python values at a time while the CSV streams


def _production(initial, final, p) -> np.ndarray:
    """Entropy production D(initial || eq) - D(final || eq), eq = diag(p, 1 - p),
    of states given as (|b|, z) pairs; not finite at p = 1."""
    with np.errstate(invalid="ignore"):
        return (bloch.relative_entropy_of_length(*initial, p)
                - bloch.relative_entropy_of_length(*final, p))


def _length_and_z(b, population: bool):
    """(|b|, z) of Bloch vectors `b`, or (|z|, z) of their dephased states."""
    z = b[..., 2]
    return (np.abs(z) if population else np.linalg.norm(b, axis=-1)), z


def production_estimates(initial, p, freqs, population: bool):
    """Per-row (point, stderr, projected count, non-finite count) of a production.

    `freqs` (rows, 1 + n_bootstrap, 4) holds the observed run, then its
    resamples.  Each is inverted, projected into the Bloch ball and scored by
    `_production` from `initial`, on its dephased state when `population`.
    Non-finite bootstrap samples are left out of the stderr.
    """
    estimate = bloch.invert(freqs)
    length = np.linalg.norm(estimate, axis=-1)
    projected = np.sum(length > 1.0, axis=1)
    # `bloch.project` on |b| and z: b / max(1, |b|) has length min(1, |b|).
    z = estimate[..., 2] / np.maximum(length, 1.0)
    length = np.abs(z) if population else np.minimum(length, 1.0)
    production = _production(_length_and_z(initial[:, None], population), (length, z), p[:, None])
    samples = production[:, 1:]
    finite = np.isfinite(samples)
    n = finite.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        dev = np.where(finite, samples - np.where(finite, samples, 0.0).sum(axis=1, keepdims=True)
                       / n[:, None], 0.0)
        stderr = np.where(n >= 2, np.sqrt((dev * dev).sum(axis=1) / (n - 1)), np.nan)
    return production[:, 0], stderr, projected, samples.shape[1] - n


def run_sweep(config: SweepConfig) -> np.recarray:
    """Evaluate every (p, alpha, r) grid point of the configured sweep.

    Returns one SWEEP_DTYPE record per point, ordered by (p, alpha, r).
    Indeterminate points (p = 1 with a divergent relative entropy) are
    flagged, not dropped, hold NaN productions and draw nothing.  Experiment
    e (1 coherent, 2 dephased) draws all its determinate rows, in row order,
    from the one generator `default_rng((config.seed, e))`.
    """
    grid = np.indices((len(config.p_values), len(config.alphas), len(config.r_grid)))
    i_p, i_a, i_r = (g.ravel() for g in grid)
    p = np.asarray(config.p_values, dtype=float)[i_p]
    r = np.asarray(config.r_grid, dtype=float)[i_r]
    coherent = np.zeros((p.size, 3))
    coherent[:, 0] = np.array([prep.coherent_bloch_x(a) for a in config.alphas])[i_a]
    final = bloch.gad(coherent, p, r)
    total, population = (_production(*(_length_and_z(b, dephased) for b in (coherent, final)), p)
                         for dephased in (False, True))
    det = np.isfinite(total) & np.isfinite(population)

    rows = np.zeros(p.size, SWEEP_DTYPE)
    rows["p"], rows["r"] = p, r
    rows["alpha_deg"] = np.array([math.degrees(a) for a in config.alphas])[i_a]
    rows["coherence_initial"] = np.abs(coherent[:, 0])
    rows["indeterminate"] = ~det
    # Experiment 1 (coherent) measures the total, experiment 2 (dephased) the population part.
    # Both measure all four bases: experiment 2's R and D frequencies reach the population
    # estimate through the radial projection when |b| > 1, so they are not skipped.
    p_det, r_det, initial = p[det], r[det], coherent[det]
    (tot, tot_err, tot_proj, tot_bad), (pop, pop_err, pop_proj, pop_bad) = (
        production_estimates(prepared, p_det, tomography.draw_frequencies(
            bloch.born_probabilities(bloch.gad(prepared, p_det, r_det)), config.shots,
            (config.seed, e), config.n_bootstrap), population=e == 2)
        for e, prepared in enumerate((initial, bloch.dephase(initial)), start=1))
    coherence = bloch.coherence(coherent) - bloch.coherence(final)
    for name, values in zip(CSV_COLUMNS[4:13], (
            *(np.maximum(v[det], 0.0) for v in (total, population, coherence)),
            tot, tot_err, pop, pop_err, tot - pop, np.hypot(tot_err, pop_err))):
        rows[name][~det] = np.nan
        rows[name][det] = values
    rows["projected"][det], rows["nonfinite"][det] = tot_proj + pop_proj, tot_bad + pop_bad
    return rows.view(np.recarray)


def _counters(rows) -> dict:
    return {key: int(rows[name].sum()) for key, name in (
        ("indeterminate_rows", "indeterminate"), ("projected_reconstructions", "projected"),
        ("nonfinite_bootstrap_dropped", "nonfinite"))}


def _write_atomic(path: str, lines) -> None:
    """Write the lines through a temporary file in the same directory, then
    rename it over `path`, so a reader never sees a half-written file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _csv_lines(rows):
    """The header, then one line per record, formatted a block of rows at a time."""
    yield ",".join(CSV_COLUMNS) + "\n"
    rows = np.asarray(rows)  # a plain array: indexing a recarray runs Python code
    for start in range(0, len(rows), _CSV_BLOCK):
        block = rows[start:start + _CSV_BLOCK]
        yield from map(_CSV_LINE.__mod__, zip(*(block[name].tolist() for name in CSV_COLUMNS)))


def emit_csv(rows: np.ndarray, path: str, config: SweepConfig) -> None:
    """Write the sweep as UTF-8 CSV with a fixed column order, and its JSON
    sidecar <path>.meta.json.

    Floats carry 12 significant digits, so same-seed reruns on the same versions
    are byte-identical.  The sidecar is the run manifest: versions,
    configuration (the one record of the seed), RNG streams, error-bar
    procedure and the counters of `emit_summary`.  Each file is replaced
    atomically.
    """
    from . import __version__
    if len(rows) == 0:
        raise IOError("refusing to write an empty sweep")
    _write_atomic(path, _csv_lines(rows))
    meta = {
        "versions": {"gadentropy": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "config": dataclasses.asdict(config),
        "rng_algorithm": tomography.RNG_ALGORITHM,
        "streams": {"derivation": "experiment e (1 coherent, 2 dephased) draws from "
                    "numpy.random.default_rng((config.seed, e)) its determinate rows' runs in "
                    "CSV order, then all their resamples, each basis's (H, V, R, D) back to back"},
        "error_bars": (
            "parametric bootstrap: per-basis binomial resampling at the "
            "observed frequencies, stderr = sample std over resampled "
            "reconstructions; simulation-based, not a lab claim"
        ),
        "counters": _counters(rows),
    }
    _write_atomic(path + ".meta.json", [json.dumps(meta, indent=2, default=list), "\n"])


def emit_summary(rows: np.ndarray) -> str:
    """Human-readable consistency report over a finished sweep."""
    if len(rows) == 0:
        raise IOError("no rows to summarize")
    rows = np.asarray(rows)  # a plain array: indexing a recarray runs Python code
    det = rows[rows["indeterminate"] == 0]

    def columns(*names):
        return np.stack([det[name] for name in names], axis=-1)

    analytic = columns("sigma_total", "sigma_pop", "sigma_coh")
    # Per determinate row, the total then the population estimate.  A leading
    # (0 deviation, unit stderr) entry reports 0 stderr when nothing deviates.
    dev = np.concatenate([[0.0], np.nan_to_num(np.abs(
        columns("sigma_total_tomo", "sigma_pop_tomo") - analytic[:, :2])).ravel()])
    err = np.concatenate([[1.0], columns("sigma_total_tomo_stderr",
                                         "sigma_pop_tomo_stderr").ravel()])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(dev > 0.0, dev / err, 0.0)
    worst = int(np.argmax(dev))
    zs = np.sort(z[1:])  # for the median; np.median would load numpy.ma (about 1 MB)
    spread = (f"median {(zs[(zs.size - 1) // 2] + zs[zs.size // 2]) / 2:.2f}, "
              f"fraction above 2: {np.mean(zs > 2.0):.3f}" if zs.size else "none")
    c = _counters(rows)
    lines = [
        f"rows: {len(rows)} ({c['indeterminate_rows']} indeterminate)",
        f"max additivity violation (analytic): "
        f"{np.max(np.abs(analytic[:, 0] - (analytic[:, 1] + analytic[:, 2])), initial=0.0):.3e}",
        # + 0.0 turns the -0.0 of rows at exactly zero into 0.0.
        f"max negativity (analytic): {np.max(-analytic, initial=0.0) + 0.0:.3e}",
        f"max |tomography - analytic|: {dev[worst]:.3e} ({z[worst]:.2f} stderr)",
        f"|tomography - analytic| / stderr over {zs.size} estimates: {spread}",
        f"reconstructions projected into the Bloch ball: {c['projected_reconstructions']}",
        f"non-finite bootstrap samples dropped: {c['nonfinite_bootstrap_dropped']}",
    ]
    return "\n".join(lines)
