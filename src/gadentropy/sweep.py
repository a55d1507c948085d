"""Figure-reproduction sweeps and the aggregated property suite.

Each grid point runs the two-experiment protocol: the coherent preparation
gives the total entropy production, the dephased preparation gives the
population part, and the coherence part is their difference.  Both the
analytic path and the shot-noise tomography path are recorded per row.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import operator
import os
import platform
from dataclasses import dataclass, field

import numpy as np

from . import bloch, prep, qstate, tomography
from . import channel as chn
from .budget import budget as entropy_budget

DEFAULT_SHOTS = 10_000
DEFAULT_BOOTSTRAP = 200
DEFAULT_SEED = 20240
DEFAULT_R_POINTS = 21

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
    alpha_or_coherence: tuple[float, ...] = (1.0,)
    units: str = "coherence"  # "degrees" | "coherence"
    r_grid: tuple[float, ...] = ()
    shots: int = DEFAULT_SHOTS
    n_bootstrap: int = DEFAULT_BOOTSTRAP
    seed: int = DEFAULT_SEED
    output_path: str = "sweep.csv"

    def __post_init__(self):
        if self.scenario not in ("fig2", "fig3", "custom"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.units not in ("degrees", "coherence"):
            raise ConfigError(f"units must be 'degrees' or 'coherence', got {self.units!r}")
        if not self.r_grid:
            self.r_grid = uniform_r_grid(DEFAULT_R_POINTS)
        if not self.p_values or not self.alpha_or_coherence:
            raise ConfigError("p_values and alpha_or_coherence must be non-empty")
        degrees = self.units == "degrees"
        for name, values, low, high in (
            ("p_values", self.p_values, 0.5, 1.0),
            ("alpha_deg" if degrees else "coherence", self.alpha_or_coherence, 0.0,
             45.0 if degrees else 1.0),
            ("r_grid", self.r_grid, 0.0, 1.0),
        ):
            bad = [v for v in values if not low <= v <= high]
            if bad:
                raise ConfigError(f"{name} must lie in [{low:g}, {high:g}], got {float(bad[0]):g}")
        if self.shots < 1 or self.n_bootstrap < 2 or self.seed < 0:
            raise ConfigError("shots must be >= 1, n_bootstrap >= 2 and seed >= 0")

    def alphas(self) -> tuple[float, ...]:
        """HWP1 angles in radians for each configured initial state."""
        if self.units == "degrees":
            return tuple(math.radians(a) for a in self.alpha_or_coherence)
        return tuple(prep.alpha_for_coherence(c) for c in self.alpha_or_coherence)


def uniform_r_grid(n_points: int) -> tuple[float, ...]:
    if n_points < 2:
        raise ConfigError("r grid needs at least 2 points")
    return tuple(np.linspace(0.0, 1.0, n_points))


def fig2_config(**overrides) -> SweepConfig:
    """Maximum initial coherence, three bath temperatures."""
    return SweepConfig(**{"scenario": "fig2", "p_values": FIG2_P_VALUES,
                          "alpha_or_coherence": (1.0,), "output_path": "fig2.csv", **overrides})


def fig3_config(**overrides) -> SweepConfig:
    """Fixed bath temperature, three initial coherences."""
    return SweepConfig(**{"scenario": "fig3", "p_values": FIG3_P_VALUES,
                          "alpha_or_coherence": FIG3_COHERENCES, "output_path": "fig3.csv",
                          **overrides})


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


# Config-file key -> (SweepConfig field, parser of the value text).
_CONFIG_KEYS = {
    "scenario": ("scenario", str),
    "p_values": ("p_values", _floats),
    "alpha_deg": ("alpha_or_coherence", _floats),
    "coherence": ("alpha_or_coherence", _floats),
    "r_grid": ("r_grid", _floats),
    "r_points": ("r_grid", lambda text: uniform_r_grid(int(text))),
    "shots": ("shots", int),
    "n_bootstrap": ("n_bootstrap", int),
    "seed": ("seed", int),
    "out": ("output_path", str),
}


def load_config(path: str) -> SweepConfig:
    """Parse a flat key-value config file (key = value, '#' comments).

    Unknown or repeated keys, two keys for one setting (alpha_deg and
    coherence, r_grid and r_points) and unparseable values raise ConfigError.
    """
    kwargs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            name, parse = _CONFIG_KEYS[key]
            if name in kwargs:
                raise ConfigError(f"{path}:{lineno}: {key!r} repeats or conflicts with an earlier key")
            try:
                kwargs[name] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
            if key in ("alpha_deg", "coherence"):
                kwargs["units"] = "degrees" if key == "alpha_deg" else "coherence"
    try:
        return SweepConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(slots=True)
class SweepRow:
    """One grid point: analytic and tomography entropy productions.

    Not in the CSV: `projected` counts reconstructions (both experiments,
    runs and resamples) projected into the Bloch ball, `nonfinite` the
    bootstrap samples dropped from the stderrs as non-finite.
    """

    p: float
    r: float
    alpha_deg: float
    coherence_initial: float
    sigma_total: float
    sigma_pop: float
    sigma_coh: float
    sigma_total_tomo: float
    sigma_total_tomo_stderr: float
    sigma_pop_tomo: float
    sigma_pop_tomo_stderr: float
    sigma_coh_tomo: float
    sigma_coh_tomo_stderr: float
    seed_used: int
    indeterminate: int = 0
    projected: int = field(default=0, metadata={"csv": False})
    nonfinite: int = field(default=0, metadata={"csv": False})


_CSV_FIELDS = [f for f in dataclasses.fields(SweepRow) if f.metadata.get("csv", True)]
CSV_COLUMNS = tuple(f.name for f in _CSV_FIELDS)
# One CSV line per `%`: 12 significant digits for floats, ints as written.
_CSV_LINE = ",".join("%d" if f.type == "int" else "%.12g" for f in _CSV_FIELDS) + "\n"
_csv_values = operator.attrgetter(*CSV_COLUMNS)
_summary_values = operator.attrgetter(*CSV_COLUMNS[4:11])
_counted = operator.attrgetter("indeterminate", "projected", "nonfinite")


def experiment_seed(seed: int, experiment: int) -> int:
    """Stream seed of experiment 1 (coherent) or 2 (dephased): (seed, experiment)
    hashed through SeedSequence, so no pair replays another's stream."""
    return int(np.random.SeedSequence((seed, experiment)).generate_state(1, np.uint64)[0])


def _budget(initial: np.ndarray, final: np.ndarray, p: np.ndarray):
    """Analytic (total, population, coherence) per row; not finite at p = 1."""
    def drop(b0, b1):
        return (bloch.relative_entropy_to_thermal(b0, p)
                - bloch.relative_entropy_to_thermal(b1, p))

    with np.errstate(invalid="ignore"):
        total = drop(initial, final)
        population = drop(bloch.dephase(initial), bloch.dephase(final))
    return total, population, bloch.coherence(initial) - bloch.coherence(final)


def production_estimates(initial, p, freqs, population: bool):
    """Per-row (point, stderr, projected count, non-finite count) of a production.

    `freqs` (rows, 1 + n_bootstrap, 4) holds the observed run, then its
    resamples.  Each is inverted, projected into the Bloch ball and scored as
    D(initial || eq) - D(estimate || eq), on dephased states when
    `population`.  Non-finite bootstrap samples are left out of the stderr.
    """
    estimate = bloch.invert(freqs)
    projected = np.sum(np.linalg.norm(estimate, axis=-1) > 1.0, axis=1)
    estimate = bloch.project(estimate)
    if population:
        initial, estimate = bloch.dephase(initial), bloch.dephase(estimate)
    production = (bloch.relative_entropy_to_thermal(initial, p)[:, None]
                  - bloch.relative_entropy_to_thermal(estimate, p[:, None]))
    samples = production[:, 1:]
    finite = np.isfinite(samples)
    n = finite.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        dev = np.where(finite, samples - np.where(finite, samples, 0.0).sum(axis=1, keepdims=True)
                       / n[:, None], 0.0)
        stderr = np.where(n >= 2, np.sqrt((dev * dev).sum(axis=1) / (n - 1)), np.nan)
    return production[:, 0], stderr, projected, samples.shape[1] - n


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate every (p, alpha, r) grid point of the configured sweep.

    Rows are ordered by (p, alpha, r); indeterminate points (p = 1 with a
    divergent relative entropy) are flagged, not dropped, and draw nothing.
    Experiment e draws all determinate rows, in row order, from the stream
    `experiment_seed(config.seed, e)`; seed_used is config.seed.
    """
    alphas = config.alphas()
    grid = np.indices((len(config.p_values), len(alphas), len(config.r_grid)))
    i_p, i_a, i_r = (g.ravel() for g in grid)
    p = np.asarray(config.p_values, dtype=float)[i_p]
    r = np.asarray(config.r_grid, dtype=float)[i_r]
    coherent = np.zeros((p.size, 3))
    coherent[:, 0] = np.array([math.cos(4.0 * a) for a in alphas])[i_a]
    total, population, coherence = _budget(coherent, bloch.gad(coherent, p, r), p)
    det = np.isfinite(total) & np.isfinite(population)

    table = np.full((p.size, 13), np.nan)
    table[:, 0], table[:, 1] = p, r
    table[:, 2] = np.array([math.degrees(a) for a in alphas])[i_a]
    table[:, 3] = np.abs(coherent[:, 0])
    table[det, 4:7] = np.maximum(np.column_stack([total, population, coherence])[det], 0.0)
    # Experiment 1 (coherent) measures the total, experiment 2 (dephased) the population part.
    p_det, r_det, initial = p[det], r[det], coherent[det]
    (tot, tot_err, tot_proj, tot_bad), (pop, pop_err, pop_proj, pop_bad) = (
        production_estimates(prepared, p_det, tomography.draw_frequencies(
            bloch.born_probabilities(bloch.gad(prepared, p_det, r_det)), config.shots,
            experiment_seed(config.seed, e), config.n_bootstrap), population=e == 2)
        for e, prepared in enumerate((initial, bloch.dephase(initial)), start=1))
    table[det, 7:] = np.column_stack([tot, tot_err, pop, pop_err, tot - pop,
                                      np.hypot(tot_err, pop_err)])
    counts = np.zeros((3, p.size), dtype=int)  # indeterminate, projected, nonfinite
    counts[0] = ~det
    counts[1:, det] = tot_proj + pop_proj, tot_bad + pop_bad
    return list(map(SweepRow, *table.T.tolist(), itertools.repeat(config.seed), *counts.tolist()))


def _stack(getter, rows, width: int, dtype=float) -> np.ndarray:
    """(rows, width) array of each row's `getter` values, streamed without a list."""
    return np.fromiter(itertools.chain.from_iterable(map(getter, rows)), dtype).reshape(-1, width)


def _counters(rows: list[SweepRow]) -> dict:
    totals = _stack(_counted, rows, 3, int).sum(axis=0).tolist()
    return dict(zip(("indeterminate_rows", "projected_reconstructions",
                     "nonfinite_bootstrap_dropped"), totals))


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


def emit_csv(rows: list[SweepRow], path: str, config: SweepConfig | None = None) -> None:
    """Write the sweep as UTF-8 CSV with a fixed column order.

    Floats carry 12 significant digits, so same-seed reruns on the same versions
    are byte-identical.  The JSON sidecar <path>.meta.json is the run manifest:
    versions, configuration, RNG streams, error-bar procedure and the counters
    of `emit_summary`.  Each file is replaced atomically.
    """
    from . import __version__
    if not rows:
        raise IOError("refusing to write an empty sweep")
    _write_atomic(path, itertools.chain([",".join(CSV_COLUMNS) + "\n"], (
        _CSV_LINE % values for values in map(_csv_values, rows))))
    if config is not None:
        meta = {
            "versions": {"gadentropy": __version__, "numpy": np.__version__,
                         "python": platform.python_version()},
            "config": dataclasses.asdict(config),
            "rng_algorithm": tomography.RNG_ALGORITHM,
            "streams": {"derivation": "experiment e (1 coherent, 2 dephased) draws its "
                        "determinate rows' runs in CSV order from SeedSequence((config.seed, e)) "
                        "hashed to one uint64, their resamples from SeedSequence((that, 0xB007))",
                        "experiment_seeds": [experiment_seed(config.seed, e) for e in (1, 2)]},
            "error_bars": (
                "parametric bootstrap: per-basis binomial resampling at the "
                "observed frequencies, stderr = sample std over resampled "
                "reconstructions; simulation-based, not a lab claim"
            ),
            "counters": _counters(rows),
        }
        _write_atomic(path + ".meta.json", [json.dumps(meta, indent=2, default=list), "\n"])


def emit_summary(rows: list[SweepRow]) -> str:
    """Human-readable consistency report over a finished sweep."""
    if not rows:
        raise IOError("no rows to summarize")
    # Determinate rows' (total, pop, coh, total_tomo, total_err, pop_tomo, pop_err).
    a = _stack(_summary_values, (r for r in rows if not r.indeterminate), 7)
    # A leading (0 deviation, unit stderr) entry reports 0 stderr when nothing deviates.
    dev = np.concatenate([[0.0], np.nan_to_num(np.abs(a[:, [3, 5]] - a[:, :2])).ravel()])
    err = np.concatenate([[1.0], a[:, [4, 6]].ravel()])
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
        f"{np.max(np.abs(a[:, 0] - (a[:, 1] + a[:, 2])), initial=0.0):.3e}",
        # + 0.0 turns the -0.0 of rows at exactly zero into 0.0.
        f"max negativity (analytic): {np.max(-a[:, :3], initial=0.0) + 0.0:.3e}",
        f"max |tomography - analytic|: {dev[worst]:.3e} ({z[worst]:.2f} stderr)",
        f"|tomography - analytic| / stderr over {zs.size} estimates: {spread}",
        f"reconstructions projected into the Bloch ball: {c['projected_reconstructions']}",
        f"non-finite bootstrap samples dropped: {c['nonfinite_bootstrap_dropped']}",
    ]
    return "\n".join(lines)


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


def _random_state(rng: np.random.Generator) -> qstate.QubitState:
    v = rng.normal(size=3)
    radius = rng.uniform() ** (1.0 / 3.0)
    v = v / np.linalg.norm(v) * radius
    return qstate.QubitState.from_bloch(*v)


def run_property_suite(seed: int = 1234) -> PropertyReport:
    """Run every module invariant on documented grids with a fixed seed."""
    rng = np.random.default_rng(seed)
    grid = [chn.GadChannel(p, r) for p in np.linspace(0.5, 1.0, 11)
            for r in np.linspace(0.0, 1.0, 11)]
    preps = [(s, prep.prepare(s))
             for s in map(prep.PrepSetting, np.linspace(0.0, math.pi / 4.0, 9))]

    def dev(a, b) -> float:
        return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))

    def within(worst: float) -> tuple[bool, str]:
        return worst < 1e-12, f"max deviation {worst:.3e}"

    def random_channel(p: float | None = None) -> chn.GadChannel:
        p = rng.uniform(0.5, 1.0 - 1e-9) if p is None else p
        return chn.GadChannel(p, rng.uniform(0.0, 1.0))

    def contractivity() -> tuple[bool, str]:
        violations = 0
        for _ in range(500):
            state, ch = _random_state(rng), random_channel()
            eq = chn.equilibrium_state(ch)
            after = qstate.relative_entropy(chn.apply(ch, state), eq)
            violations += after > qstate.relative_entropy(state, eq) + 1e-10
        return violations == 0, f"{violations} violations"

    def additivity() -> tuple[bool, str]:
        gap = neg = 0.0
        for _ in range(1000):
            setting = prep.PrepSetting(rng.uniform(0.0, math.pi / 4.0))
            b = entropy_budget(prep.prepare(setting), random_channel())
            gap = max(gap, abs(b.total - (b.population + b.coherence)))
            neg = max(neg, -min(b.total, b.population, b.coherence))
        return (gap < 1e-10 and neg <= 0.0,
                f"max additivity gap {gap:.3e}, max negativity {max(neg, 0.0):.3e}")

    def composition(p: float) -> float:
        ch1, ch2, state = random_channel(p), random_channel(p), _random_state(rng)
        return dev(chn.apply(ch2, chn.apply(ch1, state)).matrix,
                   chn.apply(chn.compose(ch1, ch2), state).matrix)

    def round_trip(state: qstate.QubitState) -> float:
        probs = tomography.projector_probabilities(state)
        recon = tomography.project_to_physical(tomography.inversion_from_frequencies(probs))
        return dev(recon.matrix, state.matrix)

    checks = (
        ("kraus completeness (11x11 grid)", lambda: within(max(
            dev(sum(m.conj().T @ m for m in chn.kraus_operators(ch)), np.eye(2))
            for ch in grid))),
        ("equilibrium fixed point (11x11 grid)", lambda: within(max(
            dev(chn.apply(ch, chn.equilibrium_state(ch)).matrix,
                chn.equilibrium_state(ch).matrix) for ch in grid))),
        ("closed-form evolved state (9x11x11 grid)", lambda: within(max(
            dev(chn.apply(ch, state).matrix, prep.evolved_closed_form(setting, ch).matrix)
            for setting, state in preps for ch in grid))),
        ("relative-entropy contractivity (500 random cases)", contractivity),
        ("budget additivity + non-negativity (1000 random triples)", additivity),
        ("coherence decay sqrt(1-r), p-independent", lambda: within(max(
            abs(float(chn.apply(ch, qstate.PLUS).matrix[0, 1].real)
                - 0.5 * math.sqrt(1.0 - ch.r)) for ch in grid))),
        ("semigroup composition (100 random cases)", lambda: within(max(
            composition(rng.uniform(0.5, 1.0)) for _ in range(100)))),
        ("tomography exact-frequency round trip (200 random states)", lambda: within(max(
            round_trip(_random_state(rng)) for _ in range(200)))),
    )
    return PropertyReport([PropertyResult(name, *check()) for name, check in checks])
