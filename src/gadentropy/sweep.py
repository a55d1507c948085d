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
import numbers
import os
import platform
from dataclasses import dataclass

import numpy as np

from . import bloch, prep, tomography

DEFAULT_SHOTS = 10_000
DEFAULT_BOOTSTRAP = 200
DEFAULT_SEED = 20240
DEFAULT_R_POINTS = 21
# Most runs (grid rows x (1 + n_bootstrap)) one experiment may draw.  They are
# scored a block at a time, so the per-row arrays set the peak: a sweep at the
# bound peaks at 43 MB RSS with fig2's 201 runs per row (20,700 rows) and at
# 487 MB with 3 runs per row (1,375,000 rows).
MAX_RUNS = 2**22

FIG2_P_VALUES = (0.9, 0.75, 0.6)
FIG3_P_VALUES = (0.9,)
FIG3_COHERENCES = (0.8, 0.6, 0.4)


class ConfigError(ValueError):
    pass


# The closed range of every entry of a list-valued setting.
_RANGES = {"p_values": (0.5, 1.0), "alphas": (0.0, prep.ALPHA_MAX), "r_grid": (0.0, 1.0)}


def _shown(value, form=repr) -> str:
    """`value` as an error message shows it, by `form`, except an integer of
    more than 20 digits, shown by its digit count: str() refuses one of more
    than 4300 digits, and so does `form` of anything that holds one."""
    if isinstance(value, numbers.Integral) and abs(value) >= 10**20:
        size = abs(int(value))
        digits = max(0, int((size.bit_length() - 1) * math.log10(2)) - 1)  # a lower bound
        while 10**digits <= size:
            digits += 1
        return f"a {'negative ' if value < 0 else ''}{digits}-digit integer"
    try:
        return form(value)
    except ValueError:
        return f"a {type(value).__name__} holding an integer too long to print"


def _in_range(name: str, values, low: float, high: float):
    """`values`, or ConfigError naming the first entry outside [low, high]."""
    bad = [v for v in values if not low <= v <= high]
    if bad:
        raise ConfigError(f"{name} must lie in [{low:g}, {high:g}], got {_shown(bad[0], str)}")
    return values


def _checked(name: str, value):
    """`value` as SweepConfig stores its field `name`, or ConfigError saying why
    it cannot be stored; the one check of each setting."""
    if name == "scenario" and not (isinstance(value, str) and value in ("fig2", "fig3", "custom")):
        raise ConfigError(f"unknown scenario {_shown(value)}")
    if name in ("shots", "n_bootstrap", "seed"):
        if not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {_shown(value)}")
        value = int(value)
        # numpy's binomial takes the shot count as a C long.
        if name == "shots" and not 1 <= value <= np.iinfo(np.int64).max:
            raise ConfigError(f"shots must be in [1, 2**63 - 1], got {_shown(value)}")
        if name != "shots" and value < (least := 2 if name == "n_bootstrap" else 0):
            raise ConfigError(f"{name} must be >= {least}, got {_shown(value)}")
    if name == "r_grid" and isinstance(value, numbers.Integral):
        if value < 2:
            raise ConfigError(f"a uniform r grid needs at least 2 points, got {_shown(value)}")
        return int(value)  # __post_init__ builds the grid once the run bound has passed
    if name in _RANGES:
        values = tuple(value) if np.iterable(value) else None
        if values is None or not all(isinstance(v, numbers.Real) for v in values):
            kind = ("a point count or a list of points" if name == "r_grid"
                    else "a list of real numbers")
            raise ConfigError(f"{name} must be {kind}, got {_shown(value)}")
        if not values:
            raise ConfigError(f"{name} must be non-empty")
        # + 0.0 turns -0.0, which passes the range check, into 0.0, so it is written as 0.
        return tuple(float(v) + 0.0 for v in _in_range(name, values, *_RANGES[name]))
    return value


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
        for field in dataclasses.fields(self):
            setattr(self, field.name, _checked(field.name, getattr(self, field.name)))
        count = isinstance(self.r_grid, int)
        points = self.r_grid if count else len(self.r_grid)
        rows = len(self.p_values) * len(self.alphas) * points
        if rows * (1 + self.n_bootstrap) > MAX_RUNS:
            raise ConfigError(f"{_shown(rows)} grid rows x (1 + n_bootstrap = "
                              f"{_shown(self.n_bootstrap)}) runs exceed the bound of "
                              f"{MAX_RUNS} runs per experiment")
        if count:  # built only once the bound has passed
            self.r_grid = tuple(np.linspace(0.0, 1.0, points).tolist())


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
    degrees = _in_range("alpha_deg", _floats(text), 0.0, math.degrees(prep.ALPHA_MAX))
    return tuple(map(math.radians, degrees))


# Config-file key -> (SweepConfig field, parser of the value text).
_CONFIG_KEYS = {
    "scenario": ("scenario", str),
    "p_values": ("p_values", _floats),
    "alpha_deg": ("alphas", _alphas_from_degrees),
    "coherence": ("alphas", lambda text: tuple(map(prep.alpha_for_coherence, _floats(text)))),
    "r_grid": ("r_grid", _floats),
    "r_points": ("r_grid", int),
    "shots": ("shots", int),
    "n_bootstrap": ("n_bootstrap", int),
    "seed": ("seed", int),
    "out": ("output_path", str),
}


def settings(entries) -> dict:
    """SweepConfig keyword arguments from (where, key, text) triples, where
    `where` names the entry's source in error messages.

    Unknown or repeated keys, two keys for one setting (alpha_deg and
    coherence, r_grid and r_points) and bad values raise ConfigError.
    """
    kwargs: dict = {}
    for where, key, text in entries:
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        name, parse = _CONFIG_KEYS[key]
        if name in kwargs:
            raise ConfigError(f"{where}: {key!r} repeats or conflicts with an earlier key")
        try:
            kwargs[name] = _checked(name, parse(text))
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
    return kwargs


def load_config(path: str, **overrides) -> SweepConfig:
    """Parse a flat key-value config file (key = value, '#' comments) through `settings`
    into the preset its `scenario` names (`fig2_config`, `fig3_config`, or `SweepConfig`
    for custom), its other entries and then `overrides` set over it.  A leading byte-order
    mark is skipped; text that is not UTF-8 or a line without '=' raises ConfigError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # newline=None splits lines as a text-mode file does (\n, \r, \r\n).
        lines = io.StringIO(data.decode("utf-8-sig"), newline=None)
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

    kwargs = {**settings(entries()), **overrides}
    preset = {"fig2": fig2_config, "fig3": fig3_config}.get(kwargs.get("scenario"), SweepConfig)
    return preset(**kwargs)


# One record per grid point: the CSV columns in order, then the count of
# reconstructions (both experiments, runs and resamples) projected into the
# Bloch ball, left out of the CSV.  The run's seed is no column: the sidecar
# records it once.
SWEEP_DTYPE = np.dtype([(name, float) for name in (
    "p", "r", "alpha_deg", "coherence_initial", "sigma_total", "sigma_pop", "sigma_coh",
    "sigma_total_tomo", "sigma_total_tomo_stderr", "sigma_pop_tomo", "sigma_pop_tomo_stderr",
    "sigma_coh_tomo", "sigma_coh_tomo_stderr",
)] + [("indeterminate", int), ("projected", int)])
CSV_COLUMNS = SWEEP_DTYPE.names[:14]
# The grid axes repeat a few values over many rows; `_axis_text` formats each
# once per block.
_AXIS_COLUMNS, _VALUE_COLUMNS = CSV_COLUMNS[:4], CSV_COLUMNS[4:]
# One CSV line per `%`: 12 significant digits for floats, ints as written, and
# the axis columns as the text `_axis_text` made.
_CSV_LINE = ",".join("%s" if name in _AXIS_COLUMNS else
                     "%.12g" if SWEEP_DTYPE[name] == float else "%d"
                     for name in CSV_COLUMNS) + "\n"
_CSV_BLOCK = 4096  # rows turned into Python values at a time while the CSV streams


def run_sweep(config: SweepConfig) -> np.recarray:
    """Evaluate every (p, alpha, r) grid point of the configured sweep.

    Returns one SWEEP_DTYPE record per point, ordered by (p, alpha, r).
    Indeterminate points (1 - p <= ATOL, where the relative entropy diverges)
    are flagged, not dropped, hold NaN productions and draw nothing; every
    other row's columns are finite.  Experiment e evolves its preparation,
    coherent (e = 1) or dephased (e = 2), once: `tomography.counts` seeded
    (config.seed, e) draws its determinate rows, `tomography.estimates` scores them.
    """
    rows = np.zeros((len(config.p_values), len(config.alphas), len(config.r_grid)), SWEEP_DTYPE)
    rows["p"], rows["r"] = np.reshape(config.p_values, (-1, 1, 1)), config.r_grid
    rows["alpha_deg"] = np.reshape([math.degrees(a) for a in config.alphas], (-1, 1))
    coherent = np.zeros(rows.shape + (3,))
    coherent[..., 0] = np.reshape([prep.coherent_bloch_x(a) for a in config.alphas], (-1, 1))
    rows, coherent = rows.ravel(), coherent.reshape(-1, 3)
    p, r = rows["p"], rows["r"]
    final = bloch.gad(coherent, p, r)
    ends = [(np.linalg.norm(b, axis=-1), b[:, 2]) for b in (coherent, final)]
    total, population = (bloch.production(*ends, p, dephased) for dephased in (False, True))
    det = np.isfinite(total) & np.isfinite(population)

    rows["coherence_initial"] = np.abs(coherent[:, 0])
    rows["indeterminate"] = ~det
    # Experiment 1 (coherent) measures the total; experiment 2 (dephased), evolved only once 1
    # is measured, the population part.  Both measure all four bases: experiment 2's R and D
    # frequencies reach its estimate through the radial projection when |b| > 1.
    p_det = p[det]
    length, z = (part[det] for part in ends[0])
    (tot, tot_err, tot_proj), (pop, pop_err, pop_proj) = [tomography.estimates(
        *tomography.counts(final[det] if e == 1 else
                           bloch.gad(bloch.dephase(coherent[det]), p_det, r[det]),
                           config.shots, (config.seed, e)),
        (length, z) if e == 1 else (np.abs(z), z),
        p_det, config.shots, config.n_bootstrap, population=e == 2)
        for e in (1, 2)]
    coherence = bloch.coherence(*ends[0]) - bloch.coherence(*ends[1])
    for name, values in zip(CSV_COLUMNS[4:13], (
            *(np.maximum(v[det], 0.0) for v in (total, population, coherence)),
            tot, tot_err, pop, pop_err, tot - pop, np.hypot(tot_err, pop_err))):
        rows[name][~det] = np.nan
        rows[name][det] = values
    rows["projected"][det] = tot_proj + pop_proj
    return rows.view(np.recarray)


def _counters(rows) -> dict:
    return {key: int(rows[name].sum()) for key, name in (
        ("indeterminate_rows", "indeterminate"), ("projected_reconstructions", "projected"))}


def _write_atomic(path: str, lines) -> None:
    """Write the lines through a temporary file in the same directory, then
    rename it over `path`, so a reader never sees a half-written file.  The
    temporary name, `.<first 32 characters of the file name>.<pid>.tmp`, stays
    short, so only the target's own name can be too long for the directory."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name[:32]}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _axis_text(block: np.ndarray) -> list:
    """The grid-axis columns of a block as '%.12g' text, one list per column,
    each distinct bit pattern formatted once: matched by bits, not by value,
    -0.0 keeps its own text beside 0.0, and a NaN, unequal to itself, still
    finds its string."""
    bits = np.stack([block[name] for name in _AXIS_COLUMNS]).view(np.int64)
    ordered = np.sort(bits, axis=None)  # np.unique would load numpy.ma (about 1 MB)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    text = np.array(["%.12g" % v for v in distinct.view(float).tolist()], dtype=object)
    return text[np.searchsorted(distinct, bits)].tolist()


def _csv_lines(rows):
    """The header, then one line per record, formatted a block of rows at a
    time; each block formats its distinct grid-axis values once."""
    yield ",".join(CSV_COLUMNS) + "\n"
    rows = np.asarray(rows)  # a plain array: indexing a recarray runs Python code
    for start in range(0, len(rows), _CSV_BLOCK):
        block = rows[start:start + _CSV_BLOCK]
        yield from map(_CSV_LINE.__mod__, zip(
            *_axis_text(block), *(block[name].tolist() for name in _VALUE_COLUMNS)))


def emit_csv(rows: np.ndarray, path: str, config: SweepConfig) -> None:
    """Write the sweep as UTF-8 CSV with a fixed column order, and its JSON
    sidecar <path>.meta.json.

    Floats carry 12 significant digits, so same-seed reruns on the same versions
    are byte-identical.  Rows are formatted in blocks of `_CSV_BLOCK`; each
    block formats its distinct grid values (p, r, alpha_deg,
    coherence_initial) once.  The sidecar is the run manifest: versions,
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
        "streams": {"derivation": tomography.STREAM_DERIVATION},
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
    # A non-finite deviation stays nan or inf, and `argmax` reports the first nan.
    dev = np.concatenate([[0.0], np.abs(
        columns("sigma_total_tomo", "sigma_pop_tomo") - analytic[:, :2]).ravel()])
    err = np.concatenate([[1.0], columns("sigma_total_tomo_stderr",
                                         "sigma_pop_tomo_stderr").ravel()])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(dev == 0.0, 0.0, dev / err)
    worst = int(np.argmax(dev))
    zs = np.sort(z[1:])  # for the median; np.median would load numpy.ma (about 1 MB)
    spread = (f"median {(zs[(zs.size - 1) // 2] + zs[zs.size // 2]) / 2:.2f}, "
              f"fraction above 2: {np.mean(zs > 2.0):.3f}" if zs.size else "none")
    c = _counters(rows)
    lines = [
        f"rows: {len(rows)} ({c['indeterminate_rows']} indeterminate)",
        f"max additivity violation (analytic): "
        f"{np.max(np.abs(analytic[:, 0] - (analytic[:, 1] + analytic[:, 2])), initial=0.0):.3e}",
        f"max |tomography - analytic|: {dev[worst]:.3e} ({z[worst]:.2f} stderr)",
        f"|tomography - analytic| / stderr over {zs.size} estimates: {spread}",
        f"reconstructions projected into the Bloch ball: {c['projected_reconstructions']}",
    ]
    return "\n".join(lines)
