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
DEFAULT_SEED = 20240
DEFAULT_R_POINTS = 21
# Most grid rows a sweep may hold, refused before compute, so an `r_points` count
# past it never builds its grid; each experiment draws one run per row.  It bounds run
# time: at the bound the CLI sweep of a grid-shaped config (1,398,100 rows) takes about
# 7 s, and peaks at 42 MB RSS, as it streams `blocks` and writes 256 CSV lines at a time.
MAX_RUNS = 2**22 // 3

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
    if name in ("shots", "seed"):
        if not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {_shown(value)}")
        value = int(value)
        # numpy's binomial takes the shot count as a C long.
        if name == "shots" and not 1 <= value <= np.iinfo(np.int64).max:
            raise ConfigError(f"shots must be in [1, 2**63 - 1], got {_shown(value)}")
        if name == "seed" and value < 0:
            raise ConfigError(f"seed must be >= 0, got {_shown(value)}")
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
    seed: int = DEFAULT_SEED
    output_path: str = "sweep.csv"

    def __post_init__(self):
        for field in dataclasses.fields(self):
            setattr(self, field.name, _checked(field.name, getattr(self, field.name)))
        count = isinstance(self.r_grid, int)
        points = self.r_grid if count else len(self.r_grid)
        rows = len(self.p_values) * len(self.alphas) * points
        if rows > MAX_RUNS:
            raise ConfigError(f"{_shown(rows)} grid rows exceed the bound of {MAX_RUNS} rows")
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
    # Retired: parsed as an integer, then dropped (`settings`), as bench/run.py's grid
    # config still writes it.  ROADMAP item 1 deletes this entry with that line.
    "n_bootstrap": (None, int),
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
    kwargs.pop(None, None)  # a retired key's value
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


# One record per grid point: the CSV columns in order, then what the CSV leaves
# out: the count of observed runs (of both experiments) projected into the Bloch
# ball, and each tomography estimate's 95% interval.  The run's seed is no
# column: the sidecar records it once.
SWEEP_DTYPE = np.dtype([(name, float) for name in (
    "p", "r", "alpha_deg", "coherence_initial", "sigma_total", "sigma_pop", "sigma_coh",
    "sigma_total_tomo", "sigma_total_tomo_stderr", "sigma_pop_tomo", "sigma_pop_tomo_stderr",
    "sigma_coh_tomo", "sigma_coh_tomo_stderr",
)] + [("indeterminate", int), ("projected", int)] + [
    (f"sigma_{part}_tomo_{end}", float)
    for part in ("total", "pop", "coh") for end in ("lo", "hi")])
CSV_COLUMNS = SWEEP_DTYPE.names[:14]
# The grid axes repeat a few values over many rows; `_axis_text` formats each
# once per block.
_AXIS_COLUMNS, _VALUE_COLUMNS = CSV_COLUMNS[:4], CSV_COLUMNS[4:]
# One CSV line per `%`: 12 significant digits for floats, ints as written, and
# the axis columns as the text `_axis_text` made.
_CSV_LINE = ",".join("%s" if name in _AXIS_COLUMNS else
                     "%.12g" if SWEEP_DTYPE[name] == float else "%d"
                     for name in CSV_COLUMNS) + "\n"
# Rows that `blocks` lays out, evolves, draws and scores at a time, and that the CSV
# tallies and formats the grid values of at a time (`_csv_lines`); the temporaries of
# both stay within one block.
BLOCK_ROWS = 2**12
# Rows of a chunk that the CSV formats, encodes and hashes at a time: a block's text, held
# as its lines, their join and its bytes at once, read 3 MB under tracemalloc, and a
# slice's CSV is about 44 kB.
_SLICE_ROWS = 2**8
_COUNTERS = ("indeterminate_rows", "projected_observed_runs", *(
    f"covered_{part}" for part in ("total", "pop", "coh")))


def blocks(config: SweepConfig):
    """Yield every (p, alpha, r) grid point's record, in that order, in new SWEEP_DTYPE
    arrays of `BLOCK_ROWS` rows (the last may be shorter), so nothing grows with the grid.

    Indeterminate points (1 - p <= ATOL, where the relative entropy diverges) are
    flagged, not dropped, hold NaN productions and draw nothing; every other row's
    columns are finite.  In each block, experiment e evolves its preparation, coherent
    (e = 1) or dephased (e = 2), once: `tomography.counts` draws its determinate rows
    from the experiment's generator, seeded (config.seed, e) once and carried on across
    blocks, and `tomography.estimates` scores them with their intervals.  The coherence
    part is the difference of the two, its interval their MOVER combination
    (`tomography.difference`).  Each stderr is its interval's width / (2 Z95), except
    the coherence part's: the hypot of the other two.
    """
    shape = (len(config.p_values), len(config.alphas), len(config.r_grid))
    p_values, r_grid = np.array(config.p_values), np.array(config.r_grid)
    degrees = np.array([math.degrees(a) for a in config.alphas])
    prepared = np.array([(prep.coherent_bloch_x(a), 0.0, 0.0) for a in config.alphas])
    streams, shots, size = tomography.streams(config.seed), config.shots, math.prod(shape)
    for start in range(0, size, BLOCK_ROWS):
        rows = np.zeros(min(BLOCK_ROWS, size - start), SWEEP_DTYPE)
        i, a, k = np.unravel_index(np.arange(start, start + len(rows)), shape)
        rows["p"], rows["r"], rows["alpha_deg"] = p_values[i], r_grid[k], degrees[a]
        coherent = prepared[a]
        rows["coherence_initial"] = np.abs(coherent[:, 0])
        p, r = rows["p"], rows["r"]
        final = bloch.gad(coherent, p, r)
        ends = [(np.linalg.norm(b, axis=-1), b[:, 2]) for b in (coherent, final)]
        total, population = (bloch.production(*ends, p, dephased) for dephased in (False, True))
        det = np.isfinite(total) & np.isfinite(population)
        coherence = bloch.coherence(*ends[0]) - bloch.coherence(*ends[1])
        rows[[name for name in SWEEP_DTYPE.names if name.startswith("sigma")]] = np.nan
        for name, values in zip(("sigma_total", "sigma_pop", "sigma_coh"),
                                (total, population, coherence)):
            rows[name][det] = np.maximum(values[det], 0.0)
        rows["indeterminate"] = ~det
        p, r, length, z = p[det], r[det], ends[0][0][det], ends[0][1][det]
        # Experiment 1 (coherent) measures the total, experiment 2 (dephased) the population
        # part.  Both measure all four bases: experiment 2's R and D frequencies reach its
        # estimate through the radial projection when |b| > 1.
        measured = []
        for stream, evolved, initial, dephased in (
                (streams[0], final[det], (length, z), False),
                (streams[1], bloch.gad(bloch.dephase(coherent[det]), p, r), (np.abs(z), z), True)):
            *triple, projected = tomography.estimates(
                tomography.counts(evolved, shots, stream), initial, p, shots, dephased)
            measured.append(triple)
            rows["projected"][det] += projected
        errors = [(hi - lo) / (2.0 * tomography.Z95) for _, lo, hi in measured]
        measured.append(tomography.difference(*measured))
        errors.append(np.hypot(*errors))
        for part, triple, error in zip(("total", "pop", "coh"), measured, errors):
            for end, values in zip(("", "_lo", "_hi", "_stderr"), (*triple, error)):
                rows[f"sigma_{part}_tomo{end}"][det] = values
        yield rows


def _tally(counts: dict, rows: np.ndarray) -> None:
    """Add the records `rows` to the tally `counts`: rows, `_COUNTERS` and the largest
    analytic |total - (pop + coh)| of a determinate row.  Its interval covers when both
    ends are finite and [lo - 1e-12, hi + 1e-12] holds the analytic value: 1e-12 is the
    tolerance that holds the closed forms to `eigh`, so round-off does not decide r = 1."""
    det = rows["indeterminate"] == 0
    counts["rows"] += len(rows)
    counts["indeterminate_rows"] += int(rows["indeterminate"].sum())
    counts["projected_observed_runs"] += int(rows["projected"].sum())
    for part in ("total", "pop", "coh"):
        value, lo, hi = (rows[f"sigma_{part}{end}"] for end in ("", "_tomo_lo", "_tomo_hi"))
        held = np.isfinite(lo) & np.isfinite(hi) & (lo - 1e-12 <= value) & (value <= hi + 1e-12)
        counts[f"covered_{part}"] += int(np.count_nonzero(det & held))
    with np.errstate(invalid="ignore"):  # inf - inf, in a hand-built record, is NaN
        gap = np.abs(rows["sigma_total"] - (rows["sigma_pop"] + rows["sigma_coh"]))
    counts["max_additivity_gap"] = float(gap.max(where=det, initial=counts["max_additivity_gap"]))


def _write_atomic(files: list) -> None:
    """Write each (path, chunks of bytes) pair to a temporary file in its directory, then rename
    each over its path, so a reader never sees a half-written file and a failure before
    the renames keeps every old file.  The k-th temporary name, `.<first 32 characters
    of the file name>.<pid>.<k>.tmp`, stays short: only a target's own can be too long."""
    temps = []
    try:
        for k, (path, chunks) in enumerate(files):
            head, name = os.path.split(path)
            temps.append(os.path.join(head, f".{name[:32]}.{os.getpid()}.{k}.tmp"))
            with open(temps[-1], "wb") as fh:
                fh.writelines(chunks)
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
    finally:
        for tmp in filter(os.path.exists, temps):
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


def _csv_lines(blocks, counts: dict, written: dict):
    """UTF-8 bytes: the header, then the rows of each array of `blocks` in chunks of
    `BLOCK_ROWS`, however long the array.  Each chunk is tallied into `counts` and formats
    its grid values once (`_axis_text`); its lines are then formatted, encoded and hashed
    `_SLICE_ROWS` at a time, tallying `written` (byte count, sha256).  No record raises
    IOError."""
    def hashed(text: str) -> bytes:
        data = text.encode("utf-8")
        written["bytes"] += len(data)
        written["sha256"].update(data)
        return data
    yield hashed(",".join(CSV_COLUMNS) + "\n")
    for array in blocks:
        for start in range(0, len(array), BLOCK_ROWS):
            rows = array[start:start + BLOCK_ROWS]
            _tally(counts, rows)
            axes = _axis_text(rows)
            for at in range(0, len(rows), _SLICE_ROWS):
                part = slice(at, at + _SLICE_ROWS)
                yield hashed("".join(map(_CSV_LINE.__mod__, zip(
                    *(column[part] for column in axes),
                    *(rows[name][part].tolist() for name in _VALUE_COLUMNS)))))
            del axes  # so two chunks' grid text is never held at once
    if not counts["rows"]:
        raise IOError("refusing to write an empty sweep")


def _sidecar_lines(config: SweepConfig, counts: dict, written: dict):
    """The JSON sidecar's UTF-8 bytes for a CSV that tallied `counts` and was `written`,
    made only when `_write_atomic` asks for it, once the CSV has streamed."""
    from . import __version__
    yield json.dumps({
        "versions": {"gadentropy": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "config": dataclasses.asdict(config),
        "rng_algorithm": tomography.RNG_ALGORITHM,
        "streams": {"derivation": tomography.STREAM_DERIVATION},
        "error_bars": (
            "95% intervals in closed form from each row's observed counts, no resampling. "
            "Total: first-order (delta-method) interval of the projected estimator at the "
            "observed frequencies. Population: Newcombe's hybrid score interval (method 10) "
            "for z = f_H - f_V, widened to hold the projected z, imaged through the concave "
            "population production. Coherence: MOVER (Zou & Donner) from those two. "
            "stderr = (hi - lo) / (2 * 1.96); the coherence stderr is the hypot of the other "
            "two. The prepared state is taken as exactly known. Simulation-based, not a lab "
            "claim"
        ),
        "counters": {key: counts[key] for key in _COUNTERS},
        "csv": {"bytes": written["bytes"], "sha256": written["sha256"].hexdigest()},
    }, indent=2, default=list).encode("utf-8") + b"\n"


def emit_csv(blocks, path: str, config: SweepConfig) -> dict:
    """Write the records of `blocks`, SWEEP_DTYPE arrays in row order such as
    `blocks(config)`, as UTF-8 CSV with a fixed column order, then its JSON sidecar
    <path>.meta.json; return their tally (`_tally`).

    Each array is written and tallied as it comes, in chunks of `BLOCK_ROWS` rows that each
    format their distinct grid values (p, r, alpha_deg, coherence_initial) once and are
    written `_SLICE_ROWS` lines at a time, so an array of any length adds at most one
    chunk's temporaries and one slice's text to what the caller holds.  Floats carry 12
    significant digits, so same-seed reruns on the same versions are byte-identical.  The
    sidecar is the run manifest: versions, configuration (the one record of the seed), RNG
    streams, error-bar procedure, the counters (indeterminate rows, runs projected into the
    Bloch ball, intervals holding the analytic value) and the CSV's byte count and sha256.
    Both files are written in full before either replaces its old one (`_write_atomic`),
    so a failure while writing keeps the old pair.  A failure between the two renames can
    still leave the new CSV beside the old sidecar, whose CSV digest then tells them apart.
    """
    import hashlib  # here, not at package import, which it would slow by about 3 ms
    counts = {"rows": 0, **dict.fromkeys(_COUNTERS, 0), "max_additivity_gap": 0.0}
    written = {"bytes": 0, "sha256": hashlib.sha256()}
    _write_atomic([(path, _csv_lines(blocks, counts, written)),
                   (path + ".meta.json", _sidecar_lines(config, counts, written))])
    return counts


def emit_summary(counts: dict) -> str:
    """Human-readable consistency report of the tally that `emit_csv` returns."""
    return "\n".join([
        f"rows: {counts['rows']} ({counts['indeterminate_rows']} indeterminate)",
        f"max additivity violation (analytic): {counts['max_additivity_gap']:.3e}",
        *(f"{name} intervals holding the analytic value: {counts['covered_' + part]} of "
          f"{counts['rows'] - counts['indeterminate_rows']} determinate rows (nominal 95%)"
          for part, name in (("total", "total"), ("pop", "population"), ("coh", "coherence"))),
        f"observed runs projected into the Bloch ball: {counts['projected_observed_runs']}",
    ])
