import hashlib
import importlib.util
import json
import math
import operator
import os
import pathlib
import platform
import random
import re
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest
from conftest import (NEWCOMBE_TABLE, binomial_pmf, dephased, frequencies, length_z,
                      nearest_states, population_coverage, projection_bound, random_state,
                      records)

import gadentropy
from gadentropy import bloch, channel, check, cli, qstate, sweep, tomography
from gadentropy.budget import budget as entropy_budget
from gadentropy.check import run_property_suite
from gadentropy.channel import GadChannel, apply
from gadentropy.prep import PrepSetting, alpha_for_coherence, prepare
from gadentropy.qstate import QubitState
from gadentropy.sweep import (
    CSV_COLUMNS,
    SWEEP_DTYPE,
    ConfigError,
    SweepConfig,
    emit_csv,
    emit_summary,
    fig2_config,
    fig3_config,
    load_config,
)

SMALL = dict(shots=500, seed=99, r_grid=(0.0, 0.5, 1.0))
# The grid that bench/run.py (build_spec) sweeps: 11 p (p = 1 included) x 5 coherences x 101 r.
BENCH_P_VALUES = tuple(0.5 + 0.05 * i for i in range(10)) + (1.0,)
BENCH_COHERENCES = (1.0, 0.8, 0.6, 0.4, 0.2)
# The six interval ends of a hand-built record, which the CSV and the summary do not read.
NO_BOUNDS = (math.nan,) * 6


class TestConfig:
    def test_fig2_defaults(self):
        cfg = fig2_config()
        assert cfg.p_values == (0.9, 0.75, 0.6)
        assert cfg.alphas == (0.0,)
        assert len(cfg.r_grid) == 21

    def test_fig3_defaults(self):
        cfg = fig3_config()
        assert cfg.p_values == (0.9,)
        assert cfg.alphas == tuple(math.acos(c) / 4.0 for c in (0.8, 0.6, 0.4))

    def test_bad_scenario_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(scenario="fig9")

    def test_r_point_count_is_stored_as_floats(self):
        # As every other list setting is, so the config's repr shows plain numbers.
        cfg = SweepConfig(r_grid=3)
        assert cfg.r_grid == (0.0, 0.5, 1.0) and all(type(r) is float for r in cfg.r_grid)
        assert "r_grid=(0.0, 0.5, 1.0)," in repr(cfg)

    @pytest.mark.parametrize("points", [-1, 0, 1, True])
    def test_r_grid_count_below_two_rejected(self, points):
        with pytest.raises(ConfigError, match="at least 2 points"):
            SweepConfig(r_grid=points)

    @pytest.mark.parametrize("field, value", [("shots", 2.5), ("seed", 1.5)])
    def test_non_integer_setting_rejected(self, field, value):
        # A float shot count would draw binomials at int(shots) and divide by shots.
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SweepConfig(**{field: value})

    def test_numpy_integer_settings_accepted(self, tmp_path):
        # A float32 entry is stored as a Python float, which the sidecar's JSON can write.
        cfg = SweepConfig(shots=np.int64(500), seed=np.int64(99), r_grid=np.int64(5),
                          p_values=(np.float32(0.75),), output_path=str(tmp_path / "np.csv"))
        plain = SweepConfig(shots=500, seed=99, r_grid=5, p_values=(0.75,))
        assert (cfg.shots, cfg.seed, cfg.r_grid) == (500, 99, plain.r_grid)
        rows = records(cfg)
        assert rows.tobytes() == records(plain).tobytes()
        emit_csv([rows], cfg.output_path, cfg)  # the sidecar's JSON takes the settings

    def test_non_integer_r_grid_count_rejected(self):
        with pytest.raises(ConfigError, match="point count or a list of points"):
            SweepConfig(r_grid=5.0)

    def test_array_valued_lists_run_like_tuples(self):
        rows = records(fig2_config(**{**SMALL, "p_values": np.array([0.9, 0.75])}))
        want = records(fig2_config(**{**SMALL, "p_values": (0.9, 0.75)}))
        assert rows.tobytes() == want.tobytes()

    def test_degrees_units(self, tmp_path):
        path = tmp_path / "deg.cfg"
        path.write_text("alpha_deg = 9.22, 45\n")
        assert load_config(str(path)).alphas == (math.radians(9.22), math.pi / 4.0)

    def test_scenario_picks_the_preset_the_file_starts_from(self, tmp_path):
        path = tmp_path / "fig3.cfg"
        path.write_text("scenario = fig3\nshots = 100\nn_bootstrap = 2\nr_points = 2\n")
        assert load_config(str(path)) == fig3_config(shots=100, r_grid=2)

    @pytest.mark.parametrize("line", ["coherence = 0.5, 1.5", "alpha_deg = 0, 45.5",
                                      "alpha_deg = -5e-324", "p_values = 0.3", "r_grid = 0, 2",
                                      "shots = 0", "seed = -1",
                                      "scenario = fig9", "p_values = ,"])
    def test_out_of_range_angle_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"out = run.csv\n# ranges\n{line}\n")
        where = f"{re.escape(str(path))}:3: bad value for '{line.split()[0]}'"
        with pytest.raises(ConfigError, match=f"^{where}"):
            load_config(str(path))

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# custom run\n"
            "scenario = custom\n"
            "p_values = 0.9, 0.75\n"
            "alpha_deg = 0, 9.22\n"
            "r_points = 5\n"
            "shots = 2000\n"
            "n_bootstrap = 10\n"
            "seed = 17\n"
            "out = run.csv\n"
        )
        cfg = load_config(str(path))
        assert cfg.p_values == (0.9, 0.75)
        assert cfg.alphas == (0.0, math.radians(9.22))
        assert len(cfg.r_grid) == 5
        assert cfg.shots == 2000
        assert cfg.seed == 17
        assert cfg.output_path == "run.csv"

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        text = "p_values = 0.9, 0.75\nalpha_deg = 0, 9.22\nr_points = 5\nseed = 17\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(str(marked)) == load_config(str(plain))

    @pytest.mark.parametrize("text, words", [
        ("p_values = \ufeff0.9\n", "bad value for 'p_values'"),
        ("seed = 1\n\ufeffp_values = 0.9\n", r"unknown key '\ufeffp_values'"),
    ])
    def test_byte_order_mark_past_the_start_is_refused(self, tmp_path, text, words):
        path = tmp_path / "bom.cfg"
        path.write_text(text, encoding="utf-8-sig")
        with pytest.raises(ConfigError, match=re.escape(words)):
            load_config(str(path))

    def test_negative_zero_entries_read_as_zero(self, tmp_path):
        path = tmp_path / "zero.cfg"
        path.write_text(f"p_values = 0.9\nalpha_deg = -0\nr_grid = -0, 1\nshots = 100\n"
                        f"n_bootstrap = 2\nout = {tmp_path / 'zero.csv'}\n")
        cfg = load_config(str(path))
        emit_csv([records(cfg)], cfg.output_path, cfg)
        header, first, _ = (line.split(",") for line in (tmp_path / "zero.csv").read_text()
                            .splitlines())
        assert [first[header.index(name)] for name in ("r", "alpha_deg")] == ["0", "0"]
        meta = json.loads((tmp_path / "zero.csv.meta.json").read_text())["config"]
        api = SweepConfig(p_values=(0.9,), alphas=(-0.0,), r_grid=(-0.0, 1.0))
        for alphas, r_grid in ((cfg.alphas, cfg.r_grid), (meta["alphas"], meta["r_grid"]),
                               (api.alphas, api.r_grid)):
            assert [math.copysign(1.0, v) for v in (*alphas, *r_grid)] == [1.0] * 3

    def test_load_config_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("wibble = 3\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_load_config_rejects_conflicting_units(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("alpha_deg = 0\ncoherence = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestRunSweep:
    def test_row_count_and_order(self):
        rows = records(fig2_config(**SMALL))
        assert len(rows) == 9  # 3 p-values x 3 r-values
        keys = [(r["p"], r["alpha_deg"], r["r"]) for r in rows]
        assert keys == sorted(keys, key=lambda k: (-k[0], k[1], k[2]))

    def test_r_zero_rows_are_zero(self):
        rows = records(fig2_config(**SMALL))
        for row in rows:
            if row["r"] == 0.0:
                assert row["sigma_total"] == pytest.approx(0.0, abs=1e-10)
                assert row["sigma_pop"] == pytest.approx(0.0, abs=1e-10)
                assert row["sigma_coh"] == pytest.approx(0.0, abs=1e-10)

    def test_fig2_anchor_row(self):
        rows = records(fig2_config(**SMALL))
        anchor = [r for r in rows if r["p"] == 0.9 and r["r"] == 1.0][0]
        assert anchor["sigma_total"] == pytest.approx(1.203973, abs=1e-6)
        assert anchor["sigma_pop"] == pytest.approx(0.510826, abs=1e-6)
        assert anchor["sigma_coh"] == pytest.approx(0.693147, abs=1e-6)

    @pytest.mark.parametrize("make", [fig2_config, fig3_config])
    def test_additivity_of_analytic_columns(self, make):
        # The coherence column is the direct value; the difference of the two
        # experiments' columns (total - pop) must agree with it.
        rows = records(make(**SMALL))
        for row in rows:
            assert row["sigma_total"] == pytest.approx(
                row["sigma_pop"] + row["sigma_coh"], abs=1e-10
            )

    def test_fig3_population_identical_across_coherences(self):
        rows = records(fig3_config(**SMALL))
        by_r = {}
        for row in rows:
            by_r.setdefault(row["r"], []).append(row["sigma_pop"])
        for values in by_r.values():
            assert len(values) == 3
            assert max(values) - min(values) < 1e-12

    def test_fig3_smaller_coherence_smaller_sigma_coh(self):
        rows = records(fig3_config(**SMALL))
        at_r1 = sorted(
            (r for r in rows if r["r"] == 1.0), key=lambda r: r["coherence_initial"]
        )
        values = [r["sigma_coh"] for r in at_r1]
        assert values == sorted(values)

    def test_p1_rows_flagged_indeterminate(self):
        cfg = SweepConfig(
            scenario="custom", p_values=(1.0,), alphas=(0.0,), **SMALL,
        )
        rows = records(cfg)
        assert all(row["indeterminate"] == 1 for row in rows)
        assert all(math.isnan(row["sigma_total"]) for row in rows)

    def test_tomography_close_to_analytic_at_high_shots(self):
        cfg = fig2_config(shots=100_000, seed=5, r_grid=(0.5,))
        rows = records(cfg)
        for row in rows:
            assert abs(row["sigma_total_tomo"] - row["sigma_total"]) < 0.02
            assert abs(row["sigma_pop_tomo"] - row["sigma_pop"]) < 0.02

    def test_each_preparation_is_evolved_once(self, monkeypatch):
        # fig2's 63 rows in blocks of 25: per block, the coherent preparation,
        # then the dephased one, each evolved once per row.
        calls, gad = [], bloch.gad

        def spy(b, p, r):
            calls.append(len(b))
            return gad(b, p, r)

        monkeypatch.setattr(bloch, "gad", spy)
        monkeypatch.setattr(sweep, "BLOCK_ROWS", 25)
        records(fig2_config())
        assert calls == [25, 25, 25, 25, 13, 13]


class TestEmit:
    def test_empty_rows_rejected_and_no_file(self, tmp_path):
        out = tmp_path / "never.csv"
        with pytest.raises(IOError):
            emit_csv([], str(out), SweepConfig())
        assert not out.exists()

    def test_metadata_sidecar(self, tmp_path):
        cfg = fig2_config(**SMALL)
        rows = records(cfg)
        out = tmp_path / "fig2.csv"
        emit_csv([rows], str(out), cfg)
        meta = (tmp_path / "fig2.csv.meta.json").read_text()
        assert "rng_algorithm" in meta
        manifest = json.loads(meta)
        for words in ("delta-method", "Newcombe", "MOVER", "no resampling",
                      "prepared state is taken as exactly known"):
            assert words in manifest["error_bars"]
        assert manifest["versions"] == {"gadentropy": gadentropy.__version__,
                                        "numpy": np.__version__,
                                        "python": platform.python_version()}
        assert manifest["config"]["seed"] == cfg.seed
        assert "default_rng((config.seed, e))" in manifest["streams"]["derivation"]

    def test_csv_bytes_follow_the_number_format(self, tmp_path):
        # The number format written out on its own: floats as format(v, ".12g"),
        # ints as str(i).
        floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1e16, 0.1 + 0.2,
                  1.0 / 3.0, -2.5e-7, 123456789012.5, 1.7976931348623157e308]
        rows, want = [], [",".join(CSV_COLUMNS)]
        for k in range(len(floats)):
            values = [floats[(k + i) % len(floats)] for i in range(13)]
            indeterminate = k % 2
            rows.append((*values, indeterminate, k, *NO_BOUNDS))
            want.append(",".join([format(v, ".12g") for v in values] + [str(indeterminate)]))
        out = tmp_path / "contract.csv"
        emit_csv([np.array(rows, SWEEP_DTYPE)], str(out), SweepConfig())
        assert out.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")
        assert sweep._CSV_LINE.count("%") == len(sweep._CSV_LINE.split(",")) == len(CSV_COLUMNS)
        assert SWEEP_DTYPE.names == (*CSV_COLUMNS, "projected", *(
            f"sigma_{part}_tomo_{end}" for part in ("total", "pop", "coh") for end in ("lo", "hi")))

    def test_csv_bytes_across_blocks_follow_the_number_format(self, tmp_path):
        # The grid-axis columns cycle through one pool with a different stride
        # each, so every block, the short last one too, repeats values of the
        # others.  0.3 and 0.1 + 0.2, and 1 and 1 + 1e-13, differ in their bits
        # but print alike; the NaNs carry three bit patterns.
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                        dtype=np.uint64).view(float).tolist()
        pool = [-0.0, 0.0, *nans, math.inf, -math.inf, 0.3, 0.1 + 0.2, 1.0, 1.0 + 1e-13,
                1.0 / 3.0, 5e-324, 0.55]
        n = 2 * sweep.BLOCK_ROWS + 3
        rows, want = np.zeros(n, SWEEP_DTYPE), [",".join(CSV_COLUMNS)]
        for k, name in enumerate(CSV_COLUMNS[:4]):
            rows[name] = [pool[(i * (2 * k + 1) + k) % len(pool)] for i in range(n)]
        for k, name in enumerate(CSV_COLUMNS[4:13]):
            rows[name] = np.arange(n) * (k + 0.1) / 7.0
        rows["indeterminate"] = np.arange(n) % 3 == 0
        for record in rows.tolist():
            want.append(",".join([format(v, ".12g") for v in record[:13]] + [str(record[13])]))
        # Passed as `BLOCK_ROWS` slices, and as one array that `emit_csv` takes in
        # chunks of `BLOCK_ROWS` rows and writes in slices of lines: the same bytes,
        # and the sidecar digests the bytes written.
        step, want = sweep.BLOCK_ROWS, ("\n".join(want) + "\n").encode("utf-8")
        for name, arrays in (("blocks", [rows[start:start + step] for start in range(0, n, step)]),
                             ("whole", [rows])):
            out = tmp_path / f"{name}.csv"
            emit_csv(arrays, str(out), SweepConfig())
            assert out.read_bytes() == want, name
            assert json.loads((tmp_path / f"{name}.csv.meta.json").read_text())["csv"] == {
                "bytes": len(want), "sha256": hashlib.sha256(want).hexdigest()}, name

    def test_seed_beyond_uint64_is_written_exactly(self, tmp_path):
        cfg = fig2_config(**dict(SMALL, seed=2**70))
        out = tmp_path / "big.csv"
        emit_csv([records(cfg)], str(out), cfg)
        lines = out.read_text().splitlines()
        assert len(lines) == 10 and len(lines[0].split(",")) == 14
        # The sidecar is the one record of the seed; the rows hold no object column.
        meta = (tmp_path / "big.csv.meta.json").read_text()
        assert f'"seed": {2**70},' in meta
        assert json.loads(meta)["config"]["seed"] == 2**70
        assert object not in [SWEEP_DTYPE[name] for name in SWEEP_DTYPE.names]

    def test_summary_reports(self, tmp_path):
        # The default fig2: per part, how many of its 63 intervals hold the analytic value.
        cfg = fig2_config()
        lines = emit_summary(emit_csv(sweep.blocks(cfg), str(tmp_path / "f2.csv"), cfg))
        assert lines.splitlines() == [
            "rows: 63 (0 indeterminate)",
            "max additivity violation (analytic): 2.220e-16",
            "total intervals holding the analytic value: 60 of 63 determinate rows (nominal 95%)",
            "population intervals holding the analytic value: 61 of 63 determinate rows "
            "(nominal 95%)",
            "coherence intervals holding the analytic value: 62 of 63 determinate rows "
            "(nominal 95%)",
            "observed runs projected into the Bloch ball: 3"]

    # Analytic total 1.0 (1 + 2**-20 in the first row), population and coherence 0.5.
    # Each part's interval holds its value, or sits just past it: 5e-13 past is
    # within the 1e-12 widening and holds, 2e-12 past does not.
    HELD = {"total": (0.9, 1.1), "pop": (0.4, 0.6), "coh": (0.4, 0.6)}
    WIDENED = {"total": (1.0 + 5e-13, 1.2), "pop": (0.5 + 5e-13, 0.7), "coh": (0.3, 0.5 - 5e-13)}
    MISSED = {"total": (1.0 + 2e-12, 1.2), "pop": (0.3, 0.5 - 2e-12), "coh": (0.5 + 2e-12, 0.7)}

    @staticmethod
    def record(intervals, total=1.0, indeterminate=0, projected=0):
        """A hand-built record with the given (lo, hi) per part."""
        ends = [end for part in ("total", "pop", "coh") for end in intervals[part]]
        return (0.9, 0.5, 0.0, 1.0, total, 0.5, 0.5, 1.0, 0.1, 0.5, 0.1, 0.5, 0.1,
                indeterminate, projected, *ends)

    def test_summary_reports_coverage_counts(self, tmp_path):
        held, widened, missed = self.HELD, self.WIDENED, self.MISSED
        rows = np.array([
            self.record(held, total=1.0 + 2**-20, projected=2),
            self.record({"total": widened["total"], "pop": missed["pop"], "coh": missed["coh"]}),
            self.record({"total": held["total"], "pop": widened["pop"], "coh": missed["coh"]},
                        projected=1),
            self.record({"total": missed["total"], "pop": missed["pop"], "coh": widened["coh"]}),
            # Not counted, nor its additivity gap of 9.
            self.record(held, total=10.0, indeterminate=1, projected=4),
        ], SWEEP_DTYPE)
        cfg = SweepConfig()
        counts = emit_csv([rows[:2], rows[2:]], str(tmp_path / "hand.csv"), cfg)
        assert emit_summary(counts).splitlines() == [
            "rows: 5 (1 indeterminate)",
            "max additivity violation (analytic): 9.537e-07",
            "total intervals holding the analytic value: 3 of 4 determinate rows (nominal 95%)",
            "population intervals holding the analytic value: 2 of 4 determinate rows "
            "(nominal 95%)",
            "coherence intervals holding the analytic value: 2 of 4 determinate rows "
            "(nominal 95%)",
            "observed runs projected into the Bloch ball: 7"]
        only_p1 = emit_csv([rows[4:]], str(tmp_path / "p1.csv"), cfg)
        assert "value: 0 of 0 determinate rows" in emit_summary(only_p1)
        assert only_p1["max_additivity_gap"] == 0.0

    @pytest.mark.parametrize("end, bad", [(0, math.nan), (1, math.nan), (0, -math.inf),
                                          (1, math.inf)], ids=["nan-lo", "nan-hi", "inf-lo",
                                                               "inf-hi"])
    def test_nonfinite_interval_end_is_not_covered(self, tmp_path, end, bad):
        # Two determinate rows whose intervals hold every value; in the second, one
        # end of each interval is `bad`.  An infinite end would hold it by comparison.
        spoiled = {part: tuple(bad if k == end else v for k, v in enumerate(interval))
                   for part, interval in self.HELD.items()}
        rows = np.array([self.record(self.HELD), self.record(spoiled)], SWEEP_DTYPE)
        counts = emit_csv([rows], str(tmp_path / "bad.csv"), SweepConfig())
        assert [counts[f"covered_{part}"] for part in ("total", "pop", "coh")] == [1, 1, 1]


class TestPropertySuite:
    def test_passes_at_every_seed_from_0_to_49(self):
        # The benchmark runs `check` at arbitrary seeds: no drawn case may
        # fail a row at its tolerance.
        failed = [seed for seed in range(50) if not run_property_suite(seed)[0]]
        assert failed == []

    # `check` must fail when the Bloch closed forms the sweep runs drift by 1e-9.
    @staticmethod
    def failed_rows(capsys) -> list[str]:
        assert cli.main(["check"]) == cli.EXIT_PROPERTY_FAILURE
        return [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                if line.startswith("[FAIL] ")]

    @staticmethod
    def perturb_gad(monkeypatch):
        gad = bloch.gad
        shrink_error = (1.0 + 1e-9, 1.0 + 1e-9, 1.0)
        monkeypatch.setattr(bloch, "gad", lambda b, p, r: gad(b, p, r) * shrink_error)

    def test_perturbed_gad_fails_the_closed_form_row(self, capsys, monkeypatch):
        self.perturb_gad(monkeypatch)
        assert self.failed_rows(capsys) == ["[FAIL] closed-form evolved state (9x11x11 grid)"]

    def test_check_prints_the_report_and_exits_on_the_verdict(self, capsys, monkeypatch):
        # `check` prints the suite's report text as returned and exits 0 when
        # every row held, 2 when one failed.
        assert cli.main(["check", "--seed", "7"]) == cli.EXIT_OK
        assert capsys.readouterr().out == run_property_suite(7)[1] + "\n"
        self.perturb_gad(monkeypatch)
        assert run_property_suite(1234)[0] is False
        assert cli.main(["check"]) == cli.EXIT_PROPERTY_FAILURE

    @pytest.mark.parametrize("name", ["invert", "born_probabilities"])
    def test_perturbed_tomography_step_fails_the_round_trip_row(self, capsys, monkeypatch, name):
        step = getattr(bloch, name)
        monkeypatch.setattr(bloch, name, lambda a: np.add(step(a), 1e-9))
        assert self.failed_rows(capsys) == [
            "[FAIL] tomography exact-frequency round trip (200 random states)"]

    # A bad value in a stacked row fails that row and exits 2, never a traceback.
    @pytest.mark.parametrize("perturb", [
        lambda sigma: sigma + 1e-9, lambda sigma: sigma - 1e-9,
        lambda sigma: np.where(np.arange(sigma.size) == 7, np.nan, sigma)],
        ids=["drift", "negative", "nan"])
    def test_perturbed_productions_fail_the_additivity_row(self, capsys, monkeypatch, perturb):
        productions = check.productions

        def perturbed(initial, p, r):
            total, population, coherence = productions(initial, p, r)
            return total, population, perturb(coherence)

        monkeypatch.setattr(check, "productions", perturbed)
        assert self.failed_rows(capsys) == [
            "[FAIL] budget additivity + non-negativity (1000 random triples)"]

    # The row scores the total of `productions`, the drop D(rho || eq) - D(Phi(rho) || eq),
    # which the additivity row scores too, so both fail: "nan" spoils case 7.
    @pytest.mark.parametrize("perturb", [
        lambda d: -d, lambda d: np.where(np.arange(d.shape[-1]) == 7, np.nan, d)],
        ids=["sign", "nan"])
    def test_perturbed_relative_entropy_fails_the_contractivity_row(self, capsys, monkeypatch,
                                                                     perturb):
        productions = check.productions

        def perturbed(initial, p, r):
            total, population, coherence = productions(initial, p, r)
            return perturb(total), population, coherence

        monkeypatch.setattr(check, "productions", perturbed)
        assert self.failed_rows(capsys) == [
            "[FAIL] relative-entropy contractivity (500 random cases)",
            "[FAIL] budget additivity + non-negativity (1000 random triples)"]

    # A grid or composition row fails when its input drifts by 1e-9.  The Kraus
    # stack feeds every row that applies the channel, so each of those fails too.
    @pytest.mark.parametrize("name, perturb, rows", [
        ("kraus_stack", lambda f: lambda p, r: f(p, r) + 1e-9, [
            "kraus completeness (11x11 grid)", "equilibrium fixed point (11x11 grid)",
            "closed-form evolved state (9x11x11 grid)",
            "coherence decay sqrt(1-r), p-independent",
            "semigroup composition (100 random cases)"]),
        ("equilibrium_states", lambda f: lambda p: f(p) + 1e-9,
         ["equilibrium fixed point (11x11 grid)"]),
        ("compose", lambda f: lambda r1, r2: f(r1, r2) + 1e-9,
         ["semigroup composition (100 random cases)"])],
        ids=["completeness", "fixed-point", "composition"])
    def test_perturbed_channel_input_fails_its_row(self, capsys, monkeypatch, name, perturb,
                                                   rows):
        monkeypatch.setattr(channel, name, perturb(getattr(channel, name)))
        assert self.failed_rows(capsys) == [f"[FAIL] {row}" for row in rows]

    def test_perturbed_plus_state_fails_the_coherence_decay_row(self, capsys, monkeypatch):
        monkeypatch.setattr(qstate, "PLUS", QubitState(qstate.PLUS.matrix + 1e-9))
        assert self.failed_rows(capsys) == ["[FAIL] coherence decay sqrt(1-r), p-independent"]

    def test_suite_builds_no_per_state_object(self, monkeypatch):
        # Every row scores stacked arrays: no QubitState or GadChannel is built.
        def refuse(obj):
            raise AssertionError(f"the property suite built a {type(obj).__name__}")

        for cls in (QubitState, GadChannel):
            monkeypatch.setattr(cls, "__post_init__", refuse)
        passed, report = run_property_suite(seed=1234)
        assert passed, report

    def test_suite_passes_under_the_bench_tracer(self):
        # The benchmark's tracer wraps every public function and reads the
        # per-state results as Python floats (math.isfinite on each field).
        spec = importlib.util.spec_from_file_location(
            "spans", pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        with spans.Tracer() as tracer:
            passed, report = run_property_suite(seed=1)
            gadentropy.budget(gadentropy.prepare(PrepSetting(0.0)), GadChannel(0.9, 0.5))
            with pytest.raises(gadentropy.IndeterminateEntropyError):
                gadentropy.budget(gadentropy.prepare(PrepSetting(0.0)), GadChannel(1.0, 0.5))
        assert passed and report.endswith("\nALL PASS"), report
        traced = tracer.report()
        assert traced["functions"]["budget.budget"]["calls"] == 2
        assert traced["functions"]["budget.productions"]["calls"] >= 3
        assert traced["counters"]["budget.indeterminate"] == 1
        assert traced["counters"].get("budget.nonfinite", 0) == 0

    FRESH_SEEDS = ["0", "1234", "2024"]

    @pytest.fixture(scope="class")
    def fresh_interpreter_reports(self):
        # Two interpreters run `check` at the three seeds, the second in reverse
        # order, so each seed's report follows a different history in each.  Any
        # warning, such as a RuntimeWarning from a kernel, is an error.
        src = os.path.dirname(os.path.dirname(gadentropy.__file__))
        code = ("import sys; from gadentropy import cli\n"
                "for seed in sys.argv[1:]:\n"
                "    print('--- seed', seed, flush=True)\n"
                "    assert cli.main(['check', '--seed', seed]) == 0\n"
                "print('numpy.random' in sys.modules, file=sys.stderr)")
        reports = []
        for order in (self.FRESH_SEEDS, self.FRESH_SEEDS[::-1]):
            run = subprocess.run([sys.executable, "-W", "error", "-c", code, *order],
                                 capture_output=True, env={**os.environ, "PYTHONPATH": src})
            assert (run.returncode, run.stderr) == (0, b"False\n")
            sections = [part.split(b"\n", 1) for part in run.stdout.split(b"--- seed ")[1:]]
            assert [seed for seed, _ in sections] == [s.encode() for s in order]
            reports.append(dict(sections))
        return reports

    @pytest.mark.parametrize("seed", FRESH_SEEDS)
    def test_check_in_a_fresh_interpreter(self, fresh_interpreter_reports, seed):
        # Same-seed output is byte-identical whatever ran before it, and `check`
        # leaves numpy.random unloaded: its cases come from the stdlib
        # random.Random(seed).
        first, second = (reports[seed.encode()] for reports in fresh_interpreter_reports)
        assert first.endswith(b"\nALL PASS\n")
        assert first == second

class TestCaseDraws:
    N = 20_000

    @staticmethod
    def ks_statistic(sample) -> float:
        """Kolmogorov-Smirnov distance of the sample from U(0, 1)."""
        x = np.sort(sample)
        n = x.size
        return float(max(np.max(np.arange(1, n + 1) / n - x), np.max(x - np.arange(n) / n)))

    def test_same_seed_gives_the_same_arrays(self):
        rng_a, rng_b = random.Random(5), random.Random(5)
        for shape in ((3, 200), (5, 7)):
            a, b = check._uniforms(rng_a, shape), check._uniforms(rng_b, shape)
            assert a.shape == shape and np.array_equal(a, b)

    def test_uniforms_are_53_bit_doubles_in_the_unit_interval(self):
        u = check._uniforms(random.Random(11), (self.N,))
        assert u.dtype == np.float64 and np.all((0.0 <= u) & (u < 1.0))
        scaled = u * 2.0 ** 53
        assert np.array_equal(scaled, np.floor(scaled))

    def test_ball_draws_are_uniform_in_the_unit_ball(self):
        b = check._ball(check._uniforms(random.Random(12), (3, self.N)))
        radius = np.linalg.norm(b, axis=-1)
        assert b.shape == (self.N, 3) and np.all(radius <= 1.0)
        # In the uniform ball |b|^3 and (z + 1)/2, with z the direction's z
        # component, are U(0, 1); 1.95/sqrt(n) is the KS distance's 0.1% point.
        bound = 1.95 / math.sqrt(self.N)
        assert self.ks_statistic(radius ** 3) < bound
        assert self.ks_statistic((b[:, 2] / radius + 1.0) / 2.0) < bound
        # E[x^2] = 1/5, so each mean has a standard error of 0.0032.
        assert np.all(np.abs(b[:, :2].mean(axis=0)) < 0.02)


class TestCli:
    def test_fig2_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "f2.csv"
        code = cli.main([
            "fig2", "--shots", "200", "--seed", "1",
            "--r-points", "3", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "wrote 9 rows" in capsys.readouterr().out

    def test_fig3_writes_csv(self, tmp_path):
        out = tmp_path / "f3.csv"
        code = cli.main([
            "fig3", "--shots", "200", "--seed", "1",
            "--r-points", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 9  # 1 p x 3 coherences x 3 r

    def test_sweep_with_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "run.csv"
        cfg.write_text(
            "scenario = custom\np_values = 0.8\ncoherence = 1\n"
            f"r_points = 3\nshots = 100\nn_bootstrap = 3\nout = {out}\n"
        )
        assert cli.main(["sweep", "--config", str(cfg)]) == 0
        assert out.exists()

    def test_missing_config_is_io_error(self, tmp_path):
        code = cli.main(["sweep", "--config", str(tmp_path / "absent.cfg")])
        assert code == cli.EXIT_IO

    @pytest.mark.parametrize("flag, key, value", [
        ("--shots", "shots", "123"), ("--seed", "seed", "5"), ("--out", "out", "x.csv"),
        ("--r-points", "r_points", "4")])
    def test_each_flag_sets_what_its_config_key_sets(self, tmp_path, monkeypatch, flag, key,
                                                     value):
        base = "p_values = 0.8\ncoherence = 0.6\n"
        with_key, plain = tmp_path / "key.cfg", tmp_path / "plain.cfg"
        with_key.write_text(f"{base}{key} = {value}\n")
        plain.write_text(base)
        ran = []
        monkeypatch.setattr(cli, "_run_and_emit", lambda config: ran.append(config) or 0)
        for given in ([flag, value], [f"{flag}={value}"]):
            assert cli.main(["sweep", "--config", str(plain), *given]) == 0
        assert ran == [load_config(str(with_key))] * 2
        assert ran[0] != load_config(str(plain))

    def test_repeated_flag_is_a_config_error(self, capsys, monkeypatch):
        def no_compute(config):
            raise AssertionError("sweep ran although a flag was given twice")

        monkeypatch.setattr(cli.sw, "blocks", no_compute)
        assert cli.main(["fig2", "--seed", "1", "--seed=2"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            "config error: --seed: 'seed' repeats or conflicts with an earlier key\n")

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["fig2", "--help"], ["fig3", "-h"],
                                      ["sweep", "--help"], ["check", "--seed", "3", "-h"]])
    def test_help_names_every_flag_and_exits_0(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        flags = [flag for flag, _, _ in cli._FLAGS]
        for name, takes in (("fig2", flags), ("fig3", flags), ("sweep", ["--config", *flags]),
                            ("check", ["--seed"])):
            usage = out.split(f"gadentropy {name}: ")[1].split("gadentropy ")[0]
            assert [line.split()[0] for line in usage.splitlines()[1:]] == takes

    @pytest.mark.parametrize("argv", [["check"], ["fig2", "--r-points", "2"]])
    def test_closed_stdout_exits_3_without_a_traceback(self, tmp_path, argv):
        # The pipe's read end is closed before the child starts, so its first
        # write to stdout fails.  Without PYTHONUNBUFFERED stdout is block-buffered,
        # as it is for a pipe by default, so the failure surfaces at a flush.
        src = os.path.dirname(os.path.dirname(gadentropy.__file__))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run([sys.executable, "-m", "gadentropy.cli", *argv], stdout=write,
                                 stderr=subprocess.PIPE, cwd=tmp_path,
                                 env={**env, "PYTHONPATH": src})
        finally:
            os.close(write)
        assert (run.returncode, run.stderr) == (cli.EXIT_IO, b"")
        if argv[0] == "fig2":
            assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2.csv", "fig2.csv.meta.json"]

    def test_check_passes(self, capsys):
        assert cli.main(["check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "ALL PASS"
        # bench/run.py expects eight passing properties (CHECK_PROPERTIES).
        assert sum(line.startswith("[PASS] ") for line in lines) == 8

    def test_modules_and_names_the_benchmark_looks_up(self):
        # bench/spans.py finds each layer in sys.modules after `import gadentropy,
        # gadentropy.cli`; a fresh interpreter, because the tests import everything.
        src = os.path.dirname(os.path.dirname(gadentropy.__file__))
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, gadentropy, gadentropy.cli; print(*sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src}).stdout.split()
        for layer in ("qstate", "channel", "budget", "prep", "tomography", "sweep", "cli"):
            assert f"gadentropy.{layer}" in loaded
        # The CLI reads argv from its own flag table, so it loads no argparse (nor gettext).
        assert not {"argparse", "gettext"} & set(loaded)
        # bench/worker.py, bench/test_oracle.py and bench/spans.py read these.
        for layer, names in (
                ("cli", ("main",)),
                ("qstate", ("PLUS", "QubitState.from_bloch", "QubitState.bloch_vector",
                            "QubitState.__post_init__", "relative_entropy")),
                ("channel", ("BathSpec", "evolve_master_equation", "apply", "channel_for",
                             "GadChannel", "equilibrium_state")),
                ("prep", ("prepare", "PrepSetting", "alpha_for_coherence"))):
            for name in names:
                operator.attrgetter(name)(sys.modules[f"gadentropy.{layer}"])
        assert callable(gadentropy.budget)
        # ... and call them as bench calls them.  The worker's RK4 cases:
        bath = channel.BathSpec(omega_s=1.0, temperature=1.0, gamma0=1.0)
        for state in (channel.evolve_master_equation(bath, qstate.PLUS, 0.5),
                      channel.apply(channel.channel_for(bath, 0.5), qstate.PLUS)):
            assert state.matrix.shape == (2, 2) and np.isfinite(state.matrix).all()
        # test_oracle's comparisons:
        state = prepare(PrepSetting(alpha_for_coherence(0.6)))
        ch = GadChannel(0.75, 0.3)
        result = gadentropy.budget(state, ch)
        assert math.isfinite(result.total + result.population + result.coherence)
        assert math.isfinite(qstate.relative_entropy(state, channel.equilibrium_state(ch)))
        assert channel.apply(ch, state).bloch_vector().shape == (3,)
        ch = channel.channel_for(bath, 0.7)
        assert (ch.p, ch.r) == (channel.p_from_temperature(bath), channel.r_from_time(bath, 0.7))
        # PLUS keeps the bits of [1, 1] / ||[1, 1]|| squared (the RK4 matrices
        # depend on them), and the per-state layer stays this small.
        assert np.all(qstate.PLUS.matrix == (1 / math.sqrt(2)) ** 2)
        assert {name for name in dir(QubitState) if not name.startswith("_")} == {
            "from_bloch", "bloch_vector"}

    @staticmethod
    def bench_grid_config(tmp_path):
        """The grid config that bench/run.py (build_spec) writes, at seed 3."""
        config = tmp_path / "grid.cfg"
        config.write_text(
            "scenario = custom\n"
            f"p_values = {', '.join(repr(p) for p in BENCH_P_VALUES)}\n"
            f"coherence = {', '.join(repr(c) for c in BENCH_COHERENCES)}\n"
            "r_points = 101\n"
            "shots = 10000\n"
            "n_bootstrap = 2\n"
            "seed = 3\n"
        )
        return config

    def test_config_keys_and_argv_the_benchmark_writes(self, tmp_path):
        # bench/run.py (build_spec) writes this grid config and these argv shapes.
        config = self.bench_grid_config(tmp_path)
        cfg = load_config(str(config))
        assert (cfg.scenario, cfg.p_values, len(cfg.alphas), len(cfg.r_grid)) == (
            "custom", BENCH_P_VALUES, 5, 101)
        assert (cfg.shots, cfg.seed) == (10_000, 3)
        for argv, read in (
                (["fig2", "--seed", "3", "--out", "iter0.csv"],
                 ("fig2", None, {"seed": 3, "output_path": "iter0.csv"})),
                (["sweep", "--config", str(config), "--out", "iter0.csv"],
                 ("sweep", str(config), {"output_path": "iter0.csv"})),
                (["check", "--seed", "3"], ("check", None, {"seed": 3}))):
            assert cli._read(argv) == read

    def test_the_benchmark_oracle_accepts_the_sweep_csvs(self, tmp_path, capsys):
        # bench/oracle.py checks every benchmark iteration's CSV, the stderr
        # columns included; run from its source text, so nothing is written under bench/.
        path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
        if not path.exists():
            pytest.skip("did not check: no bench/oracle.py beside the tests")
        oracle = types.ModuleType("bench_oracle")
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), oracle.__dict__)
        fig2, grid = tmp_path / "fig2.csv", tmp_path / "grid.csv"
        assert cli.main(["fig2", "--out", str(fig2)]) == 0
        config = self.bench_grid_config(tmp_path)
        assert cli.main(["sweep", "--config", str(config), "--out", str(grid)]) == 0
        capsys.readouterr()
        for csv, spec in ((fig2, (sweep.FIG2_P_VALUES, (1.0,), 21, 200)),
                          (grid, (BENCH_P_VALUES, BENCH_COHERENCES, 101, 2))):
            p_values, coherences, r_points, n_bootstrap = spec
            report = oracle.check_sweep_csv(csv.read_text(), (
                np.array(p_values), np.array(coherences), np.linspace(0.0, 1.0, r_points),
                n_bootstrap))
            assert report["failed"] == 0 and report["z"]["ok"], report


class TestArrayPathMatchesStates:
    """The sweep's vectorized estimates against the 2x2 matrix reference: each
    estimate projected onto the Frobenius-nearest state by `eigh`
    (`nearest_states`), all scored in one stack as D(initial || eq) -
    D(estimate || eq), of the dephased states for the population part.  The
    intervals hold their points, and the coherence interval is MOVER of the
    other two; `test_tomography.py` holds the total's and the population's
    intervals to their own references."""

    @staticmethod
    def per_state(initial, p, freqs, population):
        """The point estimate from one row's frequencies (4,)."""
        final = nearest_states(qstate.bloch_matrices(np.stack(bloch.invert(freqs))))
        initial = initial.matrix
        if population:
            initial, final = dephased(initial), dephased(final)
        eq = channel.equilibrium_states(p)
        return float(qstate.relative_entropies(initial, eq) - qstate.relative_entropies(final, eq))

    @pytest.mark.parametrize("shots", [50, 10_000])
    def test_estimates_match_per_state_path(self, shots):
        # Any pair of states: prepared and measured ones drawn uniformly in the ball, apart.
        rng = np.random.default_rng(shots)
        p = rng.uniform(0.5, 0.99, size=12)
        initial, final = (np.array([random_state(rng).bloch_vector() for _ in range(12)])
                          for _ in range(2))
        freqs = frequencies(bloch.born_probabilities(final), shots, 7)
        for population in (False, True):
            point, *_ = tomography.estimates(tomography.counts(final, shots, 7),
                                             length_z(initial), p, shots, population)
            for k in range(12):
                want = self.per_state(QubitState.from_bloch(*initial[k]), p[k], freqs[k],
                                      population)
                assert point[k] == pytest.approx(want, abs=1e-12)

    def test_rows_reproduce_from_config_seed(self):
        # Experiment e draws all determinate rows, in row order, from the one
        # generator default_rng((config.seed, e)); p = 1 rows draw nothing.
        cfg = SweepConfig(p_values=(0.9, 1.0, 0.6),
                          alphas=tuple(map(alpha_for_coherence, (0.8, 0.6, 0.4))), **SMALL)
        rows = [row for row in records(cfg) if not row["indeterminate"]]
        assert len(rows) == 18
        experiments = (
            (1, lambda row: prepare(PrepSetting(math.radians(row["alpha_deg"]))), False),
            (2, lambda row: QubitState(dephased(prepare(PrepSetting(0.0)).matrix)), True),
        )
        got = [[] for _ in rows]
        for e, initial, population in experiments:
            probs = [bloch.born_probabilities(
                apply(GadChannel(row["p"], row["r"]), initial(row)).bloch_vector())
                for row in rows]
            freqs = frequencies(np.array(probs), cfg.shots, (cfg.seed, e))
            for k, row in enumerate(rows):
                got[k].append(self.per_state(initial(row), row["p"], freqs[k], population))
        for row, values in zip(rows, got):
            assert values == pytest.approx((row["sigma_total_tomo"], row["sigma_pop_tomo"]),
                                           abs=1e-12)

    def test_determinate_rows_are_finite_next_to_p_one(self):
        # A row is determinate once 1 - p > ATOL; every projected estimate then
        # has a finite D, even at 3 shots, where many fall outside the ball.
        tomo = [name for name in CSV_COLUMNS if "_tomo" in name]
        rows = records(fig3_config(p_values=(1.0 - 2e-12,), shots=3))
        assert len(tomo) == 6 and len(rows) == 63 and not rows["indeterminate"].any()
        assert all(np.isfinite(rows[name]).all() for name in tomo)
        assert rows["projected"].sum() > 0
        rows = records(fig3_config(p_values=(1.0 - 1e-12,), shots=3))
        assert rows["indeterminate"].all() and rows["projected"].sum() == 0

    @pytest.mark.parametrize("config", [
        fig2_config(), fig3_config(),
        SweepConfig(p_values=BENCH_P_VALUES, alphas=tuple(map(alpha_for_coherence,
                                                               BENCH_COHERENCES)),
                    r_grid=101),
        fig3_config(p_values=(1.0 - 2e-12,), shots=3)], ids=["fig2", "fig3", "grid", "3-shots"])
    def test_every_determinate_interval_holds_its_point(self, config):
        rows = records(config)
        det = rows["indeterminate"] == 0
        assert det.any()
        for part in ("total", "pop", "coh"):
            point, lo, hi = (rows[f"sigma_{part}_tomo{end}"][det] for end in ("", "_lo", "_hi"))
            assert np.isfinite(lo).all() and np.isfinite(hi).all()
            assert ((lo <= point) & (point <= hi)).all()

    def test_coherence_interval_is_mover_of_the_two_experiments(self):
        # Per row, against scalar math: the coherence limits combine the total's
        # and the population's by MOVER; each stderr is the width / (2 Z95), the
        # coherence stderr the hypot of the other two; indeterminate rows hold NaN.
        cfg = SweepConfig(p_values=(0.9, 1.0, 0.6),
                          alphas=tuple(map(alpha_for_coherence, (0.8, 0.6, 0.4))), **SMALL)
        rows = records(cfg)
        z = tomography.Z95
        for row in rows:
            ends = [(row[f"sigma_{part}_tomo"], row[f"sigma_{part}_tomo_lo"],
                     row[f"sigma_{part}_tomo_hi"]) for part in ("total", "pop", "coh")]
            if row["indeterminate"]:
                assert all(math.isnan(v) for triple in ends for v in triple)
                continue
            (a, a_lo, a_hi), (b, b_lo, b_hi), coherence = ends
            want = (a - b, a - b - math.sqrt((a - a_lo) ** 2 + (b_hi - b) ** 2),
                    a - b + math.sqrt((a_hi - a) ** 2 + (b - b_lo) ** 2))
            assert coherence == pytest.approx(want, abs=1e-12)
            errors = (a_hi - a_lo) / (2 * z), (b_hi - b_lo) / (2 * z)
            assert (row["sigma_total_tomo_stderr"], row["sigma_pop_tomo_stderr"],
                    row["sigma_coh_tomo_stderr"]) == pytest.approx(
                (*errors, math.hypot(*errors)), abs=1e-12)

    def test_projections_are_counted(self):
        # At 2 shots every Bloch component is a multiple of 1/2, so runs fall
        # inside the ball, exactly on its surface (not projected) and outside it.
        p, r = np.full(20, 0.8), np.linspace(0.0, 1.0, 20)
        prepared = np.zeros((20, 3))
        prepared[:, 0] = 1.0
        final = bloch.gad(prepared, p, r)
        freqs = frequencies(bloch.born_probabilities(final), 2, 5)
        x, y, z = bloch.invert(freqs)
        squared = x * x + y * y + z * z
        assert (squared < 1.0).any() and (squared == 1.0).any() and (squared > 1.0).any()
        *_, projected = tomography.estimates(tomography.counts(final, 2, 5),
                                             length_z(prepared), p, 2, True)
        assert projected.tolist() == (squared > 1.0).tolist()


def traced_peak(run) -> tuple:
    """`run()`'s result and the tracemalloc peak while it ran, over the memory traced
    before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestStreams:
    @pytest.mark.parametrize("block_rows", [1, 8, 100, 2**20])
    def test_blocks_join_to_one_stream_at_any_block_size(self, monkeypatch, block_rows):
        # 3 p x 2 coherences x 17 r = 102 rows, rows 34-67 at p = 1, built in blocks
        # of `block_rows` rows: at 8 a block starts and one ends inside the run of
        # indeterminate rows, at 100 the last block is short.  Every record is the
        # same, byte for byte, as when one block holds the whole grid.
        config = SweepConfig(p_values=(0.9, 1.0, 0.6), alphas=tuple(map(
            alpha_for_coherence, (1.0, 0.5))), r_grid=17, shots=300, seed=7)
        monkeypatch.setattr(sweep, "BLOCK_ROWS", 2**20)
        whole = list(sweep.blocks(config))
        monkeypatch.setattr(sweep, "BLOCK_ROWS", block_rows)
        streamed = list(sweep.blocks(config))
        assert len(whole) == 1 and len(whole[0]) == 102
        want = whole[0]
        assert want["indeterminate"][34:68].all() and want["indeterminate"].sum() == 34
        assert np.concatenate(streamed).tobytes() == want.tobytes()
        assert [len(block) for block in streamed[:-1]] == [block_rows] * (len(streamed) - 1)

    def test_stream_is_the_documented_order_of_binomial_draws(self, monkeypatch):
        # One scalar draw at a time: every row's observed count per basis (H, V, R, D).
        # `counts` draws them, and `estimates` scores exactly those counts and draws nothing.
        final = np.random.default_rng(5).uniform(-0.5, 0.5, size=(3, 3))
        probs = bloch.born_probabilities(final)
        rng = np.random.default_rng(11)
        counts = np.array([[rng.binomial(500, q) for q in row] for row in probs])
        assert np.array_equal(frequencies(probs, 500, 11), counts / 500)

        observed = tomography.counts(final, 500, 11)
        assert observed.tolist() == counts.tolist()
        # Drawn block by block from one Generator, the counts are the same stream.
        rng = np.random.default_rng(11)
        halves = [tomography.counts(half, 500, rng) for half in (final[:2], final[2:])]
        assert np.concatenate(halves).tolist() == counts.tolist()
        scored, invert = [], bloch.invert

        def spy(freqs):
            scored.append(np.array(freqs))
            return invert(freqs)

        def no_draw(*args, **kwargs):
            raise AssertionError("estimates drew from a generator")

        monkeypatch.setattr(bloch, "invert", spy)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        tomography.estimates(observed, length_z(final), np.full(3, 0.8), 500, False)
        assert len(scored) == 1 and np.array_equal(scored[0], counts / 500)

    def test_sweep_holds_one_block_of_runs_at_a_time(self, monkeypatch):
        # One run per row and experiment, and rows for four blocks per experiment.
        runs, invert = [], bloch.invert

        def spy(freqs):
            runs.append(len(freqs))
            return invert(freqs)

        monkeypatch.setattr(bloch, "invert", spy)
        config = SweepConfig(p_values=(0.9,), r_grid=3 * sweep.BLOCK_ROWS + 5, shots=100)
        assert sum(1 for _ in sweep.blocks(config)) == 4
        assert len(runs) == 2 * 4 and max(runs) == sweep.BLOCK_ROWS and min(runs) == 5

    def test_streamed_csv_peak_does_not_grow_with_the_grid(self, tmp_path):
        # `emit_csv` over `blocks` holds one block of records at a time: under
        # tracemalloc, the grid-shaped sweep of 27,500 rows and its double, 55,000,
        # peak within one block's records of each other.  A first, untraced run loads
        # what the code loads once: a cold first run read 748 kB over its double.
        def peak(r_points, traced=True):
            config = SweepConfig(p_values=BENCH_P_VALUES, alphas=tuple(
                map(alpha_for_coherence, BENCH_COHERENCES)), r_grid=r_points)
            if not traced:
                return emit_csv(sweep.blocks(config), str(tmp_path / "run.csv"), config)
            counts, peak = traced_peak(lambda: emit_csv(
                sweep.blocks(config), str(tmp_path / "run.csv"), config))
            assert counts["rows"] == 55 * r_points
            return peak

        peak(2, traced=False)
        small, large = peak(500), peak(1000)
        assert abs(large - small) < sweep.BLOCK_ROWS * SWEEP_DTYPE.itemsize, (small, large)

    def test_csv_of_records_held_peaks_below_one_block_of_records(self, tmp_path):
        # `emit_csv` takes each array in `BLOCK_ROWS` chunks and writes each chunk in
        # slices of lines, so under tracemalloc neither one block of grid-shaped
        # records nor eight blocks passed as one array adds one block of records
        # (688,128 B) to what its caller holds.  Formatting each array's text in one
        # piece read 3.0 MB and 23.5 MB (numpy 2.4.6), the slices 0.58 MB for both.
        # A first, untraced write loads what the code loads once.
        config = SweepConfig(p_values=BENCH_P_VALUES, alphas=tuple(map(
            alpha_for_coherence, BENCH_COHERENCES)), r_grid=-(-8 * sweep.BLOCK_ROWS // 55))
        rows, out = np.concatenate(list(sweep.blocks(config))), str(tmp_path / "held.csv")
        emit_csv([rows[:2]], out, config)
        for count in (sweep.BLOCK_ROWS, 8 * sweep.BLOCK_ROWS):
            counts, peak = traced_peak(lambda: emit_csv([rows[:count]], out, config))
            assert counts["rows"] == count
            assert peak < sweep.BLOCK_ROWS * SWEEP_DTYPE.itemsize, (count, peak)


class TestErrorBarCoverage:
    """95% intervals [lo, hi] cover the analytic production.

    Each point is one sweep over TRIALS copies of a grid point, so every row
    is an independent run.  The bounds are nominal coverage +- 4 binomial
    sigma of the trial count.  The population interval is a function of the
    dephased experiment's H and V counts, so its coverage is also summed
    exactly over their lattice (conftest `population_coverage`).  Gated points
    with r >= 0.9 and at most 500 shots were picked by that sum, so none sits
    near a bound: (0.75, 1, 0.95, 300) sums to 0.9729, too close to 0.978.

    Each interval is widened by the 1e-12 tolerance that holds the closed
    forms to the `eigh` reference, as conftest `population_coverage` widens
    it; no point of `POINTS` reads differently for it.

    At r = 1 only population coverage is gated (`R1_POINTS`).  The evolved
    state is then the thermal one, where the gradient of D(. || thermal)
    vanishes, so the first-order (delta-method) total interval is
    conservative: at (0.9, 1, 1, 500), 1000 trials, seed 2024, total and
    coherence coverage read 1.000, above HIGH.  The population truth there
    sits on its interval's upper end in exact arithmetic, so without the
    tolerance round-off alone decides its coverage: 0.000 at that point.
    """

    TRIALS = 1000
    SIGMA = math.sqrt(0.95 * 0.05 / TRIALS)
    LOW, HIGH = 0.95 - 4.0 * SIGMA, 0.95 + 4.0 * SIGMA
    POINTS = [(0.9, 1.0, 0.5, 10_000), (0.6, 0.6, 0.2, 10_000), (0.75, 0.4, 0.8, 1_000),
              (0.9, 1.0, 0.95, 500), (0.9, 1.0, 0.9, 500), (0.9, 0.4, 0.9, 300)]
    R1_POINTS = [(0.9, 1.0, 1.0, 500), (0.75, 1.0, 1.0, 1_000), (0.9, 0.4, 1.0, 300)]

    @classmethod
    def coverage(cls, p, c, r, shots):
        rows = records(SweepConfig(p_values=(p,) * cls.TRIALS, alphas=(alpha_for_coherence(c),),
                                   r_grid=(r,), shots=shots, seed=2024))
        want = entropy_budget(QubitState.from_bloch(c, 0.0, 0.0), GadChannel(p, r))
        return tuple(
            np.mean((rows[f"sigma_{name}_tomo_lo"] - 1e-12 <= value)
                    & (value <= rows[f"sigma_{name}_tomo_hi"] + 1e-12))
            for name, value in (("total", want.total), ("pop", want.population),
                                ("coh", want.coherence)))

    @pytest.mark.parametrize("p, c, r, shots", POINTS)
    def test_total_and_population_calibrated(self, p, c, r, shots):
        total, population, coherence = self.coverage(p, c, r, shots)
        assert self.LOW <= total <= self.HIGH
        assert self.LOW <= population <= self.HIGH
        assert self.LOW <= coherence <= self.HIGH

    @pytest.mark.parametrize("p, c, r, shots", POINTS)
    def test_population_exact_coverage(self, p, c, r, shots):
        assert self.LOW <= population_coverage(p, r, shots) <= self.HIGH

    @pytest.mark.parametrize("p, c, r, shots", R1_POINTS)
    def test_population_calibrated_at_r_1(self, p, c, r, shots):
        assert self.LOW <= self.coverage(p, c, r, shots)[1] <= self.HIGH

    # The distinct (p, r, shots) of the Newcombe table, `POINTS` and `R1_POINTS`.
    EXACT_POINTS = sorted({(p, r, shots) for p, r, shots, _ in NEWCOMBE_TABLE}
                          | {(p, r, shots) for p, _, r, shots in POINTS + R1_POINTS})

    @pytest.mark.parametrize("p, r, shots", [pt for pt in EXACT_POINTS if pt[2] <= 1000])
    def test_radial_projection_moves_exact_coverage_by_under_5e_5(self, p, r, shots):
        # Small enough that every four-digit value of the Newcombe table stands
        # with the R and D counts summed too.
        assert projection_bound(p, r, shots) < 5e-5

    @pytest.mark.parametrize("p, r, shots", [pt for pt in EXACT_POINTS if pt[2] > 1000])
    def test_no_run_in_the_supports_leaves_the_ball(self, p, r, shots):
        # No run is projected, so the two-count sum is the exact coverage.
        z = r * (2.0 * p - 1.0)
        k_h, k_v, k = (binomial_pmf(shots, q)[0] for q in ((1 + z) / 2, (1 - z) / 2, 0.5))
        z_max = max(k_h.max() - k_v.min(), k_v.max() - k_h.min()) / shots
        assert z_max**2 + 2.0 * np.max((2.0 * k / shots - 1.0) ** 2) <= 1.0


def _write_config(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(f"shots = 100\nout = {tmp_path / 'o.csv'}\n" + body,
                    encoding="utf-8", errors="surrogateescape")
    return path


class TestFailFast:
    @pytest.mark.parametrize("body, words", [
        ("p_values = 0.3\n", "p_values"),
        ("coherence = 1.5\n", "coherence"),
        ("alpha_deg = 60\n", "alpha_deg"),
        ("p_values = 0.9, abc\n", "abc"),
        ("shots = 200\n", "'shots'"),
        ("seed = 1.5\n", "'seed'"),
        ("seed = -1\n", "seed"),
        ("# \udcff\n", "not UTF-8 text (invalid start byte at byte "),  # writes the byte 0xff
        ("r_grid =\n", "r_grid"),
        ("r_grid = ,\n", "r_grid"),
        ("scenario = nonsense\n", "scenario"),
        # Retired, but parsed: bench/run.py's grid config writes it.
        ("n_bootstrap = abc\n", "run.cfg:3: bad value for 'n_bootstrap': invalid literal"),
    ])
    def test_bad_config_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch, body, words):
        def no_compute(config):
            raise AssertionError("sweep ran on a bad config")

        monkeypatch.setattr(cli.sw, "blocks", no_compute)
        code = cli.main(["sweep", "--config", str(_write_config(tmp_path, body))])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert err.startswith("config error:") and err.count("\n") == 1
        assert words in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--shots", "0", "shots must be in [1, 2**63 - 1], got 0"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--shots", str(2**63), "shots must be in [1, 2**63 - 1], got 9223372036854775808")])
    def test_out_of_range_setting_is_named_before_compute(self, capsys, monkeypatch, flag,
                                                          value, message):
        def no_compute(config):
            raise AssertionError("sweep ran on an out-of-range setting")

        monkeypatch.setattr(cli.sw, "blocks", no_compute)
        assert cli.main(["fig2", flag, value]) == cli.EXIT_USAGE
        key = {name: key for name, key, _ in cli._FLAGS}[flag]
        err = capsys.readouterr().err
        assert err == f"config error: {flag}: bad value for '{key}': {message}\n"

    @pytest.mark.parametrize("flag, value", [("--shots", "abc"), ("--r-points", "1")])
    def test_bad_flag_value_names_the_flag(self, capsys, flag, value):
        assert cli.main(["fig2", flag, value]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag}:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [("--r-points", "10000000000000")])
    def test_sweep_too_large_to_hold_exits_1_before_compute(self, tmp_path, capsys,
                                                            monkeypatch, flag, value):
        # Without the bound, the r grid asks numpy for terabytes, which fails at
        # once with a MemoryError traceback.
        def no_compute(config):
            raise AssertionError("sweep ran although it is too large to hold")

        monkeypatch.setattr(cli.sw, "blocks", no_compute)
        out = tmp_path / "o.csv"
        assert cli.main(["fig2", flag, value, "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_retired_bootstrap_flag_exits_1_before_compute(self, tmp_path, capsys, monkeypatch):
        def no_compute(config):
            raise AssertionError("sweep ran on a retired flag")

        monkeypatch.setattr(cli.sw, "blocks", no_compute)
        out = tmp_path / "o.csv"
        assert cli.main(["fig2", "--bootstrap", "2", "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("gadentropy: error: '--bootstrap': fig2 takes --shots, --seed")
        assert err.count("\n") == 1 and list(tmp_path.iterdir()) == []

    def test_r_grid_too_long_to_run_exits_1_before_it_is_built(self, capsys, monkeypatch):
        # fig2's three p values: a grid past MAX_RUNS // 3 r points can never run.
        def no_grid(*args, **kwargs):
            raise AssertionError("the r grid was built although it is too long to run")

        monkeypatch.setattr(sweep.np, "linspace", no_grid)
        argv = ["fig2", "--r-points", str(sweep.MAX_RUNS // 3 + 1)]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_runs_per_experiment_are_bounded(self):
        # One run per grid row and experiment, up to and including MAX_RUNS = 2047 x 683 rows.
        assert sweep.MAX_RUNS == 2047 * 683
        SweepConfig(p_values=(0.9,) * 2047, r_grid=683)
        for kwargs in (dict(p_values=(0.9,) * 2048, r_grid=683),
                       dict(p_values=(0.9,) * 2048, r_grid=(0.5,) * 683), dict(r_grid=10**13)):
            with pytest.raises(ConfigError, match="grid rows exceed"):
                SweepConfig(**kwargs)

    def test_negative_check_seed_exits_1_before_compute(self, capsys, monkeypatch):
        def no_compute(seed):
            raise AssertionError("property suite ran on a negative seed")

        monkeypatch.setattr(cli.check, "run_property_suite", no_compute)
        assert cli.main(["check", "--seed", "-1"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["fig2", "--shots", "abc"], ["check", "--seed", "abc"],
                                      ["fig2", "--wibble"], ["sweep"], [], ["fig9"],
                                      ["fig2", "--seed"], ["fig2", "--se", "5"],
                                      ["check", "--shots", "5"], ["sweep", "--out", "x.csv"]])
    def test_usage_errors_exit_1(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and err.count("\n") == 1

    def test_config_range_errors_are_config_errors(self):
        for kwargs in (dict(p_values=(0.9, 1.01)), dict(alphas=(-0.1,)),
                       dict(alphas=(math.radians(45.5),)), dict(r_grid=(0.0, 1.5))):
            with pytest.raises(ConfigError):
                SweepConfig(**kwargs)
        SweepConfig(alphas=(0.0, math.pi / 4.0), p_values=(0.5, 1.0))

    @pytest.mark.parametrize("field, value", [
        ("p_values", ("0.9",)), ("r_grid", (None, 1.0)), ("alphas", (0.1j,)), ("p_values", 0.9),
        ("p_values", [[0.9]]), ("alphas", "ab")])
    def test_list_setting_of_non_numbers_is_a_config_error(self, field, value):
        kind = "a point count or a list of points" if field == "r_grid" else "a list of real"
        with pytest.raises(ConfigError, match=f"^{field} must be {kind}"):
            SweepConfig(**{field: value})

    def test_no_compute_patch_fires_on_a_good_config(self, tmp_path, monkeypatch):
        # The CLI computes through `blocks`, so on a good config the patch that
        # the fail-fast tests set is reached: their passing is not vacuous.
        def no_compute(config):
            raise AssertionError("sweep ran")

        monkeypatch.setattr(cli.sw, "blocks", no_compute)
        with pytest.raises(AssertionError, match="sweep ran"):
            cli.main(["fig2", "--r-points", "2", "--out", str(tmp_path / "o.csv")])
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_output_fails_before_compute(self, tmp_path, monkeypatch):
        def no_compute(config):
            raise AssertionError("sweep ran although the output cannot be written")

        monkeypatch.setattr(cli.sw, "blocks", no_compute)
        code = cli.main(["fig2", "--out", str(tmp_path / "missing" / "out.csv")])
        assert code == cli.EXIT_IO

    @pytest.mark.parametrize("out, directory", [("d", "d"), ("d/", "d"), ("", None),
                                                ("x.csv", "x.csv.meta.json")])
    def test_output_target_that_is_no_file_fails_before_compute(self, tmp_path, capsys,
                                                                 monkeypatch, out, directory):
        # Without the check, each ran the whole sweep and then failed to write,
        # the last one after writing x.csv without its sidecar.
        def no_compute(config):
            raise AssertionError("sweep ran although the output cannot be written")

        monkeypatch.setattr(cli.sw, "blocks", no_compute)
        if directory:
            (tmp_path / directory).mkdir()
        code = cli.main(["fig2", "--out", os.path.join(str(tmp_path), out) if out else out])
        err = capsys.readouterr().err
        assert code == cli.EXIT_IO
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ([directory] if directory else [])

    def test_long_out_name_whose_sidecar_fits_is_written(self, tmp_path):
        # 240 bytes under a 255-byte limit: the sidecar's name, 250 bytes, fits,
        # so both files are written, whatever their temporary names, with the
        # permissions the umask gives a new file.
        name = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 15) + ".csv"
        argv = ["fig2", "--shots", "100", "--r-points", "2"]
        assert cli.main(argv + ["--out", str(tmp_path / name)]) == cli.EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [name, name + ".meta.json"]
        umask = os.umask(0)
        os.umask(umask)
        assert {p.stat().st_mode & 0o777 for p in tmp_path.iterdir()} == {0o666 & ~umask}

    @pytest.mark.parametrize("over", [-5, 1], ids=["sidecar", "csv"])
    def test_out_name_too_long_fails_before_compute(self, tmp_path, capsys, monkeypatch, over):
        # 250 bytes under a 255-byte limit leave no room for ".meta.json", and
        # 256 bytes are too long for the CSV itself.
        def no_compute(config):
            raise AssertionError("sweep ran although the output cannot be written")

        monkeypatch.setattr(cli.sw, "blocks", no_compute)
        name = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + over - 4) + ".csv"
        assert cli.main(["fig2", "--out", str(tmp_path / name)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert "-byte limit of" in err and not any(tmp_path.iterdir())


class TestAtomicOutput:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        cfg = fig2_config(**SMALL)
        rows = records(cfg)
        out = tmp_path / "fig2.csv"
        out.write_text("old\n")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            emit_csv([rows], str(out), cfg)
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2.csv"]

    def test_failure_mid_stream_keeps_old_files_and_leaves_no_temp(self, tmp_path, monkeypatch,
                                                                  capsys):
        # fig2 at 2 r points is 6 rows, in blocks of 4: the second block's draw fails
        # once the first block's lines went to the temporary file.
        out, sidecar = tmp_path / "fig2.csv", tmp_path / "fig2.csv.meta.json"
        out.write_bytes(b"old csv\n")
        sidecar.write_bytes(b'{"old": true}\n')
        monkeypatch.setattr(sweep, "BLOCK_ROWS", 4)
        drawn, counts = [], tomography.counts

        def failing(final, shots, rng):
            drawn.append(len(final))
            if len(drawn) == 3:  # the second block's coherent experiment
                assert [p.suffix for p in tmp_path.iterdir()].count(".tmp") == 1
                raise RuntimeError("draw failed")
            return counts(final, shots, rng)

        monkeypatch.setattr(tomography, "counts", failing)
        with pytest.raises(RuntimeError, match="draw failed"):
            cli.main(["fig2", "--shots", "100", "--r-points", "2", "--out", str(out)])
        assert drawn == [4, 4, 2]
        assert (out.read_bytes(), sidecar.read_bytes()) == (b"old csv\n", b'{"old": true}\n')
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2.csv", "fig2.csv.meta.json"]
        assert "wrote" not in capsys.readouterr().out

    @pytest.mark.parametrize("fails", ["open", "dumps"])
    def test_failed_sidecar_write_keeps_old_files_and_leaves_no_temp(self, tmp_path,
                                                                     monkeypatch, capsys, fails):
        # The CSV's 6 rows have streamed in full to its temporary file when the
        # sidecar's temporary file cannot be opened, or its JSON cannot be made.
        out, sidecar = tmp_path / "fig2.csv", tmp_path / "fig2.csv.meta.json"
        out.write_bytes(b"old csv\n")
        sidecar.write_bytes(b'{"old": true}\n')
        argv = ["fig2", "--shots", "100", "--r-points", "2", "--out", str(out)]
        real_open, streamed = open, []

        def fail(error):  # records the lines of each CSV temporary file, then raises
            streamed.append([p.read_bytes().count(b"\n") for p in tmp_path.iterdir()
                             if p.suffix == ".tmp" and ".meta.json." not in p.name])
            raise error

        def opener(file, *args, **kwargs):
            if ".meta.json." in os.path.basename(file):
                fail(OSError("disk full"))
            return real_open(file, *args, **kwargs)

        if fails == "open":
            monkeypatch.setattr(sweep, "open", opener, raising=False)
            assert cli.main(argv) == cli.EXIT_IO
        else:
            monkeypatch.setattr(sweep.json, "dumps", lambda *a, **k: fail(TypeError("no JSON")))
            with pytest.raises(TypeError, match="no JSON"):
                cli.main(argv)
        assert streamed == [[1 + 6]]
        assert (out.read_bytes(), sidecar.read_bytes()) == (b"old csv\n", b'{"old": true}\n')
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2.csv", "fig2.csv.meta.json"]
        assert "wrote" not in capsys.readouterr().out

    def test_sidecar_names_the_csv_it_describes(self, tmp_path, monkeypatch):
        # The sidecar records the byte count and sha256 of the CSV written beside it,
        # hashed as the CSV streams: fig2 at 2 r points is the header and two blocks.
        out, sidecar = tmp_path / "fig2.csv", tmp_path / "fig2.csv.meta.json"
        monkeypatch.setattr(sweep, "BLOCK_ROWS", 4)

        def names_the_csv():
            data = out.read_bytes()
            return json.loads(sidecar.read_text())["csv"] == {
                "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}

        cfg = fig2_config(shots=100, r_grid=2)
        emit_csv(sweep.blocks(cfg), str(out), cfg)
        assert out.read_bytes().count(b"\n") == 1 + 6 and names_the_csv()
        # A failure between the two renames leaves the new CSV beside the old sidecar,
        # which then no longer names it.
        replace = os.replace

        def csv_only(src, dst):
            if dst.endswith(".meta.json"):
                raise OSError("rename failed")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", csv_only)
        cfg = fig2_config(shots=100, r_grid=2, seed=1)
        with pytest.raises(OSError, match="rename failed"):
            emit_csv(sweep.blocks(cfg), str(out), cfg)
        assert not names_the_csv()

    def test_counters_in_sidecar_and_summary(self, tmp_path):
        cfg = SweepConfig(p_values=(0.9, 1.0), **dict(SMALL, shots=20))
        rows = records(cfg)
        out = tmp_path / "run.csv"
        counts = emit_csv(sweep.blocks(cfg), str(out), cfg)
        counters = json.loads((tmp_path / "run.csv.meta.json").read_text())["counters"]
        assert counters["indeterminate_rows"] == 3
        assert counters["projected_observed_runs"] == sum(r["projected"] for r in rows) > 0
        assert list(counters) == ["indeterminate_rows", "projected_observed_runs",
                                  "covered_total", "covered_pop", "covered_coh"]
        assert counts == {"rows": 6, **counters, "max_additivity_gap": counts["max_additivity_gap"]}
        summary = emit_summary(counts)
        assert (f"observed runs projected into the Bloch ball: "
                f"{counters['projected_observed_runs']}") in summary
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.csv.meta.json"]

    @pytest.mark.parametrize("config", [
        fig2_config(), fig3_config(),
        SweepConfig(p_values=BENCH_P_VALUES, alphas=tuple(map(alpha_for_coherence,
                                                               BENCH_COHERENCES)),
                    r_grid=101)], ids=["fig2", "fig3", "grid"])
    def test_counters_are_direct_counts_over_the_records(self, tmp_path, config):
        # The tally of the streamed blocks against a count, row by row, over
        # the joined records; the grid is the pinned 5555-row one, with 505 p = 1 rows.
        counts = emit_csv(sweep.blocks(config), str(tmp_path / "run.csv"), config)
        counters = json.loads((tmp_path / "run.csv.meta.json").read_text())["counters"]
        rows = records(config).tolist()
        names = SWEEP_DTYPE.names
        want = {"rows": len(rows), "indeterminate_rows": 0, "projected_observed_runs": 0,
                "covered_total": 0, "covered_pop": 0, "covered_coh": 0,
                "max_additivity_gap": 0.0}
        for record in rows:
            row = dict(zip(names, record))
            want["projected_observed_runs"] += row["projected"]
            if row["indeterminate"]:
                want["indeterminate_rows"] += 1
                continue
            for part in ("total", "pop", "coh"):
                value, lo, hi = (row[f"sigma_{part}{end}"] for end in ("", "_tomo_lo", "_tomo_hi"))
                want[f"covered_{part}"] += lo - 1e-12 <= value <= hi + 1e-12
            want["max_additivity_gap"] = max(want["max_additivity_gap"], abs(
                row["sigma_total"] - (row["sigma_pop"] + row["sigma_coh"])))
        assert counts == want
        assert counters == {key: want[key] for key in counters} and len(counters) == 5
        assert want["indeterminate_rows"] == (505 if len(rows) == 5555 else 0)
