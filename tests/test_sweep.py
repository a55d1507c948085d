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

import numpy as np
import pytest
from conftest import frequencies, length_z, nearest_states, random_state

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
    run_sweep,
)

SMALL = dict(shots=500, n_bootstrap=5, seed=99, r_grid=(0.0, 0.5, 1.0))


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

    @pytest.mark.parametrize("field, value", [("shots", 2.5), ("n_bootstrap", 2.5),
                                              ("seed", 1.5)])
    def test_non_integer_setting_rejected(self, field, value):
        # A float shot count would draw binomials at int(shots) and divide by shots.
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            SweepConfig(**{field: value})

    def test_numpy_integer_settings_accepted(self, tmp_path):
        # A float32 entry is stored as a Python float, which the sidecar's JSON can write.
        cfg = SweepConfig(shots=np.int64(500), n_bootstrap=np.int64(5), seed=np.int64(99),
                          r_grid=np.int64(5), p_values=(np.float32(0.75),),
                          output_path=str(tmp_path / "np.csv"))
        plain = SweepConfig(shots=500, n_bootstrap=5, seed=99, r_grid=5, p_values=(0.75,))
        assert (cfg.shots, cfg.n_bootstrap, cfg.seed, cfg.r_grid) == (500, 5, 99, plain.r_grid)
        rows = run_sweep(cfg)
        assert rows.tobytes() == run_sweep(plain).tobytes()
        emit_csv(rows, cfg.output_path, cfg)  # the sidecar's JSON takes the settings

    def test_non_integer_r_grid_count_rejected(self):
        with pytest.raises(ConfigError, match="point count or a list of points"):
            SweepConfig(r_grid=5.0)

    def test_array_valued_lists_run_like_tuples(self):
        rows = run_sweep(fig2_config(**{**SMALL, "p_values": np.array([0.9, 0.75])}))
        want = run_sweep(fig2_config(**{**SMALL, "p_values": (0.9, 0.75)}))
        assert rows.tobytes() == want.tobytes()

    def test_degrees_units(self, tmp_path):
        path = tmp_path / "deg.cfg"
        path.write_text("alpha_deg = 9.22, 45\n")
        assert load_config(str(path)).alphas == (math.radians(9.22), math.pi / 4.0)

    def test_scenario_picks_the_preset_the_file_starts_from(self, tmp_path):
        path = tmp_path / "fig3.cfg"
        path.write_text("scenario = fig3\nshots = 100\nn_bootstrap = 2\nr_points = 2\n")
        assert load_config(str(path)) == fig3_config(shots=100, n_bootstrap=2, r_grid=2)

    @pytest.mark.parametrize("line", ["coherence = 0.5, 1.5", "alpha_deg = 0, 45.5",
                                      "alpha_deg = -5e-324", "p_values = 0.3", "r_grid = 0, 2",
                                      "shots = 0", "n_bootstrap = 1", "seed = -1",
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
        emit_csv(run_sweep(cfg), cfg.output_path, cfg)
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
        rows = run_sweep(fig2_config(**SMALL))
        assert len(rows) == 9  # 3 p-values x 3 r-values
        keys = [(r.p, r.alpha_deg, r.r) for r in rows]
        assert keys == sorted(keys, key=lambda k: (-k[0], k[1], k[2]))

    def test_r_zero_rows_are_zero(self):
        rows = run_sweep(fig2_config(**SMALL))
        for row in rows:
            if row.r == 0.0:
                assert row.sigma_total == pytest.approx(0.0, abs=1e-10)
                assert row.sigma_pop == pytest.approx(0.0, abs=1e-10)
                assert row.sigma_coh == pytest.approx(0.0, abs=1e-10)

    def test_fig2_anchor_row(self):
        rows = run_sweep(fig2_config(**SMALL))
        anchor = [r for r in rows if r.p == 0.9 and r.r == 1.0][0]
        assert anchor.sigma_total == pytest.approx(1.203973, abs=1e-6)
        assert anchor.sigma_pop == pytest.approx(0.510826, abs=1e-6)
        assert anchor.sigma_coh == pytest.approx(0.693147, abs=1e-6)

    @pytest.mark.parametrize("make", [fig2_config, fig3_config])
    def test_additivity_of_analytic_columns(self, make):
        # The coherence column is the direct value; the difference of the two
        # experiments' columns (total - pop) must agree with it.
        rows = run_sweep(make(**SMALL))
        for row in rows:
            assert row.sigma_total == pytest.approx(
                row.sigma_pop + row.sigma_coh, abs=1e-10
            )

    def test_fig3_population_identical_across_coherences(self):
        rows = run_sweep(fig3_config(**SMALL))
        by_r = {}
        for row in rows:
            by_r.setdefault(row.r, []).append(row.sigma_pop)
        for values in by_r.values():
            assert len(values) == 3
            assert max(values) - min(values) < 1e-12

    def test_fig3_smaller_coherence_smaller_sigma_coh(self):
        rows = run_sweep(fig3_config(**SMALL))
        at_r1 = sorted(
            (r for r in rows if r.r == 1.0), key=lambda r: r.coherence_initial
        )
        values = [r.sigma_coh for r in at_r1]
        assert values == sorted(values)

    def test_p1_rows_flagged_indeterminate(self):
        cfg = SweepConfig(
            scenario="custom", p_values=(1.0,), alphas=(0.0,), **SMALL,
        )
        rows = run_sweep(cfg)
        assert all(row.indeterminate == 1 for row in rows)
        assert all(math.isnan(row.sigma_total) for row in rows)

    def test_tomography_close_to_analytic_at_high_shots(self):
        cfg = fig2_config(shots=100_000, n_bootstrap=10, seed=5, r_grid=(0.5,))
        rows = run_sweep(cfg)
        for row in rows:
            assert abs(row.sigma_total_tomo - row.sigma_total) < 0.02
            assert abs(row.sigma_pop_tomo - row.sigma_pop) < 0.02

    def test_each_preparation_is_evolved_once(self, monkeypatch):
        # fig2's 63 rows: the coherent preparation, then the dephased one, evolved only
        # after experiment 1 is measured.
        calls, gad, estimates = [], bloch.gad, tomography.estimates

        def spy(b, p, r):
            calls.append(("gad", len(b)))
            return gad(b, p, r)

        def measured(*args, **kwargs):
            calls.append(("estimates",))
            return estimates(*args, **kwargs)

        monkeypatch.setattr(bloch, "gad", spy)
        monkeypatch.setattr(tomography, "estimates", measured)
        run_sweep(fig2_config())
        assert calls == [("gad", 63), ("estimates",), ("gad", 63), ("estimates",)]


class TestEmit:
    def test_empty_rows_rejected_and_no_file(self, tmp_path):
        out = tmp_path / "never.csv"
        with pytest.raises(IOError):
            emit_csv([], str(out), SweepConfig())
        assert not out.exists()

    def test_metadata_sidecar(self, tmp_path):
        cfg = fig2_config(**SMALL)
        rows = run_sweep(cfg)
        out = tmp_path / "fig2.csv"
        emit_csv(rows, str(out), cfg)
        meta = (tmp_path / "fig2.csv.meta.json").read_text()
        assert "rng_algorithm" in meta
        assert "bootstrap" in meta
        manifest = json.loads(meta)
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
            rows.append((*values, indeterminate, k))
            want.append(",".join([format(v, ".12g") for v in values] + [str(indeterminate)]))
        out = tmp_path / "contract.csv"
        emit_csv(np.array(rows, SWEEP_DTYPE), str(out), SweepConfig())
        assert out.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")
        assert sweep._CSV_LINE.count("%") == len(sweep._CSV_LINE.split(",")) == len(CSV_COLUMNS)
        assert SWEEP_DTYPE.names == (*CSV_COLUMNS, "projected")

    def test_csv_bytes_across_blocks_follow_the_number_format(self, tmp_path):
        # The grid-axis columns cycle through one pool with a different stride
        # each, so every block, the short last one too, repeats values of the
        # others.  0.3 and 0.1 + 0.2, and 1 and 1 + 1e-13, differ in their bits
        # but print alike; the NaNs carry three bit patterns.
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000],
                        dtype=np.uint64).view(float).tolist()
        pool = [-0.0, 0.0, *nans, math.inf, -math.inf, 0.3, 0.1 + 0.2, 1.0, 1.0 + 1e-13,
                1.0 / 3.0, 5e-324, 0.55]
        n = 2 * sweep._CSV_BLOCK + 3
        rows, want = np.zeros(n, SWEEP_DTYPE), [",".join(CSV_COLUMNS)]
        for k, name in enumerate(CSV_COLUMNS[:4]):
            rows[name] = [pool[(i * (2 * k + 1) + k) % len(pool)] for i in range(n)]
        for k, name in enumerate(CSV_COLUMNS[4:13]):
            rows[name] = np.arange(n) * (k + 0.1) / 7.0
        rows["indeterminate"] = np.arange(n) % 3 == 0
        for record in rows.tolist():
            want.append(",".join([format(v, ".12g") for v in record[:13]] + [str(record[13])]))
        out = tmp_path / "blocks.csv"
        emit_csv(rows, str(out), SweepConfig())
        assert out.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")

    def test_seed_beyond_uint64_is_written_exactly(self, tmp_path):
        cfg = fig2_config(**dict(SMALL, seed=2**70))
        out = tmp_path / "big.csv"
        emit_csv(run_sweep(cfg), str(out), cfg)
        lines = out.read_text().splitlines()
        assert len(lines) == 10 and len(lines[0].split(",")) == 14
        # The sidecar is the one record of the seed; the rows hold no object column.
        meta = (tmp_path / "big.csv.meta.json").read_text()
        assert f'"seed": {2**70},' in meta
        assert json.loads(meta)["config"]["seed"] == 2**70
        assert object not in [SWEEP_DTYPE[name] for name in SWEEP_DTYPE.names]

    def test_summary_reports(self):
        rows = run_sweep(fig2_config(**SMALL))
        text = emit_summary(rows)
        assert "additivity" in text
        assert "tomography" in text

    def test_summary_reports_z_score_spread(self):
        def row(total_z, pop_z, indeterminate=0):
            # Analytic 1.0 and 0.5, stderr 0.1: the z-scores are total_z and pop_z.
            return (0.9, 0.5, 0.0, 1.0, 1.0, 0.5, 0.5, 1.0 - 0.1 * total_z, 0.1,
                    0.5 + 0.1 * pop_z, 0.1, 0.5, 0.1, indeterminate, 0)

        lines = emit_summary(np.array([row(0.5, 1.0), row(3.0, 0.0), row(2.5, 1.5),
                                       row(9.0, 9.0, indeterminate=1)], SWEEP_DTYPE)).splitlines()
        assert "max |tomography - analytic|: 3.000e-01 (3.00 stderr)" in lines
        assert ("|tomography - analytic| / stderr over 6 estimates: median 1.25, "
                "fraction above 2: 0.333") in lines
        only_p1 = emit_summary(np.array([row(9.0, 9.0, indeterminate=1)], SWEEP_DTYPE))
        assert "/ stderr over 0 estimates: none" in only_p1

    @pytest.mark.parametrize("bad, shown", [(math.nan, "nan (nan stderr)"),
                                            (math.inf, "inf (inf stderr)")])
    def test_summary_shows_a_nonfinite_deviation(self, bad, shown):
        # Analytic 1.0 and 0.5, stderr 0.1; the second row's population estimate is `bad`.
        rows = np.array([(0.9, 0.5, 0.0, 1.0, 1.0, 0.5, 0.5, 1.3, 0.1, 0.5, 0.1, 0.5, 0.1, 0, 0),
                         (0.9, 0.5, 0.0, 1.0, 1.0, 0.5, 0.5, 1.0, 0.1, bad, 0.1, 0.5, 0.1, 0, 0)],
                        SWEEP_DTYPE)
        assert f"max |tomography - analytic|: {shown}" in emit_summary(rows).splitlines()


class TestPropertySuite:
    def test_passes_at_every_seed_from_0_to_49(self):
        # The benchmark runs `check` at arbitrary seeds: no drawn case may
        # fail a row at its tolerance.
        failed = [seed for seed in range(50) if not run_property_suite(seed).passed]
        assert failed == []

    # `check` must fail when the Bloch closed forms the sweep runs drift by 1e-9.
    @staticmethod
    def failed_rows(capsys) -> list[str]:
        assert cli.main(["check"]) == cli.EXIT_PROPERTY_FAILURE
        return [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                if line.startswith("[FAIL] ")]

    def test_perturbed_gad_fails_the_closed_form_row(self, capsys, monkeypatch):
        gad = bloch.gad
        shrink_error = (1.0 + 1e-9, 1.0 + 1e-9, 1.0)
        monkeypatch.setattr(bloch, "gad", lambda b, p, r: gad(b, p, r) * shrink_error)
        assert self.failed_rows(capsys) == ["[FAIL] closed-form evolved state (9x11x11 grid)"]

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

    # The row scores (before, after) as one (2, 500) stack: "nan" spoils case 7
    # along the case axis.
    @pytest.mark.parametrize("perturb", [
        lambda d: -d, lambda d: np.where(np.arange(d.shape[-1]) == 7, np.nan, d)],
        ids=["sign", "nan"])
    def test_perturbed_relative_entropy_fails_the_contractivity_row(self, capsys, monkeypatch,
                                                                     perturb):
        relative_entropies = qstate.relative_entropies
        monkeypatch.setattr(qstate, "relative_entropies",
                            lambda rho, sigma: perturb(relative_entropies(rho, sigma)))
        assert self.failed_rows(capsys) == [
            "[FAIL] relative-entropy contractivity (500 random cases)"]

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
        report = run_property_suite(seed=1234)
        assert report.passed, report.render()

    def test_suite_passes_under_the_bench_tracer(self):
        # The benchmark's tracer wraps every public function and reads the
        # per-state results as Python floats (math.isfinite on each field).
        spec = importlib.util.spec_from_file_location(
            "spans", pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        with spans.Tracer() as tracer:
            report = run_property_suite(seed=1)
            gadentropy.budget(gadentropy.prepare(PrepSetting(0.0)), GadChannel(0.9, 0.5))
            with pytest.raises(gadentropy.IndeterminateEntropyError):
                gadentropy.budget(gadentropy.prepare(PrepSetting(0.0)), GadChannel(1.0, 0.5))
        assert report.render().endswith("\nALL PASS"), report.render()
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
            "fig2", "--shots", "200", "--bootstrap", "3", "--seed", "1",
            "--r-points", "3", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "wrote 9 rows" in capsys.readouterr().out

    def test_fig3_writes_csv(self, tmp_path):
        out = tmp_path / "f3.csv"
        code = cli.main([
            "fig3", "--shots", "200", "--bootstrap", "3", "--seed", "1",
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
        ("--shots", "shots", "123"), ("--bootstrap", "n_bootstrap", "7"),
        ("--seed", "seed", "5"), ("--out", "out", "x.csv"), ("--r-points", "r_points", "4")])
    def test_each_flag_sets_what_its_config_key_sets(self, tmp_path, monkeypatch, flag, key,
                                                     value):
        base = "p_values = 0.8\ncoherence = 0.6\n"
        with_key, plain = tmp_path / "key.cfg", tmp_path / "plain.cfg"
        with_key.write_text(f"{base}{key} = {value}\n")
        plain.write_text(base)
        ran = []
        monkeypatch.setattr(cli, "_run_and_emit", lambda config: ran.append(config) or 0)
        assert cli.main(["sweep", "--config", str(plain), flag, value]) == 0
        assert ran == [load_config(str(with_key))]
        assert ran[0] != load_config(str(plain))

    @pytest.mark.parametrize("argv", [["check"], ["fig2", "--bootstrap", "2", "--r-points", "2"]])
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

    def test_config_keys_and_argv_the_benchmark_writes(self, tmp_path):
        # bench/run.py (build_spec) writes this grid config and these argv shapes.
        p_values = tuple(0.5 + 0.05 * i for i in range(10)) + (1.0,)
        config = tmp_path / "grid.cfg"
        config.write_text(
            "scenario = custom\n"
            f"p_values = {', '.join(repr(p) for p in p_values)}\n"
            f"coherence = {', '.join(repr(c) for c in (1.0, 0.8, 0.6, 0.4, 0.2))}\n"
            "r_points = 101\n"
            "shots = 10000\n"
            "n_bootstrap = 2\n"
            "seed = 3\n"
        )
        cfg = load_config(str(config))
        assert (cfg.scenario, cfg.p_values, len(cfg.alphas), len(cfg.r_grid)) == (
            "custom", p_values, 5, 101)
        assert (cfg.shots, cfg.n_bootstrap, cfg.seed) == (10_000, 2, 3)
        parser = cli.build_parser()
        for argv in (["fig2", "--seed", "3", "--out", "iter0.csv"],
                     ["sweep", "--config", str(config), "--out", "iter0.csv"],
                     ["check", "--seed", "3"]):
            assert parser.parse_args(argv).command == argv[0]


class TestArrayPathMatchesStates:
    """The sweep's vectorized estimates against the 2x2 matrix reference: each
    estimate projected onto the Frobenius-nearest state by `eigh`
    (`nearest_states`), all scored in one stack as D(initial || eq) -
    D(estimate || eq), of the dephased states for the population part."""

    @staticmethod
    def per_state(initial, p, freqs, population):
        """(point, stderr) from one row's basis-major frequencies (4, runs)."""
        final = nearest_states(qstate.bloch_matrices(np.stack(bloch.invert(freqs.T), axis=-1)))
        initial = initial.matrix
        if population:
            initial, final = qstate.dephased(initial), qstate.dephased(final)
        eq = channel.equilibrium_states(p)
        values = qstate.relative_entropies(initial, eq) - qstate.relative_entropies(final, eq)
        return float(values[0]), float(np.std(values[1:], ddof=1))

    @pytest.mark.parametrize("shots", [50, 10_000])
    def test_estimates_match_per_state_path(self, shots):
        # Any pair of states: prepared and measured ones drawn uniformly in the ball, apart.
        rng = np.random.default_rng(shots)
        p = rng.uniform(0.5, 0.99, size=12)
        initial, final = (np.array([random_state(rng).bloch_vector() for _ in range(12)])
                          for _ in range(2))
        freqs = frequencies(bloch.born_probabilities(final), shots, 7, 40)
        for population in (False, True):
            point, stderr, _ = tomography.estimates(*tomography.counts(final, shots, 7),
                                                    length_z(initial), p, shots, 40, population)
            for k in range(12):
                want = self.per_state(QubitState.from_bloch(*initial[k]), p[k], freqs[k],
                                      population)
                assert point[k] == pytest.approx(want[0], abs=1e-12)
                assert stderr[k] == pytest.approx(want[1], abs=1e-12)

    def test_rows_reproduce_from_config_seed(self):
        # Experiment e draws all determinate rows, in row order, from the one
        # generator default_rng((config.seed, e)); p = 1 rows draw nothing.
        cfg = SweepConfig(p_values=(0.9, 1.0, 0.6),
                          alphas=tuple(map(alpha_for_coherence, (0.8, 0.6, 0.4))), **SMALL)
        rows = [row for row in run_sweep(cfg) if not row.indeterminate]
        assert len(rows) == 18
        experiments = (
            (1, lambda row: prepare(PrepSetting(math.radians(row.alpha_deg))), False),
            (2, lambda row: QubitState(qstate.dephased(prepare(PrepSetting(0.0)).matrix)), True),
        )
        got = [[] for _ in rows]
        for e, initial, population in experiments:
            probs = [bloch.born_probabilities(
                apply(GadChannel(row.p, row.r), initial(row)).bloch_vector()) for row in rows]
            freqs = frequencies(np.array(probs), cfg.shots, (cfg.seed, e), cfg.n_bootstrap)
            for k, row in enumerate(rows):
                got[k] += self.per_state(initial(row), row.p, freqs[k], population)
        for row, values in zip(rows, got):
            want = (row.sigma_total_tomo, row.sigma_total_tomo_stderr,
                    row.sigma_pop_tomo, row.sigma_pop_tomo_stderr)
            assert values == pytest.approx(want, abs=1e-12)

    def test_determinate_rows_are_finite_next_to_p_one(self):
        # A row is determinate once 1 - p > ATOL; every projected estimate then
        # has a finite D, even at 3 shots, where many fall outside the ball.
        tomo = [name for name in CSV_COLUMNS if "_tomo" in name]
        rows = run_sweep(fig3_config(p_values=(1.0 - 2e-12,), shots=3))
        assert len(tomo) == 6 and len(rows) == 63 and not rows.indeterminate.any()
        assert all(np.isfinite(rows[name]).all() for name in tomo)
        assert rows.projected.sum() > 0
        rows = run_sweep(fig3_config(p_values=(1.0 - 1e-12,), shots=3))
        assert rows.indeterminate.all() and rows.projected.sum() == 0

    def test_projections_are_counted(self):
        # At 2 shots every Bloch component is a multiple of 1/2, so runs fall
        # inside the ball, exactly on its surface (not projected) and outside it.
        p, r = np.full(20, 0.8), np.linspace(0.0, 1.0, 20)
        prepared = np.zeros((20, 3))
        prepared[:, 0] = 1.0
        final = bloch.gad(prepared, p, r)
        freqs = frequencies(bloch.born_probabilities(final), 2, 5, 6)
        x, y, z = bloch.invert(freqs.swapaxes(-1, -2))
        squared = x * x + y * y + z * z
        assert (squared < 1.0).any() and (squared == 1.0).any() and (squared > 1.0).any()
        _, _, projected = tomography.estimates(*tomography.counts(final, 2, 5),
                                               length_z(prepared), p, 2, 6, True)
        assert projected.tolist() == np.sum(squared > 1.0, axis=-1).tolist()


class TestStreams:
    @pytest.mark.parametrize("block_runs", [1, 8, 100, 2**20])
    def test_blocks_join_to_one_stream_at_any_block_size(self, monkeypatch, block_runs):
        # 50 rows of 1 + 7 runs: blocks of max(1, block_runs // 8) rows, the last one short.
        rng = np.random.default_rng(5)
        prepared = rng.uniform(-0.5, 0.5, size=(50, 3))
        p, r = rng.uniform(0.5, 0.99, size=50), rng.uniform(size=50)
        initial, final = length_z(prepared), bloch.gad(prepared, p, r)
        want = [tomography.estimates(*tomography.counts(final, 500, 11), initial, p, 500, 7,
                                     population) for population in (False, True)]
        blocks, invert = [], bloch.invert

        def spy(freqs):
            blocks.append(len(freqs))
            return invert(freqs)

        monkeypatch.setattr(tomography, "BLOCK_RUNS", block_runs)
        monkeypatch.setattr(bloch, "invert", spy)
        for population, expected in zip((False, True), want):
            blocks.clear()
            got = tomography.estimates(*tomography.counts(final, 500, 11), initial, p, 500, 7,
                                       population)
            rows = max(1, block_runs // 8)
            assert all(size == rows for size in blocks[:-1]) and 0 < blocks[-1] <= rows
            assert sum(blocks) == 50 and np.array_equal(got, expected)

    def test_stream_is_the_documented_order_of_binomial_draws(self, monkeypatch):
        # One scalar draw at a time: every row's observed count per basis (H, V, R, D),
        # then per row and basis its resamples at the observed frequency.  `counts`
        # draws the first part; `estimates`, continuing its generator, the second.
        final = np.random.default_rng(5).uniform(-0.5, 0.5, size=(3, 3))
        probs = bloch.born_probabilities(final)
        rng = np.random.default_rng(11)
        counts = np.array([[rng.binomial(500, q) for q in row] for row in probs])
        resampled = np.array([[[rng.binomial(500, n / 500) for _ in range(7)] for n in row]
                              for row in counts])
        want = np.concatenate([counts[..., None], resampled], axis=-1) / 500
        assert np.array_equal(frequencies(probs, 500, 11, 7), want)

        observed, generator = tomography.counts(final, 500, 11)
        assert observed.tolist() == counts.tolist()
        scored, invert = [], bloch.invert

        def spy(freqs):
            scored.append(freqs.swapaxes(-1, -2).copy())  # the buffer is reused per block
            return invert(freqs)

        monkeypatch.setattr(bloch, "invert", spy)
        tomography.estimates(observed, generator, length_z(final), np.full(3, 0.8), 500, 7, False)
        assert np.array_equal(np.concatenate(scored), want)

    def test_sweep_holds_one_block_of_runs_at_a_time(self, monkeypatch):
        # 32 runs per row, and rows for more than three blocks per experiment.
        runs, invert = [], bloch.invert

        def spy(freqs):
            runs.append(freqs.size // 4)
            return invert(freqs)

        monkeypatch.setattr(bloch, "invert", spy)
        config = SweepConfig(p_values=(0.9,), r_grid=3 * tomography.BLOCK_RUNS // 32 + 5,
                             shots=100, n_bootstrap=31)
        run_sweep(config)
        assert len(runs) >= 2 * 4 and max(runs) <= tomography.BLOCK_RUNS

    # The bound on the traced peak per row, per numpy version, whose allocations set
    # it; under an unrecorded version the test skips without measuring.
    PEAK_BYTES_PER_ROW = {"2.4.6": 360}

    def test_grid_sweep_peak_memory_per_row(self):
        # The second run in the process of a grid-shaped sweep, 11 p x 5 coherences x
        # 500 r = 27,500 rows with 2 resamples, under tracemalloc.  Each experiment
        # drawing and scoring its counts before the next is evolved read 325.4 B/row;
        # drawing both experiments' counts before scoring either read 381.0.
        bound = self.PEAK_BYTES_PER_ROW.get(np.__version__)
        if bound is None:
            pytest.skip(f"did not measure: no bound recorded for numpy {np.__version__}")
        config = SweepConfig(p_values=tuple(0.5 + 0.05 * i for i in range(10)) + (1.0,),
                             alphas=tuple(map(alpha_for_coherence, (1.0, 0.8, 0.6, 0.4, 0.2))),
                             r_grid=500, n_bootstrap=2)
        run_sweep(config)
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_sweep(config)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / 27_500 <= bound, f"{peak / 27_500:.1f} B/row"


class TestErrorBarCoverage:
    """95% intervals (estimate +- 1.96 stderr) cover the analytic production.

    Each point is one sweep over TRIALS copies of a grid point, so every row
    is an independent run with its own bootstrap.  The bounds are nominal
    coverage +- 4 binomial sigma of the trial count.
    """

    TRIALS = 1000
    SIGMA = math.sqrt(0.95 * 0.05 / TRIALS)
    LOW, HIGH = 0.95 - 4.0 * SIGMA, 0.95 + 4.0 * SIGMA

    @classmethod
    def coverage(cls, p, c, r, shots):
        rows = run_sweep(SweepConfig(p_values=(p,) * cls.TRIALS, alphas=(alpha_for_coherence(c),),
                                     r_grid=(r,), shots=shots, n_bootstrap=200, seed=2024))
        want = entropy_budget(QubitState.from_bloch(c, 0.0, 0.0), GadChannel(p, r))
        return tuple(
            np.mean([abs(getattr(row, f"sigma_{name}_tomo") - value)
                     <= 1.96 * getattr(row, f"sigma_{name}_tomo_stderr") for row in rows])
            for name, value in (("total", want.total), ("pop", want.population),
                                ("coh", want.coherence)))

    @pytest.mark.parametrize("p, c, r, shots", [
        (0.9, 1.0, 0.5, 10_000), (0.6, 0.6, 0.2, 10_000), (0.75, 0.4, 0.8, 1_000),
    ])
    def test_total_and_population_calibrated(self, p, c, r, shots):
        total, population, coherence = self.coverage(p, c, r, shots)
        assert self.LOW <= total <= self.HIGH
        assert self.LOW <= population <= self.HIGH
        assert self.LOW <= coherence <= self.HIGH

    @pytest.mark.xfail(strict=True, reason="population coverage is 0.914 here (0.909 with the "
                       "0.4.0 draws): the bootstrap under-covers at 500 shots near r = 1")
    def test_population_at_500_shots(self):
        assert self.LOW <= self.coverage(0.9, 1.0, 0.95, 500)[1] <= self.HIGH


def _write_config(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(f"shots = 100\nn_bootstrap = 3\nout = {tmp_path / 'o.csv'}\n" + body,
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
    ])
    def test_bad_config_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch, body, words):
        def no_compute(config):
            raise AssertionError("sweep ran on a bad config")

        monkeypatch.setattr(cli.sw, "run_sweep", no_compute)
        code = cli.main(["sweep", "--config", str(_write_config(tmp_path, body))])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert err.startswith("config error:") and err.count("\n") == 1
        assert words in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--shots", "0", "shots must be in [1, 2**63 - 1], got 0"),
        ("--bootstrap", "1", "n_bootstrap must be >= 2, got 1"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--shots", str(2**63), "shots must be in [1, 2**63 - 1], got 9223372036854775808")])
    def test_out_of_range_setting_is_named_before_compute(self, capsys, monkeypatch, flag,
                                                          value, message):
        def no_compute(config):
            raise AssertionError("sweep ran on an out-of-range setting")

        monkeypatch.setattr(cli.sw, "run_sweep", no_compute)
        assert cli.main(["fig2", flag, value]) == cli.EXIT_USAGE
        key = {name: key for name, key, _ in cli._FLAGS}[flag]
        err = capsys.readouterr().err
        assert err == f"config error: {flag}: bad value for '{key}': {message}\n"

    @pytest.mark.parametrize("flag, value", [("--shots", "abc"), ("--r-points", "1")])
    def test_bad_flag_value_names_the_flag(self, capsys, flag, value):
        assert cli.main(["fig2", flag, value]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {flag}:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [("--r-points", "10000000000000"),
                                             ("--bootstrap", "1000000000000")])
    def test_sweep_too_large_to_hold_exits_1_before_compute(self, tmp_path, capsys,
                                                            monkeypatch, flag, value):
        # Without the bound, the r grid or the resample draw asks numpy for
        # terabytes, which fails at once with a MemoryError traceback.
        def no_compute(config):
            raise AssertionError("sweep ran although it is too large to hold")

        monkeypatch.setattr(cli.sw, "run_sweep", no_compute)
        out = tmp_path / "o.csv"
        assert cli.main(["fig2", flag, value, "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_r_grid_too_long_to_run_exits_1_before_it_is_built(self, capsys, monkeypatch):
        # 1 + n_bootstrap >= 3 runs per row, so a grid past MAX_RUNS // 3 can never run.
        def no_grid(*args, **kwargs):
            raise AssertionError("the r grid was built although it is too long to run")

        monkeypatch.setattr(sweep.np, "linspace", no_grid)
        argv = ["fig2", "--r-points", str(sweep.MAX_RUNS // 3 + 1)]
        assert cli.main(argv) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_runs_per_experiment_are_bounded(self):
        # grid rows x (1 + n_bootstrap) runs, up to and including MAX_RUNS.
        two_rows = dict(p_values=(0.9,), alphas=(0.0,), r_grid=(0.0, 1.0))
        SweepConfig(**two_rows, n_bootstrap=sweep.MAX_RUNS // 2 - 1)
        for kwargs in (dict(two_rows, n_bootstrap=sweep.MAX_RUNS // 2),
                       dict(n_bootstrap=10**12), dict(r_grid=(0.5,) * 10**5)):
            with pytest.raises(ConfigError, match="runs exceed"):
                SweepConfig(**kwargs)
        with pytest.raises(ConfigError, match="runs exceed"):
            SweepConfig(r_grid=10**13)

    def test_negative_check_seed_exits_1_before_compute(self, capsys, monkeypatch):
        def no_compute(seed):
            raise AssertionError("property suite ran on a negative seed")

        monkeypatch.setattr(cli.check, "run_property_suite", no_compute)
        assert cli.main(["check", "--seed", "-1"]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["fig2", "--shots", "abc"], ["check", "--seed", "abc"],
                                      ["fig2", "--wibble"], ["sweep"], []])
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

    def test_unwritable_output_fails_before_compute(self, tmp_path, monkeypatch):
        def no_compute(config):
            raise AssertionError("sweep ran although the output cannot be written")

        monkeypatch.setattr(cli.sw, "run_sweep", no_compute)
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

        monkeypatch.setattr(cli.sw, "run_sweep", no_compute)
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
        argv = ["fig2", "--shots", "100", "--bootstrap", "2", "--r-points", "2"]
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

        monkeypatch.setattr(cli.sw, "run_sweep", no_compute)
        name = "a" * (os.pathconf(tmp_path, "PC_NAME_MAX") + over - 4) + ".csv"
        assert cli.main(["fig2", "--out", str(tmp_path / name)]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and err.count("\n") == 1
        assert "-byte limit of" in err and not any(tmp_path.iterdir())


class TestAtomicOutput:
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        cfg = fig2_config(**SMALL)
        rows = run_sweep(cfg)
        out = tmp_path / "fig2.csv"
        out.write_text("old\n")

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError):
            emit_csv(rows, str(out), cfg)
        assert out.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig2.csv"]

    def test_counters_in_sidecar_and_summary(self, tmp_path):
        cfg = SweepConfig(p_values=(0.9, 1.0), **dict(SMALL, shots=20))
        rows = run_sweep(cfg)
        out = tmp_path / "run.csv"
        emit_csv(rows, str(out), cfg)
        counters = json.loads((tmp_path / "run.csv.meta.json").read_text())["counters"]
        assert counters["indeterminate_rows"] == 3
        assert counters["projected_reconstructions"] == sum(r.projected for r in rows) > 0
        assert sorted(counters) == ["indeterminate_rows", "projected_reconstructions"]
        summary = emit_summary(rows)
        assert f"projected into the Bloch ball: {counters['projected_reconstructions']}" in summary
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.csv.meta.json"]
