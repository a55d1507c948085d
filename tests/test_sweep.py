import importlib.util
import json
import math
import operator
import os
import pathlib
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

import gadentropy
from gadentropy import bloch, channel, cli, qstate, sweep
from gadentropy.budget import budget as entropy_budget
from gadentropy.budget import population_productions, total_productions
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
    production_estimates,
    run_sweep,
)
from gadentropy.tomography import draw_frequencies, project_to_physical

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

    def test_bad_r_grid_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(r_grid=(0.0, 1.5))

    def test_degrees_units(self, tmp_path):
        path = tmp_path / "deg.cfg"
        path.write_text("alpha_deg = 9.22, 45\n")
        assert load_config(str(path)).alphas == (math.radians(9.22), math.pi / 4.0)

    @pytest.mark.parametrize("line", ["coherence = 0.5, 1.5", "alpha_deg = 0, 45.5",
                                      "alpha_deg = -5e-324"])
    def test_out_of_range_angle_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"p_values = 0.9\n# angles\n{line}\n")
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

    def test_additivity_of_analytic_columns(self):
        rows = run_sweep(fig3_config(**SMALL))
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

    def test_difference_protocol_matches_direct(self):
        # sigma_coh column is the direct value; the difference route
        # (total - pop) must agree on the analytic columns.
        rows = run_sweep(fig2_config(**SMALL))
        for row in rows:
            assert row.sigma_total - row.sigma_pop == pytest.approx(
                row.sigma_coh, abs=1e-10
            )

    def test_tomography_close_to_analytic_at_high_shots(self):
        cfg = fig2_config(shots=100_000, n_bootstrap=10, seed=5, r_grid=(0.5,))
        rows = run_sweep(cfg)
        for row in rows:
            assert abs(row.sigma_total_tomo - row.sigma_total) < 0.02
            assert abs(row.sigma_pop_tomo - row.sigma_pop) < 0.02


class TestEmit:
    def test_csv_layout(self, tmp_path):
        cfg = fig2_config(**SMALL)
        rows = run_sweep(cfg)
        out = tmp_path / "fig2.csv"
        emit_csv(rows, str(out), cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(rows)

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
            rows.append((*values, indeterminate, k, 3))
            want.append(",".join([format(v, ".12g") for v in values] + [str(indeterminate)]))
        out = tmp_path / "contract.csv"
        emit_csv(np.array(rows, SWEEP_DTYPE), str(out), SweepConfig())
        assert out.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")
        assert sweep._CSV_LINE.count("%") == len(sweep._CSV_LINE.split(",")) == len(CSV_COLUMNS)

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

    def test_byte_identical_reruns(self, tmp_path):
        cfg = fig2_config(**SMALL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(cfg), str(a), cfg)
        emit_csv(run_sweep(cfg), str(b), cfg)
        assert a.read_bytes() == b.read_bytes()

    def test_summary_reports(self):
        rows = run_sweep(fig2_config(**SMALL))
        text = emit_summary(rows)
        assert "additivity" in text
        assert "tomography" in text

    def test_summary_reports_z_score_spread(self):
        def row(total_z, pop_z, indeterminate=0):
            # Analytic 1.0 and 0.5, stderr 0.1: the z-scores are total_z and pop_z.
            return (0.9, 0.5, 0.0, 1.0, 1.0, 0.5, 0.5, 1.0 - 0.1 * total_z, 0.1,
                    0.5 + 0.1 * pop_z, 0.1, 0.5, 0.1, indeterminate, 0, 0)

        lines = emit_summary(np.array([row(0.5, 1.0), row(3.0, 0.0), row(2.5, 1.5),
                                       row(9.0, 9.0, indeterminate=1)], SWEEP_DTYPE)).splitlines()
        assert "max |tomography - analytic|: 3.000e-01 (3.00 stderr)" in lines
        assert ("|tomography - analytic| / stderr over 6 estimates: median 1.25, "
                "fraction above 2: 0.333") in lines
        only_p1 = emit_summary(np.array([row(9.0, 9.0, indeterminate=1)], SWEEP_DTYPE))
        assert "/ stderr over 0 estimates: none" in only_p1

    def test_summary_negativity_is_positive_zero_at_r_zero(self):
        rows = run_sweep(fig2_config(**SMALL))
        assert any(row.r == 0.0 for row in rows)
        zero = (0.9, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.0, 0.1, 0.0, 0.1, 0, 0, 0)
        for sweep_rows in (rows, *(np.array([zero] * n, SWEEP_DTYPE) for n in (1, 2))):
            lines = emit_summary(sweep_rows).splitlines()
            assert "max negativity (analytic): 0.000e+00" in lines


class TestPropertySuite:
    def test_fresh_build_all_pass(self):
        report = run_property_suite(seed=2024)
        assert report.passed, report.render()

    def test_report_has_one_line_per_invariant(self):
        report = run_property_suite(seed=2024)
        assert len(report.results) >= 7
        rendered = report.render()
        assert rendered.count("[PASS]") == len(report.results)

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

    @pytest.mark.parametrize("name", ["invert", "project"])
    def test_perturbed_tomography_step_fails_the_round_trip_row(self, capsys, monkeypatch, name):
        step = getattr(bloch, name)
        monkeypatch.setattr(bloch, name, lambda a: step(a) + 1e-9)
        assert self.failed_rows(capsys) == [
            "[FAIL] tomography exact-frequency round trip (200 random states)"]

    # A bad value in a stacked row fails that row and exits 2, never a traceback.
    @pytest.mark.parametrize("perturb", [
        lambda sigma: sigma + 1e-9, lambda sigma: sigma - 1e-9,
        lambda sigma: np.where(np.arange(sigma.size) == 7, np.nan, sigma)],
        ids=["drift", "negative", "nan"])
    def test_perturbed_productions_fail_the_additivity_row(self, capsys, monkeypatch, perturb):
        budget_module = sys.modules["gadentropy.budget"]
        productions = budget_module.coherence_productions
        monkeypatch.setattr(budget_module, "coherence_productions",
                            lambda initial, final: perturb(productions(initial, final)))
        assert self.failed_rows(capsys) == [
            "[FAIL] budget additivity + non-negativity (1000 random triples)"]

    @pytest.mark.parametrize("perturb", [
        lambda d: -d, lambda d: np.where(np.arange(d.size) == 7, np.nan, d)],
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

    @pytest.mark.parametrize("seed", ["0", "1234", "2024"])
    def test_check_in_a_fresh_interpreter(self, seed):
        # Same-seed output is byte-identical, and `check` leaves numpy.random
        # unloaded: its cases come from the stdlib random.Random(seed).
        src = os.path.dirname(os.path.dirname(gadentropy.__file__))
        code = ("import sys; from gadentropy import cli; rc = cli.main(sys.argv[1:]); "
                "print('numpy.random' in sys.modules, file=sys.stderr); sys.exit(rc)")
        runs = [subprocess.run([sys.executable, "-c", code, "check", "--seed", seed],
                               capture_output=True, env={**os.environ, "PYTHONPATH": src})
                for _ in range(2)]
        for run in runs:
            assert (run.returncode, run.stderr) == (0, b"False\n")
            assert run.stdout.endswith(b"\nALL PASS\n")
        assert runs[0].stdout == runs[1].stdout


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

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = nonsense\n")
        assert cli.main(["sweep", "--config", str(cfg)]) == cli.EXIT_USAGE

    def test_unwritable_output_is_io_error(self, tmp_path):
        code = cli.main([
            "fig2", "--shots", "100", "--bootstrap", "3", "--r-points", "2",
            "--out", str(tmp_path / "no/such/dir/out.csv"),
        ])
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


class TestArrayPathMatchesStates:
    """The sweep's vectorized estimates against the 2x2 matrix reference: each
    estimate projected with `project_to_physical`, all scored in one stack."""

    @staticmethod
    def per_state(initial, p, freqs, productions):
        eq = QubitState.diagonal(p, 1.0 - p)
        final = np.array([project_to_physical(QubitState.from_bloch(*v).matrix).matrix
                          for v in bloch.invert(freqs)])
        values = productions(initial.matrix, final, eq.matrix)
        return float(values[0]), float(np.std(values[1:], ddof=1))

    @pytest.mark.parametrize("shots", [50, 10_000])
    def test_estimates_match_per_state_path(self, shots):
        rng = np.random.default_rng(shots)
        p = rng.uniform(0.5, 0.99, size=12)
        r = rng.uniform(0.0, 1.0, size=12)
        coherent = np.zeros((12, 3))
        coherent[:, 0] = rng.uniform(-1.0, 1.0, size=12)
        for initial, population, productions in (
            (coherent, False, total_productions),
            (np.zeros_like(coherent), True, population_productions),
        ):
            probs = bloch.born_probabilities(bloch.gad(initial, p, r))
            freqs = np.array([draw_frequencies(q, shots, 7 + k, 40) for k, q in enumerate(probs)])
            point, stderr, _, dropped = production_estimates(initial, p, freqs, population)
            assert not dropped.any()
            for k in range(12):
                want = self.per_state(QubitState.from_bloch(*initial[k]), p[k], freqs[k],
                                      productions)
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
            (1, lambda row: prepare(PrepSetting(math.radians(row.alpha_deg))), total_productions),
            (2, lambda row: QubitState(qstate.dephased(prepare(PrepSetting(0.0)).matrix)),
             population_productions),
        )
        got = [[] for _ in rows]
        for e, initial, productions in experiments:
            probs = [bloch.born_probabilities(
                apply(GadChannel(row.p, row.r), initial(row)).bloch_vector()) for row in rows]
            freqs = draw_frequencies(np.array(probs), cfg.shots, (cfg.seed, e), cfg.n_bootstrap)
            for k, row in enumerate(rows):
                got[k] += self.per_state(initial(row), row.p, freqs[k], productions)
        for row, values in zip(rows, got):
            want = (row.sigma_total_tomo, row.sigma_total_tomo_stderr,
                    row.sigma_pop_tomo, row.sigma_pop_tomo_stderr)
            assert values == pytest.approx(want, abs=1e-12)

    def test_nonfinite_samples_are_dropped_and_counted(self):
        # At p = 1 any weight on the excited state makes D infinite.
        initial = np.array([[0.0, 0.0, 1.0]])
        freqs = np.array([[[1.0, 0.0, 0.5, 0.5]] * 3 + [[0.9, 0.1, 0.5, 0.5]]])
        point, stderr, projected, dropped = production_estimates(
            initial, np.array([1.0]), freqs, False)
        assert point[0] == 0.0 and stderr[0] == 0.0
        assert dropped.tolist() == [1] and projected.tolist() == [0]

    def test_projections_are_counted(self):
        freqs = np.array([[[1.0, 0.0, 0.5, 1.0], [0.5, 0.5, 0.5, 0.5], [1.0, 0.0, 1.0, 1.0]]])
        _, _, projected, _ = production_estimates(np.zeros((1, 3)), np.array([0.8]), freqs, True)
        assert projected.tolist() == [2]


class TestStreams:
    PROBS = np.array([0.7, 0.3, 0.5, 0.6])

    def test_stacked_draw_matches_single_run(self):
        single = draw_frequencies(self.PROBS, 500, 11, 7)
        assert single.shape == (8, 4)
        assert np.array_equal(draw_frequencies(self.PROBS[None], 500, 11, 7)[0], single)

    @pytest.mark.parametrize("seed", [0, 99, 20240])
    def test_experiments_draw_from_distinct_streams(self, seed):
        def stream(master, e):
            return draw_frequencies(np.tile(self.PROBS, (20, 1)), 10_000, (master, e), 3)

        assert not np.array_equal(stream(seed, 1), stream(seed, 2))
        # A seed + e scheme would replay (seed + 1, 1) as (seed, 2).
        assert not np.array_equal(stream(seed, 2), stream(seed + 1, 1))


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

    @pytest.mark.parametrize("flag", [["--shots", "0"], ["--bootstrap", "1"], ["--seed", "-3"],
                                      ["--r-points", "1"], ["--shots", str(2**63)]])
    def test_bad_flag_exits_1(self, capsys, flag):
        assert cli.main(["fig2"] + flag) == cli.EXIT_USAGE
        assert capsys.readouterr().err.count("\n") == 1

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
                       dict(alphas=(math.radians(45.5),))):
            with pytest.raises(ConfigError):
                SweepConfig(**kwargs)
        SweepConfig(alphas=(0.0, math.pi / 4.0), p_values=(0.5, 1.0))

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
        assert counters["nonfinite_bootstrap_dropped"] == 0
        summary = emit_summary(rows)
        assert f"projected into the Bloch ball: {counters['projected_reconstructions']}" in summary
        assert "non-finite bootstrap samples dropped: 0" in summary
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv", "run.csv.meta.json"]
