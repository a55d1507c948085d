"""Tests of the benchmark's oracle and tracer.

Run from the repository root: python3 -m pytest bench/test_oracle.py -q
(kept out of the package's own test suite, which collects tests/ only).
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

import gadentropy  # noqa: E402
from gadentropy import channel, cli, prep, qstate  # noqa: E402

budget_module = sys.modules["gadentropy.budget"]
sweep_module = sys.modules["gadentropy.sweep"]

POINTS = [(0.5, 0.0, 1.0), (0.9, 0.5, 1.0), (0.75, 0.3, 0.4), (0.6, 1.0, 0.8), (0.99, 0.01, 0.2)]


@pytest.mark.parametrize("p, r, c", POINTS)
def test_budget_agrees_with_package(p, r, c):
    state = prep.prepare(prep.PrepSetting(prep.alpha_for_coherence(c)))
    want = gadentropy.budget(state, channel.GadChannel(p, r))
    got = oracle.budget(p, r, c)
    assert np.allclose(got, (want.total, want.population, want.coherence), rtol=0, atol=1e-12)


def test_closed_forms_agree_with_package_on_random_states():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.normal(size=3)
        v *= rng.uniform() ** (1 / 3) / np.linalg.norm(v)
        p, r = rng.uniform(0.5, 0.999), rng.uniform(0.0, 1.0)
        state = qstate.QubitState.from_bloch(*v)
        ch = channel.GadChannel(p, r)
        eq = channel.equilibrium_state(ch)
        assert oracle.relative_entropy_to_thermal(v, p) == pytest.approx(
            qstate.relative_entropy(state, eq), abs=1e-12)
        assert np.allclose(oracle.gad_apply(v, p, r),
                           channel.apply(ch, state).bloch_vector(), atol=1e-12)
        assert oracle.bloch_of_matrix(state.matrix) == pytest.approx(v, abs=1e-15)


def test_thermal_channel_matches_package():
    for nbar in (0.0, 0.125, 1.0):
        bath = channel.BathSpec(1.0, oracle.nbar_temperature(nbar), 1.0)
        assert bath.mean_occupation == pytest.approx(nbar, abs=1e-12)
        ch = channel.channel_for(bath, 0.7)
        assert oracle.thermal_channel(nbar, 1.0, 0.7) == pytest.approx((ch.p, ch.r), abs=1e-14)


GRID = (np.array([0.9, 1.0]), np.array([1.0, 0.5]), np.linspace(0.0, 1.0, 6), 100)


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("sweep") / "small.csv"
    cfg = path.with_suffix(".cfg")
    cfg.write_text("p_values = 0.9, 1.0\ncoherence = 1, 0.5\nr_points = 6\n"
                   "shots = 10000\nn_bootstrap = 100\nseed = 3\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(path)]) == 0
    return path.read_text()


def test_package_csv_passes(sweep_csv):
    result = oracle.check_sweep_csv(sweep_csv, GRID)
    assert result["reasons"] == []
    assert (result["attempted"], result["failed"]) == (24, 0)


def _edit(text: str, row: int, column: str, value: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("row, column, value", [
    (3, "sigma_total", "0.123"),           # analytic value off the closed form
    (4, "sigma_coh", "1e-3"),              # breaks additivity and the closed form
    (14, "indeterminate", "0"),            # a p = 1 row not flagged
    (2, "indeterminate", "1"),             # a p < 1 row flagged
    (5, "sigma_pop_tomo", "nan"),          # non-finite tomography on a determinate row
    (1, "sigma_coh_tomo", "0.5"),          # difference protocol broken
    (0, "r", "0.5"),                       # grid out of order
])
def test_perturbed_csv_is_flagged(sweep_csv, row, column, value):
    result = oracle.check_sweep_csv(_edit(sweep_csv, row, column, value), GRID)
    assert result["failed"] >= 1, result


def test_missing_rows_count_as_failed(sweep_csv):
    lines = sweep_csv.splitlines()
    result = oracle.check_sweep_csv("\n".join(lines[:-3]) + "\n", GRID)
    assert result["failed"] == 3


@pytest.mark.parametrize("scale", [100.0, 0.01])
def test_miscalibrated_stderr_is_flagged(sweep_csv, scale):
    lines = sweep_csv.splitlines()
    header = lines[0].split(",")
    cols = [header.index(c) for c in ("sigma_total_tomo_stderr", "sigma_pop_tomo_stderr",
                                      "sigma_coh_tomo_stderr")]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for i in cols:
            cells[i] = repr(float(cells[i]) * scale)
        out.append(",".join(cells))
    result = oracle.check_sweep_csv("\n".join(out) + "\n", GRID)
    assert not result["z"]["ok"] and result["failed"] >= 1


def test_tracer_reaches_imported_names_and_unpatches():
    originals = {
        (sweep_module, "total_production"): sweep_module.total_production,
        (sweep_module, "entropy_budget"): sweep_module.entropy_budget,
        (budget_module, "relative_entropy"): budget_module.relative_entropy,
        (gadentropy, "budget"): gadentropy.budget,
    }
    post_init = qstate.QubitState.__post_init__
    config = sweep_module.SweepConfig(p_values=(0.9,), r_grid=(0.0, 0.5), shots=100,
                                      n_bootstrap=3)
    with Tracer() as tracer:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn
        sweep_module.run_sweep(config)
    report = tracer.report()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    assert qstate.QubitState.__post_init__ is post_init
    fns = report["functions"]
    assert fns["budget.budget"]["calls"] == 2
    assert fns["budget.total_production"]["calls"] == 2 + 2 * 4  # analytic + 2 x (1 + 3)
    assert fns["qstate.relative_entropy"]["calls"] > 0
    assert report["counters"]["tomography.bootstrap_states"] == 2 * 2 * 3
    run = fns["sweep.run_sweep"]
    assert 0 <= run["self_s"] <= run["s"]
    assert sum(e["calls"] for e in report["edges"] if e["caller"] is None) == 1
