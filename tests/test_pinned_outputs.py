"""Same-seed outputs pinned per (gadentropy version, numpy version).

The default `fig2` and `fig3` CSVs, the stdout of those runs with the output
path written as `<out>`, the stdout of `gadentropy check` at its default seed
and at the benchmark's, and the CSV of a 5555-row custom grid that spans two
of the 4096-row blocks (`sweep.BLOCK_ROWS`) in which the sweep is built and
the CSV written are hashed and compared with the sha256 digests recorded for
the running version pair, and so are the benchmark's RK4 and Kraus matrices
of its Lindblad-vs-Kraus cases.  A change that moves them either bumps the
version and records new digests, or explains the change in CHANGES.md.
Bit-identity across numpy versions is not a goal, so under an unrecorded pair
the test skips without comparing."""

import hashlib

import numpy as np
import pytest
from conftest import BENCH_RK4_CASES, bath_of_occupation

import gadentropy
from gadentropy import channel, cli
from gadentropy.qstate import PLUS

DIGESTS = {
    ("0.10.0", "2.4.6"): {
        "fig2 csv": "510279b58826692210d9fbd020df0a711d8777706f0da4883ad04fc17de74de3",
        "fig2 summary": "5839022d34cde314d028f9e218696abd28ce7c203e4c62c89c97d7977a3e4d23",
        "fig3 csv": "a726517c31c8d27d5f9e02d78155c624acbb2641240cff486538b147c5166ee6",
        "fig3 summary": "0baa33bdd8f7dce66084697893169a9f34bbf855fd0c1d59ef1d826effb7a2c2",
        "check stdout": "7f314eefa030c20da04519cb80d65a603400115fb78c54493c3de6865893ea83",
        "grid csv": "68ec92e924acc73d47ace886f1e13a07cc291cbae78057f5359be66e3e98582c",
    },
}

# `check --seed S` stdout, S = 917752063 the program seed that bench/run.py
# derives from its `--seed 1`, so the benchmark's verify workload runs a
# pinned check too.
BENCH_CHECK_SEED = int(np.random.SeedSequence(1).generate_state(1)[0] >> 1)
SEEDED_CHECK_DIGESTS = {
    ("0.10.0", "2.4.6"): "d9febf705cfe8a967ec361424d20dae7e786a3f5106d84eec577d89b91c1ce4c",
}

# The integrated and the Kraus-mapped state of |+> in each of the benchmark's
# Lindblad-vs-Kraus cases, as the 24 complex128 2x2 matrices' bytes in that order.
RK4_DIGESTS = {
    ("0.10.0", "2.4.6"): "8c8da15f5eb8ad1f1c45fa6c6c6fb85b57cb9674f00225c3037d7181bc1f554d",
}


# 11 p (505 rows at p = 1) x 5 coherences x 101 r = 5555 rows.  The retired n_bootstrap
# key stays, as bench/run.py's grid config writes it: it is read and dropped.
GRID_CONFIG = (
    f"p_values = {', '.join(repr(0.5 + 0.05 * i) for i in range(10))}, 1.0\n"
    "coherence = 1, 0.8, 0.6, 0.4, 0.2\n"
    "r_points = 101\n"
    "n_bootstrap = 2\n"
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_default_outputs_match_the_recorded_digests(tmp_path, capsys):
    key = (gadentropy.__version__, np.__version__)
    if key not in DIGESTS:
        pytest.skip(f"did not compare: no digests recorded for gadentropy {key[0]} "
                    f"with numpy {key[1]}")
    got = {}
    for figure in ("fig2", "fig3"):
        out = tmp_path / f"{figure}.csv"
        assert cli.main([figure, "--out", str(out)]) == 0
        got[f"{figure} csv"] = sha256(out.read_bytes())
        stdout = capsys.readouterr().out
        got[f"{figure} summary"] = sha256(stdout.replace(str(out), "<out>").encode())
    assert cli.main(["check"]) == 0
    got["check stdout"] = sha256(capsys.readouterr().out.encode())
    config, out = tmp_path / "grid.cfg", tmp_path / "grid.csv"
    config.write_text(GRID_CONFIG, encoding="utf-8")
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert data.count(b"\n") == 1 + 5555
    got["grid csv"] = sha256(data)
    assert got == DIGESTS[key]


def test_check_at_the_benchmark_seed_matches_the_recorded_digest(capsys):
    key = (gadentropy.__version__, np.__version__)
    if key not in SEEDED_CHECK_DIGESTS:
        pytest.skip(f"did not compare: no seeded check digest recorded for gadentropy {key[0]} "
                    f"with numpy {key[1]}")
    assert cli.main(["check", "--seed", str(BENCH_CHECK_SEED)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == SEEDED_CHECK_DIGESTS[key]


def test_benchmark_rk4_matrices_match_the_recorded_digest():
    key = (gadentropy.__version__, np.__version__)
    if key not in RK4_DIGESTS:
        pytest.skip(f"did not compare: no RK4 digest recorded for gadentropy {key[0]} "
                    f"with numpy {key[1]}")
    matrices = []
    for nbar, t in BENCH_RK4_CASES:
        bath = bath_of_occupation(nbar)
        matrices += [channel.evolve_master_equation(bath, PLUS, t).matrix,
                     channel.apply(channel.channel_for(bath, t), PLUS).matrix]
    assert sha256(np.stack(matrices).tobytes()) == RK4_DIGESTS[key]


# The analytic columns hold the physics alone: no shot noise, no draw order.
# Keyed by numpy version only, they must survive a change of the draws.
ANALYTIC_COLUMNS = ("p", "r", "alpha_deg", "coherence_initial", "sigma_total", "sigma_pop",
                    "sigma_coh", "indeterminate")
ANALYTIC_DIGESTS = {
    "2.4.6": "66dd49081f92b901472374d47eab9de000d26af1db35fd80a214654a137a0753",
}
# The tomography point estimates depend on the observed draws and their scoring
# alone, not on how the error bars are made.  Keyed by numpy version only, they
# must survive a change of the error-bar procedure.
POINT_COLUMNS = ("sigma_total_tomo", "sigma_pop_tomo", "sigma_coh_tomo")
POINT_DIGESTS = {
    "2.4.6": "17fd157a70059d1cd43f910d4e3c12dfb8f4ca5c761891f7f66490b483673ea7",
}


def columns_digest(tmp_path, capsys, names) -> str:
    """sha256 of the named columns of the default fig2 and fig3 CSVs, header included."""
    lines = []
    for figure in ("fig2", "fig3"):
        out = tmp_path / f"{figure}.csv"
        assert cli.main([figure, "--out", str(out)]) == 0
        header, *rows = (line.split(",") for line in out.read_text().splitlines())
        keep = [header.index(name) for name in names]
        lines += [",".join(row[k] for k in keep) for row in [header, *rows]]
    capsys.readouterr()
    return sha256("\n".join(lines).encode())


def test_analytic_columns_match_the_recorded_digest(tmp_path, capsys):
    if np.__version__ not in ANALYTIC_DIGESTS:
        pytest.skip(f"did not compare: no analytic digest recorded for numpy {np.__version__}")
    assert columns_digest(tmp_path, capsys, ANALYTIC_COLUMNS) == ANALYTIC_DIGESTS[np.__version__]


def test_point_columns_match_the_recorded_digest(tmp_path, capsys):
    if np.__version__ not in POINT_DIGESTS:
        pytest.skip(f"did not compare: no point digest recorded for numpy {np.__version__}")
    assert columns_digest(tmp_path, capsys, POINT_COLUMNS) == POINT_DIGESTS[np.__version__]
