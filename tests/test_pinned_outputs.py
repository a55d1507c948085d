"""Same-seed outputs pinned per (gadentropy version, numpy version).

The default `fig2` and `fig3` CSVs, the stdout of those runs with the output
path written as `<out>`, the stdout of `gadentropy check`, and the CSV of a
5555-row custom grid that spans two of the CSV's 4096-row blocks are hashed and
compared with the sha256 digests recorded for the running version pair.  A
change that moves them either bumps the version and records new digests, or
explains the change in CHANGES.md.  Bit-identity across numpy versions is
not a goal, so under an unrecorded pair the test skips without comparing."""

import hashlib

import numpy as np
import pytest

import gadentropy
from gadentropy import cli

DIGESTS = {
    ("0.6.4", "2.4.6"): {
        "fig2 csv": "9b9250757afe7f9cf7bdeda8af9268076b3b4859db3fb93cfd6405c523097239",
        "fig2 summary": "68cee1b869e13654d289db03b59f74b46f916ac3bdbf198b0f40b33799c79200",
        "fig3 csv": "dfe76ef01a41dbfee53247fbd176aac70db788684e4721a50a7a539a4aa3588d",
        "fig3 summary": "81e7d4c0cebcc00b260b395d8df29c51e8ef36824d07bdc25c31431e471552fe",
        "check stdout": "7f314eefa030c20da04519cb80d65a603400115fb78c54493c3de6865893ea83",
        "grid csv": "4e7c134ddff014430ad1a49dec2fd56e0c50c4a10e49affe49f479408ae0a222",
    },
}


# 11 p (505 rows at p = 1) x 5 coherences x 101 r = 5555 rows, 2 resamples.
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


# The analytic columns hold the physics alone: no shot noise, no draw order.
# Keyed by numpy version only, they must survive a change of the draws.
ANALYTIC_COLUMNS = ("p", "r", "alpha_deg", "coherence_initial", "sigma_total", "sigma_pop",
                    "sigma_coh", "indeterminate")
ANALYTIC_DIGESTS = {
    "2.4.6": "66dd49081f92b901472374d47eab9de000d26af1db35fd80a214654a137a0753",
}


def test_analytic_columns_match_the_recorded_digest(tmp_path, capsys):
    if np.__version__ not in ANALYTIC_DIGESTS:
        pytest.skip(f"did not compare: no analytic digest recorded for numpy {np.__version__}")
    lines = []
    for figure in ("fig2", "fig3"):
        out = tmp_path / f"{figure}.csv"
        assert cli.main([figure, "--out", str(out)]) == 0
        header, *rows = (line.split(",") for line in out.read_text().splitlines())
        keep = [header.index(name) for name in ANALYTIC_COLUMNS]
        lines += [",".join(row[k] for k in keep) for row in [header, *rows]]
    capsys.readouterr()
    assert sha256("\n".join(lines).encode()) == ANALYTIC_DIGESTS[np.__version__]
