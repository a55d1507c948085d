"""The README's Python examples run as written, and its config example
parses to the settings it documents."""

import math
import pathlib
import re

from gadentropy.sweep import load_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_config_block_parses(tmp_path):
    blocks = [block for block in re.findall(r"```\n(.*?)```", README.read_text(encoding="utf-8"),
                                            re.S) if block.startswith("scenario = ")]
    assert len(blocks) == 1
    path = tmp_path / "readme.cfg"
    path.write_text(blocks[0], encoding="utf-8")
    config = load_config(str(path))
    assert config.alphas == (0.0, math.radians(9.22))
    assert config.p_values == (0.9, 0.75)
    assert len(config.r_grid) == 21
    # Each "# or:" comment, put in place of the entry it annotates.
    text, swapped = re.subn(r"^\w+ = [^#\n]*# or: (.*)$", r"\1", blocks[0], flags=re.M)
    assert swapped == 2
    path.write_text(text, encoding="utf-8")
    config = load_config(str(path))
    assert config.alphas == (0.0, math.acos(0.8) / 4.0)
    assert config.r_grid == (0.0, 0.25, 0.5, 0.75, 1.0)
