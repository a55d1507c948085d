"""Property tests of the config-file parser and of SweepConfig: each returns a
SweepConfig or raises ConfigError, and each refuses every out-of-range number."""

import dataclasses
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadentropy.sweep import ConfigError, SweepConfig, load_config

KEYS = ("scenario", "p_values", "alpha_deg", "coherence", "r_grid", "r_points", "shots",
        "n_bootstrap", "seed", "out")
NUMBERS = st.lists(
    st.sampled_from(["0", "0.5", "1", "3", "45", "-1", "1e3", "nan", "inf", "-0", " ", "", "x"]),
    max_size=3).map(",".join)
# Tokens of at most 5 characters keep an r_points value below 10^5 grid points.
GARBAGE = st.lists(st.text(st.characters(codec="utf-8"), max_size=5), max_size=3).map(",".join)
# Each entry is one line, key + rest: well-formed lines of numbers, or any text.
ENTRIES = (st.dictionaries(st.sampled_from(KEYS), NUMBERS.map(" = ".__add__), max_size=4)
           | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=8),
                             st.tuples(st.sampled_from(["=", " = ", "", "#"]),
                                       NUMBERS | GARBAGE).map("".join), max_size=3))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "run.cfg"


def parse(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return load_config(str(path))


def first_line_error(path, key):
    """The start of the message of a bad value for `key` on the file's line 1."""
    return f"^{re.escape(str(path))}:1: bad value for '{key}'"


@settings(max_examples=100)
@given(ENTRIES)
def test_any_text_gives_config_or_config_error(config_path, entries):
    try:
        config = parse(config_path, [key + rest for key, rest in entries.items()])
    except ConfigError:
        return
    assert isinstance(config, SweepConfig)


def outside(low, high):
    """Floats outside [low, high], nan and the infinities included."""
    return (st.floats(max_value=low, exclude_max=True)
            | st.floats(min_value=high, exclude_min=True) | st.just(math.nan))


@pytest.mark.parametrize("key, low, high", [
    ("p_values", 0.5, 1.0), ("coherence", 0.0, 1.0), ("alpha_deg", 0.0, 45.0),
    ("r_grid", 0.0, 1.0),
])
@settings(max_examples=30)
@given(data=st.data())
def test_out_of_range_list_entry_is_refused(config_path, key, low, high, data):
    values = data.draw(st.lists(st.floats(low, high), max_size=3))
    values.insert(data.draw(st.integers(0, len(values))), data.draw(outside(low, high)))
    with pytest.raises(ConfigError, match=first_line_error(config_path, key)):
        parse(config_path, [f"{key} = {', '.join(map(repr, values))}"])


@pytest.mark.parametrize("key, low", [("shots", 1), ("n_bootstrap", 2), ("seed", 0)])
@settings(max_examples=20)
@given(data=st.data())
def test_out_of_range_count_is_refused(config_path, key, low, data):
    value = data.draw(st.integers(max_value=low - 1))
    with pytest.raises(ConfigError, match=first_line_error(config_path, key)):
        parse(config_path, [f"{key} = {value}"])


# Values of any type: None, bools, ints past int64, floats with nan and the
# infinities, complex numbers, text, and lists and tuples nesting them.
ANY_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, -(10**400), 10**400])
    | st.floats() | st.complex_numbers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner), max_leaves=6)


@pytest.mark.parametrize("field", [field.name for field in dataclasses.fields(SweepConfig)])
@settings(max_examples=25)
@given(value=ANY_VALUE)
def test_any_value_of_a_field_gives_config_or_config_error(field, value):
    try:
        config = SweepConfig(**{field: value})
    except ConfigError:
        return
    # What is stored passes the check again unchanged.
    assert SweepConfig(**dataclasses.asdict(config)) == config


@pytest.mark.parametrize("setting, shown", [
    (dict(shots=10**5000), "got a 5001-digit integer"),
    (dict(seed=-10**5000), "got a negative 5001-digit integer"),
    (dict(n_bootstrap=10**5000), "n_bootstrap = a 5001-digit integer"),
    (dict(r_grid=10**5000), "^a 5001-digit integer grid rows"),
    (dict(p_values=(10**5000,)), "got a 5001-digit integer"),
    (dict(alphas=(10**5000, "x")), "got a tuple holding an integer too long to print"),
], ids=["shots", "seed", "n_bootstrap", "r_grid", "p_values", "alphas"])
def test_oversized_integer_is_refused_by_its_digit_count(setting, shown):
    # str() refuses an int of more than 4300 digits, so the message counts them.
    with pytest.raises(ConfigError, match=shown):
        SweepConfig(**setting)
