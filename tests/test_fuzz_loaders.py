"""Loaders of damaged files: truncations and byte flips of small valid
.mrtg, .mrsl and .bits files either load or raise ValueError, and through
the CLI they end in a documented exit code, never in a traceback.  Recipe
JSON files with one value changed or one key deleted either load or raise
ValueError, and `chip --config` on them exits 0 or 2."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_config
from mramtrng import cli
from mramtrng.characterize import load_selection
from mramtrng.device import ChipConfig, load_chip
from mramtrng.extract import read_bitstream

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_EMPTY_SELECTION, cli.EXIT_BATTERY_FAIL, cli.EXIT_IO}
HEADER_BYTES = 64  # flips land here half the time: the headers hold the counts


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Directory with a 256-address chip, its selection and a conditioned
    stream, plus the bytes of each file."""
    d = tmp_path_factory.mktemp("fuzz")
    config = d / "chip.json"
    config.write_text(json.dumps(small_config(256).to_dict()), encoding="utf-8")
    assert cli.main(["chip", "--config", str(config), "--seed", "7", "--out", str(d / "chip.mrtg")]) == 0
    assert cli.main(["characterize", str(d / "chip.mrtg"), "--out", str(d / "sel.mrsl")]) == 0
    gen = ["generate", str(d / "chip.mrtg"), str(d / "sel.mrsl"), "--bits", "2048", "--out", str(d)]
    assert cli.main(gen) == 0
    files = {name: (d / name).read_bytes() for name in ("chip.mrtg", "sel.mrsl", "conditioned.bits")}
    return d, files


@st.composite
def damage(draw, data: bytes) -> bytes:
    """``data`` cut short, or with one to four bytes xor-ed with non-zero masks."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.one_of(st.integers(0, HEADER_BYTES - 1), st.integers(0, len(data) - 1)))
        out[pos] ^= draw(st.integers(1, 255))
    return bytes(out)


def _load(name, path):
    if name == "chip.mrtg":
        return load_chip(path)
    if name == "sel.mrsl":
        return load_selection(path, 256)
    return list(read_bitstream(path))


def _cli_args(name, d, bad):
    if name == "conditioned.bits":
        return ["test", str(bad)]
    chip, sel = (bad, d / "sel.mrsl") if name == "chip.mrtg" else (d / "chip.mrtg", bad)
    return ["generate", str(chip), str(sel), "--bits", "512", "--out", str(d / "gen")]


@pytest.mark.parametrize("name", ["chip.mrtg", "sel.mrsl", "conditioned.bits"])
def test_damaged_file_loads_or_raises_value_error(valid, name):
    d, files = valid
    bad = d / f"bad-{name}"

    @settings(max_examples=60)
    @given(data=damage(files[name]))
    def check(data):
        bad.write_bytes(data)
        try:
            _load(name, bad)
        except ValueError:
            pass
        assert cli.main(_cli_args(name, d, bad)) in EXIT_CODES

    check()


# --- recipe JSON ----------------------------------------------------------------

RECIPE = small_config(256).to_dict()
MAX_CLI_ADDRESSES = 4096  # a count that fits the u32 header but not memory is not tested
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and infinities included: json writes them as literals
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def _paths(node, prefix=()):
    """The path of every value under ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def edited_recipe(draw) -> dict:
    """RECIPE with one value replaced by any JSON value, or one key deleted."""
    recipe = copy.deepcopy(RECIPE)
    path = draw(st.sampled_from(list(_paths(recipe))))
    parent = recipe
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return recipe


def test_edited_recipe_loads_or_exits_2(tmp_path):
    config, out = tmp_path / "recipe.json", tmp_path / "chip.mrtg"

    @settings(max_examples=300)
    @given(recipe=edited_recipe())
    def check(recipe):
        try:
            addresses = ChipConfig.from_dict(recipe).num_addresses
        except ValueError:
            addresses = 0
        if addresses <= MAX_CLI_ADDRESSES:
            config.write_text(json.dumps(recipe), encoding="utf-8")
            args = ["chip", "--config", str(config), "--seed", "1", "--out", str(out)]
            assert cli.main(args) in (cli.EXIT_OK, cli.EXIT_USAGE)

    check()


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("chip_id",), 5, "chip_id must be a string"),
        (("chip_id",), "x" * 70_000, "chip_id must fit in 65535 UTF-8 bytes"),
        (("chip_id",), "\ud800", "chip_id is not encodable"),
        (("marginal_addresses",), [1], "marginal_addresses must be an object"),
        (("num_addresses",), 2**32, "num_addresses must lie in [1, 4294967295]"),
        (("num_addresses",), 1.5, "num_addresses must be an integer"),
        (("num_addresses",), True, "num_addresses must be an integer"),
        (("tau", "min_ns"), 1e6, "did not converge"),
        (("tau", "bit_sigma_ns"), 1e308, "overflow"),
        (("tau", "components", 0, "mean_ns"), "0.9", "tau.components.mean_ns must be a number, got '0.9'"),
        (("metastable", "bias_alpha"), True, "metastable.bias_alpha must be a number, got True"),
    ],
)
def test_hostile_recipe_exits_2(tmp_path, capsys, where, value, message):
    recipe = copy.deepcopy(RECIPE)
    section = recipe
    for key in where[:-1]:
        section = section[key]
    section[where[-1]] = value
    config, out = tmp_path / "recipe.json", tmp_path / "chip.mrtg"
    config.write_text(json.dumps(recipe), encoding="utf-8")
    assert cli.main(["chip", "--config", str(config), "--seed", "1", "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0], err
    assert not out.exists()
