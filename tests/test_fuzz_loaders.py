"""Loaders of damaged files: truncations and byte flips of small valid
.mrtg, .mrsl and .bits files either load or raise ValueError, and through
the CLI they end in a documented exit code, never in a traceback."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_config
from mramtrng import cli
from mramtrng.characterize import load_selection
from mramtrng.device import load_chip
from mramtrng.extract import load_bitstream

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
    return load_bitstream(path, kind="conditioned")


def _cli_args(name, d, bad):
    if name == "conditioned.bits":
        return ["test", str(bad)]
    chip, sel = (bad, d / "sel.mrsl") if name == "chip.mrtg" else (d / "chip.mrtg", bad)
    return ["generate", str(chip), str(sel), "--bits", "512", "--out", str(d / "gen")]


@pytest.mark.parametrize("name", ["chip.mrtg", "sel.mrsl", "conditioned.bits"])
def test_damaged_file_loads_or_raises_value_error(valid, name):
    d, files = valid
    bad = d / f"bad-{name}"

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(data=damage(files[name]))
    def check(data):
        bad.write_bytes(data)
        try:
            _load(name, bad)
        except ValueError:
            pass
        assert cli.main(_cli_args(name, d, bad)) in EXIT_CODES

    check()
