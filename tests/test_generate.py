"""Streaming generation: chunked output equals one-shot output, and memory
does not grow with the number of bits asked for."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import first_cells
from mramtrng import cli
from mramtrng.device import Environment, TimingParams
from mramtrng.extract import (
    condition,
    harvest_rounds,
    load_bitstream,
    plan_harvest,
    required_rounds,
    save_bitstream,
)

BITS = 5000  # 20 conditioned blocks, 10,240 raw bits needed
FILES = ("raw.bits", "conditioned.bits", "provenance.json")


def _generate(tmp_path, name, chip, sel, bits, chunk_rounds=None):
    out = tmp_path / name
    out.mkdir()
    cli._generate_into(out, chip, sel, TimingParams(2.5), bits, Environment(), chunk_rounds=chunk_rounds)
    return {f: (out / f).read_bytes() for f in FILES}


# 101 cells: raw bits not a multiple of 8; 104: a multiple of 8 but not of 512;
# 128: a multiple of 512, so no partial block is left at the end
@pytest.mark.parametrize("cells", [101, 104, 128])
def test_chunked_output_equals_one_shot(small_chip, small_selection, tmp_path, cells):
    sel = first_cells(small_selection, cells)
    rounds = required_rounds(BITS, cells)
    raw_bits = rounds * cells
    assert (raw_bits % 8 != 0, raw_bits % 512 != 0) == {101: (True, True), 104: (False, True), 128: (False, False)}[cells]

    runs = {c: _generate(tmp_path, f"chunk{c}", small_chip, sel, BITS, c) for c in (1, 7, rounds, None)}
    for files in runs.values():
        assert files == runs[rounds]

    raw = harvest_rounds(plan_harvest(small_chip, sel, TimingParams(2.5), Environment()), rounds)
    conditioned = condition(raw)
    save_bitstream(raw, tmp_path / "raw.bits")
    save_bitstream(conditioned, tmp_path / "conditioned.bits")
    assert runs[1]["raw.bits"] == (tmp_path / "raw.bits").read_bytes()
    assert runs[1]["conditioned.bits"] == (tmp_path / "conditioned.bits").read_bytes()
    assert json.loads(runs[1]["provenance.json"]) == {
        "kind": "conditioned",
        "bits": len(conditioned),
        "provenance": conditioned.provenance,
    }
    assert np.array_equal(load_bitstream(tmp_path / "chunk7" / "raw.bits").bits, raw.bits)


def _peak_bytes(tmp_path, name, chip, sel, bits, chunk_rounds):
    out = tmp_path / name
    out.mkdir()
    tracemalloc.start()
    try:
        cli._generate_into(out, chip, sel, TimingParams(2.5), bits, Environment(), chunk_rounds=chunk_rounds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_flat_in_bits(small_chip, small_selection, tmp_path):
    chunk_rounds = 32
    chunk_bytes = chunk_rounds * small_selection.num_randcell  # a chunk's bool rows
    bits = 60_000
    assert required_rounds(bits, small_selection.num_randcell) > 4 * chunk_rounds
    # the first call also allocates what the process keeps afterwards
    # (lazy imports, interpreter free lists), which is not per-call memory
    _peak_bytes(tmp_path, "warm", small_chip, small_selection, bits, chunk_rounds)
    small = _peak_bytes(tmp_path, "n", small_chip, small_selection, bits, chunk_rounds)
    large = _peak_bytes(tmp_path, "8n", small_chip, small_selection, 8 * bits, chunk_rounds)
    assert abs(large - small) < chunk_bytes, (small, large, chunk_bytes)
