"""Streaming generation: the harvest's units give the bytes of a one-shot
harvest for any unit size and process count, a failing process leaves no
overlong file, and memory does not grow with the number of bits asked for."""

import dataclasses
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import bits_file, first_cells
from mramtrng import cli, device
from mramtrng.characterize import save_selection
from mramtrng.device import Environment, TimingParams, save_chip
from mramtrng.extract import (
    condition,
    harvest_rounds,
    load_bitstream,
    plan_harvest,
    required_rounds,
)

BITS = 5000  # 20 conditioned blocks, 10,240 raw bits needed
FILES = ("raw.bits", "conditioned.bits", "provenance.json")
UNIT = 512
WIDE = 4000  # cells per round, more than a unit of 7 * UNIT bits


def _workers(monkeypatch, workers):
    monkeypatch.setattr(device, "_workers", lambda jobs: min(workers, jobs))


def _generate(tmp_path, name, chip, sel, bits, unit_bits=None):
    out = tmp_path / name
    out.mkdir()
    cli._generate_into(out, chip, sel, TimingParams(2.5), bits, Environment(), unit_bits=unit_bits)
    return {f: (out / f).read_bytes() for f in FILES}


def _selection(chip, sel, cells):
    """The first ``cells`` selected cells, or the first WIDE cells of the chip."""
    if cells != WIDE:
        return first_cells(sel, cells)
    return dataclasses.replace(sel, mask=np.arange(chip.num_cells) < WIDE)


def _units(cells, unit_bits):
    """(unit count, whether the last unit is short) of a BITS harvest."""
    raw_bits = required_rounds(BITS, cells) * cells
    return -(-raw_bits // unit_bits), raw_bits % unit_bits != 0


# 1 cell: every unit spans many rounds; 101 cells: raw bits not a multiple
# of 8; 104: a multiple of 8 but not of 512; 128: a multiple of 512, so no
# partial block is left at the end; WIDE: rounds longer than a unit
@pytest.mark.parametrize("cells", [1, 101, 104, 128, WIDE])
def test_chunked_output_equals_one_shot(monkeypatch, small_chip, small_selection, tmp_path, cells):
    sel = _selection(small_chip, small_selection, cells)
    rounds = required_rounds(BITS, cells)
    raw_bits = rounds * cells
    assert (raw_bits % 8 != 0, raw_bits % 512 != 0) == {
        1: (False, False), 101: (True, True), 104: (False, True), 128: (False, False), WIDE: (False, True)
    }[cells]
    # odd and even unit counts, with and without a short last unit
    assert {1: (20, False), 101: (21, True), 104: (21, True), 128: (20, False), WIDE: (24, True)}[cells] == _units(
        cells, UNIT
    )

    runs = {}
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        for unit in (UNIT, 7 * UNIT, None):
            runs[workers, unit] = _generate(tmp_path, f"w{workers}-u{unit}", small_chip, sel, BITS, unit)
    for files in runs.values():
        assert files == runs[1, None]

    raw = harvest_rounds(plan_harvest(small_chip, sel, TimingParams(2.5), Environment()), rounds)
    conditioned = condition(raw)
    assert runs[1, None]["raw.bits"] == bits_file(raw.bits)
    assert runs[1, None]["conditioned.bits"] == bits_file(conditioned.bits)
    assert json.loads(runs[1, None]["provenance.json"]) == {
        "kind": "conditioned",
        "bits": len(conditioned),
        "provenance": conditioned.provenance,
    }
    assert np.array_equal(load_bitstream(tmp_path / "w3-u512" / "raw.bits").bits, raw.bits)


def test_grade_preparation_shape_equals_one_process(monkeypatch, tmp_path):
    """`generate --bits 16000000` from the seed-7 default chip and its
    `characterize` selection, the input preparation of the benchmark's grade
    workload: 16 units, written by three processes as by one, also through
    pipes of one page, which take a unit's 384 KB in many turns."""
    chip, sel = str(tmp_path / "chip.mrtg"), str(tmp_path / "sel.mrsl")
    assert cli.main(["chip", "--seed", "7", "--out", chip]) == 0
    assert cli.main(["characterize", chip, "--out", sel]) == 0
    outs = []
    for workers, pipe_bytes in ((1, device._PIPE_BYTES), (3, device._PIPE_BYTES), (3, 4096)):
        _workers(monkeypatch, workers)
        monkeypatch.setattr(device, "_PIPE_BYTES", pipe_bytes)
        outs.append(tmp_path / f"w{workers}-pipe{pipe_bytes}")
        assert cli.main(["generate", chip, sel, "--bits", "16000000", "--out", str(outs[-1])]) == 0
    for name in FILES:
        assert all((out / name).read_bytes() == (outs[0] / name).read_bytes() for out in outs[1:]), name
    assert len(load_bitstream(outs[1] / "conditioned.bits", kind="conditioned")) >= 16_000_000
    raw_bits = len(load_bitstream(outs[1] / "raw.bits"))
    assert -(-raw_bits // cli.HARVEST_CHUNK_BITS) == 16


# --- failing processes ----------------------------------------------------------


@pytest.fixture()
def chip_files(small_chip, small_selection, tmp_path):
    """The unit-test chip and its first 101 selected cells, on disk."""
    chip, sel = tmp_path / "chip.mrtg", tmp_path / "sel.mrsl"
    save_chip(small_chip, chip)
    save_selection(first_cells(small_selection, 101), sel)
    return str(chip), str(sel)


def _generate_cli(monkeypatch, chip_files, out, workers=3):
    """`generate` of BITS in 21 units of UNIT bits over ``workers`` processes."""
    _workers(monkeypatch, workers)
    monkeypatch.setattr(cli, "HARVEST_CHUNK_BITS", UNIT)
    return cli.main(["generate", *chip_files, "--bits", str(BITS), "--out", str(out)])


def _assert_no_overlong_file(out):
    """A payload past its header's bit count is what a second flush of a
    writer's buffer, by a worker holding a copy of it, would leave."""
    for name in ("raw.bits", "conditioned.bits"):
        data = (out / name).read_bytes() if (out / name).exists() else b""
        if data:
            (n_bits,) = struct.unpack("<Q", data[:8])
            assert len(data) - 8 <= -(-n_bits // 8), name


def _in_workers(monkeypatch, exc, in_parent=False):
    """Make harvest_rounds raise ``exc`` in the workers, or in this process."""
    parent, harvest = os.getpid(), cli.harvest_rounds

    def failing(*args, **kwargs):
        if (os.getpid() == parent) == in_parent:
            raise exc
        return harvest(*args, **kwargs)

    monkeypatch.setattr(cli, "harvest_rounds", failing)


def test_generate_falls_back_in_process_when_fork_fails(monkeypatch, chip_files, tmp_path):
    assert _generate_cli(monkeypatch, chip_files, tmp_path / "ref", workers=1) == 0

    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _generate_cli(monkeypatch, chip_files, tmp_path / "got") == 0
    for name in FILES:
        assert (tmp_path / "got" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


def test_generate_exits_5_when_a_worker_fails(monkeypatch, chip_files, tmp_path, capsys):
    """A worker whose harvest raises sends nothing and exits 1; a worker
    that sends its units but exits non-zero fails the run too."""
    _in_workers(monkeypatch, MemoryError("worker out of memory"))
    assert _generate_cli(monkeypatch, chip_files, tmp_path / "raised") == cli.EXIT_IO
    assert "short data" in capsys.readouterr().err
    _assert_no_overlong_file(tmp_path / "raised")

    monkeypatch.setattr(cli, "harvest_rounds", harvest_rounds)
    exit_ = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_(status or 3))
    assert _generate_cli(monkeypatch, chip_files, tmp_path / "exit3") == cli.EXIT_IO
    assert "exit codes" in capsys.readouterr().err
    _assert_no_overlong_file(tmp_path / "exit3")


def test_generate_reaps_workers_when_its_own_unit_raises(monkeypatch, chip_files, tmp_path):
    _in_workers(monkeypatch, ValueError("caller unit failed"), in_parent=True)
    assert _generate_cli(monkeypatch, chip_files, tmp_path / "out") == cli.EXIT_USAGE
    _assert_no_overlong_file(tmp_path / "out")


# --- memory ---------------------------------------------------------------------


def _peak_bytes(tmp_path, name, chip, sel, bits, unit_bits):
    out = tmp_path / name
    out.mkdir()
    tracemalloc.start()
    try:
        cli._generate_into(out, chip, sel, TimingParams(2.5), bits, Environment(), unit_bits=unit_bits)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_flat_in_bits(small_chip, small_selection, tmp_path):
    unit_bits = 32 * UNIT
    cells = small_selection.num_randcell
    unit_bytes = unit_bits + 2 * cells  # a unit's bool rows, with the partial rounds at its ends
    bits = 60_000
    assert required_rounds(bits, cells) * cells > 4 * unit_bits
    # the first call also allocates what the process keeps afterwards
    # (lazy imports, interpreter free lists), which is not per-call memory
    _peak_bytes(tmp_path, "warm", small_chip, small_selection, bits, unit_bits)
    small = _peak_bytes(tmp_path, "n", small_chip, small_selection, bits, unit_bits)
    large = _peak_bytes(tmp_path, "8n", small_chip, small_selection, 8 * bits, unit_bits)
    assert abs(large - small) < unit_bytes, (small, large, unit_bytes)
