"""Streaming generation: the harvest's units give the bytes of a one-shot
harvest for any unit size and process count, a failing process leaves no
overlong file, memory does not grow with the number of bits asked for, and
the benchmark's grade workload runs on what generate writes."""

import dataclasses
import hashlib
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import bits_file, first_cells
from mramtrng import cli, parallel
from mramtrng.characterize import save_selection
from mramtrng.device import Environment, TimingParams, save_chip
from mramtrng.extract import B_LEN, digest_blocks, harvest_rounds, plan_harvest, required_rounds

BITS = 5000  # 20 conditioned blocks, 10,240 raw bits needed
FILES = ("raw.bits", "conditioned.bits", "provenance.json")
UNIT = 512
WIDE = 4000  # cells per round, more than a unit of 7 * UNIT bits


def _workers(monkeypatch, workers):
    monkeypatch.setattr(parallel, "_workers", lambda jobs: min(workers, jobs))


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


# SHA-256 of provenance.json for each case: the record's values and key
# order, which perfbench/run.py and other readers of the file rely on
PROVENANCE_SHA256 = {
    1: "51eec11ceb484f02902fcb28b0345806d5835c1d6b3015a0b99e13d86b96cee8",
    101: "c85d215eb6c082bcc31ed2abb0fe65554c8a87450ce8e6092f4508e7b6dfbad9",
    104: "765b63b0864062c89c9d4466450449d2d66aced548ea6d7c89243047ccc030f5",
    128: "f55177e1ae890f7320e4ba02160947cf687c8564e61ffe7a4d359c495a6421be",
    827: "365164c7644bc86b04ec2fe2d163151cda7dd142b2961c9f5cba4a6f1a987148",
    WIDE: "3eca770e9f7de45984377ad72c3f8b1d9b293a703f244a6d4ec213c43f8866e2",
}


def _header_bits(path):
    return struct.unpack("<Q", path.read_bytes()[:8])[0]


# 1 cell: every unit spans many rounds; 101 cells: raw bits not a multiple
# of 8; 104: a multiple of 8 but not of 512; 128: a multiple of 512, so no
# partial block is left at the end; 827: the raw bits end 511 bits into a
# block, so the zero-padded last byte would complete it; WIDE: rounds
# longer than a unit
@pytest.mark.parametrize("cells", [1, 101, 104, 128, 827, WIDE])
def test_chunked_output_equals_one_shot(monkeypatch, small_chip, small_selection, tmp_path, cells):
    sel = _selection(small_chip, small_selection, cells)
    rounds = required_rounds(BITS, cells)
    raw_bits = rounds * cells
    assert (raw_bits % 8 != 0, raw_bits % 512 != 0) == {
        1: (False, False), 101: (True, True), 104: (False, True), 128: (False, False), 827: (True, True),
        WIDE: (False, True),
    }[cells]
    assert cells != 827 or raw_bits % 512 == 511
    # odd and even unit counts, with and without a short last unit
    assert {1: (20, False), 101: (21, True), 104: (21, True), 128: (20, False), 827: (21, True), WIDE: (24, True)}[
        cells
    ] == _units(cells, UNIT)

    runs = {}
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        for unit in (UNIT, 7 * UNIT, None):
            runs[workers, unit] = _generate(tmp_path, f"w{workers}-u{unit}", small_chip, sel, BITS, unit)
    for files in runs.values():
        assert files == runs[1, None]

    raw = harvest_rounds(plan_harvest(small_chip, sel, TimingParams(2.5), Environment()), rounds)
    digests = digest_blocks(np.packbits(raw[: raw_bits // B_LEN * B_LEN]).tobytes())
    conditioned = np.unpackbits(np.frombuffer(digests, dtype=np.uint8)).view(bool)
    assert runs[1, None]["raw.bits"] == bits_file(raw)
    assert runs[1, None]["conditioned.bits"] == bits_file(conditioned)
    assert hashlib.sha256(runs[1, None]["provenance.json"]).hexdigest() == PROVENANCE_SHA256[cells]
    record = json.loads(runs[1, None]["provenance.json"])
    assert (record["bits"], record["provenance"]["raw_bits"]) == (len(conditioned), raw_bits)


@pytest.fixture(scope="module")
def default_chip_files(tmp_path_factory):
    """The seed-7 default chip and its `characterize` selection, on disk."""
    d = tmp_path_factory.mktemp("default")
    chip, sel = str(d / "chip.mrtg"), str(d / "sel.mrsl")
    assert cli.main(["chip", "--seed", "7", "--out", chip]) == 0
    assert cli.main(["characterize", chip, "--out", sel]) == 0
    return chip, sel


GRADE_STREAMS, GRADE_STREAM_BITS = 16, 1_000_000


def test_grade_preparation_shape_equals_one_process(monkeypatch, tmp_path, default_chip_files):
    """`generate --bits 16000000` from the seed-7 default chip and its
    `characterize` selection, the input preparation of the benchmark's grade
    workload: 16 units, written by three processes as by one, also through
    pipes of one page, which take a unit's 384 KB in many turns."""
    chip, sel = default_chip_files
    outs = []
    for workers, pipe_bytes in ((1, parallel._PIPE_BYTES), (3, parallel._PIPE_BYTES), (3, 4096)):
        _workers(monkeypatch, workers)
        monkeypatch.setattr(parallel, "_PIPE_BYTES", pipe_bytes)
        outs.append(tmp_path / f"w{workers}-pipe{pipe_bytes}")
        assert cli.main(["generate", chip, sel, "--bits", "16000000", "--out", str(outs[-1])]) == 0
    for name in FILES:
        assert all((out / name).read_bytes() == (outs[0] / name).read_bytes() for out in outs[1:]), name
    assert _header_bits(outs[1] / "conditioned.bits") >= GRADE_STREAMS * GRADE_STREAM_BITS
    assert -(-_header_bits(outs[1] / "raw.bits") // cli.HARVEST_CHUNK_BITS) == 16


def test_grade_workload_grades_each_file_as_one_sequence(tmp_path, default_chip_files):
    """The benchmark's grade workload: 16 Mbit of generate output cut into
    16 files of 1 Mbit, as perfbench/run.py cuts them, graded by `test` into
    nine report rows of five fields, each reading k/16 and a uniformity."""
    chip, sel = default_chip_files
    gen = tmp_path / "gen"
    assert cli.main(["generate", chip, sel, "--bits", str(GRADE_STREAMS * GRADE_STREAM_BITS), "--out", str(gen)]) == 0
    payload, step = (gen / "conditioned.bits").read_bytes()[8:], GRADE_STREAM_BITS // 8
    files = []
    for i in range(GRADE_STREAMS):
        files.append(tmp_path / f"stream{i:02d}.bits")
        files[-1].write_bytes(struct.pack("<Q", GRADE_STREAM_BITS) + payload[i * step : (i + 1) * step])
    report = tmp_path / "report.txt"
    assert cli.main(["test", *map(str, files), "--out", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == f"battery: {GRADE_STREAMS} sequences x {GRADE_STREAM_BITS} bits, alpha=0.01"
    rows = [ln.split() for ln in lines if len(ln.split()) == 5 and "/" in ln.split()[1]]
    assert len(rows) == 9
    for name, prop, min_pass, uniformity, verdict in rows:
        passed, total = map(int, prop.split("/"))
        assert total == GRADE_STREAMS and passed >= int(min_pass) == 15, name
        assert 0.0 <= float(uniformity) <= 1.0 and verdict == "pass", name


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
