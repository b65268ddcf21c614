"""Raw-bit harvesting and SHA-256 conditioning.

Harvesting repeats the reduced-timing campaign and appends, per round,
the readout values of the selected cells in ascending (address, bit)
order.  The raw stream is then conditioned in fixed-size blocks: every
B_LEN = 512 raw bits are hashed with SHA-256 and the D_LEN = 256-bit
digests are concatenated.  A trailing partial block is discarded, so

    len(conditioned) == floor(len(raw) / B_LEN) * D_LEN

Bit/byte packing is MSB first throughout: the first harvested bit is the
most significant bit of the first byte fed to the hash.  A stream exists
only as a .bits file of those packed bytes: the harvest hashes packed
bytes (digest_blocks) as it writes them, and the graders read the file
back one sequence at a time (read_bitstream).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from .characterize import CellSelection, selection_digest
from .device import ChipModel, Environment, TimingParams, _plan_readout, _Readout, _readout_rows


# conditioning geometry: raw bits in (whole bytes), SHA-256 digest bits out, per block
B_LEN = 512
D_LEN = 256


def required_rounds(target_bits: int, num_randcell: int) -> int:
    """Fewest harvest rounds whose conditioned output reaches ``target_bits``."""
    if target_bits < 1:
        raise ValueError(f"target_bits must be >= 1, got {target_bits}")
    if num_randcell < 1:
        raise ValueError(f"need at least one selected cell, got {num_randcell}")
    # integer ceilings: a float quotient is inexact above 2**53 bits
    blocks_needed = -(-target_bits // D_LEN)
    raw_needed = blocks_needed * B_LEN
    return -(-raw_needed // num_randcell)


def plan_harvest(
    chip: ChipModel,
    selection: CellSelection,
    timing: TimingParams,
    env: Environment | None = None,
) -> _Readout:
    """The per-run set-up of harvesting ``selection`` at ``timing``: the
    selected cells' keys and draw thresholds, shared by every unit."""
    if selection.empty:
        raise ValueError("cannot harvest from an empty selection")
    return _plan_readout(chip, timing, env or Environment(), selection.cell_indices)


def harvest_rounds(plan: _Readout, rounds: int, start_round: int = 0) -> np.ndarray:
    """Readouts of the planned cells in rounds ``start_round`` onwards,
    round-major, then by ascending cell, as one flat bool array: the rows of
    ``measure`` over the selected cells, from the same kernel.  Like
    measure, this leaves the chip as it was, so units of one harvest can be
    drawn in any order and in any process.
    """
    return _readout_rows(plan, rounds, start_round).reshape(-1)


def harvest_provenance(
    chip: ChipModel, selection: CellSelection, timing: TimingParams, env: Environment, rounds: int
) -> dict:
    """The origin of a stream harvested over ``rounds`` rounds from round 0
    and conditioned, as provenance.json records it."""
    return {
        "chip_id": chip.chip_id,
        "seed": chip.seed,
        "t_w_ns": timing.t_w_ns,
        # the data every harvest writes, 0, as a solid word over the all-ones reset
        "pattern": {"kind": "solid", "word_a": 0, "word_b": 0xFFFF, "seed": 0},
        # the field's axis is fixed: the model reads only its magnitude
        "env": {"temperature_c": env.temperature_c, "field_mt": env.field_mt, "field_axis": "+z"},
        "rounds": rounds,
        "start_round": 0,
        "num_randcell": selection.num_randcell,
        "selection_sha256": selection_digest(selection),
        "b_len": B_LEN,
        "d_len": D_LEN,
        "raw_bits": rounds * selection.num_randcell,
    }


def digest_blocks(packed: bytes) -> bytes:
    """SHA-256 each whole B_LEN-bit block of MSB-first packed raw bits and
    concatenate the digests, which are the conditioned bits packed the same
    way.  Trailing bytes short of a whole block are not hashed."""
    step = B_LEN // 8
    view = memoryview(packed)
    sha256 = hashlib.sha256
    return b"".join(sha256(view[i : i + step]).digest() for i in range(0, len(view) - step + 1, step))


# --- persistence -----------------------------------------------------------
# binary form: u64 little-endian bit count, then MSB-first packed bytes.


_HEADER = struct.Struct("<Q")


def open_bitstream(path: str | Path, n_bits: int) -> BinaryIO:
    """Create a binary bitstream file and write its header; the caller then
    appends the ceil(n_bits / 8) payload bytes, in as many writes as it likes."""
    fh = open(path, "wb")
    fh.write(_HEADER.pack(n_bits))
    return fh


def read_bitstream(path: str | Path, length: int | None = None) -> Iterator[np.ndarray]:
    """The consecutive ``length``-bit sequences of a bitstream file (by
    default the whole stream, as one sequence), each read and unpacked to a
    bool array only when it is taken; a trailing part shorter than
    ``length`` is not yielded.  The header and the file size are checked
    before the first sequence."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated bitstream file")
        (n_bits,) = _HEADER.unpack(header)
        n_bytes, size = (n_bits + 7) // 8, os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != n_bytes:
            what = "truncated bitstream file" if size < n_bytes else "bitstream file longer than its header says"
            raise ValueError(f"{path}: {what}: {n_bits} bits need {n_bytes} payload bytes, the file has {size}")
        if n_bits == 0:
            raise ValueError(f"{path}: no bits in file")
        length = length or n_bits
        for start in range(0, n_bits - length + 1, length):
            skip = start % 8
            fh.seek(_HEADER.size + start // 8)
            packed = np.frombuffer(fh.read((skip + length + 7) // 8), dtype=np.uint8)
            yield np.unpackbits(packed)[skip : skip + length].view(bool)


def save_provenance(path: str | Path, n_bits: int, provenance: dict) -> None:
    """JSON sidecar of a conditioned stream: its length and origin."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": "conditioned", "bits": n_bits, "provenance": provenance}, fh, indent=2)
        fh.write("\n")
