"""Raw-bit harvesting and SHA-256 conditioning.

Harvesting repeats the reduced-timing campaign and appends, per round,
the readout values of the selected cells in ascending (address, bit)
order.  The raw stream is then conditioned in fixed-size blocks: every
B_LEN = 512 raw bits are hashed with SHA-256 and the D_LEN = 256-bit
digests are concatenated.  A trailing partial block is discarded, so

    len(conditioned) == floor(len(raw) / B_LEN) * D_LEN

Bit/byte packing is MSB first throughout: the first harvested bit is the
most significant bit of the first byte fed to the hash.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .characterize import CellSelection, selection_digest
from .device import ChipModel, DataPattern, Environment, TimingParams, _plan_readout, _Readout, _readout_rows


# conditioning geometry: raw bits in (whole bytes), SHA-256 digest bits out, per block
B_LEN = 512
D_LEN = 256


@dataclass
class Bitstream:
    """A bit sequence plus the provenance needed to regenerate it."""

    bits: np.ndarray
    kind: str = "raw"
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.kind not in ("raw", "conditioned"):
            raise ValueError(f"kind must be 'raw' or 'conditioned', got {self.kind!r}")
        if self.kind == "conditioned" and len(self.bits) % D_LEN:
            raise ValueError(
                f"conditioned streams are whole digests; length {len(self.bits)} "
                f"is not a multiple of {D_LEN}"
            )

    def __len__(self) -> int:
        return int(self.bits.size)

    def to_bytes(self) -> bytes:
        """MSB-first packing; a final partial byte is zero-padded."""
        return np.packbits(self.bits).tobytes()


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


@dataclass(frozen=True)
class HarvestPlan:
    """What every chunk of one harvest shares, computed once per run: the
    readout set-up of the selected cells (their indices, keys, target bits
    and draw thresholds) and the provenance (its ``rounds`` and
    ``start_round`` are set per chunk)."""

    readout: _Readout
    provenance: dict


def plan_harvest(
    chip: ChipModel,
    selection: CellSelection,
    timing: TimingParams,
    env: Environment | None = None,
    pattern: DataPattern | None = None,
) -> HarvestPlan:
    """The per-run set-up of harvesting ``selection`` at ``timing``."""
    if selection.empty:
        raise ValueError("cannot harvest from an empty selection")
    env = env or Environment()
    pattern = pattern or DataPattern.solid(0x0000)
    prov = {
        "chip_id": chip.chip_id,
        "seed": chip.seed,
        "t_w_ns": timing.t_w_ns,
        "pattern": pattern.to_dict(),
        "env": env.to_dict(),
        "rounds": 0,
        "start_round": 0,
        "num_randcell": selection.num_randcell,
        "selection_sha256": selection_digest(selection),
    }
    return HarvestPlan(_plan_readout(chip, pattern, timing, env, selection.cell_indices), prov)


def harvest_rounds(plan: HarvestPlan, rounds: int, start_round: int = 0) -> Bitstream:
    """Readouts of the planned cells in rounds ``start_round`` onwards,
    round-major, then by ascending cell, as a raw stream: the rows of
    ``measure`` over the selected cells, from the same kernel.  Like
    measure, this leaves the selected cells holding the last round's readout.
    """
    rows = _readout_rows(plan.readout, rounds, start_round)
    prov = dict(plan.provenance, rounds=rounds, start_round=start_round)
    return Bitstream(bits=rows.reshape(-1), kind="raw", provenance=prov)


def digest_blocks(packed: bytes) -> bytes:
    """SHA-256 each whole B_LEN-bit block of MSB-first packed raw bits and
    concatenate the digests, which are the conditioned bits packed the same
    way.  Trailing bytes short of a whole block are not hashed."""
    step = B_LEN // 8
    view = memoryview(packed)
    sha256 = hashlib.sha256
    return b"".join(sha256(view[i : i + step]).digest() for i in range(0, len(view) - step + 1, step))


def conditioned_provenance(raw_provenance: dict, raw_bits: int) -> dict:
    """Provenance of the stream conditioned from ``raw_bits`` raw bits."""
    return dict(raw_provenance, b_len=B_LEN, d_len=D_LEN, raw_bits=raw_bits)


def condition(raw: Bitstream) -> Bitstream:
    """SHA-256 each full B_LEN-bit block; drop any trailing partial block."""
    if raw.kind != "raw":
        raise ValueError("condition() expects a raw stream")
    used = raw.bits[: len(raw) // B_LEN * B_LEN]
    digests = digest_blocks(np.packbits(used).tobytes())  # B_LEN % 8 == 0, exact
    bits = np.unpackbits(np.frombuffer(digests, dtype=np.uint8)).astype(bool)
    prov = conditioned_provenance(raw.provenance, len(raw))
    return Bitstream(bits=bits, kind="conditioned", provenance=prov)


# --- persistence -----------------------------------------------------------
# binary form: u64 little-endian bit count, then MSB-first packed bytes.


_HEADER = struct.Struct("<Q")
MAX_STREAM_BITS = 2**64 - 1  # the most bits the u64 header counts


def open_bitstream(path: str | Path, n_bits: int) -> BinaryIO:
    """Create a binary bitstream file and write its header; the caller then
    appends the ceil(n_bits / 8) payload bytes, in as many writes as it likes."""
    fh = open(path, "wb")
    fh.write(_HEADER.pack(n_bits))
    return fh


def save_bitstream(bs: Bitstream, path: str | Path) -> None:
    with open_bitstream(path, len(bs)) as fh:
        fh.write(bs.to_bytes())


def load_bitstream(path: str | Path, kind: str = "raw") -> Bitstream:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated bitstream file")
        (n_bits,) = _HEADER.unpack(header)
        payload = fh.read()
    n_bytes = (n_bits + 7) // 8
    if len(payload) < n_bytes:
        raise ValueError(f"{path}: truncated bitstream file")
    bits = np.unpackbits(np.frombuffer(payload[:n_bytes], dtype=np.uint8), count=n_bits)
    return Bitstream(bits=bits.astype(bool), kind=kind)


def save_provenance(path: str | Path, kind: str, n_bits: int, provenance: dict) -> None:
    """JSON sidecar with a stream's kind, length and origin metadata."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": kind, "bits": n_bits, "provenance": provenance}, fh, indent=2)
        fh.write("\n")
