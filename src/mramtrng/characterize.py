"""Find the cells whose reduced-timing failures are random, not stuck.

A campaign of N repeated reset -> reduced write -> read cycles gives each
cell a column of N readouts.  Every campaign resets the array to all ones
and writes 0 to every cell, so a readout of 1 is a failed write.  The
flip count of a cell is the number of value changes between consecutive
readouts:

    flips[c] = sum_i XOR(bits[i][c], bits[i+1][c]),   i = 0 .. N-2

``device.fold_campaigns`` counts them round by round, without keeping the
readouts, and this module works from its CampaignFold.  A cell whose
failures are temporally random flips about half the time (expected count
(N-1)/2), while reliable and stuck cells sit at or near zero.  Selection
keeps cells with th_l <= flips <= th_u; the lower threshold is the quality
knob and is chosen per chip.  A cell with no flips never changed its
readout; on real parts such invariant cells are the large majority.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .device import (
    CampaignFold,
    ChipModel,
    Environment,
    TimingParams,
    WORD_WIDTH,
    fold_campaigns,
)

_SEL_MAGIC = b"MRSL"
_SEL_VERSION = 1
# magic, version, num_addresses, word_width, th_l, th_u, n_measurements, entry count
_SEL_HEADER = struct.Struct("<4sHIHHHII")
_SEL_ENTRY = np.dtype([("addr", "<u4"), ("mask", "<u2")])

DEFAULT_SWEEP_TW_NS = (15.0, 10.0, 5.0, 2.5)


def expected_threshold(n: int) -> float:
    """Expected flip count of an ideal random cell, one that flips with
    probability 1/2 between readouts, over n measurements."""
    if n < 2:
        raise ValueError(f"need at least two measurements, got n={n}")
    return (n - 1) / 2


def suggest_th_l(n: int) -> int:
    """A usable starting lower threshold: 60 % of the ideal expectation,
    rounded, but at least 1, the least that the window admits."""
    return max(1, round(0.6 * expected_threshold(n)))


@dataclass(frozen=True)
class SelectionThresholds:
    """Inclusive flip-count window [th_l, th_u]; th_u defaults to N-1."""

    th_l: int
    th_u: int | None = None

    def resolve(self, n_measurements: int) -> tuple[int, int]:
        upper = self.th_u if self.th_u is not None else n_measurements - 1
        if not 1 <= self.th_l <= upper <= n_measurements - 1:
            raise ValueError(
                f"need 1 <= th_l <= th_u <= N-1; got th_l={self.th_l}, "
                f"th_u={upper}, N={n_measurements}"
            )
        return self.th_l, upper


@dataclass
class CellSelection:
    """The random-cell map of a chip at one threshold setting."""

    mask: np.ndarray
    n_measurements: int
    th_l: int
    th_u: int
    num_addresses: int

    @property
    def num_randcell(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def empty(self) -> bool:
        return self.num_randcell == 0

    @property
    def num_rand_addresses(self) -> int:
        return self._addresses().size

    @property
    def rand_addr_fraction(self) -> float:
        """Fraction of all addresses holding at least one selected cell."""
        return self.num_rand_addresses / self.num_addresses

    @property
    def bits_per_rand_addr(self) -> float:
        """Mean selected cells per random address (nan when empty)."""
        if self.empty:
            return float("nan")
        return self.num_randcell / self.num_rand_addresses

    @property
    def cell_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def _addresses(self) -> np.ndarray:
        """The ascending addresses that hold selected cells: those of the
        ascending cell indices, deduplicated, which is far faster than
        any(axis=1) over the whole array."""
        addr = self.cell_indices // WORD_WIDTH
        return addr[np.diff(addr, prepend=-1) != 0]

    def address_words(self) -> tuple[np.ndarray, np.ndarray]:
        """(addresses, 16-bit masks) for the compact on-disk form; bit j of
        a mask (MSB first) marks cell address*16+j as selected."""
        per_addr = self.mask.reshape(self.num_addresses, WORD_WIDTH)
        addrs = self._addresses()
        masks = np.packbits(per_addr[addrs], axis=1).view(">u2")[:, 0]
        return addrs.astype(np.uint32), masks.astype(np.uint16)


def select_cells(counts: np.ndarray, n_measurements: int, thresholds: SelectionThresholds) -> CellSelection:
    """Apply the flip-count window to the per-cell flip counts of an
    ``n_measurements``-round campaign; never raises on an empty result (the
    ``empty`` flag and the CLI exit code carry that condition)."""
    th_l, th_u = thresholds.resolve(n_measurements)
    if counts.size % WORD_WIDTH:
        raise ValueError(
            f"selection requires full {WORD_WIDTH}-bit words, got {counts.size} cells"
        )
    mask = (counts >= th_l) & (counts <= th_u)
    return CellSelection(
        mask=mask,
        n_measurements=n_measurements,
        th_l=th_l,
        th_u=th_u,
        num_addresses=counts.size // WORD_WIDTH,
    )


# --- write-timing sweep ----------------------------------------------------


@dataclass
class TimingSweepResult:
    # each width's folded campaign, in sweep order; each holds its width
    # and error fraction, and is reused when the harvest width was swept
    folds: tuple[CampaignFold, ...]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["t_w_ns", "error_fraction"])
            for f in self.folds:
                w.writerow([f"{f.t_w_ns:g}", f"{f.error_fraction():.6f}"])


def sweep_tw(
    chip: ChipModel,
    tw_list=DEFAULT_SWEEP_TW_NS,
    env: Environment | None = None,
    n: int = 50,
) -> TimingSweepResult:
    """Error fraction of an n-round campaign at each candidate pulse width,
    all widths folded in one pass over the rounds."""
    tw_list = tuple(tw_list)
    if not tw_list:
        raise ValueError("sweep needs at least one pulse width")
    folds = fold_campaigns(chip, [TimingParams(float(t)) for t in tw_list], env, n=n)
    return TimingSweepResult(tuple(folds))


def choose_tw(sweep: TimingSweepResult) -> float:
    """The harvesting pulse width: maximum error rate, ties to the wider
    (gentler) pulse."""
    return max(sweep.folds, key=lambda f: (f.error_fraction(), f.t_w_ns)).t_w_ns


# --- persistence -----------------------------------------------------------


def _selection_bytes(sel: CellSelection) -> bytes:
    """The compact binary form: only addresses holding selected cells,
    with a 16-bit per-address mask."""
    addrs, masks = sel.address_words()
    entries = np.empty(addrs.size, dtype=_SEL_ENTRY)
    entries["addr"] = addrs
    entries["mask"] = masks
    header = _SEL_HEADER.pack(
        _SEL_MAGIC,
        _SEL_VERSION,
        sel.num_addresses,
        WORD_WIDTH,
        sel.th_l,
        sel.th_u,
        sel.n_measurements,
        entries.size,
    )
    return header + entries.tobytes()


def selection_digest(sel: CellSelection) -> str:
    """SHA-256 hex digest of the compact form; used as stream provenance."""
    import hashlib

    return hashlib.sha256(_selection_bytes(sel)).hexdigest()


def save_selection(sel: CellSelection, path: str | Path) -> None:
    with open(path, "wb") as fh:
        fh.write(_selection_bytes(sel))


def load_selection(path: str | Path, num_addresses: int) -> CellSelection:
    """The selection in ``path``, which must be for a chip of
    ``num_addresses`` addresses; checked before the mask is allocated.

    A file is accepted only in the one byte form that save_selection writes
    (addresses strictly ascending, no zero mask, a window that resolves), so
    selection_digest of the result is the SHA-256 of the file itself.
    """
    data = Path(path).read_bytes()
    if data[:4] != _SEL_MAGIC:
        raise ValueError(f"{path}: not a selection file (bad magic)")
    if len(data) < _SEL_HEADER.size:
        raise ValueError(f"{path}: truncated selection file header")
    _, version, sel_addresses, word_width, th_l, th_u, n_meas, n_entries = _SEL_HEADER.unpack_from(data)
    if version != _SEL_VERSION:
        raise ValueError(f"{path}: unsupported selection file version {version}")
    if word_width != WORD_WIDTH:
        raise ValueError(f"{path}: word width must be {WORD_WIDTH}, got {word_width}")
    if sel_addresses != num_addresses:
        raise ValueError(
            f"{path}: selection is for {sel_addresses} addresses, but the chip has {num_addresses}"
        )
    if len(data) != _SEL_HEADER.size + n_entries * _SEL_ENTRY.itemsize:
        raise ValueError(
            f"{path}: header lists {n_entries} entries but the file size is {len(data)} bytes"
        )
    try:
        SelectionThresholds(th_l, th_u).resolve(n_meas)
    except ValueError as exc:
        raise ValueError(f"{path}: header thresholds: {exc}") from None
    entries = np.frombuffer(data, dtype=_SEL_ENTRY, offset=_SEL_HEADER.size)
    addrs = entries["addr"].astype(np.int64)
    if n_entries and addrs.max() >= num_addresses:
        raise ValueError(f"{path}: address {addrs.max()} out of range for {num_addresses} addresses")
    unordered = np.flatnonzero(np.diff(addrs) <= 0)
    if unordered.size:
        i = int(unordered[0]) + 1
        raise ValueError(
            f"{path}: addresses must be strictly ascending, but entry {i} "
            f"(address {addrs[i]}) follows address {addrs[i - 1]}"
        )
    empty = np.flatnonzero(entries["mask"] == 0)
    if empty.size:
        raise ValueError(f"{path}: entry {int(empty[0])} (address {addrs[empty[0]]}) has a zero mask")
    # bit j of a mask, MSB first, is cell address*16+j
    mask_bytes = entries["mask"].astype(">u2").view(np.uint8).reshape(-1, 2)
    per_addr = np.zeros((num_addresses, WORD_WIDTH), dtype=bool)
    per_addr[entries["addr"]] = np.unpackbits(mask_bytes, axis=1).astype(bool)
    return CellSelection(
        mask=per_addr.reshape(-1),
        n_measurements=n_meas,
        th_l=th_l,
        th_u=th_u,
        num_addresses=num_addresses,
    )


def export_selection_csv(sel: CellSelection, flip_counts: np.ndarray, path: str | Path) -> None:
    """Human-readable report: one row per random address with its mask and
    the flip count, from the per-cell ``flip_counts``, of each of its 16 bits."""
    addrs, masks = sel.address_words()
    fc = flip_counts.reshape(sel.num_addresses, WORD_WIDTH)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["address", "mask_hex"] + [f"flips_bit{j}" for j in range(WORD_WIDTH)])
        for a, m in zip(addrs, masks):
            w.writerow([int(a), f"{int(m):04x}"] + [int(v) for v in fc[a]])
