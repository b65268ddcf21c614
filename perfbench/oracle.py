"""Reference computations the benchmark checks mramtrng's outputs against.

Nothing here imports mramtrng.  The counter RNG and the toggle-write model are
re-derived from their documentation as scalar Python integers and floats, the
.mrtg, .mrsl and .bits layouts are read with struct and numpy, conditioning
is checked with hashlib, and battery p-values are recomputed with
scipy.special.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np
from scipy.special import erfc, gammaincc, ndtr

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX_A = 0xBF58476D1CE4E5B9
MIX_B = 0x94D049BB133111EB
SEED_TWEAK = 0xD1B54A32D192ED03

# draw streams of one simulated write: toggle success, metastable or not, value
STREAM_TOGGLE, STREAM_META, STREAM_VALUE = 0, 1, 2

# published SplitMix64 outputs for seed 1234567
SPLITMIX64_1234567 = (6457827717110365317, 3203168211198807973, 9817491932198370423)

# conditioning geometry: 512 raw bits hashed to one 256-bit SHA-256 digest
B_LEN, D_LEN = 512, 256

# throughput model constants of the reference part (ns per address, per block)
T_RW_NS, T_HASH_NS = 239.76, 802.6

ALPHA = 0.01


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a Python int in [0, 2**64)."""
    z ^= z >> 30
    z = (z * MIX_A) & M64
    z ^= z >> 27
    z = (z * MIX_B) & M64
    return z ^ (z >> 31)


def splitmix64(seed: int, count: int) -> list[int]:
    """The first ``count`` outputs of the SplitMix64 generator."""
    state, out = seed, []
    for _ in range(count):
        state = (state + GOLDEN) & M64
        out.append(mix64(state))
    return out


def self_check() -> None:
    """Refuse to judge anything if the oracle's mixer is not SplitMix64."""
    got = tuple(splitmix64(1234567, 3))
    if got != SPLITMIX64_1234567:
        raise AssertionError(f"oracle SplitMix64 stream {got} != published {SPLITMIX64_1234567}")


class ToggleOracle:
    """Scalar readout of one cell after reset to 0xFFFF and a solid-0 write.

    A cell's draws are keyed by (chip seed, cell, round, stream): the cell key
    is mix64(cell * GOLDEN + k_cell), the round key mix64(round * GOLDEN +
    stream * MIX_A + k_round), and the uniform is the top 53 bits of
    mix64(cell_key ^ round_key) scaled by 2**-53.  The stored 1 must toggle to
    0; the toggle fails with the logistic probability of the pulse width, and
    a failed toggle resolves to Bernoulli(bias) with probability
    metastable_frac, else it leaves the 1 in place.  Valid at 26 C and zero
    field, where the switching delay is the cell's tau.
    """

    def __init__(self, chip: "ChipFile", t_w_ns: float):
        seed = chip.seed
        self.chip = chip
        self.t_w_ns = t_w_ns
        self.k_cell = mix64((seed * GOLDEN + GOLDEN) & M64)
        self.k_round = mix64((((seed ^ SEED_TWEAK) * GOLDEN) + MIX_B) & M64)
        self._round_keys: dict[tuple[int, int], int] = {}

    def _uniform(self, cell_key: int, rnd: int, stream: int) -> float:
        rk = self._round_keys.get((rnd, stream))
        if rk is None:
            rk = mix64((rnd * GOLDEN + stream * MIX_A + self.k_round) & M64)
            self._round_keys[(rnd, stream)] = rk
        return (mix64(cell_key ^ rk) >> 11) * 2.0**-53

    def p_fail(self, cell: int) -> float:
        k = float(self.chip.steepness[cell])
        tau = float(self.chip.tau[cell])
        z = min(60.0, max(-60.0, k * (tau - self.t_w_ns)))
        if z >= 0.0:
            return 1.0 / (1.0 + math.exp(-z))
        ez = math.exp(z)
        return ez / (1.0 + ez)

    def readouts(self, cell: int, rounds) -> list[int]:
        key = mix64((cell * GOLDEN + self.k_cell) & M64)
        p_fail = self.p_fail(cell)
        mf = float(self.chip.metastable_frac[cell])
        bias = float(self.chip.metastable_bias[cell])
        out = []
        for r in rounds:
            if not self._uniform(key, r, STREAM_TOGGLE) < p_fail:
                out.append(0)
            elif not self._uniform(key, r, STREAM_META) < mf:
                out.append(1)
            else:
                out.append(int(self._uniform(key, r, STREAM_VALUE) < bias))
        return out


# --- file layouts -----------------------------------------------------------


class ChipFile:
    """.mrtg: 'MRTG', u16 version, u16 id length, id, u32 addresses, u16 word
    width, four f64 arrays (tau, steepness, metastable frac, bias), packed
    stored bits, f64 temperature slope, f64 field threshold, u64 seed."""

    def __init__(self, path: Path):
        buf = Path(path).read_bytes()
        if buf[:4] != b"MRTG":
            raise ValueError(f"{path}: bad chip magic")
        (id_len,) = struct.unpack_from("<H", buf, 6)
        pos = 8 + id_len
        self.num_addresses, self.word_width = struct.unpack_from("<IH", buf, pos)
        pos += 6
        m = self.num_addresses * self.word_width
        arrays = []
        for _ in range(4):
            arrays.append(np.frombuffer(buf, dtype="<f8", count=m, offset=pos))
            pos += 8 * m
        self.tau, self.steepness, self.metastable_frac, self.metastable_bias = arrays
        pos += (m + 7) // 8 + 16
        (self.seed,) = struct.unpack_from("<Q", buf, pos)
        if pos + 8 != len(buf):
            raise ValueError(f"{path}: {len(buf) - pos - 8} unexpected trailing bytes")
        self.num_cells = m

    def expected_error_fraction(self, t_w_ns: float) -> float:
        """Mean probability that a cell reads 1 after the solid-0 write."""
        z = np.clip(self.steepness * (self.tau - t_w_ns), -60.0, 60.0)
        p_fail = 1.0 / (1.0 + np.exp(-z))
        return float(np.mean(p_fail * ((1.0 - self.metastable_frac) + self.metastable_frac * self.metastable_bias)))


class SelectionFile:
    """.mrsl: 'MRSL', u16 version, u32 addresses, u16 word width, u16 th_l,
    u16 th_u, u32 rounds, u32 entry count, then (u32 address, u16 mask) per
    entry, mask MSB = bit 0 of the word."""

    def __init__(self, path: Path):
        self.raw = Path(path).read_bytes()
        if self.raw[:4] != b"MRSL":
            raise ValueError(f"{path}: bad selection magic")
        (_, self.num_addresses, self.word_width, self.th_l, self.th_u, self.n_measurements) = (
            struct.unpack_from("<HIHHHI", self.raw, 4)
        )
        (n_entries,) = struct.unpack_from("<I", self.raw, 20)
        if len(self.raw) != 24 + 6 * n_entries:
            raise ValueError(f"{path}: size does not match {n_entries} entries")
        entries = np.frombuffer(self.raw, dtype=[("addr", "<u4"), ("mask", "<u2")], offset=24)
        cells = []
        for addr, mask in zip(entries["addr"].tolist(), entries["mask"].tolist()):
            for j in range(self.word_width):
                if mask >> (self.word_width - 1 - j) & 1:
                    cells.append(addr * self.word_width + j)
        self.cells = sorted(cells)
        self.cell_set = set(cells)
        self.num_rand_addresses = n_entries

    @property
    def bits_per_rand_addr(self) -> float:
        return len(self.cells) / self.num_rand_addresses

    def sha256(self) -> str:
        return hashlib.sha256(self.raw).hexdigest()


def read_bits(path: Path) -> tuple[int, bytes]:
    """.bits: u64 little-endian bit count, then the bits packed MSB first."""
    buf = Path(path).read_bytes()
    (n_bits,) = struct.unpack_from("<Q", buf, 0)
    payload = buf[8:]
    if len(payload) != (n_bits + 7) // 8:
        raise ValueError(f"{path}: {len(payload)} payload bytes for {n_bits} bits")
    return n_bits, payload


def write_bits(path: Path, n_bits: int, payload: bytes) -> None:
    Path(path).write_bytes(struct.pack("<Q", n_bits) + payload)


def bit_at(payload: bytes, k: int) -> int:
    return payload[k >> 3] >> (7 - (k & 7)) & 1


# --- conditioning and rate --------------------------------------------------


def required_rounds(target_bits: int, num_randcell: int) -> int:
    """Fewest harvest rounds whose whole blocks yield ``target_bits``."""
    blocks = -(-target_bits // D_LEN)
    return -(-(blocks * B_LEN) // num_randcell)


def conditioning_errors(raw_path: Path, cond_path: Path) -> list[str]:
    """SHA-256 over each whole 64-byte raw block, and the length law."""
    raw_bits, raw = read_bits(raw_path)
    cond_bits, cond = read_bits(cond_path)
    errors = []
    n_blocks = raw_bits // B_LEN
    if cond_bits != n_blocks * D_LEN:
        errors.append(f"length law: {cond_bits} conditioned bits from {raw_bits} raw")
    step = B_LEN // 8
    expected = b"".join(
        hashlib.sha256(raw[i * step : (i + 1) * step]).digest() for i in range(n_blocks)
    )
    if expected != cond:
        errors.append("conditioned.bits differs from SHA-256 over the raw blocks")
    return errors


def throughput_mbit_per_s(bits_per_rand_addr: float) -> float:
    gather_ns = T_RW_NS * B_LEN / bits_per_rand_addr
    return D_LEN / (gather_ns + T_HASH_NS) * 1000.0


# --- battery p-values -------------------------------------------------------


def frequency_p(bits: np.ndarray) -> float:
    n = bits.size
    s = abs(2 * int(np.count_nonzero(bits)) - n)
    return float(erfc(s / math.sqrt(2.0 * n)))


def runs_p(bits: np.ndarray) -> float:
    n = bits.size
    ones = int(np.count_nonzero(bits))
    if abs(ones / n - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0
    v = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    pi = ones / n
    return float(erfc(abs(v - 2.0 * n * pi * (1 - pi)) / (2.0 * math.sqrt(2.0 * n) * pi * (1 - pi))))


def cumulative_sums_p(bits: np.ndarray, reverse: bool) -> float:
    n = bits.size
    walk = np.cumsum(np.where(bits[::-1] if reverse else bits, 1, -1))
    z = int(np.max(np.abs(walk)))
    sq = math.sqrt(n)
    k1 = np.arange(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
    k2 = np.arange(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
    p = (
        1.0
        - np.sum(ndtr((4 * k1 + 1) * z / sq) - ndtr((4 * k1 - 1) * z / sq))
        + np.sum(ndtr((4 * k2 + 3) * z / sq) - ndtr((4 * k2 + 1) * z / sq))
    )
    return float(min(1.0, max(0.0, p)))


BATTERY_ROWS = {
    "Frequency": frequency_p,
    "Runs": runs_p,
    "CumulativeSumsFwd": lambda b: cumulative_sums_p(b, reverse=False),
    "CumulativeSumsRev": lambda b: cumulative_sums_p(b, reverse=True),
}


def battery_rows(streams: list[np.ndarray]) -> dict[str, tuple[int, float]]:
    """(streams passing at ALPHA, uniformity p-value) for the rows recomputed here.

    Uniformity is the chi-squared fit of the p-values to 10 equal bins.
    """
    rows = {}
    for name, fn in BATTERY_ROWS.items():
        p = np.array([fn(bits) for bits in streams])
        counts = np.bincount(np.clip((p * 10).astype(int), 0, 9), minlength=10)
        chi = float(np.sum((counts - p.size / 10) ** 2 / (p.size / 10)))
        rows[name] = (int(np.count_nonzero(p >= ALPHA)), float(gammaincc(4.5, chi / 2)))
    return rows
