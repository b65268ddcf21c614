"""Harvest ordering, conditioning vectors, length law and the stream
file reader."""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from conftest import bits_file, cell_set, first_cells
from mramtrng import device
from mramtrng.device import Environment, TimingParams, measure
from mramtrng.extract import (
    B_LEN,
    D_LEN,
    digest_blocks,
    harvest_provenance,
    harvest_rounds,
    plan_harvest,
    read_bitstream,
    required_rounds,
)
from mramtrng.sts import import_sts

# FIPS 180-4 single-block / long-message test vectors
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
SHA256_MILLION_A = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"


def _bits_of_bytes(data: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).astype(bool)


def _condition(bits: np.ndarray) -> np.ndarray:
    """``bits`` conditioned as generate conditions them: the whole bytes
    packed MSB first, hashed by digest_blocks (which drops a partial
    block), and unpacked."""
    packed = np.packbits(bits[: len(bits) // 8 * 8]).tobytes()
    return np.unpackbits(np.frombuffer(digest_blocks(packed), dtype=np.uint8)).view(bool)


def _oracle_condition(bits: np.ndarray, b_len: int = 512) -> np.ndarray:
    """Independent reference: string-based packing, hashlib per block."""
    n_blocks = len(bits) // b_len
    digest_bits = []
    for i in range(n_blocks):
        chunk = bits[i * b_len : (i + 1) * b_len]
        as_int = int("".join("1" if b else "0" for b in chunk), 2)
        data = as_int.to_bytes(b_len // 8, "big")
        d = hashlib.sha256(data).digest()
        digest_bits.append(_bits_of_bytes(d))
    if not digest_bits:
        return np.zeros(0, dtype=bool)
    return np.concatenate(digest_bits)


def test_conditioning_hash_matches_fips_vectors():
    # the conditioning primitive must be the standard SHA-256
    assert hashlib.sha256(b"").hexdigest() == SHA256_EMPTY
    assert hashlib.sha256(b"abc").hexdigest() == SHA256_ABC
    assert hashlib.sha256(b"a" * 1_000_000).hexdigest() == SHA256_MILLION_A


def test_condition_one_block_equals_direct_hash():
    # a 512-bit raw block of the ASCII bytes of 64 'a's hashes like those bytes
    cond = _condition(_bits_of_bytes(b"a" * 64))
    assert len(cond) == 256
    assert np.packbits(cond).tobytes() == hashlib.sha256(b"a" * 64).digest()
    assert digest_blocks(b"a" * 64) == hashlib.sha256(b"a" * 64).digest()


def test_condition_matches_independent_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(0, 4000))
        bits = rng.random(n) < 0.5
        assert np.array_equal(_condition(bits), _oracle_condition(bits))


def test_condition_length_law():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(0, 10_000))
        assert len(_condition(rng.random(n) < 0.5)) == (n // 512) * 256


def test_condition_avalanche():
    # flipping one raw bit rewrites only that block's digest, about half its bits
    rng = np.random.default_rng(6)
    base = rng.random(2048) < 0.5  # 4 blocks
    ref = _condition(base)
    diffs = []
    for _ in range(60):
        pos = int(rng.integers(0, 2048))
        mutated = base.copy()
        mutated[pos] = ~mutated[pos]
        out = _condition(mutated)
        block = pos // 512
        changed = np.flatnonzero(out != ref)
        assert changed.size > 0
        assert np.all((changed >= block * 256) & (changed < (block + 1) * 256))
        diffs.append(changed.size)
    assert 112 <= np.mean(diffs) <= 144  # 128 +/- 16


def test_required_rounds_reference_case():
    assert required_rounds(1024, 128) == 16


def test_required_rounds_is_minimal():
    rng = np.random.default_rng(7)
    for _ in range(300):
        target = int(rng.integers(1, 20_000))
        nrc = int(rng.integers(1, 4000))
        r = required_rounds(target, nrc)
        assert (r * nrc // B_LEN) * D_LEN >= target
        if r > 1:
            assert ((r - 1) * nrc // B_LEN) * D_LEN < target


def test_required_rounds_is_exact_beyond_float_precision():
    # 2**60 + 1 bits need 2**52 + 1 digests; a float quotient rounds to 2**52
    assert required_rounds(2**60 + 1, 1) == (2**52 + 1) * 512
    assert required_rounds(2**60 + 1, 3) == -(-(2**52 + 1) * 512 // 3)


def test_required_rounds_validation():
    with pytest.raises(ValueError):
        required_rounds(0, 100)
    with pytest.raises(ValueError):
        required_rounds(100, 0)


# --- harvest ---------------------------------------------------------------


@pytest.fixture(scope="module")
def chip_and_selection(small_chip, small_selection):
    return small_chip, small_selection


# Each case: (rounds, start_round, t_w ns, env, selected cells kept: all
# (None), the first k, or those in a conftest.cell_set); rounds None is two
# whole batches and 5 rounds more.
_BATCH = device._BATCH_WORDS  # rounds per batch is this over the cell count
HARVEST_CASES = {
    "solid": (5, 0, 2.5, Environment(), None),
    "checkerboard": (5, 0, 2.5, Environment(), "checkerboard"),
    "random": (5, 0, 2.5, Environment(), "random"),
    "0C": (5, 0, 2.5, Environment(temperature_c=0.0), None),
    "25mT": (5, 0, 2.5, Environment(field_mt=25.0), None),
    "15ns": (5, 0, 15.0, Environment(), None),
    "start_round": (5, 100, 2.5, Environment(), None),
    "ragged_batches": (None, 3, 2.5, Environment(), None),
    "one_cell": (7, 2, 2.5, Environment(), 1),
}


def _case(sel, name):
    rounds, start, tw, env, keep = HARVEST_CASES[name]
    if isinstance(keep, int):
        sel = first_cells(sel, keep)
    elif keep is not None:
        mask = np.zeros_like(sel.mask)
        mask[cell_set(keep, sel.mask.size)] = True
        sel = dataclasses.replace(sel, mask=sel.mask & mask)
    if rounds is None:
        rounds = 2 * (_BATCH // sel.num_randcell) + 5
    return sel, rounds, start, TimingParams(tw), env


@pytest.mark.parametrize("name", HARVEST_CASES)
def test_harvest_order_is_round_major_then_cell(chip_and_selection, name):
    chip, full_sel = chip_and_selection
    sel, rounds, start, timing, env = _case(full_sel, name)
    bits = harvest_rounds(plan_harvest(chip, sel, timing, env), rounds, start)
    ref = measure(chip, timing, env, n=rounds, start_round=start, cell_indices=sel.cell_indices)
    assert bits.dtype == bool and np.array_equal(bits, ref.bits.reshape(-1))
    assert len(bits) == rounds * sel.num_randcell
    # the cases reach what they are named for
    if name in ("checkerboard", "random"):
        assert 0 < sel.num_randcell < full_sel.num_randcell
    if name == "15ns":
        assert not ref.bits.any()  # a 1 is an error
    else:
        assert ref.bits.any() and not ref.bits.all()
    if name == "25mT":
        assert env.field_mt > chip.env_coeffs.field_threshold_mt
    if name == "ragged_batches":
        assert rounds % (_BATCH // sel.num_randcell) != 0 and rounds > 2 * (_BATCH // sel.num_randcell)


@pytest.mark.parametrize("name", HARVEST_CASES)
def test_harvest_subset_equals_full_array_columns(chip_and_selection, name):
    chip, sel = chip_and_selection
    sel, rounds, start, timing, env = _case(sel, name)
    bits = harvest_rounds(plan_harvest(chip, sel, timing, env), rounds, start)
    full = measure(chip, timing, env, n=rounds, start_round=start)
    assert np.array_equal(bits.reshape(rounds, -1), full.bits[:, sel.cell_indices])


def test_harvest_rounds_validation(chip_and_selection):
    chip, sel = chip_and_selection
    plan = plan_harvest(chip, sel, TimingParams(2.5))
    with pytest.raises(ValueError, match="rounds"):
        harvest_rounds(plan, 0)
    with pytest.raises(ValueError, match="start_round"):
        harvest_rounds(plan, 1, start_round=-1)


def test_harvest_provenance_and_determinism(chip_and_selection):
    chip, sel = chip_and_selection
    timing = TimingParams(2.5)
    a = harvest_rounds(plan_harvest(chip, sel, timing), 3)
    b = harvest_rounds(plan_harvest(chip, sel, timing), 3)
    assert np.array_equal(a, b)
    prov = harvest_provenance(chip, sel, timing, Environment(field_mt=5.0), 3)
    assert list(prov) == [
        "chip_id", "seed", "t_w_ns", "pattern", "env", "rounds", "start_round",
        "num_randcell", "selection_sha256", "b_len", "d_len", "raw_bits",
    ]
    assert (prov["t_w_ns"], prov["rounds"], prov["start_round"]) == (2.5, 3, 0)
    assert prov["env"] == {"temperature_c": 26.0, "field_mt": 5.0, "field_axis": "+z"}
    assert prov["raw_bits"] == 3 * sel.num_randcell == 3 * prov["num_randcell"]


def test_harvest_rejects_empty_selection(chip_and_selection):
    chip, sel = chip_and_selection
    empty = dataclasses.replace(sel, mask=np.zeros_like(sel.mask))
    with pytest.raises(ValueError, match="empty"):
        plan_harvest(chip, empty, TimingParams(2.5))


# --- stream files ----------------------------------------------------------


def test_bitstream_binary_roundtrip(tmp_path):
    """By default a file is read whole, as one sequence."""
    rng = np.random.default_rng(9)
    for n in (1, 7, 8, 9, 513, 4099):
        bits = rng.random(n) < 0.5
        p = tmp_path / f"s{n}.bits"
        p.write_bytes(bits_file(bits))
        again = read_bitstream(p)
        assert again.dtype == bool and np.array_equal(again, bits)


def test_bitstream_binary_truncation_detected(tmp_path):
    """A bad header or file size raises on every call, whatever bits it asks for."""
    p = tmp_path / "s.bits"
    good = bits_file(np.ones(1000, dtype=bool))
    for data, message in (
        (good[:40], "truncated bitstream file"),
        (b"\x01", "truncated bitstream file"),
        (good + b"\x00", "longer than its header says"),
        (struct.pack("<Q", 0), "no bits in file"),
        (struct.pack("<Q", 0) + b"\x00", "longer than its header says"),
    ):
        p.write_bytes(data)
        for start in (0, 8, 13):
            with pytest.raises(ValueError, match=message) as exc:
                read_bitstream(p, start, 8)
            assert str(p) in str(exc.value)


@pytest.mark.parametrize("n_bits", [1, 7, 8, 9, 513, 4099, 20_000])
@pytest.mark.parametrize("length", [1, 3, 8, 13, 64, 1000, 4099])
def test_reader_yields_the_consecutive_sequences(tmp_path, n_bits, length):
    """The ``length`` bits from ``start``, cut from np.unpackbits of the
    file's payload, for the consecutive starts that grading uses and for
    starts at every offset in a byte; bits past the stream raise."""
    bits = np.random.default_rng(n_bits).random(n_bits) < 0.5
    p = tmp_path / "s.bits"
    p.write_bytes(bits_file(bits))
    ref = np.unpackbits(np.frombuffer(p.read_bytes()[8:], dtype=np.uint8), count=n_bits).view(bool)
    starts = {*range(0, n_bits - length + 1, length), *range(min(8, n_bits - length + 1))}
    for start in sorted(starts):
        got = read_bitstream(p, start, length)
        assert got.dtype == bool and np.array_equal(got, ref[start : start + length]), start
    for start in (n_bits - length + 1, n_bits, -1):
        with pytest.raises(ValueError, match="outside its"):
            read_bitstream(p, start, length)


def test_reader_reads_one_sequence_at_a_time(tmp_path, monkeypatch):
    """A call reads and unpacks the bytes that hold its one sequence and no more."""
    p = tmp_path / "s.bits"
    p.write_bytes(bits_file(np.random.default_rng(2).random(80_000) < 0.5))
    reads = []
    unpack = np.unpackbits
    monkeypatch.setattr(np, "unpackbits", lambda a, *args, **kw: reads.append(a.size) or unpack(a, *args, **kw))
    read_bitstream(p, 10_000, 10_000)
    read_bitstream(p, 10_003, 10_000)
    read_bitstream(p, 79_999)
    assert reads == [1250, 1251, 1]


def test_bitstream_ascii_roundtrip(tmp_path):
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1], dtype=bool)
    p = tmp_path / "s.txt"
    p.write_bytes(b"10110010111\n")
    again = import_sts(p)
    assert again.dtype == bool and np.array_equal(again, bits)


def test_bitstream_ascii_rejects_junk(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0101x01")
    with pytest.raises(ValueError):
        import_sts(p)


def test_msb_first_packing(tmp_path):
    p = tmp_path / "s.bits"
    p.write_bytes(struct.pack("<Q", 9) + bytes([0b1000_0001, 0b1000_0000]))
    assert read_bitstream(p).tolist() == [1, 0, 0, 0, 0, 0, 0, 1, 1]
    assert [read_bitstream(p, s, 4).tolist() for s in (0, 4)] == [[1, 0, 0, 0], [0, 0, 0, 1]]
