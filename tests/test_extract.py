"""Harvest ordering, conditioning vectors, length law and stream files."""

import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import first_cells
from mramtrng import device
from mramtrng.device import DataPattern, Environment, TimingParams, measure
from mramtrng.extract import (
    B_LEN,
    D_LEN,
    Bitstream,
    condition,
    harvest_rounds,
    load_bitstream,
    plan_harvest,
    required_rounds,
    save_bitstream,
)
from mramtrng.sts import export_sts, import_sts

# FIPS 180-4 single-block / long-message test vectors
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
SHA256_MILLION_A = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"


def _bits_of_bytes(data: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).astype(bool)


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
    raw = Bitstream(_bits_of_bytes(b"a" * 64))
    cond = condition(raw)
    assert len(cond) == 256
    assert cond.to_bytes() == hashlib.sha256(b"a" * 64).digest()


def test_condition_matches_independent_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(0, 4000))
        bits = rng.random(n) < 0.5
        got = condition(Bitstream(bits)).bits
        assert np.array_equal(got, _oracle_condition(bits))


def test_condition_length_law():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(0, 10_000))
        raw = Bitstream(rng.random(n) < 0.5)
        cond = condition(raw)
        assert len(cond) == (n // 512) * 256
        assert cond.kind == "conditioned"


def test_condition_avalanche():
    # flipping one raw bit rewrites only that block's digest, about half its bits
    rng = np.random.default_rng(6)
    base = rng.random(2048) < 0.5  # 4 blocks
    ref = condition(Bitstream(base.copy())).bits
    diffs = []
    for _ in range(60):
        pos = int(rng.integers(0, 2048))
        mutated = base.copy()
        mutated[pos] = ~mutated[pos]
        out = condition(Bitstream(mutated)).bits
        block = pos // 512
        changed = np.flatnonzero(out != ref)
        assert changed.size > 0
        assert np.all((changed >= block * 256) & (changed < (block + 1) * 256))
        diffs.append(changed.size)
    assert 112 <= np.mean(diffs) <= 144  # 128 +/- 16


def test_condition_rejects_non_raw():
    cond = condition(Bitstream(np.zeros(512, dtype=bool)))
    with pytest.raises(ValueError):
        condition(cond)


def test_conditioned_length_invariant():
    with pytest.raises(ValueError):
        Bitstream(np.zeros(100, dtype=bool), kind="conditioned")
    Bitstream(np.zeros(512, dtype=bool), kind="conditioned")


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


def _chip_copy(chip):
    """``chip`` with its own stored state, so runs can be compared after."""
    return dataclasses.replace(chip, stored=chip.stored.copy())


# Each case: (rounds, start_round, t_w ns, env, pattern, cells kept or None);
# rounds None is two whole batches and 5 rounds more.
_BATCH = device._BATCH_WORDS  # rounds per batch is this over the cell count
HARVEST_CASES = {
    "solid": (5, 0, 2.5, Environment(), DataPattern.solid(0), None),
    # cells whose target is 1 do not toggle and read back 1
    "checkerboard": (5, 0, 2.5, Environment(), DataPattern.checkerboard(), None),
    "random": (5, 0, 2.5, Environment(), DataPattern.random(3), None),
    "0C": (5, 0, 2.5, Environment(temperature_c=0.0), DataPattern.solid(0), None),
    "25mT": (5, 0, 2.5, Environment(field_mt=25.0), DataPattern.solid(0), None),
    "15ns": (5, 0, 15.0, Environment(), DataPattern.solid(0), None),
    "start_round": (5, 100, 2.5, Environment(), DataPattern.solid(0), None),
    "ragged_batches": (None, 3, 2.5, Environment(), DataPattern.solid(0), None),
    "one_cell": (7, 2, 2.5, Environment(), DataPattern.solid(0), 1),
}


def _case(sel, name):
    rounds, start, tw, env, pattern, keep = HARVEST_CASES[name]
    if keep is not None:
        sel = first_cells(sel, keep)
    if rounds is None:
        rounds = 2 * (_BATCH // sel.num_randcell) + 5
    return sel, rounds, start, TimingParams(tw), env, pattern


@pytest.mark.parametrize("name", HARVEST_CASES)
def test_harvest_order_is_round_major_then_cell(chip_and_selection, name):
    chip, sel = chip_and_selection
    sel, rounds, start, timing, env, pattern = _case(sel, name)
    got_chip, ref_chip = _chip_copy(chip), _chip_copy(chip)
    bs = harvest_rounds(plan_harvest(got_chip, sel, timing, env, pattern), rounds, start)
    ref = measure(
        ref_chip, pattern, timing, env, n=rounds, start_round=start,
        cell_indices=sel.cell_indices,
    )
    assert np.array_equal(bs.bits, ref.bits.reshape(-1))
    assert len(bs) == rounds * sel.num_randcell
    assert np.array_equal(got_chip.stored, ref_chip.stored)
    # the cases reach what they are named for
    errors = ref.bits != ref.written
    if name in ("checkerboard", "random"):
        assert 0 < np.count_nonzero(ref.written) < sel.num_randcell
    if name == "15ns":
        assert not errors.any()
    else:
        assert errors.any() and not errors.all()
    if name == "25mT":
        assert env.field_mt > chip.env_coeffs.field_threshold_mt
    if name == "ragged_batches":
        assert rounds % (_BATCH // sel.num_randcell) != 0 and rounds > 2 * (_BATCH // sel.num_randcell)


@pytest.mark.parametrize("name", HARVEST_CASES)
def test_harvest_subset_equals_full_array_columns(chip_and_selection, name):
    chip, sel = chip_and_selection
    sel, rounds, start, timing, env, pattern = _case(sel, name)
    got_chip, ref_chip = _chip_copy(chip), _chip_copy(chip)
    idx = sel.cell_indices
    bs = harvest_rounds(plan_harvest(got_chip, sel, timing, env, pattern), rounds, start)
    full = measure(ref_chip, pattern, timing, env, n=rounds, start_round=start)
    assert np.array_equal(bs.bits.reshape(rounds, -1), full.bits[:, idx])
    assert np.array_equal(got_chip.stored[idx], ref_chip.stored[idx])


def test_harvest_rounds_validation(chip_and_selection):
    chip, sel = chip_and_selection
    plan = plan_harvest(_chip_copy(chip), sel, TimingParams(2.5))
    with pytest.raises(ValueError, match="rounds"):
        harvest_rounds(plan, 0)
    with pytest.raises(ValueError, match="start_round"):
        harvest_rounds(plan, 1, start_round=-1)


def test_harvest_provenance_and_determinism(chip_and_selection):
    chip, sel = chip_and_selection
    timing = TimingParams(2.5)
    a = harvest_rounds(plan_harvest(chip, sel, timing), 3)
    b = harvest_rounds(plan_harvest(chip, sel, timing), 3)
    assert np.array_equal(a.bits, b.bits)
    for key in ("chip_id", "seed", "t_w_ns", "selection_sha256", "rounds", "num_randcell"):
        assert key in a.provenance
    assert a.provenance["t_w_ns"] == 2.5
    assert a.kind == "raw"


def test_harvest_rejects_empty_selection(chip_and_selection):
    chip, sel = chip_and_selection
    empty = dataclasses.replace(sel, mask=np.zeros_like(sel.mask))
    with pytest.raises(ValueError, match="empty"):
        plan_harvest(chip, empty, TimingParams(2.5))


# --- stream files ----------------------------------------------------------


def test_bitstream_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    for n in (0, 1, 7, 8, 9, 513, 4099):
        bits = rng.random(n) < 0.5
        p = tmp_path / f"s{n}.bits"
        save_bitstream(Bitstream(bits), p)
        again = load_bitstream(p)
        assert np.array_equal(again.bits, bits)


def test_bitstream_binary_truncation_detected(tmp_path):
    p = tmp_path / "s.bits"
    save_bitstream(Bitstream(np.ones(1000, dtype=bool)), p)
    data = p.read_bytes()
    p.write_bytes(data[:40])
    with pytest.raises(ValueError, match="truncated"):
        load_bitstream(p)
    p.write_bytes(b"\x01")
    with pytest.raises(ValueError, match="truncated"):
        load_bitstream(p)


def test_bitstream_ascii_roundtrip(tmp_path):
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1], dtype=bool)
    p = tmp_path / "s.txt"
    export_sts(Bitstream(bits).bits, p)
    assert p.read_text().strip() == "10110010111"
    p.write_text(p.read_text() + "\n")
    again = import_sts(p)
    assert np.array_equal(again.bits, bits)


def test_bitstream_ascii_rejects_junk(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0101x01")
    with pytest.raises(ValueError):
        import_sts(p)


def test_msb_first_packing():
    bs = Bitstream(np.array([1, 0, 0, 0, 0, 0, 0, 1, 1], dtype=bool))
    assert bs.to_bytes() == bytes([0b1000_0001, 0b1000_0000])
