"""End-to-end acceptance: one test per release criterion, tolerances pinned.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
numbers so a release run reads as a checklist.  The default-recipe chip is
built once at full size (65,536 addresses, 1 Mb) and shared, and criteria
1-3 and 8 read the campaigns that `pipeline` folds from it.
"""

import dataclasses
import hashlib
import math
import time

import numpy as np
import pytest

import reference as ref
from mramtrng import cli
from mramtrng.characterize import SelectionThresholds, classify_fold, select_cells, sweep_tw
from mramtrng.device import (
    Environment,
    TimingParams,
    create_chip,
    default_config,
    fold_campaigns,
    measure,
)
from mramtrng.extract import B_LEN, digest_blocks, harvest_rounds, plan_harvest, required_rounds
from mramtrng.sts import (
    approximate_entropy,
    block_frequency,
    cumulative_sums,
    frequency_monobit,
    longest_run,
    run_battery,
    runs,
    serial,
)
from mramtrng.throughput import ThroughputInputs, throughput

SEED = 7
HARVEST_TW_NS = 2.5
N_ROUNDS = 50
STREAMS = 20
STREAM_BITS = 100_000
P_TOL = 1e-9

# published reference point: per-address and per-block times plus the five
# chips' selection statistics and their quoted generation rates
REF_T_RW_NS = 239.76
REF_T_HASH_NS = 802.6
REF_RATES = (
    (9.71, 18.17),
    (10.71, 19.95),
    (13.19, 24.12),
    (11.39, 21.10),
    (12.76, 23.47),
)

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
SHA256_TWO_BLOCK = "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def calibrated():
    """Default chip plus the folded campaign of each pulse width of the
    pipeline's sweep, keyed by width; elapsed wall time kept."""
    t0 = time.perf_counter()
    chip = create_chip(default_config(), seed=SEED)
    folds = {f.t_w_ns: f for f in sweep_tw(chip, n=N_ROUNDS).folds}
    elapsed = time.perf_counter() - t0
    return chip, folds, elapsed


@pytest.fixture(scope="module")
def selection(calibrated):
    _, folds, _ = calibrated
    return select_cells(folds[HARVEST_TW_NS].flip_counts, N_ROUNDS, SelectionThresholds(th_l=15))


def _unpack(data: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8)).view(bool)


@pytest.fixture(scope="module")
def conditioned_streams(calibrated, selection):
    chip, _, _ = calibrated
    rounds = required_rounds(STREAMS * STREAM_BITS, selection.num_randcell)
    raw = harvest_rounds(plan_harvest(chip, selection, TimingParams(HARVEST_TW_NS)), rounds)
    bits = _unpack(digest_blocks(np.packbits(raw[: raw.size // B_LEN * B_LEN]).tobytes()))
    return [bits[i * STREAM_BITS : (i + 1) * STREAM_BITS] for i in range(STREAMS)]


# --- 1: calibration window and runtime --------------------------------------


def test_criterion_1_error_fraction_calibration(calibrated):
    _, folds, elapsed = calibrated
    err = {tw: fold.error_fraction() for tw, fold in folds.items()}
    ok = (
        0.2559 <= err[2.5] <= 0.3730
        and err[5.0] < 0.05
        and err[10.0] < 0.01
        and err[15.0] < 0.001
        and elapsed < 30.0
    )
    _verdict(
        1,
        ok,
        f"err@2.5={err[2.5]:.4f} in [0.2559,0.3730], err@5={err[5.0]:.4f}<0.05, "
        f"err@10={err[10.0]:.4f}<0.01, err@15={err[15.0]:.5f}<0.001, "
        f"chip and sweep {elapsed:.1f}s<30s",
    )


# --- 2: persistent-cell fraction --------------------------------------------


def test_criterion_2_invariant_cell_fraction(calibrated):
    _, folds, _ = calibrated
    frac = classify_fold(folds[HARVEST_TW_NS]).invariant_fraction
    _verdict(2, 0.40 <= frac <= 0.60, f"persistent cells {100 * frac:.2f}% in [40%,60%]")


# --- 3: selection statistics across thresholds ------------------------------


def test_criterion_3_selection_statistics(calibrated):
    _, folds, _ = calibrated
    counts = folds[HARVEST_TW_NS].flip_counts
    worst = []
    ok = True
    for th_l in range(15, 24):
        sel = select_cells(counts, N_ROUNDS, SelectionThresholds(th_l=th_l))
        frac, bpa = sel.rand_addr_fraction, sel.bits_per_rand_addr
        if not (0.005 <= frac <= 0.020 and 9.0 <= bpa <= 14.0):
            ok = False
            worst.append(f"th_l={th_l}: frac={100 * frac:.2f}%, bpa={bpa:.2f}")
    sel15 = select_cells(counts, N_ROUNDS, SelectionThresholds(th_l=15))
    sel23 = select_cells(counts, N_ROUNDS, SelectionThresholds(th_l=23))
    detail = (
        f"th_l 15..23: frac {100 * sel23.rand_addr_fraction:.2f}%"
        f"..{100 * sel15.rand_addr_fraction:.2f}% in [0.5%,2%], "
        f"bpa {sel23.bits_per_rand_addr:.2f}..{sel15.bits_per_rand_addr:.2f} in [9,14]"
    )
    _verdict(3, ok, detail if ok else detail + "; out of window: " + "; ".join(worst))


# --- 4: flip-count equivalence ----------------------------------------------


ORACLE_CASES = 1000


def _brute_force_flips(bits: np.ndarray) -> list[int]:
    n, m = bits.shape
    out = [0] * m
    for c in range(m):
        for i in range(n - 1):
            if bits[i][c] != bits[i + 1][c]:
                out[c] += 1
    return out


def test_criterion_4_flip_count_oracle():
    """The flip counts of fold_campaigns, from the sparse kernel, equal the
    transitions counted one by one over the rows of measure, from the dense
    kernel, on small default-recipe chips: random seed, 1-4 addresses, 2-10
    rounds, 1-4 pulse widths per fold."""
    rng = np.random.default_rng(404)
    recipe = default_config()
    mismatches = flips = 0
    for _ in range(ORACLE_CASES):
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        chip = create_chip(dataclasses.replace(recipe, num_addresses=int(rng.integers(1, 5))), seed)
        n = int(rng.integers(2, 11))
        timings = [TimingParams(float(t)) for t in rng.uniform(0.5, 6.0, size=int(rng.integers(1, 5)))]
        for fold, t in zip(fold_campaigns(chip, timings, n=n), timings, strict=True):
            want = _brute_force_flips(measure(chip, t, n=n).bits)
            flips += sum(want)
            if fold.flip_counts.tolist() != want:
                mismatches += 1
                break
    _verdict(
        4,
        mismatches == 0 and flips > 0,
        f"{mismatches}/{ORACLE_CASES} cases differ from brute force ({flips} flips counted)",
    )


# --- 5: conditioning hash correctness ---------------------------------------


def test_criterion_5_sha256_and_length_law():
    vectors_ok = (
        hashlib.sha256(b"").hexdigest() == SHA256_EMPTY
        and hashlib.sha256(b"abc").hexdigest() == SHA256_ABC
        and hashlib.sha256(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        ).hexdigest() == SHA256_TWO_BLOCK
    )
    # the pipeline's conditioner must route through that same primitive
    primitive_ok = digest_blocks(b"a" * 64) == hashlib.sha256(b"a" * 64).digest()

    rng = np.random.default_rng(505)
    law_failures = 0
    for _ in range(100):
        n_raw = int(rng.integers(0, 5000))
        raw = rng.random(n_raw) < 0.5
        expect = (n_raw // 512) * 256  # 512 raw bits in, one 256-bit digest out
        # whole bytes in, as generate packs them; digest_blocks drops the partial block
        if len(_unpack(digest_blocks(np.packbits(raw[: n_raw // 8 * 8]).tobytes()))) != expect:
            law_failures += 1
    ok = vectors_ok and primitive_ok and law_failures == 0
    _verdict(
        5,
        ok,
        f"FIPS vectors {'ok' if vectors_ok else 'MISMATCH'}, conditioner "
        f"{'ok' if primitive_ok else 'MISMATCH'}, length law {law_failures}/100 failures",
    )


# --- 6: battery validity -----------------------------------------------------


def _bitstring(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in bits)


def test_criterion_6a_battery_oracle_equivalence():
    rng = np.random.default_rng(606)
    checked = 0
    max_dp = 0.0
    for _ in range(200):
        n = int(rng.integers(8, 17))
        bits = rng.random(n) < rng.random()
        s = _bitstring(bits)

        stat, p = ref.ref_monobit(s)
        r = frequency_monobit(bits)
        assert r.statistic == stat and abs(r.p_value - p) < P_TOL

        stat, p = ref.ref_block_frequency(s, 4)
        r = block_frequency(bits, m_block=4)
        assert abs(r.statistic - stat) < 1e-12 and abs(r.p_value - p) < P_TOL

        stat, p = ref.ref_runs(s)
        r = runs(bits)
        if math.isnan(stat):
            assert math.isnan(r.statistic) and r.p_value == 0.0
        else:
            assert r.statistic == stat and abs(r.p_value - p) < P_TOL

        stat, p = ref.ref_cusum(s)
        r = cumulative_sums(bits)
        assert r.statistic == stat and abs(r.p_value - p) < P_TOL
        stat, p = ref.ref_cusum(s, reverse=True)
        r = cumulative_sums(bits, reverse=True)
        assert r.statistic == stat and abs(r.p_value - p) < P_TOL

        d1, p1, d2, p2 = ref.ref_serial(s, 3)
        r1, r2 = serial(bits, m=3)
        assert abs(r1.p_value - p1) < P_TOL and abs(r2.p_value - p2) < P_TOL

        stat, p = ref.ref_approximate_entropy(s, 2)
        r = approximate_entropy(bits, m=2)
        assert abs(r.p_value - p) < P_TOL

        max_dp = max(max_dp, abs(frequency_monobit(bits).p_value - ref.ref_monobit(s)[1]))
        checked += 1
    # longest-run needs at least one 128-bit block; oracle it at that size
    for _ in range(50):
        bits = rng.random(128) < rng.random()
        stat, p = ref.ref_longest_run(_bitstring(bits))
        r = longest_run(bits)
        assert abs(r.statistic - stat) < 1e-12 and abs(r.p_value - p) < P_TOL
        checked += 1
    _verdict(6, checked == 250, f"6a: {checked}/250 sequences match oracle within {P_TOL:g}")


def test_criterion_6b_conditioned_streams_pass(conditioned_streams):
    assert all(len(s) == STREAM_BITS for s in conditioned_streams)
    summary = run_battery(conditioned_streams)
    worst_prop = min(t.n_passed for t in summary.subtests)
    worst_unif = min(t.uniformity_p for t in summary.subtests)
    ok = summary.verdict and worst_prop >= 19 and worst_unif >= 0.0001
    _verdict(
        6,
        ok,
        f"6b: 20x100k-bit streams, worst proportion {worst_prop}/20 (need 19), "
        f"worst uniformity {worst_unif:.4f} (need 0.0001)",
    )


def test_criterion_6c_all_zero_streams_fail():
    zeros = [np.zeros(STREAM_BITS, dtype=bool)] * STREAMS
    summary = run_battery(zeros)
    freq = summary.subtest("Frequency")
    ok = freq.n_passed == 0 and not freq.ok and not summary.verdict
    _verdict(6, ok, f"6c: all-zero streams pass monobit {freq.n_passed}/20 (need 0)")


# --- 7: throughput model -----------------------------------------------------


def test_criterion_7_throughput_reproduction():
    worst_rel = 0.0
    for bpa, published in REF_RATES:
        est = throughput(ThroughputInputs(REF_T_RW_NS, REF_T_HASH_NS, bpa))
        worst_rel = max(worst_rel, abs(est.mbit_per_s - published) / published)

    rng = np.random.default_rng(707)
    violations = 0
    for _ in range(1000):
        t_rw = float(rng.uniform(50.0, 500.0))
        t_hash = float(rng.uniform(100.0, 2000.0))
        bpa = float(rng.uniform(1.0, 16.0))
        base = throughput(ThroughputInputs(t_rw, t_hash, bpa)).mbit_per_s
        up = float(rng.uniform(1.01, 2.0))
        if throughput(ThroughputInputs(t_rw * up, t_hash, bpa)).mbit_per_s >= base:
            violations += 1
        if throughput(ThroughputInputs(t_rw, t_hash * up, bpa)).mbit_per_s >= base:
            violations += 1
        if throughput(ThroughputInputs(t_rw, t_hash, bpa * up)).mbit_per_s <= base:
            violations += 1
    ok = worst_rel <= 0.10 and violations == 0
    _verdict(
        7,
        ok,
        f"five published rates within {100 * worst_rel:.1f}% (need 10%), "
        f"{violations}/3000 monotonicity violations",
    )


# --- 8: environmental trends -------------------------------------------------


def test_criterion_8_temperature_and_field(calibrated, selection):
    chip, _, _ = calibrated
    harvest = TimingParams(HARVEST_TW_NS)
    (cold_fold,) = fold_campaigns(chip, [harvest], Environment(temperature_c=20.0), n=N_ROUNDS)
    cold = select_cells(cold_fold.flip_counts, N_ROUNDS, SelectionThresholds(th_l=15))
    fewer_cold = cold.num_randcell < selection.num_randcell

    no_field = measure(chip, harvest, n=N_ROUNDS)
    low_field = measure(chip, harvest, Environment(field_mt=8.0), n=N_ROUNDS)
    field_identical = np.array_equal(low_field.bits, no_field.bits)
    ok = fewer_cold and field_identical
    _verdict(
        8,
        ok,
        f"selected cells 20C {cold.num_randcell} < 26C {selection.num_randcell}; "
        f"8 mT readout {'bit-identical' if field_identical else 'DIFFERS'}",
    )


# --- 9: pipeline determinism -------------------------------------------------


def test_criterion_9_pipeline_rerun_determinism(tmp_path):
    # all randomness is counter-based off the one seed, so results do not
    # depend on evaluation order or thread count; rerun must be byte-identical
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        rc = cli.main(["pipeline", "--seed", str(SEED), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    compared = (
        "chip.mrtg",
        "sweep.csv",
        "selection.mrsl",
        "raw.bits",
        "conditioned.bits",
        "provenance.json",
        "battery.txt",
        "throughput.txt",
        "run.json",
    )
    differing = [
        name
        for name in compared
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
    ]
    _verdict(
        9,
        not differing,
        f"{len(compared) - len(differing)}/{len(compared)} artifacts byte-identical"
        + (f"; differ: {', '.join(differing)}" if differing else ""),
    )
