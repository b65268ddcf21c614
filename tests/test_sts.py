"""Statistical-test oracle equivalence, worked examples and battery rules."""

import math

import numpy as np
import pytest

import reference as ref
from mramtrng.sts import (
    ALPHA,
    _fold_counts,
    _longest_run_per_block,
    _template_counts,
    BatteryConfig,
    BitSequence,
    SUBTEST_NAMES,
    approximate_entropy,
    block_frequency,
    cumulative_sums,
    default_apen_m,
    default_block_m,
    default_serial_m,
    export_sts,
    frequency_monobit,
    import_sts,
    longest_run,
    min_pass_count,
    run_all,
    run_battery,
    runs,
    serial,
    uniformity_p_value,
)

P_TOL = 1e-9


def _bitstring(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in bits)


# --- worked examples (hand enumeration in comments) ------------------------


def test_monobit_examples():
    # "1011010101": six ones, four zeros -> |S| = 2
    r = frequency_monobit("1011010101")
    assert r.statistic == 2.0
    assert abs(r.p_value - ref.ref_erfc(2 / math.sqrt(20))) < P_TOL
    alternating = "01" * 50
    assert frequency_monobit(alternating).p_value == 1.0
    ones = frequency_monobit("1" * 100)
    assert abs(ones.p_value - ref.ref_erfc(10 / math.sqrt(2))) < P_TOL
    assert ones.p_value < 1e-20 and not ones.passed


def test_block_frequency_example():
    # blocks 011|001|101 -> pi = 2/3, 1/3, 2/3 -> chi2 = 4*3*(3*(1/6)^2) = 1
    r = block_frequency("0110011010", m_block=3)
    assert abs(r.statistic - 1.0) < 1e-12
    assert abs(r.p_value - ref.ref_igamc(1.5, 0.5)) < P_TOL
    assert abs(r.p_value - 0.801252) < 1e-6
    balanced = block_frequency("0110" * 10, m_block=4)
    assert balanced.statistic == 0.0 and balanced.p_value == 1.0
    assert block_frequency("0" * 1000, m_block=10).p_value < 1e-20


def test_block_frequency_errors():
    with pytest.raises(ValueError):
        block_frequency("0101", m_block=1)
    with pytest.raises(ValueError):
        block_frequency("01", m_block=3)


def test_runs_example():
    # "1001101011": pi = 0.6, seven runs
    r = runs("1001101011")
    assert r.statistic == 7.0
    assert abs(r.p_value - 0.147232) < 1e-6
    assert runs("1" * 100).p_value == 0.0  # prerequisite fails
    alt = runs("01" * 50)
    assert alt.statistic == 100.0 and alt.p_value < 1e-20
    assert runs("1111").p_value == 0.0  # degenerate proportion, short input


def test_longest_run_requires_128_bits():
    with pytest.raises(ValueError):
        longest_run("01" * 60)


def test_longest_run_all_zeros():
    r = longest_run("0" * 128)
    assert r.p_value < 1e-6 and not r.passed


def test_longest_run_determinism():
    seq = (np.random.default_rng(12).random(500) < 0.5)
    a, b = longest_run(seq), longest_run(seq)
    assert a.statistic == b.statistic and a.p_value == b.p_value


def _longest_run_loop(blocks: np.ndarray) -> np.ndarray:
    """Column-by-column longest run of ones per row."""
    x = blocks.astype(np.int32)
    run = np.zeros(x.shape[0], dtype=np.int32)
    best = np.zeros(x.shape[0], dtype=np.int32)
    for j in range(x.shape[1]):
        run = (run + 1) * x[:, j]
        np.maximum(best, run, out=best)
    return best


def _bit_cases(n: int, seed: int) -> dict:
    return {
        "random": np.random.default_rng(seed).random(n) < 0.5,
        "ones": np.ones(n, dtype=bool),
        "zeros": np.zeros(n, dtype=bool),
        "alternating": np.arange(n) % 2 == 0,
    }


@pytest.mark.parametrize("m", [8, 128, 10_000])
def test_longest_run_per_block_matches_loop(m):
    n_blocks = 12
    for name, bits in _bit_cases(n_blocks * m, m).items():
        blocks = bits.reshape(n_blocks, m)
        assert np.array_equal(_longest_run_per_block(blocks), _longest_run_loop(blocks)), name
    mixed = np.random.default_rng(1).random((n_blocks, m)) < 0.9
    mixed[0], mixed[1], mixed[2, :-1], mixed[3, 1:] = True, False, False, False
    assert np.array_equal(_longest_run_per_block(mixed), _longest_run_loop(mixed))


def test_folded_template_counts_are_exact():
    for name, bits in _bit_cases(1000, 3).items():
        for m in range(1, 11):
            assert np.array_equal(_fold_counts(_template_counts(bits, m + 1)), _template_counts(bits, m)), (name, m)


def test_cumulative_sums_example():
    # "1011010111": walk 1,0,1,2,1,2,1,2,3,4 -> max |S| = 4
    r = cumulative_sums("1011010111")
    assert r.statistic == 4.0
    assert 0.4115 < r.p_value < 0.4117
    assert abs(r.p_value - ref.ref_cusum("1011010111")[1]) < P_TOL
    alt = cumulative_sums("01" * 50)
    assert alt.statistic == 1.0 and alt.p_value > 0.99
    assert cumulative_sums("1" * 100).p_value < 1e-20


def test_serial_example():
    # "0011011101", m=3: wrapped template counts give psi2 = 2.8, 1.2, 0.4
    r1, r2 = serial("0011011101", m=3)
    assert abs(r1.statistic - 1.6) < 1e-12
    assert abs(r2.statistic - 0.8) < 1e-12
    assert abs(r1.p_value - 0.808792) < 1e-6
    assert abs(r2.p_value - 0.670320) < 1e-6
    z1, z2 = serial("0" * 100, m=3)
    assert z1.p_value < 1e-20 and z2.p_value < 1e-20


def test_serial_errors():
    with pytest.raises(ValueError):
        serial("0101", m=1)
    with pytest.raises(ValueError):
        serial("0101", m=4)


def test_approximate_entropy_example():
    # "0100110101", m=3: wrapped 3-mers 010 and 101 occur 3x, four others 1x;
    # 4-mers: 1010 3x, 0101 2x, five others 1x
    phi3 = 2 * 0.3 * math.log(0.3) + 4 * 0.1 * math.log(0.1)
    phi4 = 5 * 0.1 * math.log(0.1) + 0.3 * math.log(0.3) + 0.2 * math.log(0.2)
    chi = 2 * 10 * (math.log(2) - (phi3 - phi4))
    r = approximate_entropy("0100110101", m=3)
    assert abs(r.statistic - chi) < 1e-9
    assert abs(r.p_value - ref.ref_igamc(4, chi / 2)) < P_TOL
    assert approximate_entropy("0" * 100, m=2).p_value < 1e-20


def test_approximate_entropy_complement_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        bits = rng.random(300) < 0.5
        assert (
            approximate_entropy(bits, m=3).p_value
            == approximate_entropy(~bits, m=3).p_value
        )


def test_complement_symmetry():
    rng = np.random.default_rng(8)
    for _ in range(50):
        bits = rng.random(400) < rng.uniform(0.35, 0.65)
        comp = ~bits
        assert frequency_monobit(bits).p_value == frequency_monobit(comp).p_value
        assert runs(bits).p_value == runs(comp).p_value
        assert (
            cumulative_sums(bits).p_value == cumulative_sums(comp).p_value
        )
        for a, b in zip(serial(bits, 4), serial(comp, 4)):
            assert a.p_value == b.p_value


# --- brute-force oracle equivalence ----------------------------------------


def test_exhaustive_small_sequences_match_oracle():
    # every 10-bit sequence; statistics exact, p-values against mpmath route
    for code in range(1024):
        bits = np.array([(code >> (9 - j)) & 1 for j in range(10)], dtype=bool)
        s = _bitstring(bits)
        check_p = code % 7 == 0 or code in (0, 1023)

        r = frequency_monobit(bits)
        stat, p = ref.ref_monobit(s)
        assert r.statistic == stat
        if check_p:
            assert abs(r.p_value - p) < P_TOL

        r = block_frequency(bits, 3)
        stat, p = ref.ref_block_frequency(s, 3)
        assert abs(r.statistic - stat) < 1e-12
        if check_p:
            assert abs(r.p_value - p) < P_TOL

        r = runs(bits)
        stat, p = ref.ref_runs(s)
        assert (math.isnan(r.statistic) and math.isnan(stat)) or r.statistic == stat
        if check_p:
            assert abs(r.p_value - p) < P_TOL

        for reverse in (False, True):
            r = cumulative_sums(bits, reverse=reverse)
            stat, p = ref.ref_cusum(s, reverse=reverse)
            assert r.statistic == stat
            if check_p:
                assert abs(r.p_value - p) < P_TOL

        r1, r2 = serial(bits, 3)
        d1, p1, d2, p2 = ref.ref_serial(s, 3)
        assert abs(r1.statistic - d1) < 1e-12 and abs(r2.statistic - d2) < 1e-12
        if check_p:
            assert abs(r1.p_value - p1) < P_TOL and abs(r2.p_value - p2) < P_TOL

        r = approximate_entropy(bits, 2)
        stat, p = ref.ref_approximate_entropy(s, 2)
        assert abs(r.statistic - stat) < 1e-9
        if check_p:
            assert abs(r.p_value - p) < P_TOL


def test_random_16_bit_sequences_match_oracle():
    rng = np.random.default_rng(16)
    for _ in range(60):
        n = int(rng.integers(11, 17))
        bits = rng.random(n) < rng.uniform(0.2, 0.8)
        s = _bitstring(bits)
        assert frequency_monobit(bits).statistic == ref.ref_monobit(s)[0]
        assert abs(frequency_monobit(bits).p_value - ref.ref_monobit(s)[1]) < P_TOL
        assert abs(block_frequency(bits, 4).p_value - ref.ref_block_frequency(s, 4)[1]) < P_TOL
        assert abs(cumulative_sums(bits).p_value - ref.ref_cusum(s)[1]) < P_TOL
        r1, r2 = serial(bits, 3)
        d1, p1, d2, p2 = ref.ref_serial(s, 3)
        assert abs(r1.p_value - p1) < P_TOL and abs(r2.p_value - p2) < P_TOL
        assert abs(
            approximate_entropy(bits, 2).p_value
            - ref.ref_approximate_entropy(s, 2)[1]
        ) < P_TOL


def test_longest_run_matches_oracle_all_block_sizes():
    rng = np.random.default_rng(21)
    lengths = [128, 300, 6272, 20_000, 750_000]
    for n in lengths:
        for density in (0.3, 0.5, 0.7):
            bits = rng.random(n) < density
            s = _bitstring(bits)
            r = longest_run(bits)
            stat, p = ref.ref_longest_run(s)
            assert abs(r.statistic - stat) < 1e-10 * max(1.0, stat)
            assert abs(r.p_value - p) < P_TOL


def test_realistic_lengths_match_oracle():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(500, 3000))
        bits = rng.random(n) < 0.5
        s = _bitstring(bits)
        assert abs(frequency_monobit(bits).p_value - ref.ref_monobit(s)[1]) < P_TOL
        assert abs(block_frequency(bits, 64).p_value - ref.ref_block_frequency(s, 64)[1]) < P_TOL
        assert abs(runs(bits).p_value - ref.ref_runs(s)[1]) < P_TOL
        assert abs(cumulative_sums(bits, True).p_value - ref.ref_cusum(s, True)[1]) < P_TOL
        r1, r2 = serial(bits, 5)
        d1, p1, d2, p2 = ref.ref_serial(s, 5)
        assert abs(r1.p_value - p1) < P_TOL and abs(r2.p_value - p2) < P_TOL
        assert abs(
            approximate_entropy(bits, 4).p_value
            - ref.ref_approximate_entropy(s, 4)[1]
        ) < P_TOL


def test_p_values_in_unit_interval():
    rng = np.random.default_rng(40)
    for _ in range(30):
        bits = rng.random(2000) < rng.uniform(0.1, 0.9)
        for r in run_all(bits):
            assert 0.0 <= r.p_value <= 1.0
            assert r.passed == (r.p_value >= ALPHA) or r.note


# --- battery ---------------------------------------------------------------


def test_min_pass_count_reference_points():
    assert min_pass_count(20) == 18
    assert min_pass_count(1000) == 980
    for s in (1, 2, 7, 20, 55, 300, 1000):
        assert min_pass_count(s) == ref.ref_min_pass(s, 0.01)
    with pytest.raises(ValueError):
        min_pass_count(0)


def test_uniformity_p_value():
    clustered = np.full(20, 0.5)
    assert uniformity_p_value(clustered) < 1e-4
    spread = np.repeat((np.arange(10) + 0.5) / 10, 2)
    assert uniformity_p_value(spread) == 1.0
    rng = np.random.default_rng(50)
    for _ in range(10):
        p = rng.random(40)
        assert abs(uniformity_p_value(p) - ref.ref_uniformity(list(p))) < P_TOL


def test_default_battery_parameters():
    assert default_block_m(100_000) == 1024
    assert default_serial_m(100_000) == 8
    assert default_apen_m(100_000) == 8
    assert default_block_m(128) == 20
    assert 100_000 // default_block_m(100_000) < 100


def test_battery_on_prng_streams_passes():
    rng = np.random.default_rng(77)
    streams = [rng.random(100_000) < 0.5 for _ in range(20)]
    summary = run_battery(streams)
    assert summary.verdict
    assert summary.n_sequences == 20 and summary.sequence_length == 100_000
    for t in summary.subtests:
        assert t.min_pass == 18
        assert t.n_passed >= 18
        assert t.uniformity_p >= 0.0001
    assert tuple(t.name for t in summary.subtests) == SUBTEST_NAMES


def test_battery_all_zero_streams_fail_monobit():
    streams = [np.zeros(100_000, dtype=bool) for _ in range(20)]
    summary = run_battery(streams)
    mono = summary.subtest("Frequency")
    assert mono.n_passed == 0
    assert mono.proportion_label == "0/20"
    assert not summary.verdict


def test_battery_all_passing_sets_pass_for_any_size():
    rng = np.random.default_rng(60)
    pool = [rng.random(2000) < 0.5 for _ in range(40)]
    results = [all(r.passed for r in run_all(b)) for b in pool]
    good = [b for b, ok in zip(pool, results) if ok]
    for s in (1, 2, 5, len(good)):
        summary = run_battery(good[:s])
        for t in summary.subtests:
            assert t.proportion_ok


def test_battery_input_validation():
    with pytest.raises(ValueError):
        run_battery([])
    rng = np.random.default_rng(61)
    with pytest.raises(ValueError, match="same length"):
        run_battery([rng.random(256) < 0.5, rng.random(300) < 0.5])


def test_battery_report_and_csv():
    rng = np.random.default_rng(62)
    summary = run_battery([rng.random(1000) < 0.5 for _ in range(5)])
    text = summary.report()
    assert "Frequency" in text and "overall" in text
    csv = summary.to_csv()
    assert csv.count("\n") == 10  # header + nine subtests


def test_battery_rerun_identical():
    def make():
        rng = np.random.default_rng(63)
        return run_battery([rng.random(5000) < 0.5 for _ in range(6)])

    a, b = make(), make()
    assert a.report() == b.report()
    assert a.to_csv() == b.to_csv()


def test_battery_config_overrides():
    rng = np.random.default_rng(64)
    bits = rng.random(1000) < 0.5
    summary = run_battery([bits], BatteryConfig(block_m=100, serial_m=4, apen_m=3))
    direct = block_frequency(bits, 100)
    assert summary.subtest("BlockFrequency").p_values[0] == direct.p_value
    assert summary.subtest("Serial1").p_values[0] == serial(bits, 4)[0].p_value
    assert (
        summary.subtest("ApproximateEntropy").p_values[0]
        == approximate_entropy(bits, 3).p_value
    )


# --- sequence type and interchange files -----------------------------------


def test_bitsequence_validation():
    with pytest.raises(ValueError):
        BitSequence(np.zeros(0, dtype=bool))
    with pytest.raises(ValueError):
        BitSequence.from_string("012")
    seq = BitSequence.from_string("10110001")
    assert seq.n == len(seq) == 8


def test_export_exact_bytes(tmp_path):
    p = tmp_path / "seq.txt"
    export_sts(BitSequence.from_string("10110001"), p)
    assert p.read_bytes() == b"10110001"


def test_export_import_roundtrip(tmp_path):
    rng = np.random.default_rng(70)
    bits = rng.random(4097) < 0.5
    p = tmp_path / "seq.txt"
    export_sts(bits, p)
    again = import_sts(p)
    assert np.array_equal(again.bits, bits)
    # ASCII whitespace between bits is skipped
    text = p.read_text()
    for spaced in (text + "\n", text[:100] + "\r\n" + text[100:] + " ", "\t".join(text)):
        p.write_text(spaced)
        assert np.array_equal(import_sts(p).bits, bits)


def test_import_rejects_junk(tmp_path):
    p = tmp_path / "bad.txt"
    for text in ("0101a", "0101x01", ""):
        p.write_text(text)
        with pytest.raises(ValueError):
            import_sts(p)
