"""Statistical-test oracle equivalence, worked examples and battery rules."""

import functools
import hashlib
import math
import weakref

import numpy as np
import pytest

import reference as ref
from conftest import de_bruijn
from mramtrng import sts
from mramtrng.special import normal_cdf
from mramtrng.sts import (
    ALPHA,
    _CDF_FLAT,
    _cumulative_sums_result,
    _excursions,
    _fold_counts,
    _longest_run_per_block,
    _template_counts,
    SUBTEST_NAMES,
    approximate_entropy,
    block_frequency,
    cumulative_sums,
    default_apen_m,
    default_block_m,
    default_serial_m,
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


def _bits(text: str) -> np.ndarray:
    """The bool array of a '0'/'1' string, as the worked examples write it."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord("1")


# --- worked examples (hand enumeration in comments) ------------------------


def test_monobit_examples():
    # "1011010101": six ones, four zeros -> |S| = 2
    r = frequency_monobit(_bits("1011010101"))
    assert r.statistic == 2.0
    assert abs(r.p_value - ref.ref_erfc(2 / math.sqrt(20))) < P_TOL
    alternating = _bits("01" * 50)
    assert frequency_monobit(alternating).p_value == 1.0
    ones = frequency_monobit(_bits("1" * 100))
    assert abs(ones.p_value - ref.ref_erfc(10 / math.sqrt(2))) < P_TOL
    assert ones.p_value < 1e-20 and not ones.passed


def test_block_frequency_example():
    # blocks 011|001|101 -> pi = 2/3, 1/3, 2/3 -> chi2 = 4*3*(3*(1/6)^2) = 1
    r = block_frequency(_bits("0110011010"), m_block=3)
    assert abs(r.statistic - 1.0) < 1e-12
    assert abs(r.p_value - ref.ref_igamc(1.5, 0.5)) < P_TOL
    assert abs(r.p_value - 0.801252) < 1e-6
    balanced = block_frequency(_bits("0110" * 10), m_block=4)
    assert balanced.statistic == 0.0 and balanced.p_value == 1.0
    assert block_frequency(_bits("0" * 1000), m_block=10).p_value < 1e-20


def test_block_frequency_errors():
    with pytest.raises(ValueError):
        block_frequency(_bits("0101"), m_block=1)
    with pytest.raises(ValueError):
        block_frequency(_bits("01"), m_block=3)


def test_runs_example():
    # "1001101011": pi = 0.6, seven runs
    r = runs(_bits("1001101011"))
    assert r.statistic == 7.0
    assert abs(r.p_value - 0.147232) < 1e-6
    assert runs(_bits("1" * 100)).p_value == 0.0  # prerequisite fails
    alt = runs(_bits("01" * 50))
    assert alt.statistic == 100.0 and alt.p_value < 1e-20
    assert runs(_bits("1111")).p_value == 0.0  # degenerate proportion, short input


def test_longest_run_requires_128_bits():
    with pytest.raises(ValueError):
        longest_run(_bits("01" * 60))


def test_longest_run_all_zeros():
    r = longest_run(_bits("0" * 128))
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
    rng = np.random.default_rng(seed)
    return {
        "random": rng.random(n) < 0.5,
        "biased": rng.random(n) < 0.45,
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
    # m + 1 = 17 builds int64 codes and folds onto the uint16 codes of m = 16
    for name, bits in _bit_cases(1000, 3).items():
        for m in (*range(1, 11), 15, 16):
            assert np.array_equal(_fold_counts(_template_counts(bits, m + 1)), _template_counts(bits, m)), (name, m)


def test_cumulative_sums_example():
    # "1011010111": walk 1,0,1,2,1,2,1,2,3,4 -> max |S| = 4
    r = cumulative_sums(_bits("1011010111"))
    assert r.statistic == 4.0
    assert 0.4115 < r.p_value < 0.4117
    assert abs(r.p_value - ref.ref_cusum("1011010111")[1]) < P_TOL
    alt = cumulative_sums(_bits("01" * 50))
    assert alt.statistic == 1.0 and alt.p_value > 0.99
    assert cumulative_sums(_bits("1" * 100)).p_value < 1e-20


def test_serial_example():
    # "0011011101", m=3: wrapped template counts give psi2 = 2.8, 1.2, 0.4
    r1, r2 = serial(_bits("0011011101"), m=3)
    assert abs(r1.statistic - 1.6) < 1e-12
    assert abs(r2.statistic - 0.8) < 1e-12
    assert abs(r1.p_value - 0.808792) < 1e-6
    assert abs(r2.p_value - 0.670320) < 1e-6
    z1, z2 = serial(_bits("0" * 100), m=3)
    assert z1.p_value < 1e-20 and z2.p_value < 1e-20


def test_serial_errors():
    with pytest.raises(ValueError):
        serial(_bits("0101"), m=1)
    with pytest.raises(ValueError):
        serial(_bits("0101"), m=4)


def test_serial_difference_rounded_below_zero_is_zero():
    # the psi-squared second difference of this sequence is 0 but rounds to
    # -1.8e-15; the reference STS's igamc returns 1.0 at x <= 0
    r1, r2 = serial(_bits("000000100111"), m=3)
    d1, p1, _, _ = ref.ref_serial("000000100111", 3)
    assert abs(r1.statistic - d1) < 1e-12 and abs(r1.p_value - p1) < P_TOL
    assert (r2.statistic, r2.p_value, r2.passed) == (0.0, 1.0, True)


def test_approximate_entropy_is_one_on_de_bruijn_sequences():
    # a tiled de Bruijn sequence holds every template of up to its order
    # equally often, so ApEn is ln 2 exactly and can round above it
    for order in range(5, 13):
        for log_n in range(max(10, order), 21):
            n = 1 << log_n
            bits = np.tile(de_bruijn(order), n >> order)
            m = min(order - 1, default_apen_m(n))
            r = approximate_entropy(bits, m)
            assert r.p_value == 1.0 and r.statistic >= 0.0, (order, n, m)


def test_approximate_entropy_example():
    # "0100110101", m=3: wrapped 3-mers 010 and 101 occur 3x, four others 1x;
    # 4-mers: 1010 3x, 0101 2x, five others 1x
    phi3 = 2 * 0.3 * math.log(0.3) + 4 * 0.1 * math.log(0.1)
    phi4 = 5 * 0.1 * math.log(0.1) + 0.3 * math.log(0.3) + 0.2 * math.log(0.2)
    chi = 2 * 10 * (math.log(2) - (phi3 - phi4))
    r = approximate_entropy(_bits("0100110101"), m=3)
    assert abs(r.statistic - chi) < 1e-9
    assert abs(r.p_value - ref.ref_igamc(4, chi / 2)) < P_TOL
    assert approximate_entropy(_bits("0" * 100), m=2).p_value < 1e-20


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


# --- one histogram and one walk per sequence --------------------------------


@pytest.fixture
def memo_normal_cdf(monkeypatch):
    """normal_cdf memoised for sts and the float reference alike: the same
    values, each computed once, so the full reference loops stay cheap."""
    memo = functools.lru_cache(maxsize=None)(normal_cdf)
    monkeypatch.setattr(sts, "normal_cdf", memo)
    monkeypatch.setattr(ref, "normal_cdf", memo)


def test_normal_cdf_is_flat_beyond_the_clip():
    """The premise of the cumulative-sums pruning: at |x| >= _CDF_FLAT,
    normal_cdf is exactly 1.0 above and exactly 0.0 below."""
    edges = [_CDF_FLAT, math.nextafter(_CDF_FLAT, math.inf), 1.7976931348623157e308, math.inf]
    sampled = np.random.default_rng(48).uniform(_CDF_FLAT, 4 * _CDF_FLAT, 400)
    for x in [*np.geomspace(_CDF_FLAT, 1e300, 400), *sampled, *edges]:
        assert normal_cdf(float(x)) == 1.0 and normal_cdf(-float(x)) == 0.0, x


def test_clipped_cusum_sum_is_the_full_loop_small_n(memo_normal_cdf):
    for n in range(1, 200):
        for z in range(n + 1):
            assert _cumulative_sums_result(n, z, reverse=False).p_value == ref.ref_cusum_p_float(n, z), (n, z)


@pytest.mark.parametrize("n", [100_000, 123_457, 1_000_000, 1 << 20])
def test_clipped_cusum_sum_is_the_full_loop_large_n(n, memo_normal_cdf):
    zs = {*np.geomspace(100, 8 * math.sqrt(n), 25).astype(int).tolist(), n - 1, n}
    if n < 200_000:
        # the full loop at z <= 3 calls normal_cdf ~n times per z: seconds at
        # 1 Mbit, so the two shorter lengths carry these cases
        zs |= {1, 2, 3}
    for z in sorted(zs):
        assert _cumulative_sums_result(n, z, reverse=True).p_value == ref.ref_cusum_p_float(n, z), (n, z)


def test_one_walk_gives_both_literal_excursions():
    rng = np.random.default_rng(21)
    cases = [np.array(list(s), dtype=int).astype(bool) for s in ("0", "1", "00", "01", "10", "11")]
    for n in (1, 2, 3, 100, 101):
        cases += list(_bit_cases(n, n).values())
    cases += [rng.random(n) < rng.uniform(0.2, 0.8) for n in range(1, 65)] + [rng.random(1000) < 0.5]
    for bits in cases:
        s = _bitstring(bits)
        assert _excursions(bits) == (ref.ref_excursion(s), ref.ref_excursion(s, reverse=True)), s


def test_cumulative_sums_evaluates_few_normal_cdf_terms(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return normal_cdf(x)

    monkeypatch.setattr(sts, "normal_cdf", counted)
    bits = np.random.default_rng(31).random(1 << 20) < 0.5
    for reverse in (False, True):
        calls.clear()
        cumulative_sums(bits, reverse=reverse)
        assert 0 < len(calls) <= 200


def test_run_all_builds_one_template_histogram_per_sequence(monkeypatch):
    calls = []

    def counted(bits, m):
        calls.append(m)
        return _template_counts(bits, m)

    monkeypatch.setattr(sts, "_template_counts", counted)
    rng = np.random.default_rng(41)
    run_all(rng.random(1000) < 0.5)
    assert calls == [6]
    calls.clear()
    run_battery([rng.random(20_000) < 0.5 for _ in range(3)])
    assert calls == [9, 9, 9]


def _standalone(bits) -> tuple:
    """run_all composed of the public tests, called in the order in which a
    short input's error surfaces."""
    n = bits.size
    s1, s2 = serial(bits, default_serial_m(n))
    return (
        frequency_monobit(bits),
        block_frequency(bits, default_block_m(n)),
        runs(bits),
        longest_run(bits),
        cumulative_sums(bits, reverse=False),
        cumulative_sums(bits, reverse=True),
        s1,
        s2,
        approximate_entropy(bits, default_apen_m(n)),
    )


@pytest.mark.parametrize("n", [128, 1000, 6272, 16_384, 100_000, 1 << 20])
def test_run_all_equals_the_standalone_tests(n):
    # at n = 1000 the serial width (6) differs from apen_m + 1 (4)
    for kind, bits in _bit_cases(n, n).items():
        assert repr(run_all(bits)) == repr(_standalone(bits)), kind


def _outcome(f, bits):
    try:
        return repr(f(bits))
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_run_all_short_inputs_raise_as_the_standalone_tests():
    for n in range(1, 131):
        for kind, bits in _bit_cases(n, n).items():
            assert _outcome(run_all, bits) == _outcome(_standalone, bits), (n, kind)
    assert _outcome(run_all, np.zeros(0, dtype=bool)).endswith("expected a non-empty 1-d bit array")
    assert _outcome(run_all, np.ones(2, dtype=bool)).endswith("template length m too large for the sequence")
    assert _outcome(run_all, np.ones(19, dtype=bool)).endswith("sequence shorter than one block")
    assert _outcome(run_all, np.ones(127, dtype=bool)).endswith("longest-run test needs at least 128 bits")


def test_run_all_golden_digest():
    # a change that moves any statistic or p-value by one ulp changes the digest
    bits = np.random.default_rng(2024).integers(0, 2, 1 << 20, dtype=np.uint8).astype(bool)
    digest = hashlib.sha256(repr(run_all(bits)).encode()).hexdigest()
    assert digest == "bf1e21663481bb4d437d2aad38563c3b697f799c00febb436924a1c81de79676"


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
    # the ceiling of SP 800-22's bound: one sequence must pass, and 14 of 16
    # (0.875, below the bound 0.9154) fails
    for s, want in ((1, 1), (10, 9), (16, 15), (20, 19), (100, 97), (1000, 981)):
        assert min_pass_count(s) == want
    # 2816 is the smallest s whose bound is whole (2772), so its ceiling adds nothing
    for s in (1, 2, 7, 10, 16, 20, 55, 100, 300, 1000, 2816):
        assert min_pass_count(s) == ref.ref_min_pass(s)
    assert ref.ref_min_pass(2816) == 2772
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
        assert t.min_pass == 19
        assert t.n_passed >= 19
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


def test_battery_holds_one_sequence_at_a_time():
    """run_battery takes the next sequence only after it has dropped the
    last one, and grades a generator as it grades the same list."""
    rng = np.random.default_rng(63)
    streams = [rng.random(2000) < 0.5 for _ in range(4)]
    alive = []

    def loaded():
        for s in streams:
            assert not any(ref() is not None for ref in alive)
            bits = s.copy()
            alive.append(weakref.ref(bits))
            yield bits
            del bits

    assert run_battery(loaded()).report() == run_battery(streams).report()
    assert len(alive) == len(streams)


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


def test_battery_sizes_templates_from_length():
    rng = np.random.default_rng(64)
    bits = rng.random(1000) < 0.5
    summary = run_battery([bits])
    m_block, m_serial, m_apen = default_block_m(1000), default_serial_m(1000), default_apen_m(1000)
    assert (m_block, m_serial, m_apen) == (20, 6, 3)
    assert summary.subtest("BlockFrequency").p_values[0] == block_frequency(bits, m_block).p_value
    assert summary.subtest("Serial2").p_values[0] == serial(bits, m_serial)[1].p_value
    assert (
        summary.subtest("ApproximateEntropy").p_values[0]
        == approximate_entropy(bits, m_apen).p_value
    )
    assert "alpha=0.01" in summary.report()


# --- ASCII input files -----------------------------------------------------


def test_export_import_roundtrip(tmp_path):
    rng = np.random.default_rng(70)
    bits = rng.random(4097) < 0.5
    text = _bitstring(bits)
    p = tmp_path / "seq.txt"
    p.write_bytes(text.encode("ascii"))
    again = import_sts(p)
    assert again.dtype == bool and np.array_equal(again, bits)
    # ASCII whitespace between bits is skipped
    for spaced in (text + "\n", text[:100] + "\r\n" + text[100:] + " ", "\t".join(text)):
        p.write_text(spaced)
        assert np.array_equal(import_sts(p), bits)


def test_import_rejects_junk(tmp_path):
    p = tmp_path / "bad.txt"
    for text in ("0101a", "0101x01", ""):
        p.write_text(text)
        with pytest.raises(ValueError):
            import_sts(p)
