"""Native core of the NIST SP 800-22 statistical test suite.

Seven tests are implemented here (frequency, block frequency, runs, longest
run of ones, cumulative sums, serial, approximate entropy) together with the
battery-level pass rules: a per-test proportion threshold and a chi-squared
uniformity check on the p-value distribution.  A sequence is a non-empty 1-d
bool array; ``import_sts`` reads one from an ASCII '0'/'1' file, the input
format of the reference STS distribution.

All tests are deterministic pure functions of the input bits.  ``run_all``
does each sequence's shared work once: one wrapped template histogram, built
at the wider of the serial and approximate-entropy widths and folded down
for each, and one +-1 walk that gives both cumulative-sums excursions.  The
cumulative-sums p-value skips the terms that are exactly 0.0 (both normal
CDF arguments beyond +-40).  Every result equals the standalone test's bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import erfc
from pathlib import Path
from typing import Iterable

import numpy as np

from .special import igamc, normal_cdf

ALPHA = 0.01
UNIFORMITY_FLOOR = 0.0001

# rated maximum of a stream file that `test` reads (a .bits header's bit
# count, or an ASCII file's bytes), checked before the payload is read: above
# the 216,777,215 raw bits that `generate --bits 10**8` can write from a
# rated-maximum chip; grading the 2e8 raw bits of the default chip's
# selection peaks at 2.3 GB (see README)
MAX_STREAM_BITS = 220_000_000

SUBTEST_NAMES = (
    "Frequency",
    "BlockFrequency",
    "Runs",
    "LongestRun",
    "CumulativeSumsFwd",
    "CumulativeSumsRev",
    "Serial1",
    "Serial2",
    "ApproximateEntropy",
)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one statistical test on one sequence."""

    name: str
    statistic: float
    p_value: float
    passed: bool
    note: str = ""


def _coerce(seq) -> np.ndarray:
    arr = np.asarray(seq).astype(bool, copy=False)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-d bit array")
    return arr


def frequency_monobit(seq) -> TestResult:
    """Proportion of ones versus zeros over the whole sequence."""
    bits = _coerce(seq)
    n = bits.size
    s = abs(2 * int(np.count_nonzero(bits)) - n)
    p = erfc(s / math.sqrt(2.0 * n))
    return TestResult("Frequency", float(s), p, p >= ALPHA)


def block_frequency(seq, m_block: int = 128) -> TestResult:
    """Proportion of ones within fixed-size blocks; partial tail discarded."""
    bits = _coerce(seq)
    if m_block < 2:
        raise ValueError("m_block must be at least 2")
    n_blocks = bits.size // m_block
    if n_blocks < 1:
        raise ValueError("sequence shorter than one block")
    ones = bits[: n_blocks * m_block].reshape(n_blocks, m_block).sum(axis=1)
    chi = 4.0 * m_block * float(np.sum((ones / m_block - 0.5) ** 2))
    p = igamc(n_blocks / 2.0, chi / 2.0)
    return TestResult("BlockFrequency", chi, p, p >= ALPHA)


def runs(seq) -> TestResult:
    """Total number of runs, conditional on the frequency prerequisite."""
    bits = _coerce(seq)
    n = bits.size
    ones = int(np.count_nonzero(bits))
    # integer forms keep the result exactly invariant under bit complement
    if abs(2 * ones - n) >= 4.0 * math.sqrt(n):
        return TestResult("Runs", float("nan"), 0.0, False, note="frequency prerequisite failed")
    v = 1 + int(np.count_nonzero(bits[:-1] != bits[1:]))
    prod = ones * (n - ones) / (float(n) * n)
    if prod == 0.0:
        # constant sequence short enough to slip past the prerequisite
        return TestResult("Runs", float(v), 0.0, False, note="degenerate proportion")
    num = abs(v - 2.0 * n * prod)
    den = 2.0 * math.sqrt(2.0 * n) * prod
    p = erfc(num / den)
    return TestResult("Runs", float(v), p, p >= ALPHA)


_LONGEST_RUN_TABLES = {
    8: ([1, 2, 3, 4], (0.2148, 0.3672, 0.2305, 0.1875)),
    128: ([4, 5, 6, 7, 8, 9], (0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124)),
    10_000: (
        [10, 11, 12, 13, 14, 15, 16],
        (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727),
    ),
}


def _longest_run_per_block(blocks: np.ndarray) -> np.ndarray:
    """Longest run of ones in each row, from the run boundaries.

    Each row is framed by zeros, so within a row every run start (0 -> 1)
    is followed by its end (1 -> 0), and in row-major order the k-th start
    and the k-th end belong to the same run.
    """
    n_blocks, m = blocks.shape
    framed = np.zeros((n_blocks, m + 2), dtype=np.int8)
    framed[:, 1:-1] = blocks
    step = np.diff(framed, axis=1).ravel()
    starts = np.flatnonzero(step == 1)
    lengths = np.flatnonzero(step == -1) - starts
    best = np.zeros(n_blocks, dtype=np.int64)
    if starts.size:
        rows = starts // (m + 1)
        first = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        best[rows[first]] = np.maximum.reduceat(lengths, first)
    return best


def longest_run(seq) -> TestResult:
    """Longest run of ones per block against fixed category probabilities."""
    bits = _coerce(seq)
    n = bits.size
    if n < 128:
        raise ValueError("longest-run test needs at least 128 bits")
    m = 8 if n < 6272 else (128 if n < 750_000 else 10_000)
    edges, pi = _LONGEST_RUN_TABLES[m]
    k = len(pi) - 1
    n_blocks = n // m
    longest = _longest_run_per_block(bits[: n_blocks * m].reshape(n_blocks, m))
    cats = np.searchsorted(edges, longest)
    counts = np.bincount(np.minimum(cats, k), minlength=k + 1)
    expected = n_blocks * np.asarray(pi)
    chi = float(np.sum((counts - expected) ** 2 / expected))
    p = igamc(k / 2.0, chi / 2.0)
    return TestResult("LongestRun", chi, p, p >= ALPHA)


# normal_cdf is exactly 1.0 above about 8.29 and exactly 0.0 below about
# -38.48, so a cumulative-sums term whose two arguments both lie beyond this
# bound on one side is a difference of two equal values: exactly 0.0
_CDF_FLAT = 40.0


def _excursions(bits: np.ndarray) -> tuple[int, int]:
    """Maximal excursions (forward, reverse) of the +-1 walk, from one walk.

    With the forward partial sums S_k (S_0 = 0), the forward excursion is
    max |S_k| over k in [1, n], and the reversed walk's partial sums are
    S_n - S_j for j in [0, n-1].
    """
    n = bits.size
    steps = np.multiply(bits.view(np.int8), 2, dtype=np.int8)
    steps -= 1
    walk = np.cumsum(steps, dtype=np.int32 if n < 2**31 else np.int64)
    s_n = int(walk[-1])
    lo, hi = int(walk[:-1].min(initial=0)), int(walk[:-1].max(initial=0))
    return max(hi, -lo, abs(s_n)), max(s_n - lo, hi - s_n)


def _cumulative_sums_result(n: int, z: int, reverse: bool) -> TestResult:
    """Cumulative-sums result for maximal excursion z over n steps."""
    name = "CumulativeSumsRev" if reverse else "CumulativeSumsFwd"
    if z == 0:
        return TestResult(name, 0.0, 1.0, True)
    sqn = math.sqrt(n)
    # a term with |k| > reach has both arguments beyond +-_CDF_FLAT on one
    # side (with a margin of several z / sqn for rounding), so it is exactly
    # 0.0; the remaining terms, summed in the same order, give the same float
    reach = math.ceil(_CDF_FLAT * sqn / (4 * z)) + 1
    k_last = min(reach, math.floor((n / z - 1) / 4))
    total = 1.0
    for k in range(max(-reach, math.floor((-n / z + 1) / 4)), k_last + 1):
        total -= normal_cdf((4 * k + 1) * z / sqn) - normal_cdf((4 * k - 1) * z / sqn)
    for k in range(max(-reach, math.floor((-n / z - 3) / 4)), k_last + 1):
        total += normal_cdf((4 * k + 3) * z / sqn) - normal_cdf((4 * k + 1) * z / sqn)
    p = min(1.0, max(0.0, total))
    return TestResult(name, float(z), p, p >= ALPHA)


def cumulative_sums(seq, reverse: bool = False) -> TestResult:
    """Maximal excursion of the +-1 random walk, forward or reversed."""
    bits = _coerce(seq)
    z_fwd, z_rev = _excursions(bits)
    return _cumulative_sums_result(bits.size, z_rev if reverse else z_fwd, reverse)


def _template_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Histogram of the n wrapped overlapping m-bit templates, by code."""
    n = bits.size
    ext = np.concatenate([bits, bits[: m - 1]]).view(np.uint8)
    # uint16 codes are exact up to m = 16 and move a quarter of the bytes
    codes = np.zeros(n, dtype=np.uint16 if m <= 16 else np.int64)
    for j in range(m):
        codes <<= 1
        codes |= ext[j : j + n]
    return np.bincount(codes, minlength=2**m)


def _fold_counts(counts: np.ndarray) -> np.ndarray:
    """(m-1)-bit template counts from m-bit ones: a template's count is the
    sum of its two one-bit extensions.  Exact because both histograms count
    all n wrapped positions."""
    return counts[0::2] + counts[1::2]


def _fold_to(counts: np.ndarray, m: int) -> np.ndarray:
    """Fold a template histogram of m or more bits down to m bits."""
    while counts.size > 2**m:
        counts = _fold_counts(counts)
    return counts


def _check_template_fits(m: int, n: int) -> None:
    if m >= n:
        raise ValueError("template length m too large for the sequence")


def _clamp_zero(x: float) -> float:
    """x, or 0.0 where rounding took a statistic that is >= 0 below zero.

    The reference STS's igamc returns 1.0 for x <= 0, and so does this
    suite's at 0.0.
    """
    return 0.0 if x < 0.0 else x


def _psi_sq(counts: np.ndarray, n: int) -> float:
    if counts.size == 1:  # m = 0
        return 0.0
    return (counts.size / n) * float(counts @ counts) - n


def _serial_results(counts: np.ndarray, n: int, m: int) -> tuple[TestResult, TestResult]:
    """Both serial results from a template histogram of m or more bits."""
    counts_m = _fold_to(counts, m)
    counts_1 = _fold_counts(counts_m)
    psi_m = _psi_sq(counts_m, n)
    psi_1 = _psi_sq(counts_1, n)
    psi_2 = _psi_sq(_fold_counts(counts_1), n)
    d1 = _clamp_zero(psi_m - psi_1)
    d2 = _clamp_zero(psi_m - 2.0 * psi_1 + psi_2)
    p1 = igamc(2 ** (m - 2), d1 / 2.0)
    p2 = igamc(2 ** (m - 3), d2 / 2.0)
    return (
        TestResult("Serial1", d1, p1, p1 >= ALPHA),
        TestResult("Serial2", d2, p2, p2 >= ALPHA),
    )


def serial(seq, m: int = 8) -> tuple[TestResult, TestResult]:
    """Frequencies of overlapping m-bit templates (wrapped); two p-values."""
    bits = _coerce(seq)
    if m < 2:
        raise ValueError("serial test needs m >= 2")
    _check_template_fits(m, bits.size)
    return _serial_results(_template_counts(bits, m), bits.size, m)


def _phi(counts: np.ndarray, n: int) -> float:
    c = counts[counts > 0] / n
    return float(np.sum(c * np.log(c)))


def _apen_result(counts: np.ndarray, n: int, m: int) -> TestResult:
    """ApEn(m) from a template histogram of m + 1 or more bits."""
    counts_next = _fold_to(counts, m + 1)
    apen = _phi(_fold_counts(counts_next), n) - _phi(counts_next, n)
    # ApEn reaches ln 2 exactly (on a de Bruijn sequence, for one) and can
    # round above it
    chi = _clamp_zero(2.0 * n * (math.log(2.0) - apen))
    p = igamc(2 ** (m - 1), chi / 2.0)
    return TestResult("ApproximateEntropy", chi, p, p >= ALPHA)


def approximate_entropy(seq, m: int = 8) -> TestResult:
    """ApEn(m) against the ln 2 value of a perfectly random source."""
    bits = _coerce(seq)
    if m < 1:
        raise ValueError("approximate-entropy test needs m >= 1")
    _check_template_fits(m + 1, bits.size)
    return _apen_result(_template_counts(bits, m + 1), bits.size, m)


# --- battery ---------------------------------------------------------------


def default_block_m(n: int) -> int:
    """Block size keeping the block count under 100, at least 20 bits each."""
    target = max(1, math.ceil(n / 99))
    return max(20, 1 << (target - 1).bit_length())


def default_serial_m(n: int) -> int:
    return min(8, max(2, int(math.log2(n)) - 3))


def default_apen_m(n: int) -> int:
    return min(8, max(1, int(math.log2(n)) - 6))


def run_all(seq) -> tuple[TestResult, ...]:
    """All nine subtest results for one sequence, in SUBTEST_NAMES order, at
    ALPHA, with the template sizes of the default_*_m rules for its length.

    Serial and approximate entropy share one template histogram, and the
    two cumulative sums one walk; each result equals the standalone test's.
    """
    bits = _coerce(seq)
    n = bits.size
    serial_m, apen_m = default_serial_m(n), default_apen_m(n)
    # the shared width is serial_m wherever serial_m >= n, so a short input
    # fails here first with serial's error, as the standalone tests would
    width = max(serial_m, apen_m + 1)
    _check_template_fits(width, n)
    z_fwd, z_rev = _excursions(bits)
    counts = _template_counts(bits, width)
    return (
        frequency_monobit(bits),
        block_frequency(bits, default_block_m(n)),
        runs(bits),
        longest_run(bits),
        _cumulative_sums_result(n, z_fwd, reverse=False),
        _cumulative_sums_result(n, z_rev, reverse=True),
        *_serial_results(counts, n, serial_m),
        _apen_result(counts, n, apen_m),
    )


def min_pass_count(s: int) -> int:
    """Smallest number of passing sequences the proportion rule accepts:
    SP 800-22 section 4.2.1 rejects a proportion below
    1 - ALPHA - 3 sqrt(ALPHA (1 - ALPHA) / s), so this is the ceiling of
    s times that bound (1 of 1, 9 of 10, 15 of 16, 981 of 1000)."""
    if s < 1:
        raise ValueError("need at least one sequence")
    threshold = (1.0 - ALPHA) - 3.0 * math.sqrt(ALPHA * (1.0 - ALPHA) / s)
    return math.ceil(s * threshold)


def uniformity_p_value(p_values: np.ndarray) -> float:
    """Chi-squared goodness of fit of p-values against uniform, 10 bins."""
    p = np.asarray(p_values, dtype=float)
    counts = np.bincount(np.clip((p * 10).astype(int), 0, 9), minlength=10)
    expected = p.size / 10.0
    chi = float(np.sum((counts - expected) ** 2 / expected))
    return igamc(4.5, chi / 2.0)


@dataclass(frozen=True)
class SubtestSummary:
    """One battery row: per-sequence p-values plus both pass rules."""

    name: str
    p_values: np.ndarray
    n_passed: int
    min_pass: int
    uniformity_p: float
    proportion_ok: bool = field(init=False)
    uniformity_ok: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "proportion_ok", self.n_passed >= self.min_pass)
        object.__setattr__(
            self, "uniformity_ok", self.uniformity_p >= UNIFORMITY_FLOOR
        )

    @property
    def proportion_label(self) -> str:
        return f"{self.n_passed}/{self.p_values.size}"

    @property
    def ok(self) -> bool:
        return self.proportion_ok and self.uniformity_ok


@dataclass(frozen=True)
class BatterySummary:
    """Verdict over a set of equal-length sequences."""

    n_sequences: int
    sequence_length: int
    subtests: tuple[SubtestSummary, ...]

    @property
    def verdict(self) -> bool:
        return all(t.ok for t in self.subtests)

    def subtest(self, name: str) -> SubtestSummary:
        for t in self.subtests:
            if t.name == name:
                return t
        raise KeyError(name)

    def report(self) -> str:
        lines = [
            f"battery: {self.n_sequences} sequences x {self.sequence_length} bits, "
            f"alpha={ALPHA:g}",
            f"{'test':<20} {'prop':>7} {'min':>4} {'uniformity':>11}  verdict",
        ]
        for t in self.subtests:
            lines.append(
                f"{t.name:<20} {t.proportion_label:>7} {t.min_pass:>4} "
                f"{t.uniformity_p:>11.6f}  {'pass' if t.ok else 'FAIL'}"
            )
        lines.append(f"overall: {'pass' if self.verdict else 'FAIL'}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = ["test,passed,total,min_pass,uniformity_p,proportion_ok,uniformity_ok"]
        for t in self.subtests:
            rows.append(
                f"{t.name},{t.n_passed},{t.p_values.size},{t.min_pass},"
                f"{t.uniformity_p:.10g},{int(t.proportion_ok)},{int(t.uniformity_ok)}"
            )
        return "\n".join(rows) + "\n"


def run_battery(seqs: Iterable) -> BatterySummary:
    """Run the nine subtests over every sequence and apply both pass rules.

    ``seqs`` is consumed once, one sequence at a time: each is graded and
    dropped before the next is taken, so a generator that loads sequences
    holds only one of them in memory.
    """
    per_seq, n = [], None
    for seq in seqs:
        bits = _coerce(seq)
        if n is None:
            n = bits.size
        elif bits.size != n:
            raise ValueError("all sequences must have the same length")
        per_seq.append(run_all(bits))
        del seq, bits  # not alive while the next sequence loads
    if not per_seq:
        raise ValueError("need at least one sequence")
    subtests = []
    for idx, name in enumerate(SUBTEST_NAMES):
        p = np.array([results[idx].p_value for results in per_seq])
        passed = sum(1 for results in per_seq if results[idx].passed)
        subtests.append(
            SubtestSummary(
                name=name,
                p_values=p,
                n_passed=passed,
                min_pass=min_pass_count(len(per_seq)),
                uniformity_p=uniformity_p_value(p),
            )
        )
    return BatterySummary(
        n_sequences=len(per_seq),
        sequence_length=n,
        subtests=tuple(subtests),
    )


# --- external suite interchange --------------------------------------------

# the bytes str.isspace() accepts in ASCII text (\t \n \v \f \r, \x1c-\x1f and
# space); import_sts skips them between bits
_ASCII_SPACE = np.array([c for c in range(128) if chr(c).isspace()], dtype=np.uint8)


def import_sts(source: str | Path) -> np.ndarray:
    """Read an ASCII '0'/'1' file, skipping ASCII whitespace, into a bool array."""
    size = Path(source).stat().st_size
    if size > MAX_STREAM_BITS:
        raise ValueError(f"{source}: {size} bytes is above the rated maximum of {MAX_STREAM_BITS}")
    raw = Path(source).read_bytes()
    arr = np.frombuffer(raw, dtype=np.uint8)
    arr = arr[~np.isin(arr, _ASCII_SPACE)]
    if arr.size == 0:
        raise ValueError(f"{source}: no bits in file")
    bad = (arr != ord("0")) & (arr != ord("1"))
    if np.any(bad):
        raise ValueError(f"{source}: file contains characters other than '0' and '1'")
    return arr == ord("1")
