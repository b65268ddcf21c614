"""Slow, literal statistical-test oracles used only by the test suite.

Everything here works on plain '0'/'1' strings with explicit loops and
mpmath arithmetic, so it shares no code path with the package under test.
The one exception is ``ref_cusum_p_float``: the plain double-precision
cumulative-sums loop over the package's own ``normal_cdf``, the bitwise
reference for the package's sum, which skips terms that are exactly zero.
"""

import math
from fractions import Fraction

import mpmath

from mramtrng.special import normal_cdf

mpmath.mp.dps = 40


def ref_erfc(x: float) -> float:
    return float(mpmath.erfc(x))


def ref_igamc(a: float, x: float) -> float:
    return float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))


def ref_normal_cdf(x: float) -> float:
    return float(mpmath.ncdf(x))


def ref_monobit(bits: str) -> tuple[float, float]:
    n = len(bits)
    s = sum(1 if b == "1" else -1 for b in bits)
    return float(abs(s)), ref_erfc(abs(s) / math.sqrt(2 * n))


def ref_block_frequency(bits: str, m: int) -> tuple[float, float]:
    n_blocks = len(bits) // m
    chi = 0.0
    for i in range(n_blocks):
        pi = bits[i * m : (i + 1) * m].count("1") / m
        chi += (pi - 0.5) ** 2
    chi *= 4.0 * m
    return chi, ref_igamc(n_blocks / 2.0, chi / 2.0)


def ref_runs(bits: str) -> tuple[float, float]:
    n = len(bits)
    pi = bits.count("1") / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return float("nan"), 0.0
    v = 1 + sum(1 for k in range(n - 1) if bits[k] != bits[k + 1])
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    if den == 0.0:
        return float(v), 0.0
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    return float(v), ref_erfc(num / den)


_LONGEST_RUN_TABLES = {
    8: (3, [1, 2, 3, 4], [0.2148, 0.3672, 0.2305, 0.1875]),
    128: (5, [4, 5, 6, 7, 8, 9], [0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124]),
    10_000: (
        6,
        [10, 11, 12, 13, 14, 15, 16],
        [0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727],
    ),
}


def _longest_ones_run(block: str) -> int:
    best = cur = 0
    for b in block:
        cur = cur + 1 if b == "1" else 0
        best = max(best, cur)
    return best


def ref_longest_run(bits: str) -> tuple[float, float]:
    n = len(bits)
    if n < 128:
        raise ValueError("need at least 128 bits")
    m = 8 if n < 6272 else (128 if n < 750_000 else 10_000)
    k, edges, pi = _LONGEST_RUN_TABLES[m]
    n_blocks = n // m
    counts = [0] * (k + 1)
    for i in range(n_blocks):
        run = _longest_ones_run(bits[i * m : (i + 1) * m])
        cat = 0
        while cat < k and run > edges[cat]:
            cat += 1
        counts[cat] += 1
    chi = sum(
        (counts[j] - n_blocks * pi[j]) ** 2 / (n_blocks * pi[j]) for j in range(k + 1)
    )
    return chi, ref_igamc(k / 2.0, chi / 2.0)


def ref_excursion(bits: str, reverse: bool = False) -> int:
    steps = [1 if b == "1" else -1 for b in bits]
    if reverse:
        steps.reverse()
    s = 0
    z = 0
    for step in steps:
        s += step
        z = max(z, abs(s))
    return z


def ref_cusum_p_float(n: int, z: int) -> float:
    """Cumulative-sums p-value of excursion z over n steps, every term summed."""
    if z == 0:
        return 1.0
    sqn = math.sqrt(n)
    total = 1.0
    for k in range(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1):
        total -= normal_cdf((4 * k + 1) * z / sqn) - normal_cdf((4 * k - 1) * z / sqn)
    for k in range(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1):
        total += normal_cdf((4 * k + 3) * z / sqn) - normal_cdf((4 * k + 1) * z / sqn)
    return min(1.0, max(0.0, total))


def ref_cusum(bits: str, reverse: bool = False) -> tuple[float, float]:
    n = len(bits)
    z = ref_excursion(bits, reverse)
    if z == 0:
        return 0.0, 1.0
    sqn = mpmath.sqrt(n)
    total = mpmath.mpf(1)
    for k in range(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1):
        total -= mpmath.ncdf((4 * k + 1) * z / sqn) - mpmath.ncdf((4 * k - 1) * z / sqn)
    for k in range(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1):
        total += mpmath.ncdf((4 * k + 3) * z / sqn) - mpmath.ncdf((4 * k + 1) * z / sqn)
    return float(z), min(1.0, max(0.0, float(total)))


def _psi_sq(bits: str, m: int) -> float:
    if m == 0:
        return 0.0
    n = len(bits)
    ext = bits + bits[: m - 1]
    counts: dict[str, int] = {}
    for i in range(n):
        pat = ext[i : i + m]
        counts[pat] = counts.get(pat, 0) + 1
    return (2**m / n) * sum(c * c for c in counts.values()) - n


def ref_serial(bits: str, m: int) -> tuple[float, float, float, float]:
    d1 = _psi_sq(bits, m) - _psi_sq(bits, m - 1)
    d2 = _psi_sq(bits, m) - 2 * _psi_sq(bits, m - 1) + _psi_sq(bits, m - 2)
    p1 = ref_igamc(2 ** (m - 2), d1 / 2.0)
    p2 = ref_igamc(2 ** (m - 3), d2 / 2.0)
    return d1, p1, d2, p2


def _phi(bits: str, m: int) -> float:
    n = len(bits)
    ext = bits + bits[: m - 1]
    counts: dict[str, int] = {}
    for i in range(n):
        pat = ext[i : i + m]
        counts[pat] = counts.get(pat, 0) + 1
    return sum((c / n) * math.log(c / n) for c in counts.values())


def ref_approximate_entropy(bits: str, m: int) -> tuple[float, float]:
    n = len(bits)
    apen = _phi(bits, m) - _phi(bits, m + 1)
    chi = 2.0 * n * (math.log(2.0) - apen)
    return chi, ref_igamc(2 ** (m - 1), chi / 2.0)


def ref_min_pass(s: int, alpha: Fraction = Fraction(1, 100)) -> int:
    """Fewest passes k of s that SP 800-22 section 4.2.1 accepts, found by
    counting up in exact arithmetic: with p = 1 - alpha, k/s is rejected
    while s p - k > 0 and (s p - k)**2 > 9 s p (1 - p), that is, while k/s
    lies below p - 3 sqrt(p (1 - p) / s)."""
    p = 1 - alpha
    k = 0
    while s * p - k > 0 and (s * p - k) ** 2 > 9 * s * p * (1 - p):
        k += 1
    return k


def ref_uniformity(p_values: list[float]) -> float:
    s = len(p_values)
    counts = [0] * 10
    for p in p_values:
        counts[min(9, int(p * 10))] += 1
    expected = s / 10.0
    chi = sum((c - expected) ** 2 / expected for c in counts)
    return ref_igamc(4.5, chi / 2.0)
