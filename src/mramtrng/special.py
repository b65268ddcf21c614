"""Scalar special functions used by the statistical test battery.

Self-contained double-precision implementations of the regularised
incomplete gamma functions, via the classical series / continued-fraction
pair:

    igam(a,x) = x^a e^-x / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n))
    igamc(a,x)= x^a e^-x / Gamma(a) * CF(a, x)    (Legendre's fraction)

Each covers the other's weak region (igam for x < a+1, igamc for x >= a+1),
so both tails are computed without cancellation.  The standard library has
no incomplete gamma; ``normal_cdf`` is built on its ``math.erfc``.  The test
suite checks every function against an independent high-precision oracle.
"""

from __future__ import annotations

import math

_MACHEP = 1.11022302462515654042e-16
_MAXLOG = 709.782712893383996732
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16
# far more iterations than any finite argument needs; the loops stop here
# instead of spinning on an input the convergence tests never accept
_MAX_ITER = 100_000


def _prefix(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a), the factor both tails share, from its log: 0.0
    where it underflows, NaN where lgamma(a) overflows or where the rounding
    of the log's terms reaches 1 (a or x beyond about 1e15), so that no
    digit of the factor would be right."""
    try:
        a_log_x, lgamma_a = a * math.log(x), math.lgamma(a)
    except OverflowError:
        return math.nan
    if _MACHEP * (abs(a_log_x) + x + abs(lgamma_a)) >= 1.0:
        return math.nan
    ax = a_log_x - x - lgamma_a
    return 0.0 if ax < -_MAXLOG else math.exp(ax)


def igamc(a: float, x: float) -> float:
    """Regularised upper incomplete gamma Q(a, x) = Gamma(a,x)/Gamma(a).

    NaN when a or x is not finite, too large for the prefix, or the
    fraction does not converge.
    """
    if not (math.isfinite(a) and math.isfinite(x)):
        return math.nan
    if a <= 0.0:
        raise ValueError(f"igamc requires a > 0, got a={a}")
    if x < 0.0:
        raise ValueError(f"igamc requires x >= 0, got x={x}")
    if x == 0.0:
        return 1.0
    if x < 1.0 or x < a:
        return 1.0 - igam(a, x)
    ax = _prefix(a, x)
    if not ax > 0.0:
        return ax
    # Legendre's continued fraction for the upper tail
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_MAX_ITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0.0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1 = pkm1, pk
        qkm2, qkm1 = qkm1, qk
        if abs(pk) > _BIG:
            pkm2 *= _BIGINV
            pkm1 *= _BIGINV
            qkm2 *= _BIGINV
            qkm1 *= _BIGINV
        if t <= _MACHEP:
            return ans * ax
    return math.nan


def igam(a: float, x: float) -> float:
    """Regularised lower incomplete gamma P(a, x) = gamma(a,x)/Gamma(a).

    NaN when a or x is not finite, too large for the prefix, or the
    series does not converge.
    """
    if not (math.isfinite(a) and math.isfinite(x)):
        return math.nan
    if a <= 0.0:
        raise ValueError(f"igam requires a > 0, got a={a}")
    if x < 0.0:
        raise ValueError(f"igam requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    if x > 1.0 and x > a:
        return 1.0 - igamc(a, x)
    ax = _prefix(a, x)
    if not ax > 0.0:
        return ax
    # Kummer-type power series for the lower tail
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(_MAX_ITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= ans * _MACHEP:
            # rounding can carry P above 1 where a is tiny
            return min(1.0, ans * ax / a)
    return math.nan


def normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))
