"""Scalar special functions used by the statistical test battery.

Self-contained double-precision implementations of the complementary error
function and the regularised incomplete gamma functions, via the classical
series / continued-fraction pairs:

    erf(x)    = 2/sqrt(pi) * exp(-x^2) * sum_n (2x^2)^n * x / (2n+1)!!
    erfc(x)   = exp(-x^2) / (x sqrt(pi)) * 1/(1+ u1/(1+ u2/(1+ ...)))
                with u_n = n / (2 x^2)            (x large)
    igam(a,x) = x^a e^-x / Gamma(a+1) * sum_n x^n / ((a+1)...(a+n))
    igamc(a,x)= x^a e^-x / Gamma(a) * CF(a, x)    (Legendre's fraction)

Each pair covers the other's weak region (igam for x < a+1, igamc for
x >= a+1), so both tails are computed without cancellation.  The test
suite checks every function against an independent high-precision oracle.
"""

from __future__ import annotations

import math

_MACHEP = 1.11022302462515654042e-16
_MAXLOG = 709.782712893383996732
_BIG = 4.503599627370496e15
_BIGINV = 2.22044604925031308085e-16
_SQRT_PI = 1.7724538509055160273
# far more iterations than any finite argument needs; the loops stop here
# instead of spinning on an input the convergence tests never accept
_MAX_ITER = 100_000


def erf(x: float) -> float:
    """Error function."""
    if x < 0.0:
        return -erf(-x)
    if x >= 2.0:
        return 1.0 - erfc(x)
    if x == 0.0:
        return 0.0
    # non-alternating series: all terms positive, no cancellation
    x2 = 2.0 * x * x
    term = x
    total = x
    denom = 1.0
    for n in range(1, 300):
        denom += 2.0
        term *= x2 / denom
        total += term
        if term < total * _MACHEP:
            break
    return 2.0 / _SQRT_PI * math.exp(-x * x) * total


def erfc(x: float) -> float:
    """Complementary error function, accurate in the far tail."""
    if x < 0.0:
        return 2.0 - erfc(-x)
    if x < 2.0:
        return 1.0 - erf(x)
    # Laplace continued fraction 1/(1+ u1/(1+ u2/(1+ ...))), u_n = n/(2x^2),
    # evaluated bottom-up-free with the modified Lentz algorithm
    inv2x2 = 1.0 / (2.0 * x * x)
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for n in range(1, 500):
        a = 1.0 if n == 1 else (n - 1) * inv2x2
        d = 1.0 + a * d
        if d == 0.0:
            d = tiny
        c = 1.0 + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < _MACHEP:
            break
    arg = -x * x - math.log(x) - math.log(_SQRT_PI)
    if arg < -_MAXLOG:
        return 0.0
    return math.exp(arg) * f


def igamc(a: float, x: float) -> float:
    """Regularised upper incomplete gamma Q(a, x) = Gamma(a,x)/Gamma(a).

    NaN when a or x is not finite or the fraction does not converge.
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
    ax = a * math.log(x) - x - math.lgamma(a)
    if ax < -_MAXLOG:
        return 0.0
    ax = math.exp(ax)
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

    NaN when a or x is not finite or the series does not converge.
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
    ax = a * math.log(x) - x - math.lgamma(a)
    if ax < -_MAXLOG:
        return 0.0
    ax = math.exp(ax)
    # Kummer-type power series for the lower tail
    r = a
    c = 1.0
    ans = 1.0
    for _ in range(_MAX_ITER):
        r += 1.0
        c *= x / r
        ans += c
        if c <= ans * _MACHEP:
            return ans * ax / a
    return math.nan


def normal_cdf(x: float) -> float:
    """Standard normal distribution function Phi(x)."""
    return 0.5 * erfc(-x / math.sqrt(2.0))
