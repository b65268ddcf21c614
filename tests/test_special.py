"""Oracle validation for the native erfc / incomplete-gamma implementations.

The implementations under test are pure series / continued-fraction code;
the oracle is mpmath at 40 decimal digits (with scipy as a second witness).
Agreement is required to at least 12 significant digits.
"""

import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from mramtrng.special import erf, erfc, igam, igamc, normal_cdf

mp.mp.dps = 40

REL_TOL = 1e-12


def _rel(v, ref):
    if ref == 0.0:
        return abs(v)
    return abs(v - ref) / abs(ref)


def test_erfc_against_mpmath_dense_grid():
    xs = np.concatenate(
        [
            np.linspace(-8.0, 8.0, 801),
            np.linspace(1.8, 2.2, 101),  # series/CF crossover region
            np.array([7.07, 10.0, 15.0, 20.0, 26.3]),
        ]
    )
    worst = 0.0
    for x in xs:
        x = float(x)
        worst = max(worst, _rel(erfc(x), float(mp.erfc(x))))
        worst = max(worst, _rel(erf(x), float(mp.erf(x))))
    assert worst < REL_TOL


def test_erfc_far_tail():
    # p-values this small must still carry relative accuracy
    assert _rel(erfc(7.07), float(mp.erfc(7.07))) < REL_TOL
    assert erfc(7.07) == pytest.approx(1.5473863961178e-23, rel=1e-12)
    assert erfc(30.0) == 0.0  # underflow maps to exact zero, not garbage


def test_erf_symmetry_and_range():
    for x in np.linspace(0.0, 6.0, 200):
        x = float(x)
        assert erf(-x) == -erf(x)
        assert erfc(-x) == pytest.approx(2.0 - erfc(x), abs=1e-15)
        assert 0.0 <= erfc(x) <= 1.0
    assert erf(0.0) == 0.0
    assert erfc(0.0) == 1.0


def test_igam_igamc_against_mpmath():
    cases = [(a, x) for a in (0.5, 1.0, 1.5, 2.0, 4.5, 8.0, 16.0, 32.0, 64.0, 128.0)
             for x in (1e-8, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 31.9, 64.0, 130.0, 200.0)]
    worst = 0.0
    for a, x in cases:
        qr = float(mp.gammainc(a, x, mp.inf, regularized=True))
        pr = float(mp.gammainc(a, 0, x, regularized=True))
        worst = max(worst, _rel(igamc(a, x), qr), _rel(igam(a, x), pr))
    assert worst < REL_TOL


def test_igam_igamc_complementary():
    rng = np.random.default_rng(11)
    for _ in range(500):
        a = float(rng.uniform(0.05, 200.0))
        x = float(rng.uniform(0.0, 300.0))
        s = igam(a, x) + igamc(a, x)
        assert s == pytest.approx(1.0, abs=1e-12)


def test_igamc_scipy_cross_check():
    rng = np.random.default_rng(12)
    for _ in range(300):
        a = float(rng.uniform(0.1, 100.0))
        x = float(rng.uniform(0.0, 200.0))
        ref = float(sp.gammaincc(a, x))
        if ref > 1e-290:
            assert _rel(igamc(a, x), ref) < 1e-10


def test_igamc_edges():
    assert igamc(3.0, 0.0) == 1.0
    assert igam(3.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        igamc(0.0, 1.0)
    with pytest.raises(ValueError):
        igamc(-1.0, 1.0)
    with pytest.raises(ValueError):
        igam(1.0, -0.5)


def test_igam_igamc_finish_on_non_finite_arguments():
    """NaN and +-inf arguments return NaN instead of looping; run in a child
    process so that a regression fails on the timeout instead of hanging."""
    code = (
        "import math\n"
        "from mramtrng.special import igam, igamc\n"
        "bad = (math.nan, math.inf, -math.inf)\n"
        "args = [(2.0, v) for v in bad] + [(v, 2.0) for v in bad] + [(v, v) for v in bad]\n"
        "assert all(math.isnan(f(a, x)) for f in (igam, igamc) for a, x in args)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_normal_cdf():
    for x in np.linspace(-6.0, 6.0, 121):
        x = float(x)
        assert normal_cdf(x) == pytest.approx(float(sp.ndtr(x)), rel=1e-11, abs=1e-300)
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert math.isclose(normal_cdf(1.0) + normal_cdf(-1.0), 1.0, abs_tol=1e-14)
