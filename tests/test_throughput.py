"""Rate-model arithmetic and published-figure reproduction."""

import dataclasses

import numpy as np
import pytest

from mramtrng.throughput import ThroughputInputs, format_estimate, t_rw_avg, throughput

# datasheet-style reference point: per-address read/write and per-block hash
# times measured on silicon, with the five chips' bits-per-address statistics
T_RW_NS = 239.76
T_HASH_NS = 802.6
CHIP_BITS_PER_ADDR = (9.71, 10.71, 13.19, 11.39, 12.76)
CHIP_MBIT_PER_S = (18.17, 19.95, 24.12, 21.10, 23.47)


def _inputs(bpa: float, **kw) -> ThroughputInputs:
    base = dict(t_rw_ns=T_RW_NS, t_hash_ns=T_HASH_NS, bits_per_rand_addr=bpa)
    base.update(kw)
    return ThroughputInputs(**base)


def test_gather_time_example():
    assert abs(t_rw_avg(_inputs(13.19)) - 9306.8) < 0.1


def test_gather_time_identity_and_proportionality():
    ident = ThroughputInputs(t_rw_ns=100.0, t_hash_ns=1.0, bits_per_rand_addr=512.0)
    assert t_rw_avg(ident) == 100.0
    a = t_rw_avg(_inputs(6.0))
    b = t_rw_avg(_inputs(12.0))
    assert abs(a - 2 * b) < 1e-9


def test_reproduces_published_rates_within_ten_percent():
    for bpa, published in zip(CHIP_BITS_PER_ADDR, CHIP_MBIT_PER_S):
        est = throughput(_inputs(bpa))
        assert abs(est.mbit_per_s - published) / published < 0.10


def test_worst_chip_is_lowest_and_at_least_18():
    rates = [throughput(_inputs(bpa)).mbit_per_s for bpa in CHIP_BITS_PER_ADDR]
    assert min(rates) == rates[0]
    assert rates[0] >= 18.0


def test_hash_limited_rate():
    inputs = ThroughputInputs(t_rw_ns=1e-9, t_hash_ns=802.6, bits_per_rand_addr=512.0)
    est = throughput(inputs)
    assert abs(est.mbit_per_s - 256 / 802.6 * 1000.0) < 0.01
    assert "512 raw -> 256 out" in format_estimate(inputs, est)


def test_monotonicity_over_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        base = ThroughputInputs(
            t_rw_ns=float(rng.uniform(10, 1000)),
            t_hash_ns=float(rng.uniform(10, 5000)),
            bits_per_rand_addr=float(rng.uniform(1, 16)),
        )
        r0 = throughput(base).mbit_per_s
        bump = float(rng.uniform(1.01, 2.0))
        slower_rw = dataclasses.replace(base, t_rw_ns=base.t_rw_ns * bump)
        slower_hash = dataclasses.replace(base, t_hash_ns=base.t_hash_ns * bump)
        denser = dataclasses.replace(
            base, bits_per_rand_addr=base.bits_per_rand_addr * bump
        )
        assert throughput(slower_rw).mbit_per_s < r0
        assert throughput(slower_hash).mbit_per_s < r0
        assert throughput(denser).mbit_per_s > r0


def test_input_validation():
    with pytest.raises(ValueError):
        ThroughputInputs(t_rw_ns=0.0, t_hash_ns=1.0, bits_per_rand_addr=1.0)
    with pytest.raises(ValueError):
        ThroughputInputs(t_rw_ns=1.0, t_hash_ns=-1.0, bits_per_rand_addr=1.0)
    with pytest.raises(ValueError):
        ThroughputInputs(t_rw_ns=1.0, t_hash_ns=1.0, bits_per_rand_addr=float("nan"))
