"""Rate-model arithmetic, published-figure reproduction and self-timing."""

import dataclasses

import numpy as np
import pytest

from conftest import small_config
from mramtrng import throughput as throughput_module
from mramtrng.characterize import SelectionThresholds, count_flips, select_cells
from mramtrng.device import TimingParams, create_chip, measure
from mramtrng.extract import plan_harvest
from mramtrng.throughput import (
    ThroughputInputs,
    format_estimate,
    measure_pipeline_times,
    t_rw_avg,
    throughput,
)

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
    est = throughput(
        ThroughputInputs(t_rw_ns=1e-9, t_hash_ns=802.6, bits_per_rand_addr=512.0)
    )
    assert abs(est.mbit_per_s - 256 / 802.6 * 1000.0) < 0.01


def test_monotonicity_over_random_inputs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        base = ThroughputInputs(
            t_rw_ns=float(rng.uniform(10, 1000)),
            t_hash_ns=float(rng.uniform(10, 5000)),
            bits_per_rand_addr=float(rng.uniform(1, 16)),
            b_len=512,
            d_len=256,
        )
        r0 = throughput(base).mbit_per_s
        bump = float(rng.uniform(1.01, 2.0))
        slower_rw = dataclasses.replace(base, t_rw_ns=base.t_rw_ns * bump)
        slower_hash = dataclasses.replace(base, t_hash_ns=base.t_hash_ns * bump)
        denser = dataclasses.replace(
            base, bits_per_rand_addr=base.bits_per_rand_addr * bump
        )
        wider_out = dataclasses.replace(base, d_len=base.d_len + 128)
        assert throughput(slower_rw).mbit_per_s < r0
        assert throughput(slower_hash).mbit_per_s < r0
        assert throughput(denser).mbit_per_s > r0
        assert throughput(wider_out).mbit_per_s > r0


def test_input_validation():
    with pytest.raises(ValueError):
        ThroughputInputs(t_rw_ns=0.0, t_hash_ns=1.0, bits_per_rand_addr=1.0)
    with pytest.raises(ValueError):
        ThroughputInputs(t_rw_ns=1.0, t_hash_ns=-1.0, bits_per_rand_addr=1.0)
    with pytest.raises(ValueError):
        ThroughputInputs(t_rw_ns=1.0, t_hash_ns=1.0, bits_per_rand_addr=1.0, b_len=128, d_len=256)
    with pytest.raises(ValueError):
        ThroughputInputs(t_rw_ns=1.0, t_hash_ns=1.0, bits_per_rand_addr=float("nan"))


@pytest.fixture(scope="module")
def timed_setup():
    chip = create_chip(small_config(), seed=7)
    timing = TimingParams(2.5)
    m = measure(chip, timing, n=20)
    sel = select_cells(count_flips(m), 20, SelectionThresholds(6))
    assert not sel.empty
    return chip, sel, timing


def test_measure_pipeline_times_produces_usable_inputs(timed_setup):
    chip, sel, timing = timed_setup
    inputs = measure_pipeline_times(chip, sel, timing)
    assert inputs.t_rw_ns > 0 and inputs.t_hash_ns > 0
    assert inputs.bits_per_rand_addr == sel.bits_per_rand_addr
    est = throughput(inputs)
    assert est.mbit_per_s > 0 and est.t_rw_avg_ns > 0
    report = format_estimate(inputs, est)
    assert "Mbit/s" in report


def test_measure_pipeline_times_sets_up_harvest_once(timed_setup, monkeypatch):
    chip, sel, timing = timed_setup
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return plan_harvest(*args, **kwargs)

    monkeypatch.setattr(throughput_module, "plan_harvest", counted)
    measure_pipeline_times(chip, sel, timing)
    assert len(calls) == 1  # not once per each of the 110 timed harvests


def test_measured_times_are_minima_after_warmup(timed_setup, monkeypatch):
    """With a scripted clock, t_rw_ns and t_hash_ns are the fastest timed
    repetitions per address and per block; the faster warm-up ones do not count."""
    chip, sel, timing = timed_setup
    tm = throughput_module
    rng = np.random.default_rng(11)
    timed = {step: rng.integers(1_000, 1_000_000, size=tm.TIMED_REPEATS) for step in ("rw", "hash")}
    elapsed = [1] * tm.WARMUP_REPEATS + list(timed["rw"]) + [1] * tm.WARMUP_REPEATS + list(timed["hash"])
    ticks, now = [], 5_000
    for e in elapsed:  # a start and an end reading per repetition
        ticks += [now, now + int(e)]
        now += int(e) + 3
    clock = iter(ticks)
    monkeypatch.setattr(tm, "perf_counter_ns", lambda: next(clock))
    inputs = measure_pipeline_times(chip, sel, timing)
    assert next(clock, None) is None  # every repetition read the clock twice
    per_address = tm.ROUNDS_PER_REP * sel.num_rand_addresses
    assert inputs.t_rw_ns == timed["rw"].min() / per_address
    assert inputs.t_hash_ns == timed["hash"].min() / tm.BLOCKS_PER_REP


def test_measure_pipeline_times_validation(timed_setup):
    chip, sel, timing = timed_setup
    empty = dataclasses.replace(sel, mask=np.zeros_like(sel.mask))
    with pytest.raises(ValueError):
        measure_pipeline_times(chip, empty, timing)
