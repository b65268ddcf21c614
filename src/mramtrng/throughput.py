"""Generation-rate model for the harvest-then-hash pipeline.

Raw bits are collected from the selected addresses of a chip, hashed block by
block, and emitted d_len bits at a time.  The model needs two measured times:
the average write/read cost of one address and the average cost of hashing
one input block.  Both can be measured from this package's own pipeline with
measure_pipeline_times, mirroring how they would be measured on hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

from .characterize import CellSelection
from .device import ChipModel, Environment, TimingParams
from .extract import B_LEN, D_LEN, Bitstream, condition, harvest_rounds, plan_harvest

# Per-address write/read and per-block SHA-256 times of the commercial
# part and controller this model imitates; used when a deterministic
# estimate is wanted instead of wall-clock measurement.
REFERENCE_T_RW_NS = 239.76
REFERENCE_T_HASH_NS = 802.6

# measure_pipeline_times: repetitions discarded, then timed, per step, and
# the rounds harvested and blocks hashed in one repetition
WARMUP_REPEATS = 10
TIMED_REPEATS = 100
ROUNDS_PER_REP = 16
BLOCKS_PER_REP = 100


@dataclass(frozen=True)
class ThroughputInputs:
    """Measured times and selection statistics feeding the rate model."""

    t_rw_ns: float
    t_hash_ns: float
    bits_per_rand_addr: float
    b_len: int = B_LEN
    d_len: int = D_LEN

    def __post_init__(self) -> None:
        for name in ("t_rw_ns", "t_hash_ns", "bits_per_rand_addr"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be a positive finite number, got {value}")
        if self.b_len <= 0 or self.d_len <= 0:
            raise ValueError("block lengths must be positive")
        if self.b_len < self.d_len:
            raise ValueError("b_len must be at least d_len")


@dataclass(frozen=True)
class ThroughputEstimate:
    """Average time to fill one input block, and the resulting bit rate."""

    t_rw_avg_ns: float
    mbit_per_s: float


def t_rw_avg(inputs: ThroughputInputs) -> float:
    """Average time to gather one raw input block's worth of addresses."""
    return inputs.t_rw_ns * inputs.b_len / inputs.bits_per_rand_addr


def throughput(inputs: ThroughputInputs) -> ThroughputEstimate:
    """Sustained output rate in Mbit/s (decimal, 10^6 bits per second)."""
    gather_ns = t_rw_avg(inputs)
    # d_len bits emitted every (gather + hash) ns; 1 bit/ns = 1000 Mbit/s
    rate = inputs.d_len / (gather_ns + inputs.t_hash_ns) * 1000.0
    return ThroughputEstimate(t_rw_avg_ns=gather_ns, mbit_per_s=rate)


def _fastest(step, what: str) -> int:
    """Fewest ns that one of TIMED_REPEATS calls step(i) took, after
    WARMUP_REPEATS discarded calls; i counts all calls from 0."""
    samples = []
    for i in range(WARMUP_REPEATS + TIMED_REPEATS):
        start = perf_counter_ns()
        step(i)
        elapsed = perf_counter_ns() - start
        if elapsed <= 0:
            raise RuntimeError(f"timer resolution too coarse for {what} timing")
        if i >= WARMUP_REPEATS:
            samples.append(elapsed)
    return min(samples)


def measure_pipeline_times(
    chip: ChipModel,
    selection: CellSelection,
    timing: TimingParams,
    env: Environment = Environment(),
) -> ThroughputInputs:
    """Wall-clock the package's own harvest and conditioning steps.

    Returns per-address and per-block minima over TIMED_REPEATS
    repetitions, after WARMUP_REPEATS discarded ones: the fastest repetition
    is the cost of the step itself, the slower ones add preemption and other
    load.  The harvest's per-run set-up is done once, before the
    repetitions, as a long run pays it once; a harvest repetition is a call
    over ROUNDS_PER_REP rounds, so the call's own fixed cost is spread as
    thin as in a long run.
    """
    if selection.empty:
        raise ValueError("cell selection is empty")

    plan = plan_harvest(chip, selection, timing, env)
    raw = Bitstream(np.random.default_rng(0).random(BLOCKS_PER_REP * B_LEN) < 0.5)
    t_rw = _fastest(
        lambda i: harvest_rounds(plan, ROUNDS_PER_REP, start_round=i * ROUNDS_PER_REP), "harvest"
    )
    t_hash = _fastest(lambda i: condition(raw), "hash")
    return ThroughputInputs(
        t_rw_ns=t_rw / (ROUNDS_PER_REP * selection.num_rand_addresses),
        t_hash_ns=t_hash / BLOCKS_PER_REP,
        bits_per_rand_addr=selection.bits_per_rand_addr,
    )


def format_estimate(inputs: ThroughputInputs, estimate: ThroughputEstimate) -> str:
    return "\n".join(
        [
            f"t_rw per address:      {inputs.t_rw_ns:.2f} ns",
            f"t_hash per block:      {inputs.t_hash_ns:.2f} ns",
            f"bits per rand address: {inputs.bits_per_rand_addr:.2f}",
            f"block sizes:           {inputs.b_len} raw -> {inputs.d_len} out",
            f"gather time per block: {estimate.t_rw_avg_ns:.2f} ns",
            f"throughput:            {estimate.mbit_per_s:.2f} Mbit/s",
        ]
    )
