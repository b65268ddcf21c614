"""Generation-rate model for the harvest-then-hash pipeline.

Raw bits are collected from the selected addresses of a chip, hashed B_LEN
bits at a time, and emitted D_LEN bits at a time.  The model needs two
times of the hardware: the average write/read cost of one address and the
average cost of hashing one input block.  The CLI uses the REFERENCE_*
times of the commercial part and controller this package imitates; the
host's own Python timings would say nothing about a silicon rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extract import B_LEN, D_LEN

# Per-address write/read and per-block SHA-256 times of the commercial
# part and controller this model imitates
REFERENCE_T_RW_NS = 239.76
REFERENCE_T_HASH_NS = 802.6


@dataclass(frozen=True)
class ThroughputInputs:
    """Hardware times and selection statistics feeding the rate model."""

    t_rw_ns: float
    t_hash_ns: float
    bits_per_rand_addr: float

    def __post_init__(self) -> None:
        for name in ("t_rw_ns", "t_hash_ns", "bits_per_rand_addr"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be a positive finite number, got {value}")


@dataclass(frozen=True)
class ThroughputEstimate:
    """Average time to fill one input block, and the resulting bit rate."""

    t_rw_avg_ns: float
    mbit_per_s: float


def t_rw_avg(inputs: ThroughputInputs) -> float:
    """Average time to gather one raw input block's worth of addresses."""
    return inputs.t_rw_ns * B_LEN / inputs.bits_per_rand_addr


def throughput(inputs: ThroughputInputs) -> ThroughputEstimate:
    """Sustained output rate in Mbit/s (decimal, 10^6 bits per second)."""
    gather_ns = t_rw_avg(inputs)
    # D_LEN bits emitted every (gather + hash) ns; 1 bit/ns = 1000 Mbit/s
    rate = D_LEN / (gather_ns + inputs.t_hash_ns) * 1000.0
    return ThroughputEstimate(t_rw_avg_ns=gather_ns, mbit_per_s=rate)


def format_estimate(inputs: ThroughputInputs, estimate: ThroughputEstimate) -> str:
    return "\n".join(
        [
            f"t_rw per address:      {inputs.t_rw_ns:.2f} ns",
            f"t_hash per block:      {inputs.t_hash_ns:.2f} ns",
            f"bits per rand address: {inputs.bits_per_rand_addr:.2f}",
            f"block sizes:           {B_LEN} raw -> {D_LEN} out",
            f"gather time per block: {estimate.t_rw_avg_ns:.2f} ns",
            f"throughput:            {estimate.mbit_per_s:.2f} Mbit/s",
        ]
    )
