"""Behavioural model of a toggle-MRAM array under reduced write-pulse timing.

A chip is an array of 16-bit words.  A write is toggle-based with a
pre-read: the controller issues a toggle pulse only where the stored bit
differs from the written one.  Every campaign resets the array to all
ones and then writes 0 to every cell, so every cell toggles in every
round.  At the nominal pulse width every toggle completes; as the pulse
narrows below the per-cell switching delay, toggles begin to fail
stochastically.  The per-write toggle success probability is

    p_ok = logistic(steepness * (t_w - tau_eff))
    tau_eff = tau + temp_tau_slope * (T_REF - T)

so a shorter pulse or a colder die raises the failure rate.  A failed
toggle usually leaves the cell at the reset 1, a read error; with per-cell
probability ``metastable_frac`` the cell instead resolves to a fresh
Bernoulli(``metastable_bias``) value, which is what makes a minority of
cells noisy rather than merely stuck.

Moderate in-plane external fields are rejected by design (toggle MRAM is
field-write immune below its select threshold): any field at or below
``field_threshold_mt`` has exactly zero effect on the simulation.  Beyond
the threshold the field starts to assist switching at a fixed rate.

All stochastic write outcomes come from a counter-based generator keyed
by (chip seed, cell index, round index), so a measurement campaign is a
pure function of its arguments and can be evaluated per cell subset, in
any order, with bit-identical results.  Since every cycle starts from the
reset, what a cell held before never enters a draw: a ChipModel holds no
stored bits and is an immutable value, which no campaign changes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .parallel import forked
from .rng import CounterRng, draw_rows, draw_threshold, draws

WORD_WIDTH = 16

# full write cycle of the part: no write pulse is longer
T_WC_NS = 35.0

# reference temperature for tau calibration and rated operating window
T_REF_C = 26.0
TEMP_MIN_C = 0.0
TEMP_MAX_C = 70.0

# above-threshold external field lowers the effective switching delay
FIELD_TAU_NS_PER_MT = 0.02

_CHIP_MAGIC = b"MRTG"
_CHIP_VERSION = 1
# the chip file holds the id length in a u16 and the address count in a u32
_MAX_CHIP_ID_BYTES = 0xFFFF
_MAX_ADDRESSES = 0xFFFFFFFF
# rated maximum of a recipe's num_addresses, a 16 Mbit array (16 times the
# default recipe): `chip` at this size took 4.0-4.6 s and 853 MB (see
# README), and a larger one could exhaust memory while sampling
MAX_ADDRESSES = 1 << 20

_STREAM_TOGGLE = 0
_STREAM_META = 1
_STREAM_VALUE = 2

# cells per block of fold_campaigns: a block's keys, thresholds and per-round
# draws stay in the CPU caches through all of the block's rounds instead of
# streaming from memory every round (32K and 64K ran fastest on a 2 MB L2)
_FOLD_BLOCK = 1 << 15

# uint64 words per draw buffer of _readout_rows: a batch of rounds x cells
# stays in the CPU caches through its three draws and its decision (at the
# 8,082 cells of a default selection, batches of 4 to 12 rounds ran fastest,
# with 2 MB of L2 per core)
_BATCH_WORDS = 1 << 16


@dataclass(frozen=True)
class TimingParams:
    """The write pulse width in nanoseconds, the one timing the switching
    model reads; it must fit in the T_WC_NS write cycle."""

    t_w_ns: float = 15.0

    def __post_init__(self):
        if not 0.0 < self.t_w_ns <= T_WC_NS:
            raise ValueError(f"write pulse t_w must lie in (0, {T_WC_NS:g}] ns, got {self.t_w_ns}")


@dataclass(frozen=True)
class Environment:
    """Ambient conditions for a write campaign."""

    temperature_c: float = T_REF_C
    field_mt: float = 0.0

    def __post_init__(self):
        if not TEMP_MIN_C <= self.temperature_c <= TEMP_MAX_C:
            raise ValueError(
                f"temperature {self.temperature_c} C outside rated window "
                f"[{TEMP_MIN_C}, {TEMP_MAX_C}] C"
            )
        if not (np.isfinite(self.field_mt) and self.field_mt >= 0.0):
            raise ValueError(f"field magnitude must be finite and >= 0, got {self.field_mt}")


@dataclass(frozen=True)
class CellParams:
    """Per-cell device parameters (struct of arrays, one entry per cell),
    read-only: a kernel that writes into a chip raises."""

    tau_ns: np.ndarray
    steepness: np.ndarray
    metastable_frac: np.ndarray
    metastable_bias: np.ndarray

    def __post_init__(self):
        n = len(self.tau_ns)
        for name in ("steepness", "metastable_frac", "metastable_bias"):
            if len(getattr(self, name)) != n:
                raise ValueError("cell parameter arrays must have equal length")
        for name in ("tau_ns", "steepness", "metastable_frac", "metastable_bias"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if np.any(self.tau_ns <= 0) or np.any(self.steepness <= 0):
            raise ValueError("tau_ns and steepness must be positive")
        for name in ("metastable_frac", "metastable_bias"):
            arr = getattr(self, name)
            if np.any(arr < 0) or np.any(arr > 1):
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("tau_ns", "steepness", "metastable_frac", "metastable_bias"):
            getattr(self, name).flags.writeable = False

    def __len__(self) -> int:
        return len(self.tau_ns)


@dataclass(frozen=True)
class EnvCoeffs:
    """Environmental response of the cell population."""

    temp_tau_slope_ns_per_c: float = 0.05
    field_threshold_mt: float = 10.0

    def __post_init__(self):
        if not (np.isfinite(self.temp_tau_slope_ns_per_c) and self.temp_tau_slope_ns_per_c >= 0):
            raise ValueError("temp_tau_slope_ns_per_c must be finite and >= 0")
        if not (np.isfinite(self.field_threshold_mt) and self.field_threshold_mt > 0):
            raise ValueError("field_threshold_mt must be finite and > 0")


def _require_finite(fields: dict[str, float]) -> None:
    """Reject a NaN or infinite recipe number, named as in the recipe JSON;
    the range checks that follow it are all false for NaN."""
    for name, value in fields.items():
        if not np.isfinite(value):
            raise ValueError(f"recipe field {name} must be finite, got {value}")


def _number(section: dict, key: str, where: str) -> float:
    """``section[key]`` as a float; a JSON string or boolean is not a number
    (float() would take "0.9" and true), and raises TypeError."""
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"recipe field {where}.{key} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class TauComponent:
    """One Gaussian component of the per-address switching-delay mixture."""

    weight: float
    mean_ns: float
    sigma_ns: float

    def __post_init__(self):
        _require_finite({f"tau.components.{k}": v for k, v in dataclasses.asdict(self).items()})
        if self.weight <= 0:
            raise ValueError(f"component weight must be > 0, got {self.weight}")
        if self.mean_ns <= 0:
            raise ValueError(f"component mean must be > 0, got {self.mean_ns}")
        if self.sigma_ns <= 0:
            raise ValueError(f"component sigma must be > 0, got {self.sigma_ns}")


@dataclass(frozen=True)
class MarginalAddressPopulation:
    """A small sub-population of addresses with marginal write drivers.

    All 16 bits of such a word see the same starved pulse, so under a
    reduced write window the whole word lands in the metastable regime:
    each failed toggle resolves stochastically with a near-balanced,
    word-correlated bias.  A fraction of bits per word (``dead_bit_frac``)
    are firmly pinned anyway and behave like the bulk population.
    `weight` is the fraction of addresses drawn from this population;
    zero disables it.
    """

    weight: float = 0.0
    tau_mean_ns: float = 3.6
    tau_sigma_ns: float = 0.2
    bias_alpha: float = 60.0
    bias_beta: float = 60.0
    bias_bit_sigma: float = 0.01
    dead_bit_frac: float = 0.135

    def __post_init__(self):
        _require_finite({f"marginal_addresses.{k}": v for k, v in dataclasses.asdict(self).items()})
        if not 0.0 <= self.weight < 1.0:
            raise ValueError("marginal-address weight must lie in [0, 1)")
        if self.tau_mean_ns <= 0 or self.tau_sigma_ns <= 0:
            raise ValueError("marginal-address tau parameters must be > 0")
        if self.bias_alpha <= 0 or self.bias_beta <= 0:
            raise ValueError("marginal-address bias shapes must be > 0")
        if self.bias_bit_sigma < 0:
            raise ValueError("bias_bit_sigma must be >= 0")
        if not 0.0 <= self.dead_bit_frac <= 1.0:
            raise ValueError("dead_bit_frac must lie in [0, 1]")


@dataclass(frozen=True)
class ChipConfig:
    """Process recipe for instantiating a chip.

    The switching delay tau is sampled per address from a Gaussian mixture
    (write-driver and wordline variation are shared by the 16 bits of a
    word) plus a small per-bit jitter, truncated below by resampling; the
    logistic steepness is lognormal with the same address/bit split,
    clamped to [steepness_min, steepness_max].  An optional marginal
    address population overrides tau and the metastability parameters for
    a small fraction of whole words.
    """

    chip_id: str = "default"
    num_addresses: int = 65536
    tau_components: tuple[TauComponent, ...] = ()
    tau_bit_sigma_ns: float = 0.02
    tau_min_ns: float = 0.05
    steepness_median: float = 6.0
    steepness_addr_sigma: float = 0.2
    steepness_bit_sigma: float = 0.05
    steepness_min: float = 0.5
    steepness_max: float = 50.0
    metastable_frac: float = 0.08
    bias_alpha: float = 2.0
    bias_beta: float = 2.0
    marginal: MarginalAddressPopulation = field(default_factory=MarginalAddressPopulation)
    env: EnvCoeffs = field(default_factory=EnvCoeffs)

    def __post_init__(self):
        _require_finite(
            {
                "tau.bit_sigma_ns": self.tau_bit_sigma_ns,
                "tau.min_ns": self.tau_min_ns,
                "steepness.median_per_ns": self.steepness_median,
                "steepness.addr_sigma": self.steepness_addr_sigma,
                "steepness.bit_sigma": self.steepness_bit_sigma,
                "steepness.min_per_ns": self.steepness_min,
                "steepness.max_per_ns": self.steepness_max,
                "metastable.frac": self.metastable_frac,
                "metastable.bias_alpha": self.bias_alpha,
                "metastable.bias_beta": self.bias_beta,
            }
        )
        if not isinstance(self.chip_id, str):
            raise ValueError(f"recipe field chip_id must be a string, got {type(self.chip_id).__name__}")
        try:
            id_bytes = len(self.chip_id.encode("utf-8"))
        except UnicodeEncodeError:
            raise ValueError("recipe field chip_id is not encodable as UTF-8") from None
        if id_bytes > _MAX_CHIP_ID_BYTES:
            raise ValueError(f"recipe field chip_id must fit in {_MAX_CHIP_ID_BYTES} UTF-8 bytes, got {id_bytes}")
        if not 0 < self.num_addresses <= _MAX_ADDRESSES:
            raise ValueError(f"num_addresses must lie in [1, {_MAX_ADDRESSES}], got {self.num_addresses}")
        if self.num_addresses > MAX_ADDRESSES:
            raise ValueError(f"num_addresses {self.num_addresses} is above the rated maximum {MAX_ADDRESSES}")
        if not self.tau_components:
            raise ValueError("tau_components must not be empty")
        total = sum(c.weight for c in self.tau_components)
        if not np.isclose(total, 1.0, atol=1e-9):
            raise ValueError(f"tau component weights must sum to 1, got {total}")
        for name in ("tau_bit_sigma_ns", "steepness_addr_sigma", "steepness_bit_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.tau_min_ns <= 0:
            raise ValueError("tau_min_ns must be > 0")
        if not 0 < self.steepness_min < self.steepness_max:
            raise ValueError("need 0 < steepness_min < steepness_max")
        if self.steepness_median <= 0:
            raise ValueError("steepness_median must be > 0")
        if not 0.0 <= self.metastable_frac <= 1.0:
            raise ValueError("metastable_frac must lie in [0, 1]")
        if self.bias_alpha <= 0 or self.bias_beta <= 0:
            raise ValueError("bias beta-distribution shapes must be > 0")

    @property
    def num_cells(self) -> int:
        return self.num_addresses * WORD_WIDTH

    def to_dict(self) -> dict:
        return {
            "chip_id": self.chip_id,
            "num_addresses": self.num_addresses,
            "tau": {
                "components": [dataclasses.asdict(c) for c in self.tau_components],
                "bit_sigma_ns": self.tau_bit_sigma_ns,
                "min_ns": self.tau_min_ns,
            },
            "steepness": {
                "median_per_ns": self.steepness_median,
                "addr_sigma": self.steepness_addr_sigma,
                "bit_sigma": self.steepness_bit_sigma,
                "min_per_ns": self.steepness_min,
                "max_per_ns": self.steepness_max,
            },
            "metastable": {
                "frac": self.metastable_frac,
                "bias_alpha": self.bias_alpha,
                "bias_beta": self.bias_beta,
            },
            "marginal_addresses": dataclasses.asdict(self.marginal),
            "env": {
                "temp_tau_slope_ns_per_c": self.env.temp_tau_slope_ns_per_c,
                "field_threshold_mt": self.env.field_threshold_mt,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ChipConfig":
        try:
            tau = d["tau"]
            steep = d["steepness"]
            meta = d["metastable"]
            env = d["env"]
            marg = d.get("marginal_addresses")
            if marg is not None and not isinstance(marg, dict):
                raise TypeError(f"marginal_addresses must be an object, got {type(marg).__name__}")
            marginal = (
                MarginalAddressPopulation(**{k: _number(marg, k, "marginal_addresses") for k in marg})
                if marg is not None
                else MarginalAddressPopulation()
            )
            num_addresses = d["num_addresses"]
            _require_finite({"num_addresses": float(num_addresses)})
            if isinstance(num_addresses, bool) or not isinstance(num_addresses, int):
                raise TypeError(f"num_addresses must be an integer, got {num_addresses!r}")
            return cls(
                chip_id=d.get("chip_id", "default"),
                num_addresses=num_addresses,
                tau_components=tuple(
                    TauComponent(*(_number(c, k, "tau.components") for k in ("weight", "mean_ns", "sigma_ns")))
                    for c in tau["components"]
                ),
                tau_bit_sigma_ns=_number(tau, "bit_sigma_ns", "tau"),
                tau_min_ns=_number(tau, "min_ns", "tau"),
                steepness_median=_number(steep, "median_per_ns", "steepness"),
                steepness_addr_sigma=_number(steep, "addr_sigma", "steepness"),
                steepness_bit_sigma=_number(steep, "bit_sigma", "steepness"),
                steepness_min=_number(steep, "min_per_ns", "steepness"),
                steepness_max=_number(steep, "max_per_ns", "steepness"),
                metastable_frac=_number(meta, "frac", "metastable"),
                bias_alpha=_number(meta, "bias_alpha", "metastable"),
                bias_beta=_number(meta, "bias_beta", "metastable"),
                marginal=marginal,
                env=EnvCoeffs(
                    temp_tau_slope_ns_per_c=_number(env, "temp_tau_slope_ns_per_c", "env"),
                    field_threshold_mt=_number(env, "field_threshold_mt", "env"),
                ),
            )
        except KeyError as exc:
            raise ValueError(f"chip config missing key: {exc}") from exc
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"chip config value of the wrong type or out of range: {exc}") from exc

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ChipConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def default_config() -> ChipConfig:
    """The shipped default recipe (1 Mb array), calibrated so the reduced
    write-timing error rates and random-cell yield match the commercial
    parts it imitates."""
    from importlib.resources import files

    text = files("mramtrng.data").joinpath("default_chip.json").read_text(encoding="utf-8")
    return ChipConfig.from_dict(json.loads(text))


@dataclass(frozen=True)
class ChipModel:
    """A realized chip: its sampled cell population, environmental response
    and the seed of its write draws.  A value: campaigns read it, and none
    changes it."""

    chip_id: str
    num_addresses: int
    cells: CellParams
    env_coeffs: EnvCoeffs
    seed: int

    def __post_init__(self):
        if len(self.cells) != self.num_addresses * WORD_WIDTH:
            raise ValueError("cell parameter arrays do not match the address count")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in uint64, got {self.seed}")

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def rng(self) -> CounterRng:
        """The counter-based generator of the chip's write draws."""
        return CounterRng(self.seed)


def create_chip(config: ChipConfig, seed: int) -> ChipModel:
    """Sample a cell population from ``config``; deterministic in (config, seed)."""
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    try:
        with np.errstate(over="raise", invalid="raise"):
            cells = _sample_cells(config, gen)
    except FloatingPointError as exc:
        raise ValueError(f"recipe values overflow float64 when sampled ({exc})") from None
    return ChipModel(
        chip_id=config.chip_id,
        num_addresses=config.num_addresses,
        cells=cells,
        env_coeffs=config.env,
        seed=int(seed),
    )


def _sample_cells(config: ChipConfig, gen: np.random.Generator) -> CellParams:
    a_count = config.num_addresses
    m = config.num_cells

    weights = np.array([c.weight for c in config.tau_components], dtype=float)
    weights /= weights.sum()
    means = np.array([c.mean_ns for c in config.tau_components])
    sigmas = np.array([c.sigma_ns for c in config.tau_components])

    comp = gen.choice(len(weights), size=a_count, p=weights)
    tau_addr = means[comp] + sigmas[comp] * gen.standard_normal(a_count)
    tau_addr = _resample_below(
        tau_addr, config.tau_min_ns, lambda k, idx: means[comp[idx]] + sigmas[comp[idx]] * gen.standard_normal(k)
    )

    marg = config.marginal
    marg_addr = np.flatnonzero(gen.random(a_count) < marg.weight)
    if marg_addr.size:
        t = marg.tau_mean_ns + marg.tau_sigma_ns * gen.standard_normal(marg_addr.size)
        t = _resample_below(
            t, config.tau_min_ns, lambda k, idx: marg.tau_mean_ns + marg.tau_sigma_ns * gen.standard_normal(k)
        )
        tau_addr[marg_addr] = t

    tau = np.repeat(tau_addr, WORD_WIDTH) + config.tau_bit_sigma_ns * gen.standard_normal(m)
    tau_addr_rep = np.repeat(tau_addr, WORD_WIDTH)
    tau = _resample_below(
        tau, config.tau_min_ns, lambda k, idx: tau_addr_rep[idx] + config.tau_bit_sigma_ns * gen.standard_normal(k)
    )

    ln_k_addr = np.log(config.steepness_median) + config.steepness_addr_sigma * gen.standard_normal(a_count)
    ln_k = np.repeat(ln_k_addr, WORD_WIDTH) + config.steepness_bit_sigma * gen.standard_normal(m)
    steep = np.clip(np.exp(ln_k), config.steepness_min, config.steepness_max)

    bias = gen.beta(config.bias_alpha, config.bias_beta, size=m)
    mf = np.full(m, config.metastable_frac)

    if marg_addr.size:
        marg_bits = (marg_addr[:, None] * WORD_WIDTH + np.arange(WORD_WIDTH)).ravel()
        alive = gen.random(marg_bits.size) >= marg.dead_bit_frac
        bias_word = np.repeat(gen.beta(marg.bias_alpha, marg.bias_beta, size=marg_addr.size), WORD_WIDTH)
        jitter = marg.bias_bit_sigma * gen.standard_normal(marg_bits.size)
        live = marg_bits[alive]
        bias[live] = np.clip(bias_word[alive] + jitter[alive], 0.01, 0.99)
        mf[live] = 1.0

    return CellParams(tau_ns=tau, steepness=steep, metastable_frac=mf, metastable_bias=bias)


def _resample_below(values: np.ndarray, lower: float, redraw, max_rounds: int = 200) -> np.ndarray:
    """Truncate a sample to values >= lower by redrawing the offenders."""
    for _ in range(max_rounds):
        bad = np.flatnonzero(values < lower)
        if bad.size == 0:
            return values
        values[bad] = redraw(bad.size, bad)
    raise ValueError(
        f"sampling tau above tau.min_ns = {lower} ns did not converge in {max_rounds} rounds; "
        "check the recipe's tau distributions"
    )


def tau_effective(chip: ChipModel, env: Environment, cell_indices: np.ndarray | None = None) -> np.ndarray:
    """Effective switching delay under the given environment.

    Cooling below T_REF stretches the delay; fields at or below the
    chip's rejection threshold are exactly inert, stronger fields assist.
    """
    tau = chip.cells.tau_ns if cell_indices is None else chip.cells.tau_ns[cell_indices]
    shift = chip.env_coeffs.temp_tau_slope_ns_per_c * (T_REF_C - env.temperature_c)
    out = tau + shift
    excess = env.field_mt - chip.env_coeffs.field_threshold_mt
    if excess > 0.0:
        out = out - FIELD_TAU_NS_PER_MT * excess
    return np.maximum(out, 1e-6)


def failure_probability(
    chip: ChipModel,
    timing: TimingParams,
    env: Environment,
    cell_indices: np.ndarray | None = None,
) -> np.ndarray:
    """Per-cell probability that a toggle pulse of width t_w fails."""
    k = chip.cells.steepness if cell_indices is None else chip.cells.steepness[cell_indices]
    tau_eff = tau_effective(chip, env, cell_indices)
    z = np.clip(k * (tau_eff - timing.t_w_ns), -60.0, 60.0)
    return _expit(z)


def _expit(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _thresholds(chip: ChipModel, timings, env: Environment, cells) -> tuple[np.ndarray, ...]:
    """Draw thresholds of a campaign over ``cells`` (an index array or a slice).

    Returns the toggle-failure thresholds, one row per timing, their
    maximum over the timings, and the metastability and bias thresholds.
    """
    fail = np.stack([draw_threshold(failure_probability(chip, t, env, cells)) for t in timings])
    return (
        fail,
        fail.max(axis=0),
        draw_threshold(chip.cells.metastable_frac[cells]),
        draw_threshold(chip.cells.metastable_bias[cells]),
    )


def _round_keys(chip: ChipModel, rounds: np.ndarray) -> np.ndarray:
    """(rounds, 3) keys of the toggle, meta and value draws of each round."""
    rng = chip.rng
    streams = (_STREAM_TOGGLE, _STREAM_META, _STREAM_VALUE)
    return np.stack([rng.round_keys(rounds, s) for s in streams], axis=1)


def _write_errors(keys: np.ndarray, thresholds: tuple[np.ndarray, ...], round_keys: np.ndarray) -> np.ndarray:
    """Which cells read back 1 after one write of 0, per pulse width.

    A toggle fails when its draw is below the width's failure threshold.
    A failed toggle leaves the reset 1, unless the cell goes metastable and
    resolves to 0.  The meta and value draws of a (cell, round) do not
    depend on the width, so they are made once, and only for the cells that
    fail at the widest threshold.  Returns a (widths, cells) bool array,
    which is the readout.  Pure in (seed, cell, round): ``round_keys`` is
    the round's row of _round_keys.
    """
    fail, widest, meta, bias = thresholds
    toggle_key, meta_key, value_key = round_keys
    draw = draws(keys, toggle_key)
    idx = np.flatnonzero(draw < widest)
    mi = idx[draws(keys[idx], meta_key) < meta[idx]]
    errors = draw < fail
    errors[:, mi[draws(keys[mi], value_key) >= bias[mi]]] = False
    return errors


@dataclass(frozen=True)
class _Readout:
    """The per-run set-up of a campaign over fixed cells at one pulse width:
    their keys and draw thresholds."""

    chip: ChipModel
    keys: np.ndarray
    fail: np.ndarray
    meta: np.ndarray
    bias: np.ndarray


def _plan_readout(
    chip: ChipModel, timing: TimingParams, env: Environment, cell_indices: np.ndarray | None = None
) -> _Readout:
    if cell_indices is None:
        cells, indices = slice(None), np.arange(chip.num_cells)
    else:
        cells = indices = np.asarray(cell_indices)
    (fail,), _, meta, bias = _thresholds(chip, (timing,), env, cells)
    return _Readout(chip, chip.rng.cell_keys(indices), fail, meta, bias)


def _readout_rows(plan: _Readout, rounds: int, start_round: int) -> np.ndarray:
    """(rounds, cells) readouts of the planned cells in rounds ``start_round``
    onwards, a pure function of the plan and the rounds.

    Unlike _write_errors, which draws the meta and value words only for the
    cells whose toggle fails, this draws all three words of every cell, for
    batches of rounds at a time: harvested cells fail about half the time,
    so sparse gathers would save nothing there.  A cell reads 1 when its
    toggle from the all-ones reset fails, unless it goes metastable and
    resolves to 0.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if start_round < 0:
        raise ValueError(f"start_round must be >= 0, got {start_round}")
    cells = plan.keys.size
    batch = min(rounds, max(1, _BATCH_WORDS // cells))
    words, scratch = np.empty((batch, cells), np.uint64), np.empty((batch, cells), np.uint64)
    stable, to_one = np.empty((batch, cells), bool), np.empty((batch, cells), bool)
    rows = np.empty((rounds, cells), dtype=bool)
    round_keys = _round_keys(plan.chip, np.arange(start_round, start_round + rounds))
    for lo in range(0, rounds, batch):
        rk = round_keys[lo : lo + batch]
        n = len(rk)  # the last batch may be short
        w, s, failed, keep, one = words[:n], scratch[:n], rows[lo : lo + n], stable[:n], to_one[:n]
        np.less(draw_rows(plan.keys, rk[:, 0], w, s), plan.fail, out=failed)
        np.greater_equal(draw_rows(plan.keys, rk[:, 1], w, s), plan.meta, out=keep)
        np.less(draw_rows(plan.keys, rk[:, 2], w, s), plan.bias, out=one)
        keep |= one
        failed &= keep
    return rows


@dataclass
class MeasurementMatrix:
    """n repeated reset -> reduced write -> read campaigns over one cell set.

    Row i holds the readout bits of one round; every cell was written 0, so
    a 1 is an error.
    """

    bits: np.ndarray
    t_w_ns: float

    @property
    def n_measurements(self) -> int:
        return self.bits.shape[0]

    @property
    def num_cells(self) -> int:
        return self.bits.shape[1]

    def error_fraction(self) -> float:
        """Mean fraction of readout bits that disagree with the written 0."""
        return np.count_nonzero(self.bits) / self.bits.size


def measure(
    chip: ChipModel,
    timing: TimingParams,
    env: Environment | None = None,
    n: int = 50,
    start_round: int = 0,
    cell_indices: np.ndarray | None = None,
) -> MeasurementMatrix:
    """Run ``n`` independent reset -> write(0, t_w) -> read cycles.

    With ``cell_indices`` the campaign is evaluated only for that subset;
    the counter-based RNG guarantees the result equals the corresponding
    columns of a full-array campaign.  Every cycle starts from the all-ones
    reset, so no cycle depends on what an earlier one wrote, and the chip is
    left as it was.
    """
    plan = _plan_readout(chip, timing, env or Environment(), cell_indices)
    return MeasurementMatrix(bits=_readout_rows(plan, n, start_round), t_w_ns=timing.t_w_ns)


@dataclass
class CampaignFold:
    """A full-array measure() campaign at one pulse width, reduced round by
    round instead of kept as an n x cells matrix.

    ``errors`` counts the readout bits, over all rounds, that disagree with
    the written 0; ``flip_counts`` holds each cell's number of changes
    between consecutive readouts, in the smallest unsigned dtype that holds
    n - 1.  Nothing else of the readouts is kept.
    """

    t_w_ns: float
    n_measurements: int
    errors: int
    flip_counts: np.ndarray

    @property
    def num_cells(self) -> int:
        return self.flip_counts.size

    def error_fraction(self) -> float:
        """Mean fraction of readout bits that disagree with the written 0."""
        return self.errors / (self.n_measurements * self.num_cells)

    def invariant_fraction(self) -> float:
        """Fraction of cells whose readout never changed: those that never
        flipped.  It needs a pair of rounds to compare."""
        if self.n_measurements < 2:
            raise ValueError("the invariant share needs >= 2 measurements")
        return np.count_nonzero(self.flip_counts == 0) / self.num_cells


def fold_campaigns(
    chip: ChipModel,
    timings,
    env: Environment | None = None,
    n: int = 50,
) -> list[CampaignFold]:
    """The campaign of ``measure(chip, t, env, n)`` for each timing
    t, folded into a CampaignFold, with each (cell, round) drawn once for
    all timings.

    The array is processed in blocks of _FOLD_BLOCK cells, all rounds of a
    block at a time, and the blocks are shared between processes by
    parallel.forked: a block returns its error counts and flip counts,
    which this process copies into its own arrays.  A block derives its own
    keys, and the counts are integer sums, so the result does not depend on
    the number of processes.  Like measure, it leaves the chip as it was.
    """
    if n < 1:
        raise ValueError(f"need at least one measurement, got n={n}")
    timings = tuple(timings)
    if not timings:
        raise ValueError("need at least one pulse width")
    env = env or Environment()

    widths, m = len(timings), chip.num_cells
    flips = np.empty((widths, m), dtype=np.min_scalar_type(n - 1))
    round_keys = _round_keys(chip, np.arange(n))

    def fold_block(lo: int) -> tuple[np.ndarray, np.ndarray]:
        """The block at ``lo``, folded: its error count per width and its
        cells' flip counts."""
        keys = chip.rng.cell_keys(np.arange(lo, min(lo + _FOLD_BLOCK, m)))
        thresholds = _thresholds(chip, timings, env, slice(lo, lo + _FOLD_BLOCK))
        block_flips = np.zeros((widths, keys.size), dtype=flips.dtype)
        errors = np.zeros(widths, dtype=np.int64)
        prev = _write_errors(keys, thresholds, round_keys[0])
        errors += [np.count_nonzero(row) for row in prev]
        for rk in round_keys[1:]:
            cur = _write_errors(keys, thresholds, rk)
            errors += [np.count_nonzero(row) for row in cur]
            block_flips += prev ^ cur
            prev = cur
        return errors, block_flips

    errors = np.zeros(widths, dtype=np.int64)
    blocks = range(0, m, _FOLD_BLOCK)
    with forked(blocks, fold_block) as results:
        for lo, (block_errors, block_flips) in zip(blocks, results):
            errors += block_errors
            flips[:, lo : lo + _FOLD_BLOCK] = block_flips
    return [
        CampaignFold(t_w_ns=t.t_w_ns, n_measurements=n, errors=int(e), flip_counts=f)
        for t, e, f in zip(timings, errors, flips)
    ]


# ---------------------------------------------------------------------------
# chip file format: magic 'MRTG', u16 version, then the ChipModel fields in
# declaration order, with the u16 word width (always 16) after the address
# count, little-endian; arrays as raw f64.  Between the cell arrays and the
# environment coefficients, one bit per cell is reserved for stored bits: a
# chip holds none, so save_chip writes the all-ones reset that every
# campaign starts from (0xFF bytes) and load_chip skips the field.

def save_chip(chip: ChipModel, path: str | Path) -> None:
    cid = chip.chip_id.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CHIP_MAGIC)
        fh.write(struct.pack("<H", _CHIP_VERSION))
        fh.write(struct.pack("<H", len(cid)))
        fh.write(cid)
        fh.write(struct.pack("<IH", chip.num_addresses, WORD_WIDTH))
        for arr in (
            chip.cells.tau_ns,
            chip.cells.steepness,
            chip.cells.metastable_frac,
            chip.cells.metastable_bias,
        ):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        fh.write(b"\xff" * (chip.num_cells // 8))  # all ones: a multiple of 16 cells needs no padding bits
        fh.write(
            struct.pack(
                "<dd",
                chip.env_coeffs.temp_tau_slope_ns_per_c,
                chip.env_coeffs.field_threshold_mt,
            )
        )
        fh.write(struct.pack("<Q", chip.seed))


def _read_exact(fh, n: int, path) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise ValueError(f"{path}: truncated chip file")
    return buf


def _read_into(fh, arr: np.ndarray, path) -> np.ndarray:
    if fh.readinto(arr) != arr.nbytes:
        raise ValueError(f"{path}: truncated chip file")
    return arr


def load_chip(path: str | Path) -> ChipModel:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CHIP_MAGIC:
            raise ValueError(f"{path}: not a chip file (bad magic {magic!r})")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, path))
        if version != _CHIP_VERSION:
            raise ValueError(f"{path}: unsupported chip file version {version}")
        (cid_len,) = struct.unpack("<H", _read_exact(fh, 2, path))
        try:
            chip_id = _read_exact(fh, cid_len, path).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: chip id field is not UTF-8 ({exc.reason} at byte {exc.start})") from None
        num_addresses, word_width = struct.unpack("<IH", _read_exact(fh, 6, path))
        if word_width != WORD_WIDTH:
            raise ValueError(f"{path}: word width must be {WORD_WIDTH}, got {word_width}")
        if num_addresses == 0:
            raise ValueError(f"{path}: chip file lists no addresses")
        m = num_addresses * WORD_WIDTH
        # four f64 arrays, the reserved bit per cell, two f64 coefficients, the u64 seed
        expected = fh.tell() + 4 * 8 * m + m // 8 + 16 + 8
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            what = "truncated chip file" if size < expected else "chip file longer than its header says"
            raise ValueError(
                f"{path}: {what}: {num_addresses} addresses need {expected} bytes, "
                f"the file has {size}"
            )
        arrays = [_read_into(fh, np.empty(m, dtype="<f8"), path) for _ in range(4)]
        fh.seek(m // 8, os.SEEK_CUR)  # the reserved field: its length is checked above
        slope, thresh = struct.unpack("<dd", _read_exact(fh, 16, path))
        (seed,) = struct.unpack("<Q", _read_exact(fh, 8, path))
    cells = CellParams(*arrays)
    return ChipModel(
        chip_id=chip_id,
        num_addresses=num_addresses,
        cells=cells,
        env_coeffs=EnvCoeffs(temp_tau_slope_ns_per_c=slope, field_threshold_mt=thresh),
        seed=seed,
    )
