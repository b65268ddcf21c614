"""Device-model behaviour: toggle semantics, environment response, a chip
as a value, persistence."""

import copy
import dataclasses
import json

import numpy as np
import pytest

from mramtrng import cli, device
from mramtrng.device import (
    ChipConfig,
    Environment,
    T_WC_NS,
    MarginalAddressPopulation,
    TauComponent,
    TimingParams,
    create_chip,
    failure_probability,
    fold_campaigns,
    load_chip,
    measure,
    save_chip,
)
from mramtrng.extract import harvest_rounds, plan_harvest

from conftest import small_config


# --- timing / environment types ---------------------------------------------


def test_timing_defaults_are_nominal():
    assert TimingParams().t_w_ns == 15.0


def test_timing_reduced_keeps_pulse_inside_cycle():
    assert TimingParams(2.5).t_w_ns == 2.5
    assert TimingParams(T_WC_NS).t_w_ns == T_WC_NS  # a pulse as long as the cycle


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t_w_ns=-1.0),
        dict(t_w_ns=0.0),
        dict(t_w_ns=40.0),  # pulse longer than cycle
        dict(t_w_ns=float("inf")),
        dict(t_w_ns=float("nan")),
    ],
)
def test_timing_validation(kwargs):
    with pytest.raises(ValueError, match="write pulse"):
        TimingParams(**kwargs)


def test_environment_validation():
    Environment(temperature_c=0.0)
    Environment(temperature_c=70.0)
    with pytest.raises(ValueError):
        Environment(temperature_c=-5.0)
    with pytest.raises(ValueError):
        Environment(temperature_c=85.0)
    with pytest.raises(ValueError):
        Environment(field_mt=-1.0)


# --- chip creation ---------------------------------------------------------


def test_create_chip_is_deterministic():
    cfg = small_config(256)
    a = create_chip(cfg, seed=11)
    b = create_chip(cfg, seed=11)
    assert np.array_equal(a.cells.tau_ns, b.cells.tau_ns)
    assert np.array_equal(a.cells.steepness, b.cells.steepness)
    assert np.array_equal(a.cells.metastable_bias, b.cells.metastable_bias)
    c = create_chip(cfg, seed=12)
    assert not np.array_equal(a.cells.tau_ns, c.cells.tau_ns)


def test_create_chip_respects_truncation():
    cfg = small_config(512)
    chip = create_chip(cfg, seed=5)
    assert chip.cells.tau_ns.min() >= cfg.tau_min_ns
    assert chip.cells.steepness.min() >= cfg.steepness_min
    assert chip.cells.steepness.max() <= cfg.steepness_max
    assert chip.num_cells == 512 * 16


def test_config_validation():
    with pytest.raises(ValueError):
        TauComponent(weight=0.5, mean_ns=-1.0, sigma_ns=0.1)
    with pytest.raises(ValueError):
        TauComponent(weight=0.5, mean_ns=1.0, sigma_ns=0.0)
    with pytest.raises(ValueError):
        ChipConfig(num_addresses=16, tau_components=(TauComponent(0.5, 1.0, 0.1),))
    with pytest.raises(ValueError):
        ChipConfig(num_addresses=0, tau_components=(TauComponent(1.0, 1.0, 0.1),))


def test_config_json_roundtrip(tmp_path):
    cfg = small_config(128)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict(), indent=2), encoding="utf-8")
    again = ChipConfig.from_json_file(p)
    assert again == cfg


# --- marginal-address population -------------------------------------------


def test_config_without_marginal_section_disables_it():
    d = small_config(64).to_dict()
    del d["marginal_addresses"]
    cfg = ChipConfig.from_dict(d)
    assert cfg.marginal.weight == 0.0
    chip = create_chip(cfg, seed=3)
    assert not (chip.cells.metastable_frac >= 0.999).any()


def test_marginal_validation():
    with pytest.raises(ValueError):
        MarginalAddressPopulation(weight=1.0)
    with pytest.raises(ValueError):
        MarginalAddressPopulation(weight=-0.1)
    with pytest.raises(ValueError):
        MarginalAddressPopulation(tau_sigma_ns=0.0)
    with pytest.raises(ValueError):
        MarginalAddressPopulation(bias_alpha=0.0)
    with pytest.raises(ValueError):
        MarginalAddressPopulation(dead_bit_frac=1.5)


def test_marginal_words_are_whole_and_metastable():
    cfg = small_config(4096)
    chip = create_chip(cfg, seed=19)
    hot = chip.cells.metastable_frac >= 0.999
    assert hot.any()
    # hot bits only occur inside words drawn from the marginal population,
    # and those words keep the population's switching delay
    words = np.unique(np.flatnonzero(hot) // 16)
    word_tau = chip.cells.tau_ns.reshape(-1, 16)[words]
    assert abs(word_tau.mean() - cfg.marginal.tau_mean_ns) < 0.15
    cold_bits = ~hot.reshape(-1, 16)[words]
    dead_frac = cold_bits.mean()
    assert 0.03 < dead_frac < 0.3  # around dead_bit_frac, binomial spread
    frac = words.size / cfg.num_addresses
    assert 0.3 * cfg.marginal.weight < frac < 3.0 * cfg.marginal.weight


def test_marginal_bias_is_word_correlated_and_balanced():
    cfg = small_config(4096)
    chip = create_chip(cfg, seed=23)
    hot = (chip.cells.metastable_frac >= 0.999).reshape(-1, 16)
    bias = chip.cells.metastable_bias.reshape(-1, 16)
    rows = np.flatnonzero(hot.any(axis=1))
    within = np.array([bias[r][hot[r]].std() for r in rows if hot[r].sum() > 3])
    means = np.array([bias[r][hot[r]].mean() for r in rows])
    assert within.mean() < 3 * cfg.marginal.bias_bit_sigma
    assert abs(means.mean() - 0.5) < 0.05
    assert means.std() < 0.1


# --- write semantics -------------------------------------------------------


def test_nominal_write_stores_pattern(small_chip):
    # the all-0 data reaches nearly every cell at the nominal pulse: the
    # readout holds a 1 (the reset, an error) in fewer than 0.1% of cells
    m = measure(small_chip, TimingParams(), n=1)
    assert m.bits.shape == (1, small_chip.num_cells)
    assert m.error_fraction() < 1e-3


# --- failure probability and environment ----------------------------------


def test_failure_probability_monotone_in_pulse_width(small_chip):
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = sorted(rng.uniform(0.5, 20.0, size=2))
        pa = failure_probability(small_chip, TimingParams(a), Environment())
        pb = failure_probability(small_chip, TimingParams(b), Environment())
        assert np.all(pb <= pa + 1e-15)


def test_failure_probability_monotone_in_temperature(small_chip):
    t = TimingParams(2.5)
    p_cold = failure_probability(small_chip, t, Environment(temperature_c=20.0))
    p_ref = failure_probability(small_chip, t, Environment(temperature_c=26.0))
    p_hot = failure_probability(small_chip, t, Environment(temperature_c=65.0))
    assert np.all(p_cold >= p_ref - 1e-15)
    assert np.all(p_hot <= p_ref + 1e-15)
    assert p_cold.mean() > p_hot.mean()


def test_subthreshold_field_is_exactly_inert(small_chip):
    t = TimingParams(2.5)
    p0 = failure_probability(small_chip, t, Environment(field_mt=0.0))
    for field in (0.5, 8.0, 10.0):
        p = failure_probability(small_chip, t, Environment(field_mt=field))
        assert np.array_equal(p, p0)
    p_hi = failure_probability(small_chip, t, Environment(field_mt=12.0))
    assert not np.array_equal(p_hi, p0)


def test_subthreshold_field_measurement_bit_identical(small_chip):
    chip = small_chip
    t = TimingParams(2.5)
    m0 = measure(chip, t, Environment(field_mt=0.0), n=5)
    m8 = measure(chip, t, Environment(field_mt=8.0), n=5)
    assert np.array_equal(m0.bits, m8.bits)


# --- measurement campaigns -------------------------------------------------


def test_measure_shape_and_determinism(small_chip):
    chip = small_chip
    t = TimingParams(2.5)
    m1 = measure(chip, t, n=8)
    m2 = measure(chip, t, n=8)
    assert m1.bits.shape == (8, chip.num_cells)
    assert np.array_equal(m1.bits, m2.bits)
    assert m1.n_measurements == 8


def test_measure_subset_matches_full_columns(small_chip):
    chip = small_chip
    t = TimingParams(2.5)
    full = measure(chip, t, n=6)
    idx = np.random.default_rng(1).choice(chip.num_cells, size=700, replace=False)
    sub = measure(chip, t, n=6, cell_indices=idx)
    assert np.array_equal(sub.bits, full.bits[:, idx])


def test_measure_round_offset_continues_the_campaign(small_chip):
    chip = small_chip
    t = TimingParams(2.5)
    long = measure(chip, t, n=10)
    tail = measure(chip, t, n=4, start_round=6)
    assert np.array_equal(tail.bits, long.bits[6:])


def test_measure_rejects_zero_rounds(small_chip):
    with pytest.raises(ValueError):
        measure(small_chip, TimingParams(), n=0)


def test_reduced_write_error_band(small_chip):
    # loose on the unit-test chip; the tight window is checked on the
    # shipped 1 Mb recipe in the acceptance suite
    m = measure(small_chip, TimingParams(2.5), n=10)
    assert 0.1 < m.error_fraction() < 0.6
    assert m.error_fraction() == float(np.mean(m.bits))


# --- a chip is a value -----------------------------------------------------


def _chip_state(chip):
    """Copies of every field of ``chip``, with its cell arrays one by one."""
    state = {name: copy.deepcopy(value) for name, value in vars(chip).items() if name != "cells"}
    state.update({f"cells.{name}": arr.copy() for name, arr in vars(chip.cells).items()})
    return state


def _assert_same_state(got, want, campaign):
    assert got.keys() == want.keys(), campaign
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype and np.array_equal(got[name], value), (campaign, name)
        else:
            assert got[name] == value, (campaign, name)


def test_campaigns_leave_the_chip_unchanged(monkeypatch, small_chip, small_selection, tmp_path):
    """measure, the fold in one and in three processes, the harvest and a
    three-process generate read the chip and change nothing in it; its
    fields cannot be assigned and its cell arrays cannot be written."""
    chip, timing, before = small_chip, TimingParams(2.5), _chip_state(small_chip)
    sel, widths = small_selection, [timing, TimingParams(5.0)]
    campaigns = {  # name: (processes, campaign)
        "measure": (1, lambda: measure(chip, timing, n=3)),
        "measure of a subset": (1, lambda: measure(chip, timing, n=3, cell_indices=sel.cell_indices)),
        "fold": (1, lambda: fold_campaigns(chip, widths, n=3)),
        "split fold": (3, lambda: fold_campaigns(chip, widths, n=3)),
        "harvest_rounds": (1, lambda: harvest_rounds(plan_harvest(chip, sel, timing), 5, start_round=2)),
        "generate": (3, lambda: cli._generate_into(tmp_path, chip, sel, timing, 5000, Environment(), unit_bits=1024)),
    }
    monkeypatch.setattr(device, "_FOLD_BLOCK", 3300)  # ten blocks, so three processes fold
    for name, (workers, campaign) in campaigns.items():
        monkeypatch.setattr(device, "_workers", lambda jobs: min(workers, jobs))
        campaign()
        _assert_same_state(_chip_state(chip), before, name)
    for f in dataclasses.fields(chip):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(chip, f.name, getattr(chip, f.name))
    for arr in vars(chip.cells).values():
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


# --- persistence -----------------------------------------------------------


def test_chip_file_roundtrip(tmp_path, small_chip):
    chip = small_chip
    p = tmp_path / "chip.mrtg"
    save_chip(chip, p)
    again = load_chip(p)
    assert again.chip_id == chip.chip_id
    assert again.num_addresses == chip.num_addresses
    assert again.seed == chip.seed
    for name in ("tau_ns", "steepness", "metastable_frac", "metastable_bias"):
        assert np.array_equal(getattr(again.cells, name), getattr(chip.cells, name))
    assert again.env_coeffs == chip.env_coeffs
    # reloaded chip replays measurements identically
    m1 = measure(chip, TimingParams(2.5), n=3)
    m2 = measure(again, TimingParams(2.5), n=3)
    assert np.array_equal(m1.bits, m2.bits)


def test_chip_file_reserved_field_is_skipped_and_rewritten(tmp_path, small_chip):
    """The field of one bit per cell before the coefficients and the seed is
    read past: a file with random bytes there loads and measures as the same
    chip, and saving it again writes the all-ones reset (0xFF) there."""
    reset, noisy = tmp_path / "reset.mrtg", tmp_path / "noisy.mrtg"
    save_chip(small_chip, reset)
    data = bytearray(reset.read_bytes())
    size = small_chip.num_cells // 8
    field = slice(len(data) - 24 - size, len(data) - 24)  # two f64 and a u64 follow
    assert data[field] == b"\xff" * size
    data[field] = np.random.default_rng(2).bytes(size)
    noisy.write_bytes(data)
    chip = load_chip(noisy)
    timing = TimingParams(2.5)
    assert np.array_equal(measure(chip, timing, n=4).bits, measure(load_chip(reset), timing, n=4).bits)
    save_chip(chip, noisy)
    assert noisy.read_bytes() == reset.read_bytes()


def test_chip_file_bad_magic(tmp_path):
    p = tmp_path / "junk.mrtg"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_chip(p)


def test_chip_file_truncated(tmp_path, small_chip):
    p = tmp_path / "chip.mrtg"
    save_chip(small_chip, p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_chip(p)
