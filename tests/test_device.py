"""Device-model behaviour: toggle semantics, environment response, persistence."""

import numpy as np
import pytest

from mramtrng.device import (
    ChipConfig,
    DataPattern,
    Environment,
    T_WC_NS,
    MarginalAddressPopulation,
    TauComponent,
    TimingParams,
    create_chip,
    failure_probability,
    load_chip,
    measure,
    save_chip,
    words_to_bits,
)

from conftest import small_config


# --- timing / environment / pattern types ---------------------------------


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
    with pytest.raises(ValueError):
        Environment(field_axis="sideways")
    for axis in ("+x", "-x", "+y", "-y", "+z", "-z"):
        Environment(field_axis=axis)


def test_pattern_words():
    solid = DataPattern.solid(0x0000)
    assert np.all(solid.words(np.arange(8)) == 0)
    cb = DataPattern.checkerboard()
    w = cb.words(np.arange(4))
    assert list(w) == [0xAAAA, 0x5555, 0xAAAA, 0x5555]
    st = DataPattern.striped(0xFF00, 0x00FF)
    w = st.words(np.arange(40))
    assert np.all(w[:16] == 0xFF00) and np.all(w[16:32] == 0x00FF) and np.all(w[32:] == 0xFF00)
    r1 = DataPattern.random(seed=3).words(np.arange(100))
    r2 = DataPattern.random(seed=3).words(np.arange(100))
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, DataPattern.random(seed=4).words(np.arange(100)))


def test_pattern_validation():
    with pytest.raises(ValueError):
        DataPattern(kind="zigzag")
    with pytest.raises(ValueError):
        DataPattern(kind="solid", word_a=0x10000)


def test_word_bit_mapping_is_msb_first():
    bits = words_to_bits(np.array([0x8000], dtype=np.uint16))
    assert bits[0] and not bits[1:].any()
    bits = words_to_bits(np.array([0x0001], dtype=np.uint16))
    assert bits[15] and not bits[:15].any()


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
    assert chip.stored.all()  # ships in the reset state


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
    cfg.save(p)
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


def test_nominal_write_stores_pattern(fresh_small_chip):
    chip = fresh_small_chip
    pattern = DataPattern.random(seed=9)
    measure(chip, pattern, TimingParams(), n=1)
    errors = np.count_nonzero(chip.stored != pattern.bits(chip.num_addresses))
    assert errors / chip.num_cells < 1e-3


def test_no_toggle_means_no_error(fresh_small_chip):
    # pre-read semantics: writing the stored value issues no pulse at all,
    # so even a 2.5 ns campaign of all-ones is error-free
    chip = fresh_small_chip
    m = measure(chip, DataPattern.solid(0xFFFF), TimingParams(2.5), n=3)
    assert m.bits.all() and chip.stored.all()


def test_pattern_exposure_ordering(fresh_small_chip):
    # solid 0s toggles every cell, checkerboard half, solid 1s none
    chip = fresh_small_chip
    timing = TimingParams(2.5)

    def errors(pattern):
        m = measure(chip, pattern, timing, n=3)
        return np.count_nonzero(m.bits != m.written[None, :])

    e_zero = errors(DataPattern.solid(0x0000))
    e_cb = errors(DataPattern.checkerboard())
    e_one = errors(DataPattern.solid(0xFFFF))
    assert e_zero > e_cb > e_one == 0


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
        for axis in ("+x", "-y", "+z"):
            p = failure_probability(small_chip, t, Environment(field_mt=field, field_axis=axis))
            assert np.array_equal(p, p0)
    p_hi = failure_probability(small_chip, t, Environment(field_mt=12.0))
    assert not np.array_equal(p_hi, p0)


def test_subthreshold_field_measurement_bit_identical(fresh_small_chip):
    chip = fresh_small_chip
    t = TimingParams(2.5)
    m0 = measure(chip, DataPattern.solid(0x0000), t, Environment(field_mt=0.0), n=5)
    m8 = measure(chip, DataPattern.solid(0x0000), t, Environment(field_mt=8.0), n=5)
    assert np.array_equal(m0.bits, m8.bits)


# --- measurement campaigns -------------------------------------------------


def test_measure_shape_and_determinism(fresh_small_chip):
    chip = fresh_small_chip
    t = TimingParams(2.5)
    m1 = measure(chip, DataPattern.solid(0x0000), t, n=8)
    m2 = measure(chip, DataPattern.solid(0x0000), t, n=8)
    assert m1.bits.shape == (8, chip.num_cells)
    assert np.array_equal(m1.bits, m2.bits)
    assert m1.n_measurements == 8
    assert np.array_equal(chip.stored, m2.bits[-1])


def test_measure_subset_matches_full_columns(fresh_small_chip):
    chip = fresh_small_chip
    t = TimingParams(2.5)
    full = measure(chip, DataPattern.solid(0x0000), t, n=6)
    idx = np.random.default_rng(1).choice(chip.num_cells, size=700, replace=False)
    sub = measure(chip, DataPattern.solid(0x0000), t, n=6, cell_indices=idx)
    assert np.array_equal(sub.bits, full.bits[:, idx])


def test_measure_round_offset_continues_the_campaign(fresh_small_chip):
    chip = fresh_small_chip
    t = TimingParams(2.5)
    long = measure(chip, DataPattern.solid(0x0000), t, n=10)
    tail = measure(chip, DataPattern.solid(0x0000), t, n=4, start_round=6)
    assert np.array_equal(tail.bits, long.bits[6:])


def test_measure_rejects_zero_rounds(fresh_small_chip):
    with pytest.raises(ValueError):
        measure(fresh_small_chip, DataPattern.solid(0), TimingParams(), n=0)


def test_reduced_write_error_band(fresh_small_chip):
    # loose on the unit-test chip; the tight window is checked on the
    # shipped 1 Mb recipe in the acceptance suite
    m = measure(fresh_small_chip, DataPattern.solid(0x0000), TimingParams(2.5), n=10)
    assert 0.1 < m.error_fraction() < 0.6
    assert m.error_fraction() == float(np.mean(m.bits != m.written[None, :]))


# --- persistence -----------------------------------------------------------


def test_chip_file_roundtrip(tmp_path, fresh_small_chip):
    chip = fresh_small_chip
    measure(chip, DataPattern.random(seed=1), TimingParams(5.0), n=1)
    p = tmp_path / "chip.mrtg"
    save_chip(chip, p)
    again = load_chip(p)
    assert again.chip_id == chip.chip_id
    assert again.num_addresses == chip.num_addresses
    assert again.seed == chip.seed
    assert np.array_equal(again.stored, chip.stored)
    for name in ("tau_ns", "steepness", "metastable_frac", "metastable_bias"):
        assert np.array_equal(getattr(again.cells, name), getattr(chip.cells, name))
    assert again.env_coeffs == chip.env_coeffs
    # reloaded chip replays measurements identically
    m1 = measure(chip, DataPattern.solid(0), TimingParams(2.5), n=3)
    m2 = measure(again, DataPattern.solid(0), TimingParams(2.5), n=3)
    assert np.array_equal(m1.bits, m2.bits)


def test_chip_file_bad_magic(tmp_path):
    p = tmp_path / "junk.mrtg"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        load_chip(p)


def test_chip_file_truncated(tmp_path, fresh_small_chip):
    p = tmp_path / "chip.mrtg"
    save_chip(fresh_small_chip, p)
    data = p.read_bytes()
    p.write_bytes(data[: len(data) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_chip(p)
