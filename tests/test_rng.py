"""Order-independence and basic quality checks for the counter-based RNG."""

import numpy as np

from mramtrng.rng import CounterRng, draw_rows, draws, mix64


def _uniforms(rng, keys, round_index, stream):
    """Each cell's uniform in [0, 1), as the rng.draws docstring defines it."""
    return draws(keys, rng.round_keys(round_index, stream)) * 2.0**-53


def test_mix64_no_collisions_on_counter_stream():
    x = np.arange(1_000_000, dtype=np.uint64)
    out = mix64(x)
    assert len(np.unique(out)) == len(out)


def test_mix64_does_not_mutate_input():
    x = np.arange(16, dtype=np.uint64)
    before = x.copy()
    mix64(x)
    assert np.array_equal(x, before)


def test_words_are_pure_in_key_tuple():
    rng = CounterRng(seed=123)
    keys = rng.cell_keys(np.arange(1000))
    a = draws(keys, rng.round_keys(7, 0))
    b = draws(keys, rng.round_keys(7, 0))
    assert np.array_equal(a, b)
    # a fresh instance with the same seed reproduces the stream
    fresh = CounterRng(seed=123)
    assert np.array_equal(a, draws(fresh.cell_keys(np.arange(1000)), fresh.round_keys(7, 0)))


def test_subset_evaluation_matches_full_evaluation():
    rng = CounterRng(seed=9)
    full_keys = rng.cell_keys(np.arange(4096))
    full = _uniforms(rng, full_keys, 3, 1)
    idx = np.random.default_rng(0).choice(4096, size=512, replace=False)
    sub = _uniforms(rng, rng.cell_keys(idx), 3, 1)
    assert np.array_equal(full[idx], sub)


def test_streams_and_rounds_decorrelate():
    rng = CounterRng(seed=5)
    keys = rng.cell_keys(np.arange(10000))
    u0 = _uniforms(rng, keys, 0, 0)
    u1 = _uniforms(rng, keys, 0, 1)
    u2 = _uniforms(rng, keys, 1, 0)
    assert not np.array_equal(u0, u1)
    assert not np.array_equal(u0, u2)
    for u in (u0, u1, u2):
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.02
    assert abs(np.corrcoef(u0, u1)[0, 1]) < 0.05
    assert abs(np.corrcoef(u0, u2)[0, 1]) < 0.05


def test_different_seeds_differ():
    keys_a = CounterRng(seed=1).cell_keys(np.arange(256))
    keys_b = CounterRng(seed=2).cell_keys(np.arange(256))
    assert not np.array_equal(keys_a, keys_b)


def test_seed_range_validated():
    import pytest

    with pytest.raises(ValueError):
        CounterRng(seed=-1)
    with pytest.raises(ValueError):
        CounterRng(seed=2**64)
    CounterRng(seed=2**64 - 1)  # max value accepted


def test_draw_rows_equal_draws_per_round():
    rng = CounterRng(seed=99)
    keys = rng.cell_keys(np.arange(0, 5000, 7))
    round_keys = rng.round_keys(np.arange(20, 26), stream=2)
    out = np.full((6, keys.size), 123, dtype=np.uint64)  # stale contents are overwritten
    scratch = np.empty_like(out)
    assert draw_rows(keys, round_keys, out, scratch) is out
    for row, rk in zip(out, round_keys):
        assert np.array_equal(row, draws(keys, rk))
