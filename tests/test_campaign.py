"""The campaign engine against the row-level matrix path.

`measure` builds the full n x cells readout matrix with the dense kernel
the harvest uses, and `count_flips` / `classify_cells` reduce it; the sweep
and `characterize` reach the same numbers from the sparse `_write_errors`
kernel of `fold_campaigns`.  These tests require the two to agree exactly.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_config
from mramtrng import cli, device
from mramtrng.characterize import (
    SelectionThresholds,
    choose_tw,
    classify_cells,
    classify_fold,
    count_flips,
    select_cells,
    sweep_tw,
)
from mramtrng.device import (
    DataPattern,
    Environment,
    TimingParams,
    create_chip,
    fold_campaigns,
    measure,
    save_chip,
)
from mramtrng.rng import CounterRng, draw_threshold, draws

# unsorted, and nothing fails at the nominal 15 ns pulse on the unit-test chip
WIDTHS = (5.0, 15.0, 2.5, 3.0)

PATTERNS = {
    "solid": DataPattern.solid(0x0000),
    "checkerboard": DataPattern.checkerboard(),
    "striped": DataPattern.striped(),
    "random": DataPattern.random(seed=5),
}

# field_threshold_mt of the unit-test chip is 10 mT
ENVS = {"ref": Environment(), "cold": Environment(temperature_c=5.0), "field": Environment(field_mt=25.0)}

CASES = [(p, "ref", n) for p in PATTERNS for n in (2, 50)] + [
    ("solid", e, n) for e in ("cold", "field") for n in (2, 50)
]


def _fresh_chip():
    return create_chip(small_config(), seed=7)


def _matrix_path(chip, widths, pattern, env, n):
    """One measure per width, in list order, as the sweep used to run."""
    return [measure(chip, pattern, TimingParams(t), env, n=n) for t in widths]


@pytest.mark.parametrize("pattern, env, n", CASES)
def test_sweep_matches_matrix_path(pattern, env, n):
    chip, ref_chip = _fresh_chip(), _fresh_chip()
    sweep = sweep_tw(chip, WIDTHS, pattern=PATTERNS[pattern], env=ENVS[env], n=n)
    ref = _matrix_path(ref_chip, WIDTHS, PATTERNS[pattern], ENVS[env], n)
    assert [f.t_w_ns for f in sweep.folds] == list(WIDTHS)
    assert [f.error_fraction() for f in sweep.folds] == [m.error_fraction() for m in ref]
    assert sweep.folds[WIDTHS.index(15.0)].error_fraction() == 0.0
    assert choose_tw(sweep) == 2.5
    # the chip holds the last round of the last width, as after the last measure
    assert np.array_equal(chip.stored, ref_chip.stored)


@pytest.mark.parametrize("n, env", [(2, "ref"), (50, "ref"), (50, "cold"), (50, "field")])
def test_characterize_matches_matrix_path(tmp_path, capsys, n, env):
    """Flip counts, error fraction and invariant share printed or written by
    `characterize` equal those of count_flips / classify_cells."""
    chip = _fresh_chip()
    path, report = tmp_path / "chip.mrtg", tmp_path / "sel.csv"
    save_chip(chip, path)
    e = ENVS[env]
    flags = ["--temp", str(e.temperature_c), "--field", str(e.field_mt)]
    # th_l = 1 selects every cell that flipped, so the report lists every
    # address with a nonzero flip count, with all 16 of its counts
    args = ["characterize", str(path), "--n", str(n), "--th-l", "1", "--format", "csv", "--out", str(report)]
    assert cli.main(args + flags) == 0
    m = measure(chip, DataPattern.solid(0), TimingParams(2.5), e, n=n)
    counts, tax = count_flips(m), classify_cells(m)
    got = np.zeros(chip.num_cells, dtype=np.int64)
    for line in report.read_text().splitlines()[1:]:
        addr, _, *flips = line.split(",")
        got[int(addr) * 16 : (int(addr) + 1) * 16] = [int(f) for f in flips]
    assert np.array_equal(got, counts)
    out = capsys.readouterr().out
    assert f"error fraction {m.error_fraction():.4f}, invariant cells {100 * tax.invariant_fraction:.2f}%" in out


# --- the fold itself ----------------------------------------------------------


@pytest.mark.parametrize("block", [None, 4999])
@pytest.mark.parametrize("pattern, env, n", CASES)
def test_fold_matches_matrix_path(monkeypatch, pattern, env, n, block):
    """Every reduction of every width equals the one of its measure() rows;
    with 4999-cell blocks the unit-test chip spans seven blocks, the last
    one partial."""
    if block is not None:
        monkeypatch.setattr(device, "_FOLD_BLOCK", block)
    chip, ref_chip = _fresh_chip(), _fresh_chip()
    timings = [TimingParams(t) for t in WIDTHS]
    folds = fold_campaigns(chip, PATTERNS[pattern], timings, ENVS[env], n=n)
    ref = _matrix_path(ref_chip, WIDTHS, PATTERNS[pattern], ENVS[env], n)
    for fold, m in zip(folds, ref, strict=True):
        assert (fold.t_w_ns, fold.n_measurements) == (m.t_w_ns, n)
        assert fold.errors == np.count_nonzero(m.bits != m.written)
        assert fold.error_fraction() == m.error_fraction()
        assert np.array_equal(fold.first_errors, m.bits[0] != m.written)
        assert np.array_equal(fold.flip_counts, count_flips(m))
        assert np.array_equal(classify_fold(fold).labels, classify_cells(m).labels)
    assert np.array_equal(chip.stored, ref_chip.stored)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    seed=st.integers(0, 2**64 - 1),
    addresses=st.integers(1, 512),
    pattern=st.sampled_from(list(PATTERNS)),
    temperature=st.floats(0.0, 70.0),
    field=st.floats(0.0, 30.0),
    widths=st.lists(st.floats(0.5, 15.0), min_size=1, max_size=4),
    n=st.integers(1, 20),
    start=st.integers(0, 19),
)
def test_fold_equals_measure_rows_on_random_chips(seed, addresses, pattern, temperature, field, widths, n, start):
    """The sparse fold equals the reductions of the dense measure() rows, the
    chip's final state included.  Each width's rows come from two measure
    calls split at round ``start``, so the second starts mid-campaign.  At
    512 addresses a call runs in batches of 8 rounds, and a call of 9 to 15
    or 17 to 20 rounds ends in a short one."""
    start %= n
    chip, ref_chip = create_chip(small_config(addresses), seed), create_chip(small_config(addresses), seed)
    env, pattern = Environment(temperature_c=temperature, field_mt=field), PATTERNS[pattern]
    timings = [TimingParams(t) for t in widths]
    folds = fold_campaigns(chip, pattern, timings, env, n=n)
    for fold, t in zip(folds, timings, strict=True):
        parts = [(0, start), (start, n - start)] if start else [(0, n)]
        ms = [measure(ref_chip, pattern, t, env, n=k, start_round=s) for s, k in parts]
        rows, written = np.concatenate([m.bits for m in ms]), ms[0].written
        assert fold.errors == np.count_nonzero(rows != written)
        assert np.array_equal(fold.first_errors, rows[0] != written)
        assert np.array_equal(fold.flip_counts, np.count_nonzero(rows[1:] != rows[:-1], axis=0))
    assert np.array_equal(chip.stored, ref_chip.stored)


def test_fold_single_round():
    chip = _fresh_chip()
    (fold,) = fold_campaigns(chip, DataPattern.solid(0), [TimingParams(2.5)], n=1)
    m = measure(_fresh_chip(), DataPattern.solid(0), TimingParams(2.5), n=1)
    assert fold.error_fraction() == m.error_fraction()
    assert np.array_equal(chip.stored, m.bits[0])
    with pytest.raises(ValueError, match="N-1"):
        select_cells(fold.flip_counts, 1, SelectionThresholds(1))
    with pytest.raises(ValueError, match="2 measurements"):
        classify_fold(fold)


def test_fold_rejects_bad_arguments():
    chip = _fresh_chip()
    with pytest.raises(ValueError, match="at least one measurement"):
        fold_campaigns(chip, DataPattern.solid(0), [TimingParams(2.5)], n=0)
    with pytest.raises(ValueError, match="pulse width"):
        fold_campaigns(chip, DataPattern.solid(0), [], n=5)


# --- the fold split across processes -----------------------------------------

# ten blocks of the unit-test chip's 32,768 cells, the last one partial, so
# three processes fold 4, 3 and 3 of them
SPLIT_BLOCK = 3300


def _split_fold(monkeypatch, workers):
    """The four-width, 50-round fold of a fresh unit-test chip, in ten blocks
    shared by ``workers`` processes; returns the folds and the chip."""
    monkeypatch.setattr(device, "_FOLD_BLOCK", SPLIT_BLOCK)
    monkeypatch.setattr(device, "_fold_workers", lambda blocks: min(workers, blocks))
    chip = _fresh_chip()
    timings = [TimingParams(t) for t in WIDTHS]
    return fold_campaigns(chip, PATTERNS["random"], timings, ENVS["ref"], n=50), chip


def _assert_same_fold(got, want):
    (folds, chip), (ref_folds, ref_chip) = got, want
    for fold, ref in zip(folds, ref_folds, strict=True):
        assert fold.errors == ref.errors
        assert fold.flip_counts.dtype == ref.flip_counts.dtype
        assert np.array_equal(fold.flip_counts, ref.flip_counts)
        assert np.array_equal(fold.first_errors, ref.first_errors)
    assert np.array_equal(chip.stored, ref_chip.stored)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fold_workers_rule(monkeypatch):
    """One process per usable CPU, at most one per block, and only the
    calling process where os.fork does not exist."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert [device._fold_workers(b) for b in (1, 2, 64)] == [1, min(2, cpus), min(64, cpus)]
    monkeypatch.delattr(os, "fork")
    assert device._fold_workers(64) == 1


@pytest.mark.parametrize("workers", [2, 3])
def test_fold_split_equals_in_process_fold(monkeypatch, workers):
    ref = _split_fold(monkeypatch, 1)
    _assert_same_fold(_split_fold(monkeypatch, workers), ref)
    _assert_no_child_left()


def test_fold_falls_back_in_process_when_fork_fails(monkeypatch):
    ref = _split_fold(monkeypatch, 1)

    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    _assert_same_fold(_split_fold(monkeypatch, 3), ref)


def test_fold_raises_when_a_worker_fails(monkeypatch):
    """A worker whose kernel raises sends nothing and exits 1, and the parent
    raises instead of returning a partial fold; a worker that sends its data
    but exits non-zero fails the fold too."""
    parent, kernel = os.getpid(), device._write_errors

    def failing_in_workers(*args):
        if os.getpid() != parent:
            raise MemoryError("worker out of memory")
        return kernel(*args)

    chip = _fresh_chip()
    before = chip.stored.copy()
    monkeypatch.setattr(device, "_FOLD_BLOCK", SPLIT_BLOCK)
    monkeypatch.setattr(device, "_fold_workers", lambda blocks: min(3, blocks))
    monkeypatch.setattr(device, "_write_errors", failing_in_workers)
    timings = [TimingParams(t) for t in WIDTHS]
    with pytest.raises(ChildProcessError, match="short data"):
        fold_campaigns(chip, PATTERNS["random"], timings, n=50)
    assert np.array_equal(chip.stored, before)
    _assert_no_child_left()

    monkeypatch.setattr(device, "_write_errors", kernel)
    exit_ = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_(status or 3))
    with pytest.raises(ChildProcessError, match="exit codes"):
        fold_campaigns(chip, PATTERNS["random"], timings, n=50)
    assert np.array_equal(chip.stored, before)
    _assert_no_child_left()


def test_fold_reaps_workers_when_its_own_blocks_raise(monkeypatch):
    parent, kernel = os.getpid(), device._write_errors

    def failing_in_parent(*args):
        if os.getpid() == parent:
            raise ValueError("parent block failed")
        return kernel(*args)

    monkeypatch.setattr(device, "_write_errors", failing_in_parent)
    with pytest.raises(ValueError, match="parent block failed"):
        _split_fold(monkeypatch, 3)
    _assert_no_child_left()


# --- integer thresholds -------------------------------------------------------


def _probabilities():
    base = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]
    near = [float(np.nextafter(p, d)) for p in base for d in (0.0, 1.0)]
    return sorted({p for p in base + near if 0.0 <= p <= 1.0})


@pytest.mark.parametrize("p", _probabilities())
def test_draw_threshold_is_the_float_test(p):
    """draw < draw_threshold(p) iff draw * 2**-53 < p, on both sides of p."""
    threshold = int(draw_threshold(p))
    assert 0 <= threshold <= 2**53
    j0 = math.floor(p * 2**53)
    for j in (j0 - 1, j0, j0 + 1):
        if 0 <= j < 2**53:
            assert (j < threshold) == (j * 2.0**-53 < p), (p, j)


def test_draw_threshold_matches_uniforms():
    rng = CounterRng(seed=21)
    keys = rng.cell_keys(np.arange(50_000))
    p = np.random.default_rng(4).random(keys.size)
    p[:1000] = 0.0
    p[1000:2000] = 1.0
    u = rng.uniforms(keys, round_index=3, stream=1)
    d = draws(keys, rng.round_keys(3, 1))
    assert np.array_equal(u, d.astype(np.float64) * 2.0**-53)
    # p equal to a uniform itself is the boundary case
    p[2000:3000] = u[2000:3000]
    assert np.array_equal(d < draw_threshold(p), u < p)
