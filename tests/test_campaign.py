"""The campaign engine against the row-level matrix path.

`measure` builds the full n x cells readout matrix with the dense kernel
the harvest uses, and the brute-force reductions below count its flips and
its invariant cells; the sweep and `characterize` reach the same numbers from
the sparse `_write_errors` kernel of `fold_campaigns`.  These tests require
the two to agree exactly.
Cases named after a cell set of conftest.cell_set stitch each matrix from
two `measure` calls on cell subsets: the set and the rest of the array.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CELL_SETS, cell_set, small_config
from mramtrng import cli, device, parallel
from mramtrng.characterize import (
    SelectionThresholds,
    choose_tw,
    select_cells,
    sweep_tw,
)
from mramtrng.device import (
    Environment,
    MeasurementMatrix,
    TimingParams,
    create_chip,
    fold_campaigns,
    measure,
    save_chip,
)
from mramtrng.rng import CounterRng, draw_threshold, draws

# unsorted, and nothing fails at the nominal 15 ns pulse on the unit-test chip
WIDTHS = (5.0, 15.0, 2.5, 3.0)

# field_threshold_mt of the unit-test chip is 10 mT
ENVS = {"ref": Environment(), "cold": Environment(temperature_c=5.0), "field": Environment(field_mt=25.0)}

CASES = [(c, "ref", n) for c in CELL_SETS for n in (2, 50)] + [
    ("solid", e, n) for e in ("cold", "field") for n in (2, 50)
]


def _flips(rows):
    """Each cell's number of changes between consecutive readout rows."""
    return np.count_nonzero(rows[1:] != rows[:-1], axis=0)


def _invariant_fraction(rows):
    """Fraction of cells whose readout is the same in every row."""
    return np.count_nonzero(np.all(rows == rows[0], axis=0)) / rows.shape[1]


def _stitched(chip, timing, cells, env, n, start_round=0):
    """measure over the whole array; with a cell index array, stitched
    from the calls over ``cells`` and over the rest of the array."""
    if cells is None:
        return measure(chip, timing, env, n=n, start_round=start_round)
    bits = np.empty((n, chip.num_cells), dtype=bool)
    for part in (cells, np.setdiff1d(np.arange(chip.num_cells), cells)):
        if part.size:
            bits[:, part] = measure(chip, timing, env, n=n, start_round=start_round, cell_indices=part).bits
    return MeasurementMatrix(bits=bits, t_w_ns=timing.t_w_ns)


def _matrix_path(chip, widths, cells, env, n):
    """One matrix per width, in list order, as the sweep used to run."""
    return [_stitched(chip, TimingParams(t), cell_set(cells, chip.num_cells), env, n) for t in widths]


@pytest.mark.parametrize("cells, env, n", CASES)
def test_sweep_matches_matrix_path(small_chip, cells, env, n):
    sweep = sweep_tw(small_chip, WIDTHS, env=ENVS[env], n=n)
    ref = _matrix_path(small_chip, WIDTHS, cells, ENVS[env], n)
    assert [f.t_w_ns for f in sweep.folds] == list(WIDTHS)
    assert [f.error_fraction() for f in sweep.folds] == [m.error_fraction() for m in ref]
    assert sweep.folds[WIDTHS.index(15.0)].error_fraction() == 0.0
    assert choose_tw(sweep) == 2.5


@pytest.mark.parametrize("n, env", [(2, "ref"), (50, "ref"), (50, "cold"), (50, "field")])
def test_characterize_matches_matrix_path(tmp_path, capsys, small_chip, n, env):
    """Flip counts, error fraction and invariant share printed or written by
    `characterize` equal those of the measure() rows."""
    chip = small_chip
    path, report = tmp_path / "chip.mrtg", tmp_path / "sel.csv"
    save_chip(chip, path)
    e = ENVS[env]
    flags = ["--temp", str(e.temperature_c), "--field", str(e.field_mt)]
    # th_l = 1 selects every cell that flipped, so the report lists every
    # address with a nonzero flip count, with all 16 of its counts
    args = ["characterize", str(path), "--n", str(n), "--th-l", "1", "--format", "csv", "--out", str(report)]
    assert cli.main(args + flags) == 0
    m = measure(chip, TimingParams(2.5), e, n=n)
    counts = _flips(m.bits)
    got = np.zeros(chip.num_cells, dtype=np.int64)
    for line in report.read_text().splitlines()[1:]:
        addr, _, *flips = line.split(",")
        got[int(addr) * 16 : (int(addr) + 1) * 16] = [int(f) for f in flips]
    assert np.array_equal(got, counts)
    out = capsys.readouterr().out
    assert f"error fraction {m.error_fraction():.4f}, invariant cells {100 * _invariant_fraction(m.bits):.2f}%" in out


# --- the fold itself ----------------------------------------------------------


@pytest.mark.parametrize("block", [None, 4999])
@pytest.mark.parametrize("cells, env, n", CASES)
def test_fold_matches_matrix_path(monkeypatch, small_chip, cells, env, n, block):
    """Every reduction of every width equals the one of its measure() rows;
    with 4999-cell blocks the unit-test chip spans seven blocks, the last
    one partial."""
    if block is not None:
        monkeypatch.setattr(device, "_FOLD_BLOCK", block)
    timings = [TimingParams(t) for t in WIDTHS]
    folds = fold_campaigns(small_chip, timings, ENVS[env], n=n)
    ref = _matrix_path(small_chip, WIDTHS, cells, ENVS[env], n)
    for fold, m in zip(folds, ref, strict=True):
        assert (fold.t_w_ns, fold.n_measurements) == (m.t_w_ns, n)
        assert fold.errors == np.count_nonzero(m.bits)
        assert fold.error_fraction() == m.error_fraction()
        assert np.array_equal(fold.flip_counts, _flips(m.bits))
        assert fold.invariant_fraction() == _invariant_fraction(m.bits)


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**64 - 1),
    addresses=st.integers(1, 512),
    cells=st.sampled_from(CELL_SETS),
    temperature=st.floats(0.0, 70.0),
    field=st.floats(0.0, 30.0),
    widths=st.lists(st.floats(0.5, 15.0), min_size=1, max_size=4),
    n=st.integers(1, 20),
    start=st.integers(0, 19),
)
def test_fold_equals_measure_rows_on_random_chips(seed, addresses, cells, temperature, field, widths, n, start):
    """The sparse fold equals the reductions of the dense measure() rows.
    Each width's rows come from measure calls split at round ``start``, so
    the second starts mid-campaign, and at the cell set.  At 512 addresses
    a call over every cell runs in batches of 8 rounds, and a call of 9 to
    15 or 17 to 20 rounds ends in a short one."""
    start %= n
    chip = create_chip(small_config(addresses), seed)
    env, cells = Environment(temperature_c=temperature, field_mt=field), cell_set(cells, chip.num_cells)
    timings = [TimingParams(t) for t in widths]
    folds = fold_campaigns(chip, timings, env, n=n)
    for fold, t in zip(folds, timings, strict=True):
        parts = [(0, start), (start, n - start)] if start else [(0, n)]
        rows = np.concatenate([_stitched(chip, t, cells, env, k, s).bits for s, k in parts])
        assert fold.errors == np.count_nonzero(rows)
        assert np.array_equal(fold.flip_counts, _flips(rows))


def test_fold_single_round(small_chip):
    (fold,) = fold_campaigns(small_chip, [TimingParams(2.5)], n=1)
    m = measure(small_chip, TimingParams(2.5), n=1)
    assert fold.error_fraction() == m.error_fraction()
    with pytest.raises(ValueError, match="N-1"):
        select_cells(fold.flip_counts, 1, SelectionThresholds(1))
    with pytest.raises(ValueError, match="2 measurements"):
        fold.invariant_fraction()


@pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
def test_fold_flip_count_extremes(monkeypatch, small_chip, n, dtype):
    """A cell whose readout never changes has no flips, and one that changes
    every round has n - 1, in the smallest dtype that holds n - 1.  The
    kernel is replaced by one that reads 1 on odd rounds at the first
    width, always at the second and never at the third."""
    chip = small_chip
    rounds = {tuple(rk): r for r, rk in enumerate(device._round_keys(chip, np.arange(n)))}

    def kernel(keys, thresholds, round_keys):
        odd = rounds[tuple(round_keys)] % 2 == 1
        return np.array([[odd], [True], [False]]).repeat(keys.size, axis=1)

    monkeypatch.setattr(device, "_write_errors", kernel)
    alternating, stuck, correct = fold_campaigns(chip, [TimingParams(t) for t in (2.5, 3.0, 15.0)], n=n)
    m = chip.num_cells
    assert all(f.flip_counts.dtype == dtype for f in (alternating, stuck, correct))
    assert np.all(alternating.flip_counts == n - 1) and alternating.errors == n // 2 * m
    assert not stuck.flip_counts.any() and stuck.errors == n * m
    assert not correct.flip_counts.any() and correct.errors == 0
    assert [f.invariant_fraction() for f in (alternating, stuck, correct)] == [0.0, 1.0, 1.0]


def test_fold_rejects_bad_arguments(small_chip):
    with pytest.raises(ValueError, match="at least one measurement"):
        fold_campaigns(small_chip, [TimingParams(2.5)], n=0)
    with pytest.raises(ValueError, match="pulse width"):
        fold_campaigns(small_chip, [], n=5)


# --- the fold split across processes -----------------------------------------

# ten blocks of the unit-test chip's 32,768 cells, the last one partial, so
# three processes fold 4, 3 and 3 of them
SPLIT_BLOCK = 3300


def _split_fold(monkeypatch, chip, workers):
    """The four-width, 50-round fold of ``chip``, in ten blocks shared by
    ``workers`` processes."""
    monkeypatch.setattr(device, "_FOLD_BLOCK", SPLIT_BLOCK)
    monkeypatch.setattr(parallel, "_workers", lambda blocks: min(workers, blocks))
    timings = [TimingParams(t) for t in WIDTHS]
    return fold_campaigns(chip, timings, ENVS["ref"], n=50)


def _assert_same_fold(folds, ref_folds):
    for fold, ref in zip(folds, ref_folds, strict=True):
        assert fold.errors == ref.errors
        assert fold.flip_counts.dtype == ref.flip_counts.dtype
        assert np.array_equal(fold.flip_counts, ref.flip_counts)


@pytest.mark.parametrize("workers", [2, 3])
def test_fold_split_equals_in_process_fold(monkeypatch, small_chip, workers):
    ref = _split_fold(monkeypatch, small_chip, 1)
    _assert_same_fold(_split_fold(monkeypatch, small_chip, workers), ref)


def test_fold_falls_back_in_process_when_fork_fails(monkeypatch, small_chip):
    ref = _split_fold(monkeypatch, small_chip, 1)

    def no_fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    _assert_same_fold(_split_fold(monkeypatch, small_chip, 3), ref)


def test_fold_raises_when_a_worker_fails(monkeypatch, small_chip):
    """A worker whose kernel raises sends nothing and exits 1, and the parent
    raises instead of returning a partial fold; a worker that sends its data
    but exits non-zero fails the fold too."""
    parent, kernel = os.getpid(), device._write_errors

    def failing_in_workers(*args):
        if os.getpid() != parent:
            raise MemoryError("worker out of memory")
        return kernel(*args)

    monkeypatch.setattr(device, "_FOLD_BLOCK", SPLIT_BLOCK)
    monkeypatch.setattr(parallel, "_workers", lambda blocks: min(3, blocks))
    monkeypatch.setattr(device, "_write_errors", failing_in_workers)
    timings = [TimingParams(t) for t in WIDTHS]
    with pytest.raises(ChildProcessError, match="short data"):
        fold_campaigns(small_chip, timings, n=50)

    monkeypatch.setattr(device, "_write_errors", kernel)
    exit_ = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: exit_(status or 3))
    with pytest.raises(ChildProcessError, match="exit codes"):
        fold_campaigns(small_chip, timings, n=50)


def test_fold_reaps_workers_when_its_own_blocks_raise(monkeypatch, small_chip):
    parent, kernel = os.getpid(), device._write_errors

    def failing_in_parent(*args):
        if os.getpid() == parent:
            raise ValueError("parent block failed")
        return kernel(*args)

    monkeypatch.setattr(device, "_write_errors", failing_in_parent)
    with pytest.raises(ValueError, match="parent block failed"):
        _split_fold(monkeypatch, small_chip, 3)


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
    d = draws(keys, rng.round_keys(3, 1))
    u = d.astype(np.float64) * 2.0**-53  # each cell's uniform, as rng.draws defines it
    # p equal to a uniform itself is the boundary case
    p[2000:3000] = u[2000:3000]
    assert np.array_equal(d < draw_threshold(p), u < p)
