"""The campaign engine against the row-level matrix path.

`measure` builds the full n x cells readout matrix and `count_flips` /
`classify_cells` reduce it; the sweep and `characterize` reach the same
numbers without it.  These tests require the two paths to agree exactly.
"""

import math

import numpy as np
import pytest

from conftest import small_config
from mramtrng import cli, device
from mramtrng.characterize import (
    choose_tw,
    classify_cells,
    classify_fold,
    count_flips,
    fold_flips,
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
    return [measure(chip, pattern, TimingParams.reduced(t), env, n=n) for t in widths]


@pytest.mark.parametrize("pattern, env, n", CASES)
def test_sweep_matches_matrix_path(pattern, env, n):
    chip, ref_chip = _fresh_chip(), _fresh_chip()
    sweep = sweep_tw(chip, WIDTHS, pattern=PATTERNS[pattern], env=ENVS[env], n=n)
    ref = _matrix_path(ref_chip, WIDTHS, PATTERNS[pattern], ENVS[env], n)
    assert [p.t_w_ns for p in sweep.points] == list(WIDTHS)
    assert [p.error_fraction for p in sweep.points] == [m.error_fraction() for m in ref]
    assert sweep.points[WIDTHS.index(15.0)].error_fraction == 0.0
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
    m = measure(chip, DataPattern.solid(0), TimingParams.reduced(2.5), e, n=n)
    fc, tax = count_flips(m), classify_cells(m)
    got = np.zeros(chip.num_cells, dtype=np.int64)
    for line in report.read_text().splitlines()[1:]:
        addr, _, *flips = line.split(",")
        got[int(addr) * 16 : (int(addr) + 1) * 16] = [int(f) for f in flips]
    assert np.array_equal(got, fc.counts)
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
    timings = [TimingParams.reduced(t) for t in WIDTHS]
    folds = fold_campaigns(chip, PATTERNS[pattern], timings, ENVS[env], n=n)
    ref = _matrix_path(ref_chip, WIDTHS, PATTERNS[pattern], ENVS[env], n)
    for fold, m in zip(folds, ref, strict=True):
        assert (fold.t_w_ns, fold.n_measurements) == (m.t_w_ns, n)
        assert fold.errors == np.count_nonzero(m.bits != m.written)
        assert fold.error_fraction() == m.error_fraction()
        assert np.array_equal(fold.first_errors, m.bits[0] != m.written)
        assert np.array_equal(fold_flips(fold).counts, count_flips(m).counts)
        assert np.array_equal(classify_fold(fold).labels, classify_cells(m).labels)
    assert np.array_equal(chip.stored, ref_chip.stored)


def test_fold_single_round():
    chip = _fresh_chip()
    (fold,) = fold_campaigns(chip, DataPattern.solid(0), [TimingParams.reduced(2.5)], n=1)
    m = measure(_fresh_chip(), DataPattern.solid(0), TimingParams.reduced(2.5), n=1)
    assert fold.error_fraction() == m.error_fraction()
    assert np.array_equal(chip.stored, m.bits[0])
    with pytest.raises(ValueError, match="2 measurements"):
        fold_flips(fold)
    with pytest.raises(ValueError, match="2 measurements"):
        classify_fold(fold)


def test_fold_rejects_bad_arguments():
    chip = _fresh_chip()
    with pytest.raises(ValueError, match="at least one measurement"):
        fold_campaigns(chip, DataPattern.solid(0), [TimingParams.reduced(2.5)], n=0)
    with pytest.raises(ValueError, match="pulse width"):
        fold_campaigns(chip, DataPattern.solid(0), [], n=5)


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
