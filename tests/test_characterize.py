"""Flip counting, selection, the invariant share and the sweep over folded
campaigns."""

import numpy as np
import pytest

from conftest import small_config
from mramtrng import device
from mramtrng.characterize import (
    SelectionThresholds,
    choose_tw,
    expected_threshold,
    export_selection_csv,
    load_selection,
    save_selection,
    select_cells,
    suggest_th_l,
    sweep_tw,
)
from mramtrng.device import CampaignFold, TimingParams, create_chip, fold_campaigns, measure


def _brute_force_flips(bits):
    """(rounds, cells) readout rows -> each cell's count of changes."""
    n, m = bits.shape
    out = np.zeros(m, dtype=int)
    for c in range(m):
        for i in range(n - 1):
            if bits[i][c] != bits[i + 1][c]:
                out[c] += 1
    return out


def _fold_readout(monkeypatch, chip, rows):
    """Fold ``chip`` over a kernel that reads back ``rows``, a (rounds,
    widths, cells) bool array, instead of drawing the readout."""
    n, widths = rows.shape[:2]
    rounds = {tuple(rk): r for r, rk in enumerate(device._round_keys(chip, np.arange(n)))}
    monkeypatch.setattr(
        device, "_write_errors", lambda keys, thresholds, round_keys: rows[rounds[tuple(round_keys)]].copy()
    )
    return fold_campaigns(chip, [TimingParams(2.5 + w) for w in range(widths)], n=n)


def test_count_flips_matches_brute_force_randomized(monkeypatch):
    """The fold's flip counts, errors and invariant share on random readouts
    of 1-4 addresses over 2-10 rounds at 1-3 widths, any error density."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        chip = create_chip(small_config(int(rng.integers(1, 5))), seed=int(rng.integers(0, 2**32)))
        n, widths = int(rng.integers(2, 11)), int(rng.integers(1, 4))
        rows = rng.random((n, widths, chip.num_cells)) < rng.uniform(0.05, 0.95)
        for w, fold in enumerate(_fold_readout(monkeypatch, chip, rows)):
            assert np.array_equal(fold.flip_counts, _brute_force_flips(rows[:, w]))
            assert fold.errors == np.count_nonzero(rows[:, w])
            assert fold.invariant_fraction() == np.mean(np.all(rows[:, w] == rows[0, w], axis=0))


def test_count_flips_needs_two_rows(monkeypatch):
    """One round has no pair of rows to count flips over: every cell of a
    one-round fold counts 0, and neither selection nor the invariant share
    takes that for a cell that never changed."""
    chip = create_chip(small_config(1), seed=7)
    (fold,) = _fold_readout(monkeypatch, chip, np.ones((1, 1, chip.num_cells), dtype=bool))
    assert fold.n_measurements == 1 and fold.errors == chip.num_cells
    assert not fold.flip_counts.any()
    with pytest.raises(ValueError):
        select_cells(fold.flip_counts, 1, SelectionThresholds(1))
    with pytest.raises(ValueError):
        fold.invariant_fraction()


def test_expected_threshold():
    assert expected_threshold(50) == 24.5
    assert expected_threshold(2) == 0.5
    with pytest.raises(ValueError):
        expected_threshold(1)


def test_suggest_th_l():
    assert suggest_th_l(50) == 15
    assert suggest_th_l(2) == 1  # round(0.3) is 0, below the window


def test_threshold_validation():
    assert SelectionThresholds(16).resolve(50) == (16, 49)
    assert SelectionThresholds(15, 40).resolve(50) == (15, 40)
    with pytest.raises(ValueError):
        SelectionThresholds(0).resolve(50)
    with pytest.raises(ValueError):
        SelectionThresholds(50).resolve(50)
    with pytest.raises(ValueError):
        SelectionThresholds(20, 10).resolve(50)
    with pytest.raises(ValueError):
        SelectionThresholds(10, 60).resolve(50)


def test_select_cells_window_and_stats():
    # 2 addresses = 32 cells; put chosen counts on a few cells
    counts = np.zeros(32, dtype=np.int64)
    counts[0] = 20  # in window
    counts[1] = 16  # boundary, in
    counts[2] = 15  # below
    counts[17] = 49  # upper boundary, in (th_u = N-1)
    sel = select_cells(counts, 50, SelectionThresholds(16))
    assert sel.num_randcell == 3
    assert sel.num_rand_addresses == 2
    assert sel.rand_addr_fraction == 1.0
    assert sel.bits_per_rand_addr == 1.5
    assert list(sel.cell_indices) == [0, 1, 17]
    addrs, masks = sel.address_words()
    assert list(addrs) == [0, 1]
    assert masks[0] == 0b1100_0000_0000_0000  # cells 0 and 1 are the two MSBs
    assert masks[1] == 0b0100_0000_0000_0000  # cell 17 = address 1, bit 1


def test_select_cells_upper_threshold_excludes():
    counts = np.zeros(16, dtype=np.int64)
    counts[3] = 45
    assert select_cells(counts, 50, SelectionThresholds(16, 40)).num_randcell == 0


def test_empty_selection_is_flagged_not_fatal():
    sel = select_cells(np.zeros(64, dtype=np.int64), 50, SelectionThresholds(16))
    assert sel.empty
    assert sel.num_randcell == 0
    assert np.isnan(sel.bits_per_rand_addr)
    assert sel.rand_addr_fraction == 0.0


def test_invariant_fraction():
    # the fold of the three readout rows [0 1 0 1], [0 1 1 0], [0 1 0 1]:
    # cells 0 and 1 never change; cell 3 varies, though it starts and ends at 1
    fold = CampaignFold(
        t_w_ns=2.5,
        n_measurements=3,
        errors=6,
        flip_counts=np.array([0, 0, 2, 2], dtype=np.uint8),
    )
    assert fold.invariant_fraction() == 0.5


def test_selected_cells_are_noise_prone(small_chip):
    (fold,) = fold_campaigns(small_chip, [TimingParams(2.5)], n=20)
    sel = select_cells(fold.flip_counts, 20, SelectionThresholds(6))
    assert not sel.empty
    assert np.all(fold.flip_counts[sel.cell_indices] > 0)


def test_sweep_error_increases_as_pulse_narrows(small_chip):
    sweep = sweep_tw(small_chip, (15.0, 10.0, 5.0, 2.5), n=8)
    by_tw = {f.t_w_ns: f.error_fraction() for f in sweep.folds}
    assert by_tw[2.5] > by_tw[5.0] > by_tw[10.0] >= by_tw[15.0]
    assert choose_tw(sweep) == 2.5
    rows = measure(small_chip, TimingParams(2.5), n=8).bits
    fold = sweep.folds[-1]
    assert (fold.t_w_ns, fold.n_measurements) == (2.5, 8)
    assert np.array_equal(fold.flip_counts, np.count_nonzero(rows[1:] != rows[:-1], axis=0))


def test_choose_tw_tie_prefers_wider_pulse():
    from mramtrng.characterize import TimingSweepResult
    from mramtrng.device import CampaignFold

    def fold(t_w_ns, errors):  # 10 rounds over 10 cells
        return CampaignFold(t_w_ns, 10, errors, np.zeros(10, np.uint8))

    res = TimingSweepResult((fold(2.5, 30), fold(5.0, 30), fold(10.0, 10)))
    assert choose_tw(res) == 5.0


def test_sweep_csv(tmp_path, small_chip):
    sweep = sweep_tw(small_chip, (15.0, 2.5), n=4)
    p = tmp_path / "sweep.csv"
    sweep.to_csv(p)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "t_w_ns,error_fraction"
    assert len(lines) == 3


def test_selection_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    counts = rng.integers(0, 50, size=4096).astype(np.int64)
    sel = select_cells(counts, 50, SelectionThresholds(45))
    assert 0 < sel.num_randcell < 4096
    p = tmp_path / "sel.mrsl"
    save_selection(sel, p)
    again = load_selection(p, 4096 // 16)
    assert np.array_equal(again.mask, sel.mask)
    assert (again.th_l, again.th_u) == (sel.th_l, sel.th_u)
    assert again.num_addresses == sel.num_addresses
    assert again.n_measurements == sel.n_measurements


def test_selection_bad_magic(tmp_path):
    p = tmp_path / "bad.mrsl"
    p.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_selection(p, 256)


def test_selection_csv_report(tmp_path):
    counts = np.zeros(32, dtype=np.int64)
    counts[0], counts[1], counts[17] = 20, 16, 30
    sel = select_cells(counts, 50, SelectionThresholds(16))
    p = tmp_path / "sel.csv"
    export_selection_csv(sel, counts, p)
    lines = p.read_text().strip().splitlines()
    assert lines[0].startswith("address,mask_hex,flips_bit0")
    assert lines[1].startswith("0,c000,20,16,")
    assert lines[2].startswith("1,4000,0,30,")
