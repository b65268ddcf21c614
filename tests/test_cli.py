"""Subcommand behavior, exit codes, environment overrides, artifact determinism."""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import bits_file, de_bruijn, small_config
from mramtrng import characterize, cli
from mramtrng.device import MAX_ADDRESSES, default_config, load_chip
from mramtrng.sts import MAX_STREAM_BITS, run_battery


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "chip.json"
    path.write_text(json.dumps(small_config().to_dict(), indent=2), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def chip_file(config_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("chip") / "chip.mrtg"
    assert cli.main(["chip", "--config", str(config_file), "--seed", "7", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def selection_file(chip_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("sel") / "sel.mrsl"
    rc = cli.main(["characterize", str(chip_file), "--out", str(path)])
    assert rc == 0
    return path


# --- chip -------------------------------------------------------------------


def test_chip_same_seed_byte_identical(config_file, tmp_path):
    a, b = tmp_path / "a.mrtg", tmp_path / "b.mrtg"
    for path in (a, b):
        assert cli.main(["chip", "--config", str(config_file), "--seed", "11", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_chip_seed_changes_content(config_file, tmp_path):
    a, b = tmp_path / "a.mrtg", tmp_path / "b.mrtg"
    cli.main(["chip", "--config", str(config_file), "--seed", "1", "--out", str(a)])
    cli.main(["chip", "--config", str(config_file), "--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_chip_requires_seed_and_out(config_file, tmp_path, capsys):
    assert cli.main(["chip", "--config", str(config_file), "--out", str(tmp_path / "c.mrtg")]) == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert cli.main(["chip", "--config", str(config_file), "--seed", "3"]) == cli.EXIT_USAGE


def test_chip_missing_config_is_io_error(tmp_path, capsys):
    rc = cli.main(["chip", "--config", str(tmp_path / "nope.json"), "--seed", "1", "--out", str(tmp_path / "c.mrtg")])
    assert rc == cli.EXIT_IO
    assert "I/O error" in capsys.readouterr().err


def _edited_recipe(tmp_path, where: tuple, value):
    """The default recipe as JSON with the entry at path ``where`` set to
    ``value`` (json writes NaN and Infinity literals)."""
    recipe = default_config().to_dict()
    section = recipe
    for key in where[:-1]:
        section = section[key]
    section[where[-1]] = value
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "where, value, field",
    [
        (("tau", "components", 1, "mean_ns"), float("nan"), "tau.components.mean_ns"),
        (("tau", "min_ns"), float("inf"), "tau.min_ns"),
        (("steepness", "median_per_ns"), float("inf"), "steepness.median_per_ns"),
        (("metastable", "bias_beta"), float("-inf"), "metastable.bias_beta"),
        (("marginal_addresses", "tau_sigma_ns"), float("nan"), "marginal_addresses.tau_sigma_ns"),
        (("num_addresses",), float("inf"), "num_addresses"),
    ],
)
def test_non_finite_recipe_number_exits_2(tmp_path, capsys, where, value, field):
    config = _edited_recipe(tmp_path, where, value)
    out = tmp_path / "c.mrtg"
    assert cli.main(["chip", "--config", str(config), "--seed", "1", "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"recipe field {field} must be finite" in err, err
    assert not out.exists()


@pytest.mark.parametrize("where, value", [(("tau", "min_ns"), None), (("num_addresses",), 10**400)])
def test_malformed_recipe_value_exits_2(tmp_path, capsys, where, value):
    config = _edited_recipe(tmp_path, where, value)
    assert cli.main(["chip", "--config", str(config), "--seed", "1", "--out", str(tmp_path / "c.mrtg")]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "wrong type or out of range" in err, err


def test_recipe_above_rated_size_exits_2_before_sampling(tmp_path, capsys):
    """A recipe one address above device.MAX_ADDRESSES exits 2 with one
    line, and nothing is sampled or written."""
    config = _edited_recipe(tmp_path, ("num_addresses",), MAX_ADDRESSES + 1)
    out = tmp_path / "c.mrtg"
    tracemalloc.start()
    try:
        rc = cli.main(["chip", "--config", str(config), "--seed", "1", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"above the rated maximum {MAX_ADDRESSES}" in err, err
    assert peak < 1 << 20 and not out.exists(), peak


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_imports_no_test_only_package():
    """The package's one dependency is numpy: importing the CLI loads none of
    the packages that only the tests use."""
    code = (
        "import sys\n"
        "import mramtrng.cli\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'mpmath', 'hypothesis'}))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n", proc.stdout


# --- environment overrides --------------------------------------------------


def test_env_seed_override(config_file, tmp_path, monkeypatch):
    flag, env = tmp_path / "flag.mrtg", tmp_path / "env.mrtg"
    cli.main(["chip", "--config", str(config_file), "--seed", "5", "--out", str(flag)])
    monkeypatch.setenv("MRTG_SEED", "5")
    assert cli.main(["chip", "--config", str(config_file), "--out", str(env)]) == 0
    assert flag.read_bytes() == env.read_bytes()


def test_flag_beats_env(config_file, tmp_path, monkeypatch):
    monkeypatch.setenv("MRTG_SEED", "99")
    out = tmp_path / "c.mrtg"
    cli.main(["chip", "--config", str(config_file), "--seed", "5", "--out", str(out)])
    assert load_chip(out).seed == 5


def test_bad_env_value_is_usage_error(config_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MRTG_SEED", "not-a-number")
    rc = cli.main(["chip", "--config", str(config_file), "--out", str(tmp_path / "c.mrtg")])
    assert rc == cli.EXIT_USAGE
    assert "MRTG_SEED" in capsys.readouterr().err


def test_seed_out_of_range_is_usage_error(config_file, tmp_path, monkeypatch, capsys):
    base = ["chip", "--config", str(config_file), "--out", str(tmp_path / "c.mrtg")]
    assert cli.main(base + ["--seed", str(2**64 - 1)]) == 0
    capsys.readouterr()
    assert cli.main(base + ["--seed", str(2**64)]) == cli.EXIT_USAGE
    monkeypatch.setenv("MRTG_SEED", str(2**64))
    assert cli.main(base) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: --seed") for line in err)


def test_env_temperature_changes_measurement(chip_file, monkeypatch, capsys):
    cli.main(["characterize", str(chip_file)])
    warm = capsys.readouterr().out
    monkeypatch.setenv("MRTG_TEMP", "20")
    cli.main(["characterize", str(chip_file)])
    cold = capsys.readouterr().out
    assert warm != cold


# --- characterize / sweep ---------------------------------------------------


def test_sweep_writes_csv(chip_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", str(chip_file), "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "t_w_ns,error_fraction"
    assert len(rows) == 5
    assert "harvest pulse width" in capsys.readouterr().out


def test_characterize_empty_selection_exits_3(chip_file, capsys):
    rc = cli.main(["characterize", str(chip_file), "--tw", "15", "--th-l", "49"])
    assert rc == cli.EXIT_EMPTY_SELECTION
    assert "no cells selected" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["characterize", "pipeline"])
@pytest.mark.parametrize("th_l", [None, "1"])
def test_fewer_than_two_rounds_exits_2(config_file, chip_file, tmp_path, capsys, command, th_l):
    # one round has no flips to count, so no cell can be selected from it;
    # the run stops before it writes anything
    out = tmp_path / "out"
    args = {
        "characterize": ["characterize", str(chip_file), "--out", str(out)],
        "pipeline": ["pipeline", "--config", str(config_file), "--seed", "7", "--out", str(out)],
    }[command]
    assert cli.main(args + ["--n", "1"] + (["--th-l", th_l] if th_l else [])) == cli.EXIT_USAGE
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


class _FoldReached(Exception):
    pass


@pytest.mark.parametrize("command", ["sweep", "characterize", "pipeline"])
def test_rounds_beyond_rated_maximum_exit_2(config_file, chip_file, tmp_path, capsys, monkeypatch, command):
    """--n above MAX_ROUNDS exits 2 with one line before any fold or file
    write; --n at MAX_ROUNDS reaches the fold (stubbed, so it does not run)."""
    reached = []

    def stub_fold(chip, timings, env=None, n=50):
        reached.append(n)
        raise _FoldReached

    monkeypatch.setattr(characterize, "fold_campaigns", stub_fold)
    monkeypatch.setattr(cli, "fold_campaigns", stub_fold)
    out = tmp_path / "out"
    args = {
        "sweep": ["sweep", str(chip_file), "--out", str(out)],
        "characterize": ["characterize", str(chip_file), "--out", str(out)],
        "pipeline": ["pipeline", "--config", str(config_file), "--seed", "7", "--out", str(out)],
    }[command]
    assert cli.main(args + ["--n", str(cli.MAX_ROUNDS + 1)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "--n" in err[0] and str(cli.MAX_ROUNDS) in err[0]
    assert not reached and not out.exists()
    with pytest.raises(_FoldReached):
        cli.main(args + ["--n", str(cli.MAX_ROUNDS)])
    assert reached == [cli.MAX_ROUNDS]


@pytest.mark.parametrize("command", ["characterize", "pipeline"])
@pytest.mark.parametrize("flag", ["--th-l", "--th-u"])
def test_thresholds_beyond_rounds_exit_2(config_file, chip_file, tmp_path, capsys, monkeypatch, command, flag):
    """A flip-count window beyond N-1 exits 2 with one line before any fold
    or file write; a window that ends at N-1 reaches the fold (stubbed)."""
    reached = []

    def stub_fold(chip, timings, env=None, n=50):
        reached.append(n)
        raise _FoldReached

    monkeypatch.setattr(characterize, "fold_campaigns", stub_fold)
    monkeypatch.setattr(cli, "fold_campaigns", stub_fold)
    out = tmp_path / "out"
    args = {
        "characterize": ["characterize", str(chip_file), "--out", str(out)],
        "pipeline": ["pipeline", "--config", str(config_file), "--seed", "7", "--out", str(out)],
    }[command]
    assert cli.main(args + [flag, "80"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "th_l <= th_u <= N-1" in err[0] and "N=50" in err[0]
    assert not reached and not out.exists()
    with pytest.raises(_FoldReached):
        cli.main(args + [flag, "49"])
    assert reached == [50]


@pytest.mark.parametrize("command", ["characterize", "generate"])
@pytest.mark.parametrize("tw", ["36", "0", "nan"])
def test_pulse_width_outside_write_cycle_exits_2(chip_file, selection_file, tmp_path, capsys, command, tw):
    out = tmp_path / "out"
    args = {
        "characterize": ["characterize", str(chip_file)],
        "generate": ["generate", str(chip_file), str(selection_file), "--bits", "256"],
    }[command]
    assert cli.main(args + ["--tw", tw, "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "write pulse" in err[0] and "35" in err[0]
    assert not out.exists()


def test_characterize_two_rounds_default_threshold(chip_file, capsys):
    """At --n 2 the default lower threshold is 1, not round(0.3) = 0."""
    assert cli.main(["characterize", str(chip_file), "--n", "2"]) == 0
    assert "thresholds [1, 1]:" in capsys.readouterr().out


def test_characterize_csv_export(chip_file, tmp_path):
    out = tmp_path / "sel.csv"
    assert cli.main(["characterize", str(chip_file), "--format", "csv", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("address")


@pytest.mark.parametrize("with_out", [True, False])
def test_characterize_bad_format_exits_2_before_the_fold(chip_file, tmp_path, monkeypatch, capsys, with_out):
    """MRTG_FORMAT=xml is rejected before any campaign runs, with or
    without --out."""
    out = tmp_path / "sel.mrsl"
    monkeypatch.setenv("MRTG_FORMAT", "xml")
    args = ["characterize", str(chip_file)] + (["--out", str(out)] if with_out else [])
    assert cli.main(args) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "--format must be 'text' or 'csv'" in err[0], err
    assert not out.exists()


def test_missing_chip_file_exits_5(capsys, tmp_path):
    assert cli.main(["sweep", str(tmp_path / "ghost.mrtg")]) == cli.EXIT_IO


# --- generate / test --------------------------------------------------------


def test_generate_then_battery(chip_file, selection_file, tmp_path, capsys):
    out = tmp_path / "gen"
    rc = cli.main([
        "generate", str(chip_file), str(selection_file), "--bits", "20000", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "raw.bits").exists()
    assert (out / "conditioned.bits").exists()
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["kind"] == "conditioned"
    capsys.readouterr()
    rc = cli.main(["test", str(out / "conditioned.bits")])
    assert rc == 0
    assert "battery verdict" in capsys.readouterr().out


def test_generate_malformed_selection_exits_2(chip_file, selection_file, tmp_path, capsys):
    valid = selection_file.read_bytes()
    (num_addresses,) = struct.unpack_from("<I", valid, 6)
    header, entries = valid[:24], [valid[i : i + 6] for i in range(24, len(valid), 6)]
    (first,) = struct.unpack_from("<I", valid, 24)
    assert len(entries) >= 2

    def edited(offset, fmt, *values, data=valid):
        out = bytearray(data)
        struct.pack_into(fmt, out, offset, *values)
        return bytes(out)

    def with_entries(rows):
        return edited(20, "<I", len(rows), data=header) + b"".join(rows)

    cases = {  # a phrase of the one-line error -> the file content that must give it
        "truncated selection file header": valid[:10],
        "entries but the file size": valid[:-3],
        "file size": valid + bytes(6),
        "out of range": edited(24, "<I", num_addresses),  # first entry's address
        "word width": edited(10, "<H", 8),
        "strictly ascending": with_entries(entries[::-1]),
        f"(address {first}) follows address {first}": with_entries(entries[:1] + entries),
        "has a zero mask": with_entries([struct.pack("<IH", 0, 0)] + entries[1:]),
        "header thresholds: need 1 <= th_l <= th_u <= N-1; got th_l=0,": edited(12, "<H", 0),
        "got th_l=15, th_u=50, N=50": edited(14, "<H", 50),
        "got th_l=30, th_u=20, N=50": edited(12, "<HH", 30, 20),
        "th_u=49, N=1": edited(16, "<I", 1),
    }
    bad = tmp_path / "bad.mrsl"
    for message, data in cases.items():
        bad.write_bytes(data)
        capsys.readouterr()
        rc = cli.main(["generate", str(chip_file), str(bad), "--bits", "256", "--out", str(tmp_path / "gen")])
        assert rc == cli.EXIT_USAGE, message
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


def test_generate_selection_for_huge_array_exits_2(chip_file, selection_file, tmp_path, capsys):
    """A header naming 0xFFFFFFF0 addresses is rejected by its count, before
    a mask for that many addresses (64 GiB) is allocated."""
    data = bytearray(selection_file.read_bytes())
    struct.pack_into("<I", data, 6, 0xFFFFFFF0)  # num_addresses
    bad = tmp_path / "huge.mrsl"
    bad.write_bytes(bytes(data))
    out = tmp_path / "gen"
    rc = cli.main(["generate", str(chip_file), str(bad), "--bits", "256", "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{0xFFFFFFF0} addresses" in err and "has 2048" in err
    assert not out.exists()


def _assert_bits_rejected(args, out, capsys):
    """``args`` with --bits just above MAX_BITS, or beyond what the u64
    header of a .bits file counts, exit 2 with one line and write nothing."""
    for bits in (cli.MAX_BITS + 1, 10**20):
        assert cli.main(args + ["--bits", str(bits), "--out", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--bits" in err and str(cli.MAX_BITS) in err, err
        assert not out.exists()


def test_generate_bits_beyond_u64_header_exits_2(chip_file, selection_file, tmp_path, capsys):
    _assert_bits_rejected(["generate", str(chip_file), str(selection_file)], tmp_path / "gen", capsys)


def test_pipeline_bits_beyond_u64_header_exits_2(config_file, tmp_path, capsys):
    _assert_bits_rejected(["pipeline", "--config", str(config_file), "--seed", "7"], tmp_path / "pipe", capsys)


@pytest.mark.parametrize("command", ["generate", "throughput"])
def test_selection_of_another_chip_exits_2(config_file, chip_file, tmp_path, capsys, command):
    big_cfg = tmp_path / "big.json"
    big_cfg.write_text(json.dumps(small_config(4096).to_dict()), encoding="utf-8")
    big_chip, big_sel = tmp_path / "big.mrtg", tmp_path / "big.mrsl"
    assert cli.main(["chip", "--config", str(big_cfg), "--seed", "7", "--out", str(big_chip)]) == 0
    assert cli.main(["characterize", str(big_chip), "--out", str(big_sel)]) == 0
    capsys.readouterr()
    extra = ["--bits", "256", "--out", str(tmp_path / "gen")] if command == "generate" else []
    assert cli.main([command, str(chip_file), str(big_sel)] + extra) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "Mbit/s" not in captured.out
    assert captured.err.count("\n") == 1
    assert "4096 addresses" in captured.err and "has 2048" in captured.err


def _chip_file_cases(valid: bytes) -> dict:
    """A phrase of the one-line error -> a malformed chip file that must give it."""
    cid_len = struct.unpack_from("<H", valid, 6)[0]
    tau = 8 + cid_len + 6  # offset of the first tau_ns entry
    nan_tau, zero_addr, bad_width, nan_field, bad_id = (bytearray(valid) for _ in range(5))
    struct.pack_into("<d", nan_tau, tau, float("nan"))
    struct.pack_into("<I", zero_addr, tau - 6, 0)
    struct.pack_into("<H", bad_width, tau - 2, 8)
    struct.pack_into("<d", nan_field, len(valid) - 16, float("nan"))  # field_threshold_mt
    bad_id[8] = 0xFF  # the first chip id byte; 0xFF starts no UTF-8 sequence
    return {
        "truncated chip file": valid[:20],
        "truncated chip file:": valid[:-1],
        "longer than its header": valid + bytes(3),
        "tau_ns must be finite": bytes(nan_tau),
        "no addresses": bytes(zero_addr),
        "word width": bytes(bad_width),
        "field_threshold_mt must be finite": bytes(nan_field),
        "chip id field is not UTF-8": bytes(bad_id),
    }


def test_malformed_chip_file_exits_2(chip_file, tmp_path, capsys):
    bad = tmp_path / "bad.mrtg"
    for message, data in _chip_file_cases(chip_file.read_bytes()).items():
        bad.write_bytes(data)
        capsys.readouterr()
        assert cli.main(["sweep", str(bad), "--n", "2"]) == cli.EXIT_USAGE, message
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, (message, err)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_field_exits_2(config_file, tmp_path, monkeypatch, capsys, value):
    out = tmp_path / "run"
    base = ["pipeline", "--config", str(config_file), "--seed", "7", "--bits", "256", "--out", str(out)]
    assert cli.main(base + [f"--field={value}"]) == cli.EXIT_USAGE
    monkeypatch.setenv("MRTG_FIELD", value)
    assert cli.main(base) == cli.EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: field magnitude") for line in err)
    assert not (out / "run.json").exists()


def test_bitstream_longer_than_its_header_exits_2(tmp_path, capsys):
    """A 2,048-bit conditioned file whose header says 1,024 bits is rejected,
    not graded on its first 1,024 bits."""
    path = tmp_path / "conditioned.bits"
    path.write_bytes(bits_file(np.random.default_rng(3).random(2048) < 0.5))
    data = bytearray(path.read_bytes())
    struct.pack_into("<Q", data, 0, 1024)
    path.write_bytes(bytes(data))
    assert cli.main(["test", str(path)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "battery" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and str(path) in err[0] and "longer than its header says" in err[0]


def test_bad_later_stream_exits_2_with_no_report(tmp_path, capsys):
    """Streams are graded as they load; a malformed second file still ends
    the run with exit 2 and writes no report."""
    good, bad = tmp_path / "good.bits", tmp_path / "bad.bits"
    good.write_bytes(bits_file(np.random.default_rng(4).random(2048) < 0.5))
    bad.write_bytes(good.read_bytes()[:-1])
    report = tmp_path / "report.txt"
    assert cli.main(["test", str(good), str(bad), "--out", str(report)]) == cli.EXIT_USAGE
    assert not report.exists()
    captured = capsys.readouterr()
    assert "battery" not in captured.out and "truncated bitstream file" in captured.err


def test_zero_bit_stream_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.bits"
    path.write_bytes(bits_file(np.zeros(0, dtype=bool)))
    assert cli.main(["test", str(path)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "battery" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and str(path) in err[0] and "no bits in file" in err[0], err


def test_stream_above_rated_size_exits_2_before_reading(tmp_path):
    """A .bits file whose header says 2**33 bits (a sparse 1 GiB payload)
    and an ASCII file of MAX_STREAM_BITS + 1 bytes each exit 2 with one
    line, read by a CLI that may map only 1 GiB, less than either payload
    unpacked."""
    resource = pytest.importorskip("resource")
    huge = tmp_path / "huge.bits"
    with open(huge, "wb") as fh:
        fh.write(struct.pack("<Q", 2**33))
        fh.truncate(8 + 2**30)
    text = tmp_path / "huge.txt"
    with open(text, "wb") as fh:
        fh.truncate(MAX_STREAM_BITS + 1)

    def one_gib():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    for path in (huge, text):
        cmd = [sys.executable, "-m", "mramtrng.cli", "test", str(path)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, preexec_fn=one_gib)
        assert proc.returncode == cli.EXIT_USAGE, proc.stderr
        err = proc.stderr.splitlines()
        assert len(err) == 1 and str(path) in err[0] and f"rated maximum of {MAX_STREAM_BITS}" in err[0], err
        assert proc.stdout == ""


def test_battery_failure_exits_4(tmp_path, capsys):
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("0" * 20000)
    other = tmp_path / "zeros2.txt"
    other.write_text("0" * 20000)
    rc = cli.main(["test", str(zeros), str(other)])
    assert rc == cli.EXIT_BATTERY_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_de_bruijn_stream_is_graded_not_rejected(tmp_path, capsys):
    """A tiled order-10 de Bruijn sequence has ApEn = ln 2 exactly, and its
    chi-squared rounds just below 0; the file is well formed, so it is
    graded (pass or fail), never refused as a usage error."""
    path = tmp_path / "db.bits"
    path.write_bytes(bits_file(np.tile(de_bruijn(10), 1024)))
    assert cli.main(["test", str(path)]) in (cli.EXIT_OK, cli.EXIT_BATTERY_FAIL)
    captured = capsys.readouterr()
    assert "battery verdict" in captured.out and captured.err == ""


def test_battery_report_to_file(tmp_path, capsys):
    stream = tmp_path / "bits.txt"
    stream.write_text("10" * 10000)
    out = tmp_path / "report.csv"
    cli.main(["test", str(stream), "--format", "csv", "--out", str(out)])
    assert out.read_text().startswith("test,passed,total")


# --- throughput -------------------------------------------------------------


def test_throughput_reference_estimate(chip_file, selection_file, capsys):
    assert cli.main(["throughput", str(chip_file), str(selection_file)]) == 0
    out = capsys.readouterr().out
    assert f"{cli.REFERENCE_T_RW_NS:.2f} ns" in out
    assert "Mbit/s" in out


@pytest.mark.parametrize("flags", [["--measured"], ["--tw", "2.5"], ["--temp", "20"], ["--field", "5"]])
def test_throughput_rejects_removed_flags(chip_file, selection_file, capsys, flags):
    """The rate model takes the reference part's times, so `throughput` has
    no timing mode and no pulse width or environment to set."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["throughput", str(chip_file), str(selection_file), *flags])
    assert exc.value.code == cli.EXIT_USAGE
    assert "Mbit/s" not in capsys.readouterr().out


# --- command-line surface ---------------------------------------------------

SUBCOMMANDS = ("chip", "sweep", "characterize", "generate", "test", "throughput", "pipeline")


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_subcommand_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: mramtrng {command}" in capsys.readouterr().out


# --- pipeline ---------------------------------------------------------------

PIPELINE_ARTIFACTS = (
    "run.json",
    "chip.mrtg",
    "sweep.csv",
    "selection.mrsl",
    "raw.bits",
    "conditioned.bits",
    "provenance.json",
    "battery.txt",
    "throughput.txt",
)


def test_pipeline_writes_all_artifacts(config_file, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "pipeline", "--config", str(config_file), "--seed", "7", "--bits", "20000",
        "--out", str(out),
    ])
    assert rc == 0
    for name in PIPELINE_ARTIFACTS:
        assert (out / name).exists(), name
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "pipeline"
    assert run["seed"] == 7
    assert len(run["config_sha256"]) == 64
    assert run["config_sha256"] in (out / "battery.txt").read_text()
    assert run["config_sha256"] in (out / "throughput.txt").read_text()


def test_pipeline_rerun_byte_identical(config_file, tmp_path):
    runs = []
    for name in ("one", "two"):
        out = tmp_path / name
        rc = cli.main([
            "pipeline", "--config", str(config_file), "--seed", "13", "--bits", "20000",
            "--out", str(out),
        ])
        assert rc == 0
        runs.append(out)
    for name in PIPELINE_ARTIFACTS:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


def test_pipeline_empty_selection_exits_3(config_file, tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main([
        "pipeline", "--config", str(config_file), "--seed", "7", "--tw", "15",
        "--th-l", "49", "--out", str(out),
    ])
    assert rc == cli.EXIT_EMPTY_SELECTION
    assert rc != cli.EXIT_BATTERY_FAIL
    assert "no cells selected" in capsys.readouterr().err
    assert (out / "run.json").exists()
    assert not (out / "selection.mrsl").exists()


@pytest.mark.parametrize("bits", ["20000", "250000"])
def test_pipeline_battery_grades_cut_sequences(config_file, tmp_path, bits):
    """battery.txt is the battery over conditioned.bits cut into 100 kbit
    sequences, the partial tail dropped, or over all of it as one sequence
    when it is shorter; the exit code follows the verdict."""
    out = tmp_path / "run"
    rc = cli.main(["pipeline", "--config", str(config_file), "--seed", "7", "--bits", bits, "--out", str(out)])
    data = (out / "conditioned.bits").read_bytes()
    (n_bits,) = struct.unpack("<Q", data[:8])
    conditioned = np.unpackbits(np.frombuffer(data[8:], dtype=np.uint8), count=n_bits).view(bool)
    step = min(cli.PIPELINE_STREAM_BITS, n_bits)
    sequences = [conditioned[i : i + step] for i in range(0, n_bits - step + 1, step)]
    # a partial tail in the larger case, one short sequence in the smaller
    assert (len(sequences), n_bits % step != 0) == {"20000": (1, False), "250000": (2, True)}[bits]
    summary = run_battery(sequences)
    body = [ln for ln in (out / "battery.txt").read_text().splitlines() if not ln.startswith("#")]
    assert body == summary.report().splitlines()
    assert rc == (cli.EXIT_OK if summary.verdict else cli.EXIT_BATTERY_FAIL)


def test_pipeline_csv_format(config_file, tmp_path):
    out = tmp_path / "run"
    rc = cli.main([
        "pipeline", "--config", str(config_file), "--seed", "7", "--bits", "20000",
        "--format", "csv", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "battery.csv").exists()
    assert not (out / "battery.txt").exists()


# SHA-256 of `pipeline --config <small_config> --seed 7 --bits 20000`; run.json
# is left out because it records the config file's path.
PIPELINE_GOLDEN_SHA256 = {
    "chip.mrtg": "b1efa0f3fb8fb3cd4ea82d33abde4cd7f42915527baf544cc207027b9db82d0d",
    "sweep.csv": "8cdbe68706f99f97620c8949080164db403bb8daf91bf107ea3fd942390a2bef",
    "selection.mrsl": "2d9ec088e4db8dd063bf5dcd51de2af07a6707ae6d7f9069859efb94c56a2b19",
    "raw.bits": "582bd3a67a1adc570965d7596ac74014484b9d459199bb1e94c52d6fa18a4b39",
    "conditioned.bits": "f20bcb1097121da1728d8a8377c1b981a451efd2d72b9aeddcddd3696515505e",
    "provenance.json": "c4b1916d706cf6030c4918817cfc39dc04c6a92c8c474acf1ac20b52131c734a",
    "battery.txt": "ef2ca83cbd4c4e1c3a0fe6b9c8fc409d294ff60c98ae1acc089e43405465ef0d",
    "throughput.txt": "747f487461c088ed63366fdbb2cc8b3a4d6748afc21d2b9d6b03237092d09fc4",
}


def test_pipeline_golden_artifacts(config_file, tmp_path):
    out = tmp_path / "run"
    rc = cli.main([
        "pipeline", "--config", str(config_file), "--seed", "7", "--bits", "20000",
        "--out", str(out),
    ])
    assert rc == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PIPELINE_GOLDEN_SHA256}
    assert digests == PIPELINE_GOLDEN_SHA256


# SHA-256 of `chip --seed 7 --out <file>` with the packaged recipe
DEFAULT_CHIP_SHA256 = "0c874ea2d25c27eeeca4d7c4ae6a6f831d801c7552f1a85b39f004f14a0580f7"


def test_default_chip_file_is_pinned(tmp_path):
    path = tmp_path / "chip.mrtg"
    assert cli.main(["chip", "--seed", "7", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_CHIP_SHA256


def test_traced_benchmark_run_installs(config_file, tmp_path):
    """perfbench/trace_child.py wraps every public layer function by name
    (and binds the signature of device.measure); a traced pipeline on the
    small recipe runs to the end and records spans of the layers."""
    root = Path(__file__).resolve().parents[1]
    result = tmp_path / "result.json"
    cmd = [
        sys.executable, str(root / "perfbench" / "trace_child.py"), str(result), "--trace", "--",
        "pipeline", "--config", str(config_file), "--seed", "7", "--bits", "20000", "--out", str(tmp_path / "run"),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(result.read_text())
    assert traced["code"] == 0
    names = {span[0] for span in traced["spans"]}
    assert {"cli.main", "characterize.sweep_tw", "extract.harvest_rounds", "sts.run_battery"} <= names


def test_traced_run_with_fold_workers_matches_untraced(tmp_path):
    """A recipe of 4,096 addresses spans two fold blocks, so where a second
    CPU is usable the fold forks a worker under the span wrappers; the traced
    run still ends as the untraced one does, records the sweep and the
    harvest, and writes the bytes of an untraced run.  Both exit 4: the one
    20,224-bit sequence fails Runs, and one sequence must pass each subtest."""
    root = Path(__file__).resolve().parents[1]
    config = tmp_path / "chip.json"
    config.write_text(json.dumps(small_config(4096).to_dict()), encoding="utf-8")
    args = ["pipeline", "--config", str(config), "--seed", "7", "--bits", "20000", "--out"]
    result, traced_out, plain_out = tmp_path / "result.json", tmp_path / "traced", tmp_path / "plain"
    cmd = [sys.executable, str(root / "perfbench" / "trace_child.py"), str(result), "--trace", "--", *args, str(traced_out)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(result.read_text())
    assert traced["code"] == cli.EXIT_BATTERY_FAIL
    assert {"characterize.sweep_tw", "extract.harvest_rounds"} <= {span[0] for span in traced["spans"]}
    assert cli.main([*args, str(plain_out)]) == cli.EXIT_BATTERY_FAIL
    names = sorted(p.name for p in plain_out.iterdir())
    assert names == sorted(p.name for p in traced_out.iterdir())
    for name in names:
        assert (traced_out / name).read_bytes() == (plain_out / name).read_bytes(), name


@pytest.mark.parametrize("tw", [None, "5.0", "3.0"])
def test_pipeline_matches_characterize_then_generate(config_file, tmp_path, tw):
    """The pipeline's selection and streams equal what the single-stage
    commands write from its chip: at the chosen width, at another sweep
    width, and at a width the sweep did not visit."""
    pipe = tmp_path / "pipe"
    args = ["pipeline", "--config", str(config_file), "--seed", "7", "--bits", "20000", "--out", str(pipe)]
    assert cli.main(args + (["--tw", tw] if tw else [])) == 0
    tw = str(json.loads((pipe / "run.json").read_text())["t_w_ns"])
    stages = tmp_path / "stages"
    stages.mkdir()
    chip = str(pipe / "chip.mrtg")
    assert cli.main(["characterize", chip, "--tw", tw, "--out", str(stages / "selection.mrsl")]) == 0
    assert cli.main([
        "generate", chip, str(stages / "selection.mrsl"), "--tw", tw, "--bits", "20000", "--out", str(stages),
    ]) == 0
    for name in ("selection.mrsl", "raw.bits", "conditioned.bits", "provenance.json"):
        data = (pipe / name).read_bytes()
        assert data and data == (stages / name).read_bytes(), name
