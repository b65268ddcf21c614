"""Subcommand behavior, exit codes, environment overrides, artifact determinism."""

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import small_config
from mramtrng import characterize, cli
from mramtrng.device import default_config, load_chip


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


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


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

    def stub_fold(chip, pattern, timings, env=None, n=50):
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

    def stub_fold(chip, pattern, timings, env=None, n=50):
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


def test_characterize_csv_export(chip_file, tmp_path):
    out = tmp_path / "sel.csv"
    assert cli.main(["characterize", str(chip_file), "--format", "csv", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("address")


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
    bad_addr, bad_width = bytearray(valid), bytearray(valid)
    struct.pack_into("<I", bad_addr, 24, num_addresses)  # first entry's address
    struct.pack_into("<H", bad_width, 10, 8)
    cases = {  # a phrase of the one-line error -> the file content that must give it
        "truncated selection file header": valid[:10],
        "entries but the file size": valid[:-3],
        "file size": valid + bytes(6),
        "out of range": bytes(bad_addr),
        "word width": bytes(bad_width),
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


def test_generate_bits_beyond_u64_header_exits_2(chip_file, selection_file, tmp_path, capsys):
    out = tmp_path / "gen"
    rc = cli.main(["generate", str(chip_file), str(selection_file), "--bits", str(10**20), "--out", str(out)])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "raw bits" in err
    assert not out.exists()


def test_pipeline_bits_beyond_u64_header_exits_2(config_file, tmp_path, capsys):
    out = tmp_path / "pipe"
    rc = cli.main([
        "pipeline", "--config", str(config_file), "--seed", "7", "--bits", str(10**20), "--out", str(out),
    ])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "raw bits" in err
    assert not out.exists()


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
    nan_tau, zero_addr, bad_width, nan_field = (bytearray(valid) for _ in range(4))
    struct.pack_into("<d", nan_tau, tau, float("nan"))
    struct.pack_into("<I", zero_addr, tau - 6, 0)
    struct.pack_into("<H", bad_width, tau - 2, 8)
    struct.pack_into("<d", nan_field, len(valid) - 16, float("nan"))  # field_threshold_mt
    return {
        "truncated chip file": valid[:20],
        "truncated chip file:": valid[:-1],
        "longer than its header": valid + bytes(3),
        "tau_ns must be finite": bytes(nan_tau),
        "no addresses": bytes(zero_addr),
        "word width": bytes(bad_width),
        "field_threshold_mt must be finite": bytes(nan_field),
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


def test_battery_failure_exits_4(tmp_path, capsys):
    zeros = tmp_path / "zeros.txt"
    zeros.write_text("0" * 20000)
    other = tmp_path / "zeros2.txt"
    other.write_text("0" * 20000)
    rc = cli.main(["test", str(zeros), str(other)])
    assert rc == cli.EXIT_BATTERY_FAIL
    assert "FAIL" in capsys.readouterr().out


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


def test_throughput_measured_mode(chip_file, selection_file, capsys):
    assert cli.main(["throughput", str(chip_file), str(selection_file), "--measured"]) == 0
    out = capsys.readouterr().out
    assert "Mbit/s" in out
    assert f"{cli.REFERENCE_T_RW_NS:.2f} ns" not in out


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
    "battery.txt": "a8f9eaee5c12389ac6a831e5b2b4883b16382b61e9eeb2348df09eeea3100731",
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
    run still exits 0, records the sweep and the harvest, and writes the
    bytes of an untraced run."""
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
    assert traced["code"] == 0
    assert {"characterize.sweep_tw", "extract.harvest_rounds"} <= {span[0] for span in traced["spans"]}
    assert cli.main([*args, str(plain_out)]) == 0
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
