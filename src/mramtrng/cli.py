"""Command-line front end tying the pipeline together.

Subcommands create chips from a process recipe, sweep write timings,
characterize and select cells, generate conditioned bitstreams, grade
streams with the statistical battery, and report throughput.  Every
stochastic step derives from one user-supplied seed, so any artifact can
be regenerated from its recorded run configuration.

Exit codes: 0 success, 2 usage error, 3 empty selection, 4 battery
failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .characterize import (
    CellSelection,
    SelectionThresholds,
    classify_fold,
    export_selection_csv,
    fold_flips,
    load_selection,
    save_selection,
    select_cells,
    selection_digest,
    suggest_th_l,
    sweep_tw,
    choose_tw,
)
from .device import (
    ChipConfig,
    ChipModel,
    DataPattern,
    Environment,
    TimingParams,
    create_chip,
    default_config,
    fold_campaigns,
    load_chip,
    save_chip,
)
from .extract import (
    BlockParams,
    condition,
    harvest,
    load_bitstream,
    required_rounds,
    save_bitstream,
    save_provenance,
)
from .sts import BatteryConfig, import_sts, run_battery
from .throughput import (
    REFERENCE_T_HASH_NS,
    REFERENCE_T_RW_NS,
    ThroughputInputs,
    format_estimate,
    measure_pipeline_times,
    throughput,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EMPTY_SELECTION = 3
EXIT_BATTERY_FAIL = 4
EXIT_IO = 5

ENV_PREFIX = "MRTG_"

# conditioned bits produced by `pipeline` are graded in slices this long
PIPELINE_STREAM_BITS = 100_000


class UsageError(Exception):
    """Bad flag values or combinations; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one invocation."""

    command: str
    config_path: str
    config_sha256: str
    seed: int | None
    t_w_ns: float | None
    n: int
    th_l: int | None
    th_u: int | None
    temperature_c: float
    field_mt: float
    target_bits: int | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_digest(config: ChipConfig) -> str:
    """SHA-256 over the canonical JSON form of a chip recipe."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name.upper().replace("-", "_"))


def _opt(args: argparse.Namespace, name: str, cast, default=None):
    """Flag value if given, else MRTG_<NAME> environment override, else default."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    raw = _env(name)
    if raw is not None:
        try:
            return cast(raw)
        except ValueError as exc:
            raise UsageError(f"bad {ENV_PREFIX}{name.upper()} value {raw!r}") from exc
    return default


def _load_config(args: argparse.Namespace) -> tuple[ChipConfig, str]:
    path = _opt(args, "config", str)
    if path is None:
        return default_config(), "<packaged default>"
    return ChipConfig.from_json_file(path), str(path)


def _environment(args: argparse.Namespace) -> Environment:
    return Environment(
        temperature_c=_opt(args, "temp", float, 26.0),
        field_mt=_opt(args, "field", float, 0.0),
    )


def _format(args: argparse.Namespace) -> str:
    fmt = _opt(args, "format", str, "text")
    if fmt not in ("text", "csv"):
        raise UsageError(f"--format must be 'text' or 'csv', got {fmt!r}")
    return fmt


def _thresholds(args: argparse.Namespace, n: int) -> SelectionThresholds:
    th_l = _opt(args, "th_l", int)
    if th_l is None:
        th_l = suggest_th_l(n)
    return SelectionThresholds(th_l=th_l, th_u=_opt(args, "th_u", int))


def _require_seed(args: argparse.Namespace) -> int:
    seed = _opt(args, "seed", int)
    if seed is None:
        raise UsageError("--seed is required (or set MRTG_SEED)")
    if not 0 <= seed < 2**64:
        raise UsageError("--seed must be an integer in [0, 2**64)")
    return seed


def _run_config(args: argparse.Namespace, command: str, config: ChipConfig, config_path: str, *, seed=None, tw=None, n=50, th: SelectionThresholds | None = None, bits=None) -> RunConfig:
    env = _environment(args)
    return RunConfig(
        command=command,
        config_path=config_path,
        config_sha256=config_digest(config),
        seed=seed,
        t_w_ns=tw,
        n=n,
        th_l=th.th_l if th else None,
        th_u=th.th_u if th else None,
        temperature_c=env.temperature_c,
        field_mt=env.field_mt,
        target_bits=bits,
    )


def _report_header(title: str, chip: ChipModel, digest: str) -> str:
    return (
        f"# {title}\n"
        f"# chip: {chip.chip_id}  seed: {chip.seed}\n"
        f"# config sha256: {digest}\n"
    )


def _chip_and_selection(args: argparse.Namespace) -> tuple[ChipModel, CellSelection]:
    """The chip and selection files named on the command line, which must
    describe arrays of the same size."""
    chip = load_chip(args.chip)
    sel = load_selection(args.selection)
    if sel.num_addresses != chip.num_addresses:
        raise ValueError(
            f"{args.selection}: selection is for {sel.num_addresses} addresses, "
            f"but chip {args.chip} has {chip.num_addresses}"
        )
    return chip, sel


def _generate_into(out: Path, chip: ChipModel, sel: CellSelection, tw: float, bits: int, env: Environment):
    """Harvest and condition, then write raw.bits, conditioned.bits and
    provenance.json into ``out``; returns (raw, conditioned)."""
    block = BlockParams()
    rounds = required_rounds(bits, sel.num_randcell, block)
    raw = harvest(chip, sel, rounds=rounds, timing=TimingParams.reduced(tw), env=env)
    conditioned = condition(raw, block)
    save_bitstream(raw, out / "raw.bits")
    save_bitstream(conditioned, out / "conditioned.bits")
    save_provenance(conditioned, out / "provenance.json")
    return raw, conditioned


def _reference_inputs(sel: CellSelection) -> ThroughputInputs:
    """Rate-model inputs from the reference part timings."""
    return ThroughputInputs(
        t_rw_ns=REFERENCE_T_RW_NS,
        t_hash_ns=REFERENCE_T_HASH_NS,
        bits_per_rand_addr=sel.bits_per_rand_addr,
    )


def _battery_report(streams, fmt: str):
    """Run the battery; returns (summary, report body in ``fmt``)."""
    summary = run_battery(streams, BatteryConfig())
    return summary, summary.to_csv() if fmt == "csv" else summary.report() + "\n"


# --- subcommands ------------------------------------------------------------


def cmd_chip(args: argparse.Namespace) -> int:
    config, _ = _load_config(args)
    seed = _require_seed(args)
    out = _opt(args, "out", str)
    if out is None:
        raise UsageError("--out is required for `chip`")
    chip = create_chip(config, seed=seed)
    save_chip(chip, out)
    print(f"wrote {out}: {chip.chip_id}, {chip.num_addresses} addresses, seed {seed}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    chip = load_chip(args.chip)
    n = _opt(args, "n", int, 50)
    env = _environment(args)
    result = sweep_tw(chip, env=env, n=n)
    best = choose_tw(result)
    for p in result.points:
        print(f"t_w = {p.t_w_ns:6.2f} ns   error fraction = {p.error_fraction:.4f}")
    print(f"harvest pulse width: {best} ns")
    out = _opt(args, "out", str)
    if out is not None:
        result.to_csv(out)
        print(f"wrote {out}")
    return EXIT_OK


def cmd_characterize(args: argparse.Namespace) -> int:
    chip = load_chip(args.chip)
    n = _opt(args, "n", int, 50)
    tw = _opt(args, "tw", float, 2.5)
    env = _environment(args)
    (fold,) = fold_campaigns(chip, DataPattern.solid(0), [TimingParams.reduced(tw)], env, n=n)
    taxonomy = classify_fold(fold)
    sel = select_cells(fold_flips(fold), _thresholds(args, n))
    print(
        f"t_w = {tw} ns, N = {n}: error fraction {fold.error_fraction():.4f}, "
        f"invariant cells {100 * taxonomy.invariant_fraction:.2f}%"
    )
    print(
        f"thresholds [{sel.th_l}, {sel.th_u}]: {sel.num_randcell} random cells in "
        f"{sel.num_rand_addresses} addresses "
        f"({100 * sel.rand_addr_fraction:.3f}% of addresses, "
        f"{sel.bits_per_rand_addr:.2f} bits/address)"
    )
    if sel.empty:
        print("no cells selected at these thresholds", file=sys.stderr)
        return EXIT_EMPTY_SELECTION
    out = _opt(args, "out", str)
    if out is not None:
        if _format(args) == "csv":
            export_selection_csv(sel, out)
        else:
            save_selection(sel, out)
        print(f"wrote {out}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    chip, sel = _chip_and_selection(args)
    if sel.empty:
        print("selection file contains no cells", file=sys.stderr)
        return EXIT_EMPTY_SELECTION
    tw = _opt(args, "tw", float, 2.5)
    bits = _opt(args, "bits", int, 1_000_000)
    out = Path(_opt(args, "out", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    raw, conditioned = _generate_into(out, chip, sel, tw, bits, _environment(args))
    print(
        f"harvested {len(raw)} raw bits over {raw.provenance['rounds']} rounds, "
        f"conditioned to {len(conditioned)} bits"
    )
    print(f"wrote raw.bits, conditioned.bits, provenance.json to {out}")
    return EXIT_OK


def cmd_test(args: argparse.Namespace) -> int:
    seqs = []
    for path in args.streams:
        p = Path(path)
        if p.suffix in (".bits", ".bin"):
            seqs.append(load_bitstream(p, kind="raw").bits)
        else:
            seqs.append(import_sts(p).bits)
    summary, body = _battery_report(seqs, _format(args))
    out = _opt(args, "out", str)
    if out is not None:
        Path(out).write_text(body, encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(body, end="")
    print(f"battery verdict: {'PASS' if summary.verdict else 'FAIL'}")
    return EXIT_OK if summary.verdict else EXIT_BATTERY_FAIL


def cmd_throughput(args: argparse.Namespace) -> int:
    chip, sel = _chip_and_selection(args)
    if sel.empty:
        print("selection file contains no cells", file=sys.stderr)
        return EXIT_EMPTY_SELECTION
    if args.measured:
        tw = _opt(args, "tw", float, 2.5)
        inputs = measure_pipeline_times(chip, sel, TimingParams.reduced(tw), _environment(args))
    else:
        inputs = _reference_inputs(sel)
    estimate = throughput(inputs)
    print(format_estimate(inputs, estimate))
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    config, config_path = _load_config(args)
    seed = _require_seed(args)
    out = Path(_opt(args, "out", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    n = _opt(args, "n", int, 50)
    bits = _opt(args, "bits", int, 1_000_000)
    env = _environment(args)
    fmt = _format(args)
    digest = config_digest(config)

    chip = create_chip(config, seed=seed)
    save_chip(chip, out / "chip.mrtg")

    sweep = sweep_tw(chip, env=env, n=n)
    sweep.to_csv(out / "sweep.csv")
    tw = _opt(args, "tw", float)
    if tw is None:
        tw = choose_tw(sweep)
    print(f"harvest pulse width: {tw} ns")

    # the sweep already folded the campaign at the width it picked
    if tw == choose_tw(sweep):
        fc = sweep.flips
    else:
        (fold,) = fold_campaigns(chip, DataPattern.solid(0), [TimingParams.reduced(tw)], env, n=n)
        fc = fold_flips(fold)
    thresholds = _thresholds(args, n)
    sel = select_cells(fc, thresholds)
    run_cfg = _run_config(
        args, "pipeline", config, config_path, seed=seed, tw=tw, n=n, th=thresholds, bits=bits
    )
    (out / "run.json").write_text(
        json.dumps(run_cfg.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if sel.empty:
        print(
            f"no cells selected at thresholds [{thresholds.th_l}, "
            f"{thresholds.th_u if thresholds.th_u is not None else n - 1}]",
            file=sys.stderr,
        )
        return EXIT_EMPTY_SELECTION
    save_selection(sel, out / "selection.mrsl")
    print(
        f"selected {sel.num_randcell} cells in {sel.num_rand_addresses} addresses "
        f"({sel.bits_per_rand_addr:.2f} bits/address, digest {selection_digest(sel)[:16]})"
    )

    _, conditioned = _generate_into(out, chip, sel, tw, bits, env)

    n_streams = max(1, len(conditioned) // PIPELINE_STREAM_BITS)
    stream_len = PIPELINE_STREAM_BITS if len(conditioned) >= PIPELINE_STREAM_BITS else len(conditioned)
    streams = [
        conditioned.bits[i * stream_len : (i + 1) * stream_len] for i in range(n_streams)
    ]
    summary, body = _battery_report(streams, fmt)
    name = "battery.csv" if fmt == "csv" else "battery.txt"
    (out / name).write_text(_report_header("statistical battery", chip, digest) + body, encoding="utf-8")

    inputs = _reference_inputs(sel)
    estimate = throughput(inputs)
    (out / "throughput.txt").write_text(
        _report_header("throughput estimate", chip, digest)
        + format_estimate(inputs, estimate)
        + "\n",
        encoding="utf-8",
    )

    print(f"battery verdict: {'PASS' if summary.verdict else 'FAIL'}")
    print(f"artifacts in {out}")
    return EXIT_OK if summary.verdict else EXIT_BATTERY_FAIL


# --- argument parsing -------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    if "config" in names:
        p.add_argument("--config", help="chip recipe JSON (default: packaged recipe)")
    if "seed" in names:
        p.add_argument("--seed", type=int, help="master seed (required)")
    if "tw" in names:
        p.add_argument("--tw", type=float, help="write pulse width in ns")
    if "n" in names:
        p.add_argument("--n", type=int, help="measurement rounds (default 50)")
    if "th" in names:
        p.add_argument("--th-l", dest="th_l", type=int, help="lower flip-count threshold")
        p.add_argument("--th-u", dest="th_u", type=int, help="upper flip-count threshold (default N-1)")
    if "env" in names:
        p.add_argument("--temp", type=float, help="ambient temperature in C (default 26)")
        p.add_argument("--field", type=float, help="external field in mT (default 0)")
    if "out" in names:
        p.add_argument("--out", help="output file or directory")
    if "format" in names:
        p.add_argument("--format", choices=("text", "csv"), help="report format (default text)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mramtrng",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chip", help="sample a chip from a recipe and write it to disk")
    _add_common(p, "config", "seed", "out")
    p.set_defaults(func=cmd_chip)

    p = sub.add_parser("sweep", help="error fraction across reduced pulse widths")
    p.add_argument("chip", help="chip file")
    _add_common(p, "n", "env", "out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("characterize", help="classify cells and select random ones")
    p.add_argument("chip", help="chip file")
    _add_common(p, "tw", "n", "th", "env", "out", "format")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("generate", help="harvest raw bits and condition them")
    p.add_argument("chip", help="chip file")
    p.add_argument("selection", help="cell-selection file")
    p.add_argument("--bits", type=int, help="conditioned bits to produce (default 1000000)")
    _add_common(p, "tw", "env", "out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("test", help="run the statistical battery over bitstream files")
    p.add_argument("streams", nargs="+", help="bitstream files (.bits/.bin binary, else ASCII)")
    _add_common(p, "out", "format")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("throughput", help="generation-rate estimate for a selection")
    p.add_argument("chip", help="chip file")
    p.add_argument("selection", help="cell-selection file")
    p.add_argument(
        "--measured",
        action="store_true",
        help="wall-clock this package's own pipeline instead of using reference part timings",
    )
    _add_common(p, "tw", "env")
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("pipeline", help="chip -> sweep -> select -> generate -> battery -> throughput")
    _add_common(p, "config", "seed", "tw", "n", "th", "env", "out", "format")
    p.add_argument("--bits", type=int, help="conditioned bits to produce (default 1000000)")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, PermissionError, IsADirectoryError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
