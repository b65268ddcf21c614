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

import numpy as np

from .characterize import (
    CellSelection,
    SelectionThresholds,
    TimingSweepResult,
    export_selection_csv,
    load_selection,
    save_selection,
    select_cells,
    selection_digest,
    suggest_th_l,
    sweep_tw,
    choose_tw,
)
from .device import (
    CampaignFold,
    ChipConfig,
    ChipModel,
    Environment,
    TimingParams,
    create_chip,
    default_config,
    fold_campaigns,
    load_chip,
    save_chip,
)
from .extract import (
    B_LEN,
    D_LEN,
    digest_blocks,
    harvest_provenance,
    harvest_rounds,
    open_bitstream,
    plan_harvest,
    read_bitstream,
    required_rounds,
    save_provenance,
)
from .parallel import forked
from .sts import MAX_STREAM_BITS, import_sts, run_battery
from .throughput import (
    REFERENCE_T_HASH_NS,
    REFERENCE_T_RW_NS,
    ThroughputInputs,
    format_estimate,
    throughput,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EMPTY_SELECTION = 3
EXIT_BATTERY_FAIL = 4
EXIT_IO = 5

ENV_PREFIX = "MRTG_"

# rated maximum of --n: fold time grows linearly in the rounds, and at this
# many a default-chip pipeline takes seconds, not minutes (see the --n help)
MAX_ROUNDS = 1000

# rated maximum of --bits: time and file sizes grow linearly in the bits,
# and at this many a default-chip pipeline takes seconds and about 90 MB,
# not minutes and gigabytes (see the --bits help)
MAX_BITS = 10**8

# `pipeline` grades its conditioned output as sequences this long (or as
# one sequence, when it has fewer bits)
PIPELINE_STREAM_BITS = 100_000

# raw bits per harvest unit of `generate` and `pipeline` (about 2 Mbit: 259
# rounds of 8,082 cells), a whole number of 512-bit blocks; a unit's bool rows
# and packed bytes are what each process holds, whatever the bits asked for,
# and the 1 Mbit default is one unit, so it forks no harvest worker
HARVEST_CHUNK_BITS = 1 << 21


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
    """--th-l and --th-u, checked against ``n`` rounds before any work starts."""
    th_l = _opt(args, "th_l", int)
    if th_l is None:
        th_l = suggest_th_l(n)
    thresholds = SelectionThresholds(th_l=th_l, th_u=_opt(args, "th_u", int))
    thresholds.resolve(n)
    return thresholds


def _rounds(args: argparse.Namespace, least: int) -> int:
    """--n, checked against [least, MAX_ROUNDS] before any work starts."""
    n = _opt(args, "n", int, 50)
    if not least <= n <= MAX_ROUNDS:
        raise UsageError(f"--n must be an integer in [{least}, {MAX_ROUNDS}], got {n}")
    return n


def _bits(args: argparse.Namespace) -> int:
    """--bits, checked against [1, MAX_BITS] before any file is written."""
    bits = _opt(args, "bits", int, 1_000_000)
    if not 1 <= bits <= MAX_BITS:
        raise UsageError(f"--bits must be an integer in [1, {MAX_BITS}], got {bits}")
    return bits


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
    return chip, load_selection(args.selection, chip.num_addresses)


def _fold_and_select(
    chip: ChipModel,
    timing: TimingParams,
    env: Environment,
    n: int,
    thresholds: SelectionThresholds,
    sweep: TimingSweepResult | None = None,
) -> tuple[CampaignFold, CellSelection]:
    """The campaign at ``timing``, folded, and the cells it selects;
    the fold of ``sweep`` is reused when the sweep visited its width."""
    fold = next((f for f in sweep.folds if f.t_w_ns == timing.t_w_ns), None) if sweep else None
    if fold is None:
        (fold,) = fold_campaigns(chip, [timing], env, n=n)
    return fold, select_cells(fold.flip_counts, n, thresholds)


def _generate_into(
    out: Path,
    chip: ChipModel,
    sel: CellSelection,
    timing: TimingParams,
    bits: int,
    env: Environment,
    *,
    unit_bits: int | None = None,
) -> tuple[int, int, int]:
    """Harvest, condition and write raw.bits, conditioned.bits and
    provenance.json into ``out``; returns (rounds, raw bits, conditioned bits).

    The raw stream is cut into units of ``unit_bits`` raw bits, a whole
    number of B_LEN-bit blocks (by default HARVEST_CHUNK_BITS, or more when
    one round has more cells), and the units are shared between processes
    (parallel.forked).  A unit draws the rounds it overlaps, keeps its own
    bits, packs them, hashes its whole blocks with digest_blocks, and
    returns both, which this process writes in unit order; only the last
    unit can end in a partial byte or block, which goes to raw.bits and is
    not conditioned.  The files are the same bytes for any unit size and
    process count.  Both headers are written first, since the
    bit counts follow from ``bits`` and the selection, and the provenance
    record is built once, at the end.
    """
    cells = sel.num_randcell
    rounds = required_rounds(bits, cells)
    raw_bits = rounds * cells
    cond_bits = raw_bits // B_LEN * D_LEN
    if unit_bits is None:
        unit_bits = max(HARVEST_CHUNK_BITS, -(-cells // B_LEN) * B_LEN)
    plan = plan_harvest(chip, sel, timing, env)

    def harvest_unit(u: int) -> tuple[np.ndarray, bytes]:
        lo, hi = u * unit_bits, min((u + 1) * unit_bits, raw_bits)
        first = lo // cells
        drawn = harvest_rounds(plan, -(-hi // cells) - first, start_round=first)
        packed = np.packbits(drawn[lo - first * cells : hi - first * cells])
        # whole bytes only: a zero-padded last byte must not complete a block
        return packed, digest_blocks(packed[: (hi - lo) // 8])

    units = range(-(-raw_bits // unit_bits))
    # fork first: a worker must not inherit the files' buffered writers
    with forked(units, harvest_unit) as results, open_bitstream(
        out / "raw.bits", raw_bits
    ) as raw_fh, open_bitstream(out / "conditioned.bits", cond_bits) as cond_fh:
        for packed, digests in results:
            raw_fh.write(packed)
            cond_fh.write(digests)
    save_provenance(out / "provenance.json", cond_bits, harvest_provenance(chip, sel, timing, env, rounds))
    return rounds, raw_bits, cond_bits


def _reference_inputs(sel: CellSelection) -> ThroughputInputs:
    """Rate-model inputs from the reference part timings."""
    return ThroughputInputs(
        t_rw_ns=REFERENCE_T_RW_NS,
        t_hash_ns=REFERENCE_T_HASH_NS,
        bits_per_rand_addr=sel.bits_per_rand_addr,
    )


def _battery_report(streams, fmt: str):
    """Run the battery; returns (summary, report body in ``fmt``)."""
    summary = run_battery(streams)
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
    n = _rounds(args, 1)
    chip = load_chip(args.chip)
    env = _environment(args)
    result = sweep_tw(chip, env=env, n=n)
    best = choose_tw(result)
    for f in result.folds:
        print(f"t_w = {f.t_w_ns:6.2f} ns   error fraction = {f.error_fraction():.4f}")
    print(f"harvest pulse width: {best} ns")
    out = _opt(args, "out", str)
    if out is not None:
        result.to_csv(out)
        print(f"wrote {out}")
    return EXIT_OK


def cmd_characterize(args: argparse.Namespace) -> int:
    # one round has no flips to count, so no cell can be selected from it
    n = _rounds(args, 2)
    thresholds = _thresholds(args, n)
    fmt = _format(args)
    timing = TimingParams(_opt(args, "tw", float, 2.5))
    chip = load_chip(args.chip)
    fold, sel = _fold_and_select(chip, timing, _environment(args), n, thresholds)
    print(
        f"t_w = {timing.t_w_ns} ns, N = {n}: error fraction {fold.error_fraction():.4f}, "
        f"invariant cells {100 * fold.invariant_fraction():.2f}%"
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
        if fmt == "csv":
            export_selection_csv(sel, fold.flip_counts, out)
        else:
            save_selection(sel, out)
        print(f"wrote {out}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    chip, sel = _chip_and_selection(args)
    if sel.empty:
        print("selection file contains no cells", file=sys.stderr)
        return EXIT_EMPTY_SELECTION
    timing = TimingParams(_opt(args, "tw", float, 2.5))
    bits = _bits(args)
    out = Path(_opt(args, "out", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    rounds, raw_bits, cond_bits = _generate_into(out, chip, sel, timing, bits, _environment(args))
    print(f"harvested {raw_bits} raw bits over {rounds} rounds, conditioned to {cond_bits} bits")
    print(f"wrote raw.bits, conditioned.bits, provenance.json to {out}")
    return EXIT_OK


def cmd_test(args: argparse.Namespace) -> int:
    fmt = _format(args)
    # each file is one sequence, read as the battery reaches it, so one
    # stream is in memory at a time
    seqs = (
        next(read_bitstream(p)) if p.suffix in (".bits", ".bin") else import_sts(p)
        for p in map(Path, args.streams)
    )
    summary, body = _battery_report(seqs, fmt)
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
    inputs = _reference_inputs(sel)
    estimate = throughput(inputs)
    print(format_estimate(inputs, estimate))
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    config, config_path = _load_config(args)
    seed = _require_seed(args)
    bits = _bits(args)
    n = _rounds(args, 2)
    thresholds = _thresholds(args, n)
    tw = _opt(args, "tw", float)
    timing = TimingParams(tw) if tw is not None else None
    env = _environment(args)
    fmt = _format(args)
    out = Path(_opt(args, "out", str, "."))
    out.mkdir(parents=True, exist_ok=True)
    digest = config_digest(config)

    chip = create_chip(config, seed=seed)
    save_chip(chip, out / "chip.mrtg")

    sweep = sweep_tw(chip, env=env, n=n)
    sweep.to_csv(out / "sweep.csv")
    if timing is None:
        timing = TimingParams(choose_tw(sweep))
    print(f"harvest pulse width: {timing.t_w_ns} ns")

    _, sel = _fold_and_select(chip, timing, env, n, thresholds, sweep)
    run_cfg = _run_config(
        args, "pipeline", config, config_path, seed=seed, tw=timing.t_w_ns, n=n, th=thresholds, bits=bits
    )
    (out / "run.json").write_text(
        json.dumps(run_cfg.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if sel.empty:
        print(f"no cells selected at thresholds [{sel.th_l}, {sel.th_u}]", file=sys.stderr)
        return EXIT_EMPTY_SELECTION
    save_selection(sel, out / "selection.mrsl")
    print(
        f"selected {sel.num_randcell} cells in {sel.num_rand_addresses} addresses "
        f"({sel.bits_per_rand_addr:.2f} bits/address, digest {selection_digest(sel)[:16]})"
    )

    *_, cond_bits = _generate_into(out, chip, sel, timing, bits, env)
    streams = read_bitstream(out / "conditioned.bits", min(PIPELINE_STREAM_BITS, cond_bits))
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
        p.add_argument(
            "--n",
            type=int,
            help=f"measurement rounds (default 50, at most {MAX_ROUNDS}; the worst case, pipeline --n "
            f"{MAX_ROUNDS} with a --tw the sweep did not visit, took 16-18 s on 2 CPUs and 27 s on 1)",
        )
    if "th" in names:
        p.add_argument("--th-l", dest="th_l", type=int, help="lower flip-count threshold")
        p.add_argument("--th-u", dest="th_u", type=int, help="upper flip-count threshold (default N-1)")
    if "env" in names:
        p.add_argument("--temp", type=float, help="ambient temperature in C (default 26)")
        p.add_argument("--field", type=float, help="external field in mT (default 0)")
    if "bits" in names:
        p.add_argument(
            "--bits",
            type=int,
            help=f"conditioned bits to produce (default 1000000, at most {MAX_BITS}; on 2 CPUs, --bits "
            f"{MAX_BITS} took 2.1-2.6 s and 72 MB of memory in generate, 4.2-5.3 s and 90 MB in "
            f"pipeline --seed 7)",
        )
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
    _add_common(p, "bits", "tw", "env", "out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("test", help="run the statistical battery over bitstream files")
    p.add_argument(
        "streams",
        nargs="+",
        help=f"bitstream files (.bits/.bin binary, else ASCII), each one sequence of at most {MAX_STREAM_BITS} "
        f"bits (ASCII: bytes); the 200005254-bit raw.bits of generate --bits {MAX_BITS} from the seed-7 "
        f"default chip took 6.6-7.5 s and 2.3 GB of memory on 2 CPUs",
    )
    _add_common(p, "out", "format")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("throughput", help="generation-rate estimate for a selection")
    p.add_argument("chip", help="chip file")
    p.add_argument("selection", help="cell-selection file")
    p.set_defaults(func=cmd_throughput)

    p = sub.add_parser("pipeline", help="chip -> sweep -> select -> generate -> battery -> throughput")
    _add_common(p, "config", "seed", "tw", "n", "th", "env", "out", "format", "bits")
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
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
