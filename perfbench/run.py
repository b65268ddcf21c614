#!/usr/bin/env python3
"""Benchmark of the mramtrng command line: three workloads, end-to-end metrics
and a traced per-layer run.

    python3 perfbench/run.py --workload {pipeline,generate,grade} \
        [--seed 7] [--seconds 32] [--trace 0|1]

The program is imported from the ``src`` directory of the checkout this file
sits in.  Each workload's inputs are made from ``--seed``; its timed
operation, one CLI invocation in a fresh interpreter, is repeated for about
``--seconds`` seconds.  With ``--trace 0`` the end-to-end metrics are
reported, with ``--trace 1`` the per-layer metrics of a traced in-process
run.  Outputs are checked against perfbench/oracle.py outside the timed
region.  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names and units are
those of BENCHMARK.json.  perfbench/README.md says what each one is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import oracle
from trace_child import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# the console-script entry point, spelled out so the checkout need not be installed
ENTRY = "import sys; from mramtrng.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_TIMER = "import time; t = time.perf_counter(); import mramtrng.cli; print(time.perf_counter() - t)"
SETUP_IMPORTS = 11

GENERATE_BITS = 32_000_000
GRADE_STREAMS = 16
GRADE_STREAM_BITS = 1_000_000

# calibration windows of acceptance criterion 1, (low, high) error fraction per pulse width
SWEEP_WINDOWS = {2.5: (0.2559, 0.3730), 5.0: (0.0, 0.05), 10.0: (0.0, 0.01), 15.0: (0.0, 0.001)}
# a sweep point may differ from the model's expectation by this much (> 10 sigma at 50 x 1 Mb)
SWEEP_TOLERANCE = 1e-3
SAMPLED_CELLS = 64
SAMPLED_BITS = 256


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, int]:
    """Run a command to its end: (wall seconds, peak RSS in MB, exit code)."""
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli(args: list, cwd: Path, log: Path) -> tuple[float, float, int]:
    return spawn([sys.executable, "-c", ENTRY, *map(str, args)], cwd, log)


def cli_ok(args: list, work: Path) -> None:
    log = work / "prepare.log"
    _, _, code = cli(args, work, log)
    if code != 0:
        raise RuntimeError(f"input preparation `mramtrng {' '.join(map(str, args))}` exited {code}:\n{log.read_text()}")


def import_seconds(samples: int) -> float:
    """Median time a fresh interpreter takes to import mramtrng.cli.

    A first, untimed import writes the bytecode cache, which an installed
    package already has.
    """
    run = lambda: subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER], env=child_env(), capture_output=True, text=True, check=True
    )
    run()
    return statistics.median(float(run().stdout) for _ in range(samples)) if samples else 0.0


def fingerprint(out: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(out.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


# --- workloads ---------------------------------------------------------------


class Workload:
    """Inputs made once from the seed, the timed CLI arguments, and the output checks."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.chip, self.sel = work / "chip.mrtg", work / "sel.mrsl"
        self.streams: list[Path] = []
        if name in ("generate", "grade"):
            cli_ok(["chip", "--seed", seed, "--out", self.chip], work)
            cli_ok(["characterize", self.chip, "--out", self.sel], work)
        if name == "grade":
            cli_ok(["generate", self.chip, self.sel, "--bits", GRADE_STREAMS * GRADE_STREAM_BITS, "--out", work / "gen"], work)
            n_bits, payload = oracle.read_bits(work / "gen" / "conditioned.bits")
            step = GRADE_STREAM_BITS // 8
            if n_bits < GRADE_STREAMS * GRADE_STREAM_BITS:
                raise RuntimeError(f"generate wrote {n_bits} bits, fewer than asked for")
            for i in range(GRADE_STREAMS):
                path = work / f"stream{i:02d}.bits"
                oracle.write_bits(path, GRADE_STREAM_BITS, payload[i * step : (i + 1) * step])
                self.streams.append(path)

    def argv(self, out: Path) -> list:
        if self.name == "pipeline":
            return ["pipeline", "--seed", self.seed, "--out", out]
        if self.name == "generate":
            return ["generate", self.chip, self.sel, "--bits", GENERATE_BITS, "--out", out]
        return ["test", *self.streams, "--out", out / "report.txt"]

    def product_bits(self, out: Path) -> int:
        """Conditioned bits written, or bits graded."""
        if self.name == "grade":
            return GRADE_STREAMS * GRADE_STREAM_BITS
        return oracle.read_bits(out / "conditioned.bits")[0]

    def check(self, out: Path) -> list[str]:
        rng = random.Random(self.seed)
        if self.name == "pipeline":
            return check_pipeline(out, self.seed, rng)
        if self.name == "generate":
            chip = oracle.ChipFile(self.chip)
            sel = oracle.SelectionFile(self.sel)
            return check_harvest(out, chip, sel, GENERATE_BITS, rng, tail=True)
        return check_grade(out, self.streams)


def check_pipeline(out: Path, seed: int, rng: random.Random) -> list[str]:
    errors = []
    run = json.loads((out / "run.json").read_text())
    t_w = run["t_w_ns"]
    chip = oracle.ChipFile(out / "chip.mrtg")
    if chip.seed != seed or run["seed"] != seed:
        errors.append(f"seed {seed} not recorded in chip.mrtg / run.json")

    lines = (out / "sweep.csv").read_text().split()
    sweep = {float(a): float(b) for a, b in (ln.split(",") for ln in lines[1:])}
    if set(sweep) != set(SWEEP_WINDOWS):
        errors.append(f"sweep.csv pulse widths {sorted(sweep)}")
    for tw, (lo, hi) in SWEEP_WINDOWS.items():
        frac = sweep.get(tw, float("nan"))
        if not (lo <= frac <= hi if tw == 2.5 else frac < hi):
            errors.append(f"sweep error fraction {frac} at {tw} ns outside the calibration window")
        expected = chip.expected_error_fraction(tw)
        if not abs(frac - expected) <= SWEEP_TOLERANCE:
            errors.append(f"sweep error fraction {frac} at {tw} ns, model expects {expected:.6f}")

    sel = oracle.SelectionFile(out / "selection.mrsl")
    toggle = oracle.ToggleOracle(chip, t_w)
    sampled = rng.sample(sel.cells, SAMPLED_CELLS // 2) + rng.sample(range(chip.num_cells), SAMPLED_CELLS // 2)
    for cell in sampled:
        bits = toggle.readouts(cell, range(sel.n_measurements))
        flips = sum(a != b for a, b in zip(bits, bits[1:]))
        if (sel.th_l <= flips <= sel.th_u) != (cell in sel.cell_set):
            errors.append(f"cell {cell}: {flips} oracle flips disagree with its selection membership")

    errors += check_harvest(out, chip, sel, run["target_bits"], rng, tail=False)

    expected = oracle.throughput_mbit_per_s(sel.bits_per_rand_addr)
    report = dict(ln.split(":", 1) for ln in (out / "throughput.txt").read_text().splitlines() if not ln.startswith("#"))
    got_bpa = float(report["bits per rand address"])
    got_rate = float(report["throughput"].split()[0])
    if abs(got_bpa - sel.bits_per_rand_addr) > 0.005 or abs(got_rate - expected) > 0.005 + 1e-9:
        errors.append(f"throughput.txt {got_rate} Mbit/s at {got_bpa} bits/address, formula gives {expected:.4f}")
    return errors


def check_harvest(out, chip, sel, target_bits, rng, tail) -> list[str]:
    """raw.bits against the toggle oracle, conditioned.bits against hashlib."""
    errors = []
    prov = json.loads((out / "provenance.json").read_text())["provenance"]
    if prov["selection_sha256"] != sel.sha256():
        errors.append("provenance selection_sha256 is not the SHA-256 of the selection file")
    env = prov["env"]
    if env["temperature_c"] != 26.0 or env["field_mt"] != 0.0 or prov["pattern"]["kind"] != "solid" or prov["pattern"]["word_a"] != 0:
        errors.append(f"harvest ran at {env} / {prov['pattern']}, outside what the oracle models")
    toggle = oracle.ToggleOracle(chip, prov["t_w_ns"])
    n_cells = len(sel.cells)
    rounds = oracle.required_rounds(target_bits, n_cells)
    raw_bits, raw = oracle.read_bits(out / "raw.bits")
    cond_bits, _ = oracle.read_bits(out / "conditioned.bits")
    if raw_bits != rounds * n_cells or prov["rounds"] != rounds or prov["start_round"] != 0:
        errors.append(f"{raw_bits} raw bits over {prov['rounds']} rounds; expected {rounds} rounds of {n_cells} cells")
    if cond_bits < target_bits:
        errors.append(f"{cond_bits} conditioned bits, fewer than the {target_bits} asked for")
    errors += oracle.conditioning_errors(out / "raw.bits", out / "conditioned.bits")

    last = min(raw_bits, rounds * n_cells)
    positions = {0, last - 1} | {rng.randrange(last) for _ in range(SAMPLED_BITS // 2)}
    tail_from = max(0, last - 4 * n_cells) if tail else 0
    positions |= {rng.randrange(tail_from, last) for _ in range(SAMPLED_BITS // 2)}
    for k in sorted(positions):
        rnd, j = divmod(k, n_cells)
        want = toggle.readouts(sel.cells[j], [rnd])[0]
        if oracle.bit_at(raw, k) != want:
            errors.append(f"raw bit {k} (round {rnd}, cell {sel.cells[j]}) is not the oracle's {want}")
            break
    return errors


def check_grade(out: Path, streams: list[Path]) -> list[str]:
    """Report rows "name passed/total min uniformity verdict" against scipy."""
    rows = {}
    for ln in (out / "report.txt").read_text().splitlines():
        parts = ln.split()
        if len(parts) == 5 and "/" in parts[1]:
            passed, total = parts[1].split("/")
            rows[parts[0]] = (int(passed), int(total), float(parts[3]))
    bits = [np.unpackbits(np.frombuffer(oracle.read_bits(p)[1], dtype=np.uint8)).astype(bool) for p in streams]
    errors = []
    for name, (passed, uniformity) in oracle.battery_rows(bits).items():
        got = rows.get(name)
        if got is None or got[:2] != (passed, len(streams)) or abs(got[2] - uniformity) > 5.1e-7:
            errors.append(f"report row {name} {got}, recomputed {passed}/{len(streams)} uniformity {uniformity:.6f}")
    return errors


# --- per-layer metrics from spans --------------------------------------------


def layer_metrics(spans: list, unique_ratio: float) -> dict[str, float]:
    """Per-layer metrics of one traced call; the self times add up to its wall."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    busy, self_fn, self_layer, work, rss = (defaultdict(int) for _ in range(5))
    calls = Counter()
    for i, (name, start, end, parent, count, rss_kb) in enumerate(spans):
        busy[name] += end - start
        self_fn[name] += end - start - child_ns[i]
        self_layer[name.split(".")[0]] += end - start - child_ns[i]
        calls[name] += 1
        work[name] += count or 0
        rss[name] += rss_kb
    wall = spans[0][2] - spans[0][1]
    if sum(self_layer.values()) != wall or set(self_layer) - {"cli", *LAYERS}:
        raise AssertionError(f"layer self times {dict(self_layer)} do not add up to the traced wall {wall} ns")

    s = lambda ns: ns / 1e9
    per = lambda num, den: num / den if den else 0.0
    m = {
        "trace.wall_s": s(wall),
        "cli.self_s": s(self_layer["cli"]),
        "rng.mix64.busy_s": s(busy["rng.mix64"]),
        "rng.mix64.words": work["rng.mix64"],
        "rng.mix64.ns_per_word": per(busy["rng.mix64"], work["rng.mix64"]),
        "device.measure.calls": calls["device.measure"],
        "device.measure.cell_rounds": work["device.measure"],
        "device.measure.unique_ratio": unique_ratio,
        "device.measure.self_s": s(self_fn["device.measure"]),
        "device.measure.ns_per_cell_round": per(busy["device.measure"], work["device.measure"]),
        "device.measure.rss_raise_mb": rss["device.measure"] / 1024,
        "extract.harvest.raw_bits": work["extract.harvest"],
        "extract.harvest.ns_per_raw_bit": per(busy["extract.harvest"], work["extract.harvest"]),
        "extract.harvest.rss_raise_mb": rss["extract.harvest"] / 1024,
        "extract.condition.blocks": work["extract.condition"],
        "extract.condition.ns_per_block": per(busy["extract.condition"], work["extract.condition"]),
        "sts.bits_graded": work["sts.run_all"],
        "sts.ns_per_bit": per(busy["sts.run_battery"], work["sts.run_all"]),
        "special.calls": sum(n for k, n in calls.items() if k.startswith("special.")),
        "special.busy_s": s(sum(ns for k, ns in busy.items() if k.startswith("special."))),
    }
    for layer in ("device", "characterize", "extract", "sts"):
        m[f"{layer}.self_s"] = s(self_layer[layer])
    for fn in (
        "device.create_chip", "device.save_chip", "device.load_chip",
        "characterize.sweep_tw", "characterize.count_flips", "characterize.select_cells",
        "characterize.save_selection", "characterize.load_selection",
        "extract.harvest", "extract.condition", "extract.save_bitstream", "extract.load_bitstream",
        "sts.run_battery", "sts.frequency_monobit", "sts.block_frequency", "sts.runs", "sts.longest_run",
        "sts.cumulative_sums", "sts.serial", "sts.approximate_entropy",
    ):
        m[f"{fn}.busy_s"] = s(busy[fn])
    return m


# --- runs --------------------------------------------------------------------


def timed_runs(wl: Workload, seconds: float, trace: bool) -> dict:
    """Repeat the workload's operation until the next one would pass ``seconds``."""
    out = wl.work / "out"
    walls, rss, rates, traced, untraced = [], [], [], [], []
    attempted = failed = 0
    prints, errors, failures = set(), [], []
    spent = 0.0
    pairs = [["untraced", "traced"], ["traced", "untraced"]]  # alternate which side runs first
    while True:
        round_wall = 0.0
        for mode in (pairs[attempted // 2 % 2] if trace else ["cli"]):
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            log = wl.work / f"{mode}.log"
            if mode == "cli":
                wall, peak, code = cli(wl.argv(out), wl.work, log)
            else:
                result = wl.work / "result.json"
                flag = ["--trace"] if mode == "traced" else []
                cmd = [sys.executable, str(HERE / "trace_child.py"), str(result), *flag, "--", *map(str, wl.argv(out))]
                wall, peak, code = spawn(cmd, wl.work, log)
                if code == 0:
                    child = json.loads(result.read_text())
                    code = child["code"]
                    (traced if mode == "traced" else untraced).append(child)
            round_wall += wall
            attempted += 1
            if code != 0:
                failed += 1
                failures.append(f"{mode} run exited {code}: {log.read_text()[-2000:]}")
                continue
            walls.append(wall)
            rss.append(peak)
            if not trace:
                rates.append(wl.product_bits(out) / 1e6 / wall)
            prints.add(fingerprint(out))
        spent += round_wall
        if spent + round_wall > seconds:
            break
    result = {"attempted": attempted, "failed": failed, "failures": failures, "errors": errors, "walls": walls, "metrics": None}
    if not walls:
        return result
    errors += wl.check(out)
    if len(prints) != 1:
        errors.append(f"{len(prints)} different outputs from {len(walls)} identical runs")
    if trace:
        if not traced or not untraced:
            return result
        median_rep = sorted(traced, key=lambda c: c["wall_ns"])[(len(traced) - 1) // 2]
        metrics = layer_metrics(median_rep["spans"], median_rep["unique_ratio"])
        untraced_ns = statistics.median_low(c["wall_ns"] for c in untraced)
        metrics["trace.overhead_s"] = (median_rep["wall_ns"] - untraced_ns) / 1e9
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "mbit_per_s": statistics.median(rates),
            "peak_rss_mb": statistics.median(rss),
        }
    result["metrics"] = metrics
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("pipeline", "generate", "grade"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "mramtrng" / "cli.py").is_file():
        print(f"error: no mramtrng sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("error: --seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    oracle.self_check()

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = import_seconds(0 if args.trace else SETUP_IMPORTS)
        wl = Workload(args.workload, args.seed, work)
        res = timed_runs(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  seconds: {args.seconds:g}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__}")
    print(f"operations: attempted={res['attempted']} failed={res['failed']}")
    print("operation walls (s): " + " ".join(f"{w:.3f}" for w in res["walls"]))
    for e in res["failures"]:
        print(f"OPERATION FAILED: {e}")
    for e in res["errors"]:
        print(f"CHECK FAILED: {e}")
    if res["metrics"] is None:
        print("error: no operation succeeded; nothing to measure", file=sys.stderr)
        return 1
    values = dict(res["metrics"])
    if not args.trace:
        values["setup_s"] = setup
    if set(values) != {m["name"] for m in declared}:
        raise AssertionError(f"measured {sorted(values)} but BENCHMARK.json declares {sorted(m['name'] for m in declared)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps({"correct": not res["errors"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
