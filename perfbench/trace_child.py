"""Call ``mramtrng.cli.main`` once in this process and time it, with or without spans.

    python3 perfbench/trace_child.py RESULT.json [--trace] -- CLI-ARGS...

Without ``--trace`` only the wall time of ``cli.main`` is recorded.  With
``--trace`` every public function of the layer modules is replaced, at each
package module attribute that refers to it, by a wrapper that records a span
(name, start, end, parent) and, for a few functions, a work count or the
growth of the peak RSS.  Spans stay in memory until ``cli.main`` returns and
are then written to RESULT.json with the exit code.  ``mramtrng`` must be
importable (the caller puts the checkout's ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

LAYERS = ("rng", "device", "characterize", "extract", "sts", "special")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder; one list entry per call of a wrapped function."""

    def __init__(self):
        # [name, start_ns, end_ns, parent index, work count, peak-RSS growth in KiB]
        self.spans: list[list] = []
        self._stack = [-1]
        self.measure_calls: list[tuple] = []

    def wrap(self, name: str, fn, count=None, rss: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1], None, 0]
            stack.append(len(spans))
            spans.append(span)
            rss0 = _maxrss_kb() if rss else 0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if rss:
                span[5] = _maxrss_kb() - rss0
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions wherever the package looks them up.

        Inside ``special`` itself nothing is replaced: erf, erfc, igam and
        igamc call each other, and one battery call stays one span.
        """
        import mramtrng.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [m for n, m in list(sys.modules.items()) if n == "mramtrng" or n.startswith("mramtrng.")]
        counters = self._counters()
        for layer in LAYERS:
            mod = importlib.import_module(f"mramtrng.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, counters.get(name), rss=name in ("device.measure", "extract.harvest"))
                for m in modules:
                    if m is mod and layer == "special":
                        continue
                    for a, v in list(vars(m).items()):
                        if v is fn:
                            setattr(m, a, wrapped)

    def _counters(self) -> dict:
        import numpy as np
        from mramtrng import device

        measure_sig = inspect.signature(device.measure)

        def measure_count(args, kwargs, result):
            b = measure_sig.bind(*args, **kwargs)
            b.apply_defaults()
            a = b.arguments
            key = (a["chip"].seed, a["chip"].chip_id, a["pattern"], a["timing"].t_w_ns, a["env"] or device.Environment())
            cells = None if a["cell_indices"] is None else np.asarray(a["cell_indices"])
            self.measure_calls.append((key, a["start_round"], a["n"], cells, a["chip"].num_cells))
            return int(result.bits.size)

        return {
            "rng.mix64": lambda args, kwargs, result: int(np.size(result)),
            "device.measure": measure_count,
            "extract.harvest": lambda args, kwargs, result: len(result),
            "extract.condition": lambda args, kwargs, result: len(result) // 256,
            "sts.run_all": lambda args, kwargs, result: int(np.size(args[0])),
        }

    def unique_ratio(self) -> float:
        """Distinct (t_w, env, pattern, cell, round) evaluations over evaluations.

        1.0 when no campaign ran: nothing was evaluated twice.
        """
        import numpy as np

        total = sum(n * (full if cells is None else cells.size) for _, _, n, cells, full in self.measure_calls)
        if total == 0:
            return 1.0
        distinct = 0
        for key in {c[0] for c in self.measure_calls}:
            group = [c for c in self.measure_calls if c[0] == key]
            edges = sorted({s for _, s, _, _, _ in group} | {s + n for _, s, n, _, _ in group})
            for lo, hi in zip(edges, edges[1:]):
                cover = [c for c in group if c[1] <= lo and c[1] + c[2] >= hi]
                if not cover:
                    continue
                if any(c[3] is None for c in cover):
                    width = cover[0][4]
                else:
                    width = np.unique(np.concatenate([c[3] for c in cover])).size
                distinct += width * (hi - lo)
        return distinct / total


def main(argv: list[str]) -> int:
    result_path, rest = argv[0], argv[1:]
    traced = rest[0] == "--trace"
    cli_args = rest[rest.index("--") + 1 :]

    from mramtrng import cli

    tracer = Tracer()
    run = cli.main
    if traced:
        tracer.install()
        run = tracer.wrap("cli.main", cli.main)
    t0 = time.perf_counter_ns()
    try:
        code = run(cli_args)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    wall_ns = time.perf_counter_ns() - t0
    out = {"code": code, "wall_ns": wall_ns}
    if traced:
        out["wall_ns"] = tracer.spans[0][2] - tracer.spans[0][1]
        out["spans"] = tracer.spans
        out["unique_ratio"] = tracer.unique_ratio()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
