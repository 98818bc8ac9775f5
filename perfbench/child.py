"""Launch `rlfolio backtest` in this process, optionally traced.

    python3 perfbench/child.py REPORT SPAWNED_NS TRACE rlfolio-args...

Runs the program's own entry point, `rlfolio.cli.main`, on the given
arguments. TRACE=0 wraps only `ensemble.train_and_validate`, so the parent
learns when set-up ended. TRACE=1 wraps every public function and method
of the program's modules at the name each caller looks it up by. Spans
stay in memory; on exit they are written as JSON to REPORT. SPAWNED_NS is
the parent's CLOCK_MONOTONIC reading taken just before the spawn, so the
start-up span (interpreter, imports, wrapper installation) is measured too.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

# Modules whose public functions and methods are layer boundaries. The
# layer is the first component. `cli` is the root span; `config`, `errors`
# and the kernel modules are left to their callers.
MODULES = ("market_data", "indicators", "turbulence", "env", "neural",
           "agents", "agents.common", "agents.a2c", "agents.ppo",
           "agents.ddpg", "ensemble", "evaluation")
ROOT = "cli.backtest"
STARTUP = "cli.startup"
SETUP_END = "ensemble.train_and_validate"
# Boundaries crossed a bounded number of times per quarter are kept as
# individual spans; every other call (env steps, neural calls, replay
# pushes, row validation) is only aggregated per (name, parent).
PHASES = frozenset({
    ROOT, STARTUP, "market_data.load_bars", "market_data.build_window_plan",
    "indicators.build_features", "turbulence.rolling_turbulence",
    SETUP_END, "ensemble.window_threshold", "agents.train_agent",
    "ensemble.validate_agent", "ensemble.run_trading",
    "ensemble.run_deterministic", "evaluation.run_min_variance_baseline",
    "evaluation.run_index_baseline", "evaluation.metrics_report",
})


def _load_bars_counts(result) -> dict[str, int]:
    _, report = result
    return {"rows_total": report.total_rows,
            "rows_rejected": len(report.rejected)}


def _score_counts(windows) -> dict[str, int]:
    scores = [s for w in windows for s in w.scores.values()]
    return {"quarters": len(windows), "scores": len(scores),
            "null_scores": sum(s is None for s in scores)}


class Tracer:
    """Span stack with per-(name, parent) aggregates.

    A frame's self time is its duration minus the durations of its direct
    children; calls run on one thread, so children never overlap.
    """

    def __init__(self, clock=time.monotonic_ns):
        self.clock = clock
        self.spans: list[list] = []   # [id, name, start, end, parent id, self]
        self.calls: dict[tuple[str, str | None], list[int]] = {}
        self.counts: dict[str, int] = {}
        # [name, start, child ns, id, span parent id, is phase]
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str, start: int | None = None) -> None:
        self._next_id += 1
        span_parent = None
        if self._stack:
            top = self._stack[-1]
            span_parent = top[3] if top[5] else top[4]
        self._stack.append([name, self.clock() if start is None else start,
                            0, self._next_id, span_parent,
                            name.split("[")[0] in PHASES])

    def exit(self) -> None:
        end = self.clock()
        name, start, child, span_id, span_parent, phase = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (name, parent[0] if parent is not None else None)
        agg = self.calls.get(key)
        if agg is None:
            agg = self.calls[key] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child
        if phase:
            self.spans.append([span_id, name, start, end, span_parent,
                               duration - child])

    def report(self) -> dict:
        return {"spans": self.spans,
                "calls": [[n, p, *agg] for (n, p), agg in self.calls.items()],
                "counts": self.counts}


def _wrap(fn, name: str, tracer: Tracer):
    """`fn` inside a span called `name`. `agents.train_agent` spans carry
    the agent kind, the call's first argument; `load_bars` and
    `train_and_validate` also count what their results hold."""
    enter, exit_ = tracer.enter, tracer.exit
    if name == "agents.train_agent":
        @functools.wraps(fn)
        def traced_kind(kind, *args, **kwargs):
            enter(f"{name}[{kind}]")
            try:
                return fn(kind, *args, **kwargs)
            finally:
                exit_()
        return traced_kind

    if name == "market_data.load_bars":
        counts_of = _load_bars_counts
    elif name == SETUP_END:
        counts_of = _score_counts
    else:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return traced

    @functools.wraps(fn)
    def traced_counted(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        for key, value in counts_of(result).items():
            tracer.counts[key] = tracer.counts.get(key, 0) + value
        return result
    return traced_counted


def boundaries():
    """(owner, attribute, function, span name) for every public function
    and method defined in MODULES. Properties and static methods are left
    to their callers."""
    for modname in MODULES:
        mod = importlib.import_module(f"rlfolio.{modname}")
        layer = modname.split(".")[0]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod, attr, obj, f"{layer}.{attr}"
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        yield obj, meth, fn, f"{layer}.{obj.__name__}.{meth}"


def install(tracer: Tracer, only: frozenset[str] | None = None) -> None:
    """Wrap the boundaries (or those named in `only`) in place. A module
    function is also replaced in every rlfolio module that imported it by
    name, e.g. `rlfolio.cli.load_bars`."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "rlfolio" or n.startswith("rlfolio.")]
    for owner, attr, fn, name in list(boundaries()):
        if only is not None and name not in only:
            continue
        traced = _wrap(fn, name, tracer)
        setattr(owner, attr, traced)
        if not inspect.isclass(owner):
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, alias, traced)


def main(argv: list[str]) -> None:
    report_path, spawned_ns, trace = argv[0], int(argv[1]), argv[2] == "1"
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import rlfolio.cli

    tracer = Tracer()
    install(tracer, None if trace else frozenset({SETUP_END}))
    tracer.enter(STARTUP, spawned_ns)
    tracer.exit()
    try:
        tracer.enter(ROOT)
        try:
            rlfolio.cli.main(argv[3:], prog_name="rlfolio")
        finally:
            tracer.exit()
    finally:
        with open(report_path, "w") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    main(sys.argv[1:])
