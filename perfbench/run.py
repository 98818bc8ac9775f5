"""Walk-forward backtest benchmark for `rlfolio backtest`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark writes the workload's seeded
inputs (untimed), then runs the real `rlfolio backtest` entry point as a
child process, one at a time (a closed loop with one client), until S
seconds have passed, at least MIN_RUNS times. Each child is measured on
its own with `os.wait4`; its bundle is checked, and the digest of the
bundle must be the same for every run of the invocation. End-to-end
metrics are the medians over the untraced runs. With --trace 1 one more,
traced, child runs on the same inputs and the per-layer metrics come from
its spans. NAME may be `all` to run every workload in turn.

BLAS thread variables are left as the caller set them and are recorded in
the environment fingerprint. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Everything the run
measured is also written to .perfbench/results/.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from child import ROOT, SETUP_END, STARTUP

MIN_RUNS = 3
DEADLINE_S = 160          # per workload; children are killed past it
WORK_DIR = ".perfbench"
STRATEGIES = ("ensemble", "ppo", "a2c", "ddpg", "min_variance", "index")
# The bundle's deterministic files; their bytes make the run digest.
BUNDLE_FILES = ("config_snapshot.ini", "trace.csv", "comparison.csv",
                *(f"equity_{s}.csv" for s in STRATEGIES),
                *(f"trades_{s}.csv" for s in STRATEGIES[:4]))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

KINDS = tuple(k.lower() for k in wl.KINDS)
LAYERS = ("market_data", "indicators", "turbulence", "env", "neural",
          "agents", "ensemble", "evaluation")
NEURAL = (("adam_step", "neural.Adam.step"), ("mlp_forward", "neural.Mlp.forward"),
          ("mlp_forward_cache", "neural.Mlp.forward_cache"),
          ("mlp_backward", "neural.Mlp.backward"),
          ("log_prob_grads", "neural.GaussianPolicy.log_prob_grads"))
SET = "setup_s, peak_rss_mb"
WALL = "backtest_wall_s, env_steps_per_s"
# Names, units and directions of the metrics are in BENCHMARK.json. For each
# per-layer metric: the end-to-end metrics it should move, the workload where
# its layer does the most work, and the one where it does the least.
LAYER_ROLES = {
    "market_data.load_bars_s": (SET, "wf_no_train", "wf_paper_mix"),
    "market_data.rows_per_s": (SET, "wf_no_train", "wf_paper_mix"),
    "market_data.rows_rejected": ("-", "wf_no_train", "wf_paper_mix"),
    "indicators.build_features_s": ("setup_s", "wf_no_train", "wf_paper_mix"),
    "turbulence.rolling_turbulence_s": ("setup_s", "wf_no_train", "wf_paper_mix"),
    "env.steps": ("env_steps_per_s", "wf_no_train", "wf_paper_mix"),
    "env.step_us": (WALL, "wf_on_policy", "wf_no_train"),
    "env.rollout_step_us": (WALL, "wf_no_train", "wf_paper_mix"),
    **{f"neural.{short}_{what}": ("backtest_wall_s, cpu_s", "wf_paper_mix", "wf_no_train")
       for short, _ in NEURAL for what in ("us", "calls")},
    **{f"agents.{k}.{what}": (WALL if what.startswith("train") else "backtest_wall_s",
                              "wf_paper_mix" if k == "ddpg" else "wf_on_policy",
                              "wf_no_train")
       for k in KINDS for what in ("train_us_per_step", "train_s", "updates")},
    "agents.ddpg.update_us": ("backtest_wall_s, peak_rss_mb", "wf_paper_mix", "wf_on_policy"),
    "agents.ddpg.updates_per_step": ("backtest_wall_s", "wf_paper_mix", "wf_on_policy"),
    "agents.act_us": (WALL, "wf_no_train", "wf_paper_mix"),
    "ensemble.train_and_validate_s": ("backtest_wall_s", "wf_paper_mix", "wf_no_train"),
    "ensemble.validate_s": ("backtest_wall_s", "wf_no_train", "wf_paper_mix"),
    "ensemble.run_trading_s": ("backtest_wall_s", "wf_no_train", "wf_paper_mix"),
    "ensemble.quarters": ("-", "wf_no_train", "wf_paper_mix"),
    "ensemble.null_scores": ("-", "wf_no_train", "wf_paper_mix"),
    "evaluation.baselines_s": ("-", "wf_no_train", "wf_paper_mix"),
    "evaluation.metrics_report_s": ("-", "wf_no_train", "wf_paper_mix"),
    "cli.self_s": ("backtest_wall_s", "wf_no_train", "wf_paper_mix"),
    "cli.startup_s": ("setup_s", "wf_no_train", "wf_paper_mix"),
    "cli.bundle_bytes": ("backtest_wall_s", "wf_no_train", "wf_paper_mix"),
    **{f"{layer}.self_s": ("backtest_wall_s", "-", "-") for layer in LAYERS},
    "trace.wall_s": ("-", "-", "-"),
    "trace.overhead_s": ("-", "-", "-"),
    "trace.unattributed_s": ("-", "-", "-"),
}


def load_spec(root: Path) -> tuple[list[dict], list[dict]]:
    """The end-to-end and per-layer metrics BENCHMARK.json defines."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]]
    if sorted(layer_names) != sorted(LAYER_ROLES):
        raise SystemExit("BENCHMARK.json's per_layer metrics differ from LAYER_ROLES")
    return spec["end_to_end"], spec["per_layer"]


def fingerprint(root: Path) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sys.path.insert(0, str(root / "src"))
    try:
        import rlfolio
        backend = rlfolio.KERNEL_BACKEND
    finally:
        sys.path.pop(0)
    commit = "unknown"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "kernel_backend": backend, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "commit": commit,
            "machine": platform.machine()}


def spawn(root: Path, work: Path, trace: bool, timeout_s: float) -> dict:
    """Run one `rlfolio backtest` child in `work` and measure it alone."""
    shutil.rmtree(work / "bundle", ignore_errors=True)
    report = work / "child_report.json"
    report.unlink(missing_ok=True)
    log = os.open(work / "child.log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    start = time.monotonic_ns()
    argv = [sys.executable, str(root / "perfbench" / "child.py"), report.name,
            str(start), "1" if trace else "0",
            "backtest", "--config", "run.ini"]
    old_cwd = os.getcwd()
    os.chdir(work)
    try:
        pid = os.posix_spawn(sys.executable, argv, os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, log, 1),
                                           (os.POSIX_SPAWN_DUP2, log, 2)])
    finally:
        os.chdir(old_cwd)
        os.close(log)
    pidfd = os.pidfd_open(pid)
    try:
        if not select.select([pidfd], [], [], max(timeout_s, 1.0))[0]:
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
    wall_ns = time.monotonic_ns() - start
    run = {"trace": trace, "exit": os.waitstatus_to_exitcode(status),
           "backtest_wall_s": wall_ns / 1e9,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    try:
        run["report"] = json.loads(report.read_text())
    except (OSError, ValueError):
        run["report"] = None
    return run


def bundle_problems(bundle: Path, inputs: dict, quarters: int) -> list[str]:
    """Everything wrong with one bundle; empty when it is correct."""
    missing = [f for f in BUNDLE_FILES if not (bundle / f).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    problems = []
    with open(bundle / "comparison.csv", newline="") as fh:
        names = [row["strategy"] for row in csv.DictReader(fh)]
    if sorted(names) != sorted(STRATEGIES):
        problems.append(f"comparison.csv lists {names}")
    windows = inputs["windows"]
    if len(windows) != quarters:
        problems.append(f"calendar gives {len(windows)} quarters, not {quarters}")
    with open(bundle / "trace.csv", newline="") as fh:
        got = [(r["validation_start"], r["validation_end"],
                r["trade_start"], r["trade_end"]) for r in csv.DictReader(fh)]
    want = [(*(d.isoformat() for d in q["validation"]),
             *(d.isoformat() for d in q["trade"])) for q in windows]
    if got != want:
        problems.append("trace.csv windows differ from the calendar's quarters")
    trade = (windows[0]["trade"][0], windows[-1]["trade"][1])
    dates = [d.isoformat() for d in wl.dates_in(inputs["calendar"], trade)]
    for name in STRATEGIES:
        with open(bundle / f"equity_{name}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [r["date"] for r in rows] != dates:
            problems.append(f"equity_{name}.csv does not cover the trade windows")
        values = [float(r["value"]) for r in rows]
        if not all(math.isfinite(v) and v > 0 for v in values):
            problems.append(f"equity_{name}.csv has a non-finite or non-positive value")
    return problems


def bundle_digest(bundle: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for name in BUNDLE_FILES:
        data = (bundle / name).read_bytes()
        size += len(data)
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), size


def check_run(run: dict, work: Path, inputs: dict, w: wl.Workload) -> None:
    problems = [] if run["exit"] == 0 else [f"exit code {run['exit']}"]
    if not problems:
        problems = bundle_problems(work / "bundle", inputs, w.quarters)
    if not problems:
        run["digest"], run["bundle_bytes"] = bundle_digest(work / "bundle")
    report = run["report"]
    start = None
    if report is not None:
        start = min((s[2] for s in report["spans"] if s[1] == SETUP_END), default=None)
        spawned = next(s[2] for s in report["spans"] if s[1] == STARTUP)
    if start is None:
        problems.append(f"{SETUP_END} was never called")
    else:
        run["setup_s"] = (start - spawned) / 1e9
        run["env_steps_per_s"] = inputs["env_steps"] / (
            run["backtest_wall_s"] - run["setup_s"])
    if run["trace"] and report is not None:
        counts = report["counts"]
        steps = sum(c[2] for c in report["calls"] if c[0] == "env.TradingEnv.step_state")
        if steps != inputs["env_steps"]:
            problems.append(f"traced {steps} env steps, expected {inputs['env_steps']}")
        if counts.get("rows_total") != inputs["rows_total"] or \
                counts.get("rows_rejected") != inputs["rows_rejected"]:
            problems.append("traced load_bars row counts differ from the input")
    run["problems"] = problems


class Calls:
    """Lookups over a traced child's (name, parent, count, total, self) rows."""

    def __init__(self, rows):
        self.rows = rows

    def _match(self, name, parent):
        return [r for r in self.rows
                if r[0] == name and (parent is None or r[1] == parent)]

    def count(self, name, parent=None) -> int:
        return sum(r[2] for r in self._match(name, parent))

    def total_s(self, name, parent=None) -> float:
        return sum(r[3] for r in self._match(name, parent)) / 1e9

    def mean_us(self, name, parent=None) -> float | None:
        n = self.count(name, parent)
        return self.total_s(name, parent) * 1e6 / n if n else None

    def self_s(self, prefix) -> float:
        return sum(r[4] for r in self.rows if r[0].startswith(prefix)) / 1e9


def layer_metrics(run: dict, untraced_wall: float) -> dict[str, float | None]:
    """Per-layer metrics of one traced run; None where a boundary was never
    crossed."""
    report = run["report"]
    c, counts = Calls(report["calls"]), report["counts"]
    rollout = "ensemble.run_deterministic"
    load_s = c.total_s("market_data.load_bars")
    m = {
        "market_data.load_bars_s": load_s,
        "market_data.rows_per_s": counts["rows_total"] / load_s if load_s else None,
        "market_data.rows_rejected": counts["rows_rejected"],
        "indicators.build_features_s": c.total_s("indicators.build_features"),
        "turbulence.rolling_turbulence_s": c.total_s("turbulence.rolling_turbulence"),
        "env.steps": c.count("env.TradingEnv.step_state"),
        "env.step_us": c.mean_us("env.TradingEnv.step"),
        "env.rollout_step_us": c.mean_us("env.TradingEnv.step_state", rollout),
    }
    for short, name in NEURAL:
        m[f"neural.{short}_us"] = c.mean_us(name)
        m[f"neural.{short}_calls"] = c.count(name)
    for kind in wl.KINDS:
        k = kind.lower()
        span = f"agents.train_agent[{kind}]"
        steps = c.count("env.TradingEnv.step", f"agents.{kind}Agent.train")
        m[f"agents.{k}.train_us_per_step"] = (
            c.total_s(span) * 1e6 / steps if steps else None)
        m[f"agents.{k}.train_s"] = c.total_s(span) if c.count(span) else None
        m[f"agents.{k}.updates"] = c.count(f"agents.{kind}Agent.update")
    ddpg_steps = c.count("env.TradingEnv.step", "agents.DDPGAgent.train")
    m["agents.ddpg.update_us"] = c.mean_us("agents.DDPGAgent.update")
    m["agents.ddpg.updates_per_step"] = (
        m["agents.ddpg.updates"] / ddpg_steps if ddpg_steps else None)
    acts = [f"agents.{kind}Agent.act" for kind in wl.KINDS]
    n_acts = sum(c.count(a, rollout) for a in acts)
    m["agents.act_us"] = (sum(c.total_s(a, rollout) for a in acts) * 1e6 / n_acts
                          if n_acts else None)
    m.update({
        "ensemble.train_and_validate_s": c.total_s(SETUP_END),
        "ensemble.validate_s": c.total_s("ensemble.validate_agent"),
        "ensemble.run_trading_s": c.total_s("ensemble.run_trading"),
        "ensemble.quarters": counts["quarters"],
        "ensemble.null_scores": counts["null_scores"],
        "evaluation.baselines_s": c.total_s("evaluation.run_min_variance_baseline")
        + c.total_s("evaluation.run_index_baseline"),
        "evaluation.metrics_report_s": c.total_s("evaluation.metrics_report", ROOT),
        "cli.self_s": c.self_s(ROOT),
        "cli.startup_s": c.total_s(STARTUP),
        "cli.bundle_bytes": run.get("bundle_bytes"),
    })
    attributed = m["cli.self_s"] + m["cli.startup_s"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = c.self_s(layer + ".")
        attributed += m[f"{layer}.self_s"]
    wall = run["backtest_wall_s"]
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - untraced_wall
    m["trace.unattributed_s"] = wall - attributed
    return m


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: bool, end_to_end: list[dict]) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    w = wl.WORKLOADS[name]
    work = root / WORK_DIR / name
    inputs = wl.write_inputs(w, seed, work)
    print(f"[{name}] seed {seed}: {len(inputs['windows'])} quarters, "
          f"{inputs['rows_total']} rows ({inputs['rows_rejected']} malformed), "
          f"{inputs['env_steps']} env steps", flush=True)
    runs = []
    start = time.monotonic()
    # Stop before a run that would end past `seconds`; with --trace 1 the
    # traced run, about 1.3 untraced runs long, falls inside it too.
    reserve = 1.3 if trace else 0.0
    while time.monotonic() < deadline:
        run = spawn(root, work, False, deadline - time.monotonic())
        check_run(run, work, inputs, w)
        runs.append(run)
        print(f"[{name}] run {len(runs)}: " + _run_line(run), flush=True)
        typical = statistics.median(r["backtest_wall_s"] for r in runs)
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed + (1 + reserve) * typical > seconds:
            break
    if trace:
        run = spawn(root, work, True, deadline - time.monotonic())
        check_run(run, work, inputs, w)
        runs.append(run)
        print(f"[{name}] traced: " + _run_line(run), flush=True)
    first = next((r["digest"] for r in runs if not r["problems"]), None)
    for r in runs:
        if not r["problems"] and r["digest"] != first:
            r["problems"].append("bundle digest differs from the first run's")
    good = [r for r in runs if not r["trace"] and not r["problems"]]
    result = {"workload": name, "seed": seed, "digest": first,
              "attempted": len(runs),
              "failed": sum(bool(r["problems"]) for r in runs),
              "end_to_end": {}, "spread": {}, "layers": {}, "runs": runs}
    for metric in (m["name"] for m in end_to_end):
        values = [r[metric] for r in good]
        result["end_to_end"][metric] = statistics.median(values) if values else None
        result["spread"][metric] = [min(values), max(values)] if values else None
    traced = [r for r in runs if r["trace"]]
    if traced and not traced[0]["problems"] and good:
        result["layers"] = layer_metrics(traced[0], result["end_to_end"]["backtest_wall_s"])
    return result


def _run_line(run: dict) -> str:
    parts = [f"exit {run['exit']}", f"wall {run['backtest_wall_s']:.3f} s"]
    if "setup_s" in run:
        parts.append(f"setup {run['setup_s']:.3f} s")
    parts += [f"cpu {run['cpu_s']:.3f} s", f"rss {run['peak_rss_mb']:.1f} MB"]
    if run["problems"]:
        parts.append("FAILED: " + "; ".join(run["problems"]))
    return ", ".join(parts)


def print_tables(result: dict, end_to_end: list[dict], per_layer: list[dict]) -> None:
    name = result["workload"]
    # Same seed, same program: same digest. Compare this line across commits.
    print(f"[{name}] seed {result['seed']} bundle digest {result['digest']}")
    n = sum(not r["trace"] and not r["problems"] for r in result["runs"])
    print(f"[{name}] end-to-end over {n} untraced runs "
          "(metric, median, unit, min, max):")
    for metric, unit in ((m["name"], m["unit"]) for m in end_to_end):
        value, spread = result["end_to_end"][metric], result["spread"][metric]
        if value is None:
            print(f"  {metric:<16} n/a")
            continue
        print(f"  {metric:<16} {value:>12.4f} {unit:<8} "
              + " ".join(f"{v:>12.4f}" for v in spread))
    if not result["layers"]:
        return
    print(f"[{name}] per layer, one traced run "
          "(metric, value, unit, should move, most work on, least work on):")
    for metric, unit in ((m["name"], m["unit"]) for m in per_layer):
        moves, most, least = LAYER_ROLES[metric]
        value = result["layers"][metric]
        shown = "missing" if value is None else f"{value:.4f}"
        print(f"  {metric:<34} {shown:>14} {unit:<7} {moves:<34} {most:<13} {least}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rlfolio" / "cli.py").is_file():
        print("error: run from the root of an rlfolio checkout "
              "(src/rlfolio/cli.py not found)", file=sys.stderr)
        return 2
    # A terminated benchmark still kills and reaps its child (see spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    end_to_end, per_layer = load_spec(root)
    info = fingerprint(root)
    print("fingerprint " + json.dumps(info, sort_keys=True), flush=True)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(root, n, args.seed, args.seconds, bool(args.trace),
                            end_to_end)
               for n in names]

    out_dir = root / WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    for result in results:
        print_tables(result, end_to_end, per_layer)
        path = out_dir / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"fingerprint": info, **result}, indent=1,
                                   default=str))

    metrics = {}
    for result in results:
        values = {**result["end_to_end"], **result["layers"]}
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for spec in per_layer if args.trace else end_to_end:
            metric, unit = spec["name"], spec["unit"]
            value = values.get(metric)
            # The result line carries a number for every metric; a boundary
            # never crossed reads 0 there and "missing" in the table above.
            metrics[prefix + metric] = {"value": 0 if value is None else value,
                                        "unit": unit}
    failed = sum(r["failed"] for r in results)
    complete = all(v is not None for r in results for v in r["end_to_end"].values())
    if args.trace:
        complete = complete and all(r["layers"] for r in results)
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
