"""Tests of the benchmark itself: inputs, quarter plan, span arithmetic
and wrapper placement.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import csv
import dataclasses
import datetime as dt
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from rlfolio.market_data import PricePanel, build_window_plan  # noqa: E402

# Three assets over ~2.3 years: two trade quarters, a one-second backtest.
SMALL = dataclasses.replace(
    wl.WORKLOADS["wf_paper_mix"], name="small", assets=3, days=600,
    start=dt.date(2018, 1, 1), in_sample_end=dt.date(2019, 12, 31),
    steps={"PPO": 8, "A2C": 8, "DDPG": 8}, rollout=8, quarters=2)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_bars_are_deterministic_per_seed(name):
    w = wl.WORKLOADS[name]
    cal_a, a = wl.make_bars(w, 5)
    cal_b, b = wl.make_bars(w, 5)
    _, c = wl.make_bars(w, 6)
    assert cal_a == cal_b
    for f in wl.BAR_FIELDS:
        np.testing.assert_array_equal(a[f], b[f])
    assert not np.array_equal(a["close"], c["close"])
    np.testing.assert_array_equal(wl.bad_rows(w, 5), wl.bad_rows(w, 5))


def test_written_inputs_are_deterministic_per_seed(tmp_path):
    for d, seed in (("a", 1), ("b", 1), ("c", 2)):
        wl.write_inputs(SMALL, seed, tmp_path / d)
    same = [(tmp_path / d / f).read_bytes() for d in "ab" for f in ("bars.csv", "run.ini")]
    assert same[:2] == same[2:]
    assert (tmp_path / "a" / "bars.csv").read_bytes() != \
        (tmp_path / "c" / "bars.csv").read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("name,quarters", [("wf_paper_mix", 11),
                                           ("wf_on_policy", 11),
                                           ("wf_no_train", 37)])
def test_plan_quarters_for_any_seed(name, quarters, seed):
    w = wl.WORKLOADS[name]
    calendar, fields = wl.make_bars(w, seed)
    panel = PricePanel([f"AST{d:03d}" for d in range(w.assets)], calendar, fields)
    plan = build_window_plan(panel, w.in_sample_end)
    assert len(plan) == w.quarters == quarters
    expected = wl.plan_windows(calendar, w.in_sample_end)
    assert [(q.validation.start, q.validation.end, q.trade.start, q.trade.end)
            for q in plan] == [(*q["validation"], *q["trade"]) for q in expected]


def test_self_time_on_hand_built_span_tree():
    # root [0, 100] holds A [10, 40] (with a [15, 25]) and B [50, 90]
    # (with b [55, 60] and b [70, 80]).
    events = [("root", 0), ("A", 10), ("a", 15), (None, 25), (None, 40),
              ("B", 50), ("b", 55), (None, 60), ("b", 70), (None, 80),
              (None, 90), (None, 100)]
    clock = iter(t for _, t in events)
    tracer = child.Tracer(clock=lambda: next(clock))
    for name, _ in events:
        if name is None:
            tracer.exit()
        else:
            tracer.enter(name)
    calls = {(n, p): agg for n, p, *agg in tracer.report()["calls"]}
    assert calls == {("root", None): [1, 100, 30], ("A", "root"): [1, 30, 20],
                     ("a", "A"): [1, 10, 10], ("B", "root"): [1, 40, 25],
                     ("b", "B"): [2, 15, 15]}
    self_total = sum(agg[2] for agg in calls.values())
    assert self_total == 100


def test_phase_spans_keep_nearest_phase_parent():
    ticks = iter(range(100))
    tracer = child.Tracer(clock=lambda: next(ticks))
    tracer.enter(child.ROOT)
    tracer.enter("env.TradingEnv.step")           # aggregated only
    tracer.enter("agents.train_agent[PPO]")       # phase under a non-phase
    tracer.exit()
    tracer.exit()
    tracer.exit()
    spans = {s[1]: s for s in tracer.report()["spans"]}
    assert set(spans) == {child.ROOT, "agents.train_agent[PPO]"}
    assert spans["agents.train_agent[PPO]"][4] == spans[child.ROOT][0]


def test_wrapper_closes_span_when_call_raises():
    tracer = child.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = child._wrap(boom, "ensemble.boom", tracer)
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.report()["calls"][0][:3] == ["ensemble.boom", None, 1]
    assert tracer._stack == []


@pytest.fixture(scope="module")
def small_traced_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("small")
    inputs = wl.write_inputs(SMALL, 3, work)
    result = run.spawn(REPO, work, True, 120)
    run.check_run(result, work, inputs, SMALL)
    return result, work, inputs


def test_small_traced_run_crosses_cli_load_bars(small_traced_run):
    result, _, inputs = small_traced_run
    assert result["exit"] == 0 and result["problems"] == []
    calls = {(n, p) for n, p, *_ in result["report"]["calls"]}
    # cli imported load_bars by name; only a wrapper at rlfolio.cli.load_bars
    # makes the root span its parent.
    assert ("market_data.load_bars", child.ROOT) in calls
    assert result["report"]["counts"]["rows_rejected"] == inputs["rows_rejected"]
    layers = run.layer_metrics(result, result["backtest_wall_s"])
    assert layers["env.steps"] == inputs["env_steps"]
    assert layers["ensemble.quarters"] == SMALL.quarters
    assert abs(layers["trace.unattributed_s"]) < 0.5


def test_bundle_check_rejects_a_bad_equity_curve(small_traced_run, tmp_path):
    _, work, inputs = small_traced_run
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    for name in run.BUNDLE_FILES:
        (bundle / name).write_bytes((work / "bundle" / name).read_bytes())
    assert run.bundle_problems(bundle, inputs, SMALL.quarters) == []
    path = bundle / "equity_ddpg.csv"
    rows = list(csv.reader(path.open()))
    rows[2][1] = "-1.0"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert run.bundle_problems(bundle, inputs, SMALL.quarters) == [
        "equity_ddpg.csv has a non-finite or non-positive value"]

