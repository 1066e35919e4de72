"""Smoke test of the benchmark: every workload at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import checks, harness  # noqa: E402
from perfbench.speed import REFERENCE_S, Speedometer  # noqa: E402
from perfbench.workloads import WORKLOADS, tiny  # noqa: E402
from rachain import kg as kg_module  # noqa: E402
from rachain.reasoner import ChainContribution  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_COUNTS = ("autodiff.tape_nodes_per_query", "encoder.calls_per_forward",
                "retrieval.chains_per_tree", "retrieval.yield",
                "filter.patterns_per_tree")


def test_manifest_lists_the_workloads():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timed_run_emits_every_end_to_end_metric(name, tmp_path):
    result = harness.run(tiny(WORKLOADS[name]), seed=3, seconds=0.0, trace=False,
                         work_dir=tmp_path)
    assert set(result.metrics) == {m["name"] for m in MANIFEST["end_to_end"]}
    assert all(value > 0 for value in result.metrics.values())
    assert result.tally.attempted > 0
    assert result.tally.failed == 0, result.tally.reasons


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_repeats_counts(name, tmp_path):
    workload = tiny(WORKLOADS[name])
    first = harness.run(workload, seed=3, seconds=0.0, trace=True,
                        work_dir=tmp_path / "a")
    second = harness.run(workload, seed=3, seconds=0.0, trace=True,
                         work_dir=tmp_path / "b")
    assert set(first.metrics) == {m["name"] for m in MANIFEST["per_layer"]}
    assert first.tally.failed == 0, first.tally.reasons
    assert first.missing == []
    for name_ in EXACT_COUNTS:
        assert first.metrics[name_] == second.metrics[name_], name_
    assert first.metrics["retrieval.chains_per_tree"] > 0
    assert first.metrics["autodiff.tape_nodes_per_query"] > 0
    # self times of the layers plus untraced glue make up the traced wall time
    shares = sum(v for k, v in first.metrics.items() if k.startswith("share."))
    assert shares == pytest.approx(1.0, abs=1e-9)


def test_missing_names_and_counters_are_reported_not_raised(tmp_path, monkeypatch):
    from perfbench import tracing

    def renamed_argument(counts, fn, args, kwargs, result):
        raise KeyError("toc")

    monkeypatch.setattr(tracing, "WRAPPED", tracing.WRAPPED + (
        ("rachain.reasoner", "no_such_function", "reasoner.weight", None),
        ("rachain.no_such_module", "f", "model.forward", None)))
    monkeypatch.setitem(tracing.HOOKS, "filter", renamed_argument)
    result = harness.run(tiny(WORKLOADS["train_small"]), seed=3, seconds=0.0,
                         trace=True, work_dir=tmp_path)
    assert result.missing == ["rachain.reasoner.no_such_function",
                              "rachain.no_such_module.f", "filter.select counters"]
    assert result.metrics["trace.missing"] == 3
    assert result.tally.failed == 0


@pytest.fixture(scope="module")
def predicted(tmp_path_factory):
    """One checked prediction with chains, and the oracle of its graph."""
    workload = tiny(WORKLOADS["train_small"])
    data_dir = harness.generate(workload, 3, tmp_path_factory.mktemp("data"))
    plan = harness.Plan(0.0, 1, 1, 1, 4)
    result = harness.run_pass(workload, data_dir, plan, harness.Tally(), 3)
    oracle = checks.GraphOracle(result.kg, data_dir, kg_module.INVERSE_SUFFIX)
    query, _, trace = next(s for s in result.samples if s[2].contributions)
    assert checks.prediction_problems(trace, query, oracle) == []
    return query, trace, oracle


def _with(trace, contributions):
    return dataclasses.replace(trace, contributions=contributions)


def test_checker_fails_omega_that_does_not_sum_to_one(predicted):
    query, trace, oracle = predicted
    bad = [dataclasses.replace(c, weight=c.weight * 0.5) for c in trace.contributions]
    problems = checks.prediction_problems(_with(trace, bad), query, oracle)
    assert "omega does not sum to 1" in problems


def test_checker_fails_an_invalid_chain(predicted):
    query, trace, oracle = predicted
    first = trace.contributions[0]
    rels = (-1,) + first.chain.relations[1:]
    broken = ChainContribution(dataclasses.replace(first.chain, relations=rels),
                               first.weight, first.proposal_norm, first.proposal_value)
    problems = checks.prediction_problems(
        _with(trace, [broken] + trace.contributions[1:]), query, oracle)
    assert "chain hop is not a graph edge" in problems


def test_checker_fails_a_prediction_outside_the_unit_interval(predicted):
    query, trace, oracle = predicted
    bad = dataclasses.replace(trace, predicted_norm=1.5)
    assert "predicted_norm outside [0, 1]" in checks.prediction_problems(bad, query, oracle)


def test_tally_counts_failed_operations():
    tally = harness.Tally()
    tally.record([])
    tally.record(["omega does not sum to 1"])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_speedometer_scales_by_the_reference_and_drops_its_own_time():
    speed = Speedometer()
    speed._starts = [0.0, 0.1, 0.2, 0.3]
    speed._durations = [2 * REFERENCE_S] * 4  # the machine at half speed
    # ticks at 0.1 and 0.2 ran inside the interval
    (scaled,) = speed.scaled([(0.05, 0.25)])
    assert scaled == pytest.approx((0.2 - 4 * REFERENCE_S) / 2)


def test_speedometer_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Speedometer() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed._starts) >= 4
    assert speed.scaled([(t0, t1)])[0] > 0
