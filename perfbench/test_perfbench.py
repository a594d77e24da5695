"""Self-tests of the benchmark itself (not of the planner).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from harness import Outcome, WrongAnswer, tail  # noqa: E402
from seeds import request_stream  # noqa: E402
from spans import Span, Tracer, self_times, totals_by_name  # noqa: E402


def _plan_world_hashes(seed: int, count: int = 4):
    inputs = workloads.plan_world_inputs(seed)
    return [next(inputs)[1].content_hash() for _ in range(count)]


def test_inputs_are_a_pure_function_of_the_seed():
    assert _plan_world_hashes(7) == _plan_world_hashes(7)
    assert [label for label, _ in workloads.sweep_paper_inputs(7, 1)] == [
        label for label, _ in workloads.sweep_paper_inputs(7, 1)
    ]
    first = workloads.operate_month_inputs(7)
    again = workloads.operate_month_inputs(7)
    assert [next(first) for _ in range(5)] == [next(again) for _ in range(5)]
    streams = [request_stream(7, client, 12) for client in (0, 0)]
    assert [next(streams[0]) for _ in range(50)] == [next(streams[1]) for _ in range(50)]


def test_a_different_seed_gives_a_different_catalogue():
    first, second = workloads.plan_world_inputs(7), workloads.plan_world_inputs(8)
    seeds_a = [next(first)[1].catalog_seed for _ in range(4)]
    seeds_b = [next(second)[1].catalog_seed for _ in range(4)]
    assert seeds_a != seeds_b
    assert _plan_world_hashes(7) != _plan_world_hashes(8)
    assert set(seeds_a) <= set(workloads.CATALOG_POOL)


def test_every_generated_plan_has_a_reference():
    reference = json.loads((HERE / "reference.json").read_text())["plans"]
    inputs = workloads.plan_world_inputs(0)
    labels = [next(inputs)[0] for _ in workloads.CATALOG_POOL]
    labels += [label for label, _ in workloads.sweep_paper_inputs(0, 0)]
    labels += [label for label, _ in workloads.serve_repeat_specs()]
    assert set(labels) <= set(reference)
    assert len(workloads.serve_repeat_specs()) == workloads.SERVE_DISTINCT


@pytest.mark.parametrize(
    "count, percentile, beyond",
    [(1000, 99.0, 10), (999, 95.0, 49), (20, 50.0, 10), (100_000, 99.99, 10)],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, percentile, beyond):
    values = [float(index) for index in range(count)]
    high = tail(values)
    assert high["percentile"] == percentile
    assert high["beyond"] == beyond
    assert high["samples"] == count
    assert sum(value > high["value"] for value in values) == beyond


def test_tail_needs_ten_samples_beyond_the_median():
    assert tail([float(index) for index in range(19)]) is None
    assert tail([float(index) for index in range(20)])["beyond"] == 10


def test_a_raising_operation_is_counted_and_the_run_goes_on():
    def broken():
        raise ValueError("the moved power cannot be negative")

    def wrong():
        raise WrongAnswer("monthly cost 1.0 != reference 2.0")

    outcome = Outcome()
    results = [outcome.attempt(op) for op in (lambda: 1, broken, wrong, lambda: 2)]
    assert [ok for ok, _, _ in results] == [True, False, False, True]
    assert [value for _, value, _ in results] == [1, None, None, 2]
    assert (outcome.attempted, outcome.failed, outcome.wrong) == (4, 2, 1)
    assert outcome.failed_share == 0.5
    causes = list(outcome.causes)
    assert "ValueError: the moved power cannot be negative (in test_perfbench.broken)" in causes
    assert "wrong answer: monthly cost 1.0 != reference 2.0" in causes


def test_self_time_is_duration_minus_the_time_children_cover():
    spans = [
        Span(id=1, name="parent", start=0.0, end=10.0, parent=None, op="a", tid=1),
        # Overlapping children (another thread) cover 1..5 once, not twice.
        Span(id=2, name="child", start=1.0, end=3.0, parent=1, op="a", tid=1),
        Span(id=3, name="child", start=2.0, end=5.0, parent=1, op="a", tid=2),
        # A child outliving its parent covers only the part inside it.
        Span(id=4, name="child", start=8.0, end=12.0, parent=1, op="a", tid=2),
        Span(id=5, name="grandchild", start=1.5, end=2.5, parent=2, op="a", tid=1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[5] == pytest.approx(1.0)


def test_recorded_spans_nest_and_share_the_operation_id():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    traced_leaf = tracer.wrap(leaf, "leaf")
    with tracer.span("op", op="plan 0"):
        with tracer.span("middle"):
            traced_leaf()
            traced_leaf()
    worker = threading.Thread(target=traced_leaf)
    worker.start()
    worker.join(timeout=10.0)
    assert not worker.is_alive()

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (op,), (middle,) = by_name["op"], by_name["middle"]
    inner = [span for span in by_name["leaf"] if span.parent == middle.id]
    assert len(inner) == 2 and middle.parent == op.id
    assert all(span.op == "plan 0" for span in inner + [middle, op])
    (outside,) = [span for span in by_name["leaf"] if span.parent is None]
    assert outside.op is None
    totals = totals_by_name(tracer.spans)
    assert totals["leaf"].calls == 3
    children = sum(span.end - span.start for span in inner)
    assert totals["middle"].self_s == pytest.approx(middle.end - middle.start - children)


def test_install_wraps_by_name_bindings_once_and_uninstall_restores():
    import repro.core.heuristic as heuristic
    import repro.core.screening as screening

    original = screening.price_batch
    tracer = Tracer()
    tracer.install()
    try:
        assert heuristic.price_batch is screening.price_batch
        assert screening.price_batch is not original
    finally:
        tracer.uninstall()
    assert screening.price_batch is original and heuristic.price_batch is original


def test_benchmark_json_matches_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [
        (entry["name"], entry["unit"], entry["better"]) for entry in spec["per_layer"]
    ] == list(run.PER_LAYER)
    names = [entry["name"] for entry in spec["end_to_end"]]
    for workload in spec["workloads"]:
        assert sorted(run.END_TO_END[workload["name"]]) == sorted(names)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plan-world", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
