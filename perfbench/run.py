"""End-to-end planner benchmark.

Runs one workload of :mod:`workloads` from a single process, checks every
output, and prints a report followed, as the last line, by one JSON object::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

Usage, from the repository root::

    python3 perfbench/run.py --workload plan-world --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
first repeats that untraced run, then runs the workload again with a span
around every public call of each layer (see :mod:`spans`); it prints the
per-layer metrics, the tracing overhead (traced minus untraced end-to-end
metrics) and writes the spans as Chrome trace-event JSON under
``perfbench/out/``.

Per-layer counts and seconds are per operation: one plan (plan-world,
sweep-paper), one request (serve-repeat) or one replay (operate-month).
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

from harness import median, ratio, tail  # noqa: E402
from spans import Tracer, totals_by_name  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = HERE / "out"

#: Times, in a fresh interpreter, the imports this process pays before its
#: first set-up.
IMPORT_PROBE = (
    "import sys, time\n"
    "started = time.perf_counter()\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import workloads\n"
    "print(time.perf_counter() - started)\n"
)

#: Per-layer metrics: (name, unit, better).  ``/op`` units are per operation.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("bench.ops", "count", "higher"),
    ("weather.generate.calls", "count/op", "lower"),
    ("weather.generate.s", "s/op", "lower"),
    ("geo.nearest.calls", "count/op", "lower"),
    ("geo.nearest.s", "s/op", "lower"),
    ("energy.profile_build.calls", "count/op", "lower"),
    ("energy.profile_build.self_s", "s/op", "lower"),
    ("runner.catalog_builds", "count/op", "lower"),
    ("runner.profile_builds", "count/op", "lower"),
    ("runner.problem_builds", "count/op", "lower"),
    ("runner.memo_hits", "count/op", "higher"),
    ("provisioning.compile.calls", "count/op", "lower"),
    ("provisioning.compile.s", "s/op", "lower"),
    ("provisioning.skeleton_builds", "count/op", "lower"),
    ("provisioning.skeleton_derives", "count/op", "lower"),
    ("provisioning.evaluate.calls", "count/op", "lower"),
    ("provisioning.evaluate.self_s", "s/op", "lower"),
    ("screening.bound.s", "s/op", "lower"),
    ("screening.price_batch.calls", "count/op", "lower"),
    ("screening.price_batch.self_s", "s/op", "lower"),
    ("screening.priced_share", "ratio", "lower"),
    ("heuristic.filter.s", "s/op", "lower"),
    ("heuristic.search.s", "s/op", "lower"),
    ("heuristic.refine.s", "s/op", "lower"),
    ("heuristic.lps_solved", "count/op", "lower"),
    ("heuristic.memo_hit_rate", "ratio", "higher"),
    ("highs.batch_solve.calls", "count/op", "lower"),
    ("highs.batch_solve.s", "s/op", "lower"),
    ("highs.model_solve.calls", "count/op", "lower"),
    ("highs.model_solve.s", "s/op", "lower"),
    ("highs.simplex_iterations", "count/op", "lower"),
    ("traffic.synthesize.s", "s/op", "lower"),
    ("forecast.window.s", "s/op", "lower"),
    ("dispatch.advance.calls", "count/op", "lower"),
    ("dispatch.advance.self_s", "s/op", "lower"),
    ("dispatch.cold_loads", "count/op", "lower"),
    ("dispatch.slides", "count/op", "lower"),
    ("dispatch.warm_share", "ratio", "higher"),
    ("serve.requests", "count", "higher"),
    ("serve.solves_started", "count", "lower"),
    ("serve.dedup_share", "ratio", "higher"),
    ("serve.server_p50_ms", "ms", "lower"),
    ("serve.transport_p50_ms", "ms", "lower"),
    ("serve.worker_skeleton_warm_rate", "ratio", "higher"),
    ("layers.profile_share", "ratio", "lower"),
    ("layers.planner_share", "ratio", "lower"),
    ("layers.operator_share", "ratio", "lower"),
)

#: Span names whose self time makes up each layer group's share of the
#: busy time in the timed phase.
LAYER_GROUPS = {
    "layers.profile_share": ("weather.generate", "geo.nearest", "energy.profile_build"),
    "layers.planner_share": (
        "provisioning.compile",
        "provisioning.evaluate",
        "screening.bound",
        "screening.price_batch",
        "heuristic.filter",
        "heuristic.solve",
        "heuristic.refine",
        "highs.batch_solve",
        "highs.model_solve",
    ),
    "layers.operator_share": (
        "replay.run",
        "traffic.synthesize",
        "forecast.window",
        "dispatch.advance",
        "highs.model_solve",
    ),
}

#: Span metrics: metric name -> (span name, "calls" | "s" | "self_s").
SPAN_METRICS = {
    "weather.generate.calls": ("weather.generate", "calls"),
    "weather.generate.s": ("weather.generate", "s"),
    "geo.nearest.calls": ("geo.nearest", "calls"),
    "geo.nearest.s": ("geo.nearest", "s"),
    "energy.profile_build.calls": ("energy.profile_build", "calls"),
    "energy.profile_build.self_s": ("energy.profile_build", "self_s"),
    "provisioning.compile.calls": ("provisioning.compile", "calls"),
    "provisioning.compile.s": ("provisioning.compile", "s"),
    "provisioning.evaluate.calls": ("provisioning.evaluate", "calls"),
    "provisioning.evaluate.self_s": ("provisioning.evaluate", "self_s"),
    "screening.bound.s": ("screening.bound", "s"),
    "screening.price_batch.calls": ("screening.price_batch", "calls"),
    "screening.price_batch.self_s": ("screening.price_batch", "self_s"),
    "heuristic.filter.s": ("heuristic.filter", "s"),
    "heuristic.refine.s": ("heuristic.refine", "s"),
    "highs.batch_solve.calls": ("highs.batch_solve", "calls"),
    "highs.batch_solve.s": ("highs.batch_solve", "s"),
    "highs.model_solve.calls": ("highs.model_solve", "calls"),
    "highs.model_solve.s": ("highs.model_solve", "s"),
    "traffic.synthesize.s": ("traffic.synthesize", "s"),
    "forecast.window.s": ("forecast.window", "s"),
    "dispatch.advance.calls": ("dispatch.advance", "calls"),
    "dispatch.advance.self_s": ("dispatch.advance", "self_s"),
}

#: Gated end-to-end metrics per workload, in print order.
END_TO_END = {
    "plan-world": ("setup_s", "plan_s", "plans_per_s", "peak_rss_mb"),
    "sweep-paper": ("setup_s", "plan_s", "plans_per_s", "peak_rss_mb"),
    "serve-repeat": ("setup_s", "plan_s", "plans_per_s", "peak_rss_mb"),
    "operate-month": ("setup_s", "replay_steps_per_s", "peak_rss_mb"),
}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(END_TO_END))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_probe() -> float:
    """Seconds a fresh interpreter spends on this benchmark's imports."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)],
        capture_output=True,
        text=True,
        timeout=120.0,
        check=True,
    )
    return float(probe.stdout.strip())


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: str, result: Any, import_samples: List[float]) -> Dict[str, Any]:
    """The workload's gated end-to-end metrics as ``{name: (value, unit)}``."""
    setups = [imports + setup for imports, setup in zip(import_samples, result.setup_samples)]
    values = dict(result.end_to_end)
    values["setup_s"] = (median(setups), "s")
    values["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return {name: values[name] for name in END_TO_END[workload]}


def layer_metrics(tracer: Any, result: Any) -> Dict[str, float]:
    """Every per-layer metric, from the spans inside the timed windows."""

    def timed(start: float, end: float) -> bool:
        return any(low <= start and end <= high for low, high in result.windows)

    spans = [span for span in tracer.spans if timed(span.start, span.end)]
    totals = totals_by_name(spans)
    counts: Dict[str, int] = {}
    for stamp, name, amount in tracer.counts:
        if timed(stamp, stamp):
            counts[name] = counts.get(name, 0) + amount
    ops = max(result.ops, 1)

    def span_value(name: str, kind: str) -> float:
        entry = totals.get(name)
        if entry is None:
            return 0.0
        return {"calls": entry.calls, "s": entry.inclusive_s, "self_s": entry.self_s}[kind]

    metrics: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    metrics["bench.ops"] = float(result.ops)
    for metric, (name, kind) in SPAN_METRICS.items():
        metrics[metric] = span_value(name, kind) / ops
    metrics["heuristic.search.s"] = (
        span_value("heuristic.solve", "s")
        - span_value("heuristic.filter", "s")
        - span_value("heuristic.refine", "s")
    ) / ops
    metrics["highs.simplex_iterations"] = counts.get("highs.simplex_iterations", 0) / ops
    metrics["screening.priced_share"] = ratio(
        counts.get("screening.priced", 0), counts.get("screening.screened", 0)
    )
    # Shares of busy time: the self time of every recorded span, so work on
    # the heuristic's worker threads counts once per thread and a share
    # never exceeds 1.
    busy = sum(entry.self_s for entry in totals.values())
    for metric, names in LAYER_GROUPS.items():
        metrics[metric] = ratio(sum(span_value(name, "self_s") for name in names), busy)
    metrics.update(result.layer)
    return metrics


def _json_number(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


def summary_line(correct: bool, outcome: Any, metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": _json_number(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )


def report(workload: str, seed: int, result: Any, metrics: Dict[str, Tuple[float, str]]) -> None:
    """Human-readable lines: every end-to-end metric by name and unit, the
    failure accounting with causes, and the exact work counts."""
    outcome = result.outcome
    print(
        f"{workload} seed {seed}: {outcome.attempted} operations, {result.delivered} "
        f"delivered in {result.timed_s:.3f} s timed"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if workload == "serve-repeat":
        print(f"  request_p50_ms = {1000.0 * median(result.latencies):.6g} ms")
        high = tail(result.latencies)
        if high is not None:
            print(
                f"  request_tail_ms = {1000.0 * high['value']:.6g} ms at p{high['percentile']:g} "
                f"({high['beyond']} of {high['samples']} samples beyond it)"
            )
    print(f"  failed_share = {outcome.failed_share:.6g} ratio ({outcome.failed} of {outcome.attempted})")
    for cause, count in outcome.causes.most_common():
        print(f"  failed x{count}: {cause}")
    for key, value in result.report.items():
        print(f"  {key}: {json.dumps(value, sort_keys=True)}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not REFERENCE.is_file():
        print(
            f"perfbench: needs the repro sources under {SRC} and {REFERENCE.name}; "
            "run it from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads  # needs the repro sources on the path

    import_samples = [time.perf_counter() - _STARTED]
    import_samples += [import_probe() for _ in range(workloads.SETUP_REPEATS - 1)]
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)["plans"]
    run = workloads.WORKLOADS[args.workload]

    result = run(args.seed, args.seconds, reference, None)
    metrics = end_to_end(args.workload, result, import_samples)
    report(args.workload, args.seed, result, metrics)
    if not args.trace:
        print(summary_line(result.outcome.wrong == 0, result.outcome, metrics))
        return 0

    tracer = Tracer()
    tracer.install()
    try:
        traced = run(args.seed, args.seconds, reference, tracer)
    finally:
        tracer.uninstall()
    traced_metrics = end_to_end(args.workload, traced, import_samples)
    print("traced run:")
    report(args.workload, args.seed, traced, traced_metrics)
    print("tracing overhead (traced - untraced):")
    for name, (value, unit) in traced_metrics.items():
        base = metrics[name][0]
        print(f"  {name}: {value - base:+.6g} {unit} ({100.0 * (value - base) / base:+.2f} %)")
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome_trace(str(path))
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(HERE.parent)}")
    layers = layer_metrics(tracer, traced)
    units = {name: unit for name, unit, _ in PER_LAYER}
    correct = result.outcome.wrong == 0 and traced.outcome.wrong == 0
    print(summary_line(correct, traced.outcome, {name: (layers[name], units[name]) for name in units}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
