"""The benchmark's workloads: inputs from a seed, set-up, timed operations, checks.

Each workload is a function ``run_<name>(seed, seconds, reference, tracer)``
returning a :class:`RunResult`.  Inputs are a pure function of the workload
seed (the ``*_inputs`` functions), and the planner only ever sees the
generated :class:`~repro.scenarios.ScenarioSpec` objects.  Operations start
until ``seconds`` of timed work have passed and always run to completion, so
a run measures whole plans, sweep rounds, replays and requests.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import math
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from harness import Outcome, WrongAnswer, check_plan, median, ratio
from repro.operator.replay import OperateConfig, operate_plan
from repro.scenarios import ExperimentRunner, ScenarioSpec, get_scenario
from repro.serve import HttpFrontend, PlanServer, ServeConfig
from seeds import rng
from spans import Tracer

HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Catalogue seeds plan-world draws from; reference.json holds each one's plan.
CATALOG_POOL = tuple(range(1, 17))
#: The paper's full world catalogue (Sec. III-D).
WORLD_LOCATIONS = 1373

#: The registered cost-vs-green sweeps of Figs. 8-10.
PAPER_SWEEPS = ("fig08", "fig09", "fig10")

#: Rolling-horizon replay length: 30 days of hourly steps, the paper's
#: monthly cost unit.
REPLAY_STEPS = 720
REPLAY_POLICIES = ("forecast", "oracle")

#: The load generator's closed-loop keep-alive clients (one connection each).
SERVE_CLIENTS = 2
#: The downsized registered specs ``benchmarks/serve_load.py`` replays, kept
#: here so an edit to that script cannot silently change these inputs.
SERVE_SCENARIOS = (
    "smoke", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "table2",
)
SERVE_DISTINCT = 12
SERVE_OVERRIDES = dict(
    num_locations=12,
    catalog_seed=3,
    days_per_season=1,
    hours_per_epoch=6,
    total_capacity_kw=20_000.0,
    search={
        "keep_locations": 4,
        "max_iterations": 3,
        "patience": 3,
        "num_chains": 1,
        "seed": 3,
        "max_datacenters": 3,
    },
)

Labelled = Tuple[str, ScenarioSpec]


@dataclass
class RunResult:
    """What one workload run measured.

    ``ops`` is the number of timed operations (plans, requests or replays)
    that the per-layer metrics are divided by; ``windows`` are the timed
    intervals whose spans the per-layer metrics cover.
    """

    setup_samples: List[float]
    timed_s: float
    outcome: Outcome
    latencies: List[float]
    delivered: int
    ops: int
    windows: List[Tuple[float, float]]
    end_to_end: Dict[str, Tuple[float, str]]
    report: Dict[str, Any] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)


def _runner() -> ExperimentRunner:
    return ExperimentRunner(cache_dir=None, workers=1, executor="serial")


def _op_span(tracer: Optional[Tracer], name: str, op: str):
    return tracer.span(name, op=op) if tracer is not None else contextlib.nullcontext()


def _runner_layer(stats: List[Mapping[str, int]], ops: int) -> Dict[str, float]:
    """Per-operation runner and compiler-skeleton counts."""

    def total(key: str) -> float:
        return sum(entry.get(key, 0) for entry in stats) / max(ops, 1)

    return {
        "runner.catalog_builds": total("catalog_builds"),
        "runner.profile_builds": total("profile_builds"),
        "runner.problem_builds": total("problem_builds"),
        "runner.memo_hits": total("memo_hits"),
        "provisioning.skeleton_builds": total("skeleton_builds"),
        "provisioning.skeleton_derives": total("skeleton_derives"),
    }


def _plan_counts(point: Any, runner: ExperimentRunner) -> Dict[str, int]:
    """The exact, repeatable work counts of one plan."""
    stats = getattr(point.solution, "stats", None) or {}
    cache = runner.cache_stats()
    return {
        "lps_solved": int(point.record["evaluations"]),
        "memo_hits": int(point.record["solver_cache_hits"]),
        "candidates_priced": int(stats.get("filter_priced", 0)),
        "skeleton_builds": int(cache["skeleton_builds"]),
        "skeleton_derives": int(cache["skeleton_derives"]),
    }


def _heuristic_layer(records: List[Mapping[str, Any]], ops: int) -> Dict[str, float]:
    solved = sum(record["evaluations"] for record in records)
    hits = sum(record["solver_cache_hits"] for record in records)
    return {
        "heuristic.lps_solved": solved / max(ops, 1),
        "heuristic.memo_hit_rate": ratio(hits, solved + hits),
    }


# -- plan-world -----------------------------------------------------------------


def plan_world_inputs(seed: int) -> Iterator[Labelled]:
    """Cold 1373-location plans, catalogue seeds drawn from the pool."""
    base = get_scenario("sec3d").build().base.with_updates(num_locations=WORLD_LOCATIONS)
    order = rng("plan-world", seed).sample(CATALOG_POOL, len(CATALOG_POOL))
    index = 0
    while True:
        catalog_seed = order[index % len(order)]
        yield f"plan-world/catalog-{catalog_seed}", base.with_updates(catalog_seed=catalog_seed)
        index += 1


def run_plan_world(
    seed: int, seconds: float, reference: Mapping[str, Any], tracer: Optional[Tracer]
) -> RunResult:
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        inputs = plan_world_inputs(seed)
        setup_samples.append(time.perf_counter() - started)

    outcome = Outcome()
    latencies: List[float] = []
    windows: List[Tuple[float, float]] = []
    records: List[Mapping[str, Any]] = []
    runner_stats: List[Mapping[str, int]] = []
    counts: Dict[str, Dict[str, int]] = {}
    timed = 0.0
    while timed < seconds:
        label, spec = next(inputs)
        runner = _runner()

        def plan() -> Any:
            point = runner.run_point(spec)
            check_plan(label, point.record, spec, reference)
            return point

        started = time.perf_counter()
        with _op_span(tracer, "bench.plan", f"plan {outcome.attempted}: {label}"):
            ok, point, elapsed = outcome.attempt(plan)
        windows.append((started, time.perf_counter()))
        timed += elapsed
        runner_stats.append(runner.cache_stats())
        if ok:
            latencies.append(elapsed)
            records.append(point.record)
            counts.setdefault(label, _plan_counts(point, runner))

    plans = len(latencies)
    layer = _runner_layer(runner_stats, outcome.attempted)
    layer.update(_heuristic_layer(records, outcome.attempted))
    plan_s = median(latencies)
    return RunResult(
        setup_samples=setup_samples,
        timed_s=timed,
        outcome=outcome,
        latencies=latencies,
        delivered=plans,
        ops=outcome.attempted,
        windows=windows,
        end_to_end={
            "plan_s": (plan_s, "s"),
            "plans_per_s": (ratio(plans, timed), "1/s"),
        },
        report={"counts_per_plan": counts},
        layer=layer,
    )


# -- sweep-paper ----------------------------------------------------------------


def sweep_paper_inputs(seed: int, round_index: int) -> List[Labelled]:
    """The 45 points of Figs. 8-10, in a seed-drawn order for each round."""
    points = [
        (
            f"{name}/{point.overrides['sources']}/{point.overrides['min_green_fraction']}",
            point.spec,
        )
        for name in PAPER_SWEEPS
        for point in get_scenario(name).build().points()
    ]
    rng("sweep-paper", seed, round_index).shuffle(points)
    return points


def run_sweep_paper(
    seed: int, seconds: float, reference: Mapping[str, Any], tracer: Optional[Tracer]
) -> RunResult:
    base = get_scenario(PAPER_SWEEPS[0]).build().base

    def set_up() -> ExperimentRunner:
        # One serial runner per round, its catalogue and profiles built up
        # front: every point of the three sweeps shares them.
        runner = _runner()
        runner.tool_for(base)
        return runner

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        runner = set_up()
        setup_samples.append(time.perf_counter() - started)

    outcome = Outcome()
    latencies: List[float] = []
    windows: List[Tuple[float, float]] = []
    # Points that canonicalise alike are solved once; their memo-served
    # duplicates must not count that search twice.
    distinct: Dict[Tuple[int, str], Mapping[str, Any]] = {}
    runner_stats: List[Mapping[str, int]] = []
    counts: Dict[str, Any] = {}
    timed = 0.0
    rounds = 0
    while timed < seconds:
        if rounds:
            runner = set_up()
        round_counts = {"lps_solved": 0, "memo_hits": 0, "candidates_priced": 0}
        started = time.perf_counter()
        for label, spec in sweep_paper_inputs(seed, rounds):

            def plan(label: str = label, spec: ScenarioSpec = spec) -> Any:
                point = runner.run_point(spec)
                check_plan(label, point.record, spec, reference)
                return point

            with _op_span(tracer, "bench.plan", f"round {rounds}: {label}"):
                ok, point, elapsed = outcome.attempt(plan)
            if not ok:
                continue
            latencies.append(elapsed)
            key = (rounds, spec.content_hash())
            if key in distinct:
                continue
            distinct[key] = point.record
            stats = getattr(point.solution, "stats", None) or {}
            round_counts["lps_solved"] += int(point.record["evaluations"])
            round_counts["memo_hits"] += int(point.record["solver_cache_hits"])
            round_counts["candidates_priced"] += int(stats.get("filter_priced", 0))
        windows.append((started, time.perf_counter()))
        timed += windows[-1][1] - started
        cache = runner.cache_stats()
        runner_stats.append(cache)
        round_counts["skeleton_builds"] = int(cache["skeleton_builds"])
        round_counts["skeleton_derives"] = int(cache["skeleton_derives"])
        counts[f"round {rounds}"] = round_counts
        rounds += 1

    layer = _runner_layer(runner_stats, outcome.attempted)
    layer.update(_heuristic_layer(list(distinct.values()), outcome.attempted))
    return RunResult(
        setup_samples=setup_samples,
        timed_s=timed,
        outcome=outcome,
        latencies=latencies,
        delivered=len(latencies),
        ops=outcome.attempted,
        windows=windows,
        end_to_end={
            "plan_s": (median(latencies), "s"),
            "plans_per_s": (ratio(len(latencies), timed), "1/s"),
        },
        report={"rounds": rounds, "counts_per_round": counts},
        layer=layer,
    )


# -- operate-month --------------------------------------------------------------


def operate_month_inputs(seed: int) -> Iterator[int]:
    """Traffic seeds of successive replays."""
    generator = rng("operate-month", seed)
    while True:
        yield generator.randrange(2**31)


def check_replay(record: Mapping[str, Any]) -> None:
    """A completed replay covers every step with finite costs, both policies."""
    if record["steps"] != REPLAY_STEPS:
        raise WrongAnswer(f"replay covered {record['steps']} of {REPLAY_STEPS} steps")
    for policy in REPLAY_POLICIES:
        if not math.isfinite(record[policy]["cost_usd"]):
            raise WrongAnswer(f"{policy} replay cost is {record[policy]['cost_usd']}")


def run_operate_month(
    seed: int, seconds: float, reference: Mapping[str, Any], tracer: Optional[Tracer]
) -> RunResult:
    spec = get_scenario("operate-fig06").build().base
    plan_spec = spec.with_updates(workflow="plan")
    label = "operate-fig06/plan"

    def set_up() -> Any:
        point = _runner().run_point(plan_spec)
        check_plan(label, point.record, plan_spec, reference)
        return point.solution.plan

    setup_samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        plan = set_up()
        setup_samples.append(time.perf_counter() - started)

    outcome = Outcome()
    windows: List[Tuple[float, float]] = []
    completed: List[float] = []
    records: List[Mapping[str, Any]] = []
    counts: Dict[str, Any] = {}
    traffic = operate_month_inputs(seed)
    timed = 0.0
    while timed < seconds:
        traffic_seed = next(traffic)
        config = OperateConfig(
            **{**spec.operate_knobs(), "steps": REPLAY_STEPS, "traffic_seed": traffic_seed}
        )

        def replay() -> Mapping[str, Any]:
            record = operate_plan(
                plan, config, total_capacity_kw=spec.total_capacity_kw, faults=spec.fault_spec()
            )
            check_replay(record)
            return record

        started = time.perf_counter()
        with _op_span(tracer, "bench.replay", f"replay {outcome.attempted}: traffic {traffic_seed}"):
            ok, record, elapsed = outcome.attempt(replay)
        windows.append((started, time.perf_counter()))
        timed += elapsed
        if ok:
            completed.append(elapsed)
            records.append(record)
            counts[f"traffic {traffic_seed}"] = {
                policy: {
                    key: record[policy][key]
                    for key in ("lp_solves", "cold_loads", "slides", "simplex_iterations")
                }
                for policy in REPLAY_POLICIES
            }
        else:
            counts[f"traffic {traffic_seed}"] = "failed"

    steps = len(completed) * REPLAY_STEPS * len(REPLAY_POLICIES)

    def policy_total(key: str) -> float:
        return sum(record[policy][key] for record in records for policy in REPLAY_POLICIES)

    warm = sum(
        record[policy]["warm_start_rate"] * record[policy]["lp_solves"]
        for record in records
        for policy in REPLAY_POLICIES
    )
    layer = {
        "dispatch.cold_loads": policy_total("cold_loads") / max(outcome.attempted, 1),
        "dispatch.slides": policy_total("slides") / max(outcome.attempted, 1),
        "dispatch.warm_share": ratio(warm, policy_total("lp_solves")),
    }
    return RunResult(
        setup_samples=setup_samples,
        timed_s=timed,
        outcome=outcome,
        latencies=completed,
        delivered=steps,
        ops=outcome.attempted,
        windows=windows,
        end_to_end={"replay_steps_per_s": (ratio(steps, sum(completed)), "1/s")},
        report={"counts_per_replay": counts},
        layer=layer,
    )


# -- serve-repeat ---------------------------------------------------------------


def serve_repeat_specs() -> List[Labelled]:
    """The distinct downsized registered specs the request stream mixes."""
    specs: List[Labelled] = []
    seen = set()
    for name in SERVE_SCENARIOS:
        for index, point in enumerate(get_scenario(name).build().points()):
            spec = point.spec.with_updates(**SERVE_OVERRIDES)
            key = spec.content_hash()
            if key in seen:
                continue
            seen.add(key)
            specs.append((f"serve/{name}/{index}", spec))
            if len(specs) == SERVE_DISTINCT:
                return specs
    return specs


class ServerThread:
    """A :class:`PlanServer` behind its HTTP front-end, on a loopback port.

    The event loop runs on a background thread of this process; the load
    generator reaches it over real TCP connections.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, name="perfbench-serve")

    def _run(self) -> None:
        async def main() -> None:
            frontend = HttpFrontend(PlanServer(self.config), port=0)
            await frontend.start()
            self.port = frontend.port
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await frontend.stop(grace_s=30.0)

        try:
            asyncio.run(main())
        except Exception as error:  # noqa: BLE001 - reported by start()
            self._error = error
            self._ready.set()

    def start(self) -> None:
        self._thread.start()
        if not self._ready.wait(timeout=60.0) or self._error is not None:
            raise RuntimeError(f"serve thread did not come up: {self._error!r}")

    def metrics(self) -> Dict[str, Any]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60.0)
        try:
            connection.request("GET", "/metrics")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=120.0)
        if self._thread.is_alive():
            raise RuntimeError("serve thread did not stop")


def _finite(value: Any) -> float:
    value = float(value) if value is not None else float("nan")
    return value if math.isfinite(value) else 0.0


def run_serve_repeat(
    seed: int, seconds: float, reference: Mapping[str, Any], tracer: Optional[Tracer]
) -> RunResult:
    config = ServeConfig(executor="thread", queue_limit=64, timeout_s=300.0)
    setup_samples = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        specs = serve_repeat_specs()
        payloads = [json.dumps({"spec": spec.to_dict()}) for _, spec in specs]
        server = ServerThread(config)
        server.start()
        setup_samples.append(time.perf_counter() - started)
        if repeat < SETUP_REPEATS - 1:
            server.stop()

    load_started = time.perf_counter()
    try:
        load = subprocess.run(
            [sys.executable, str(HERE / "serve_client.py")],
            input=json.dumps(
                {
                    "port": server.port,
                    "payloads": payloads,
                    "seed": seed,
                    "seconds": seconds,
                    "clients": SERVE_CLIENTS,
                }
            ),
            capture_output=True,
            text=True,
            timeout=seconds + 120.0,
            check=True,
        )
        load_ended = time.perf_counter()
        metrics = server.metrics()
    finally:
        server.stop()
    client = json.loads(load.stdout)

    outcome = Outcome(attempted=client["attempted"], failed=len(client["failures"]))
    for cause in client["failures"]:
        outcome.causes[cause] += 1
    # Every distinct record served must be bit-identical to a direct run.
    differential = 0
    planned: List[Mapping[str, Any]] = []
    for index_text, served in client["records"].items():
        label, spec = specs[int(index_text)]
        direct = _runner().run_point(spec).record
        if direct["workflow"] == "plan":
            planned.append(direct)
        try:
            if json.dumps(direct, sort_keys=True) != served:
                raise WrongAnswer(f"{label}: served record differs from a direct run")
            check_plan(label, direct, spec, reference)
        except WrongAnswer as error:
            wrong = client["ok_per_spec"][index_text]
            outcome.failed += wrong
            outcome.wrong += wrong
            outcome.causes[f"wrong answer: {error}"] += wrong
        differential += 1

    latencies = client["latencies"]
    elapsed = client["elapsed_s"]
    ok = client["ok"] - outcome.wrong
    client_p50 = median(latencies)
    server_p50 = _finite(metrics["latency"]["p50_s"])
    caches = metrics["worker_caches"]
    layer = _runner_layer([caches["counters"]], outcome.attempted)
    # The server solved each distinct spec once, as the direct runs did.
    layer.update(_heuristic_layer(planned, outcome.attempted))
    requests = metrics["requests_total"]
    layer.update(
        {
            "serve.requests": requests,
            "serve.solves_started": metrics["solves_started"],
            "serve.dedup_share": ratio(metrics["dedup_hits"], requests),
            "serve.server_p50_ms": server_p50 * 1000.0,
            "serve.transport_p50_ms": (client_p50 - server_p50) * 1000.0,
            "serve.worker_skeleton_warm_rate": _finite(caches["skeleton_warm_rate"]),
        }
    )
    return RunResult(
        setup_samples=setup_samples,
        timed_s=elapsed,
        outcome=outcome,
        latencies=latencies,
        delivered=ok,
        ops=outcome.attempted,
        windows=[(load_started, load_ended)],
        end_to_end={
            "plan_s": (client_p50, "s"),
            "plans_per_s": (ratio(ok, elapsed), "1/s"),
        },
        report={
            "distinct_specs": len(specs),
            "differential_checked": differential,
            # Dedup depends on thread timing: measured, not exact.
            "dedup_hits": metrics["dedup_hits"],
            "solves_started": metrics["solves_started"],
        },
        layer=layer,
    )


WORKLOADS = {
    "plan-world": run_plan_world,
    "sweep-paper": run_sweep_paper,
    "operate-month": run_operate_month,
    "serve-repeat": run_serve_repeat,
}
