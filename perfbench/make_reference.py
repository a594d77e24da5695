"""Record the reference plans the benchmark checks its outputs against.

Solves every plan the workloads can request — each plan-world catalogue seed
of the pool, the 45 points of Figs. 8-10, the serve-repeat specs and the
operate-month plan — with a fresh serial runner, and writes whether each is
feasible and its monthly cost to ``perfbench/reference.json``.  Run it from
the repository root, only when a change is meant to alter plans::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from harness import plan_summary  # noqa: E402
from repro.scenarios import get_scenario  # noqa: E402


def labelled_specs():
    inputs = workloads.plan_world_inputs(0)
    for _ in workloads.CATALOG_POOL:
        yield next(inputs)
    yield from sorted(workloads.sweep_paper_inputs(0, 0), key=lambda item: item[0])
    yield from workloads.serve_repeat_specs()
    yield "operate-fig06/plan", get_scenario("operate-fig06").build().base.with_updates(
        workflow="plan"
    )


def main() -> int:
    plans = {}
    for label, spec in labelled_specs():
        record = workloads.ExperimentRunner(cache_dir=None, workers=1, executor="serial").run_point(
            spec
        ).record
        feasible, _, _, cost = plan_summary(record)
        plans[label] = {
            "feasible": feasible,
            "monthly_cost": cost if math.isfinite(cost) else None,
        }
        print(f"{label}: {plans[label]}", flush=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as handle:
        json.dump({"plans": dict(sorted(plans.items()))}, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
