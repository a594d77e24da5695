"""Operation accounting, output checks and latency summaries.

Every timed operation of a workload goes through :meth:`Outcome.attempt`: an
exception or a wrong answer marks that one operation failed, with its cause,
and the run goes on.  A wrong answer also makes the run's ``correct`` false;
an exception does not, because it produced no answer to check.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

#: Relative tolerance of a plan's monthly cost against the recorded
#: reference.  Admits last-digit drift from a reordered float computation
#: (the vectorized nearest-infrastructure lookup moves distances by 1 ulp);
#: a different plan moves the cost by far more.
COST_RTOL = 1e-6

#: Slack on the capacity and green-fraction constraints (LP round-off).
CONSTRAINT_ATOL = 1e-9

#: Percentiles the tail latency is chosen from, lowest first.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99, 99.999)


class WrongAnswer(Exception):
    """An operation returned an output that fails a correctness check."""


def failure_cause(error: BaseException) -> str:
    """``Type: message (in module.function)``, naming the innermost frame."""
    where = ""
    trace = error.__traceback__
    if trace is not None:
        while trace.tb_next is not None:
            trace = trace.tb_next
        frame = trace.tb_frame
        where = f" (in {frame.f_globals.get('__name__', '?')}.{frame.f_code.co_name})"
    return f"{type(error).__name__}: {error}{where}"


@dataclass
class Outcome:
    """Attempted, failed and wrong operations of one run, with causes."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    causes: Counter = field(default_factory=Counter)

    def attempt(self, operation: Callable[[], Any]) -> Tuple[bool, Any, float]:
        """Run one operation; returns ``(ok, result, seconds)``, never raises."""
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = operation()
        except WrongAnswer as error:
            self.failed += 1
            self.wrong += 1
            self.causes[f"wrong answer: {error}"] += 1
            return False, None, time.perf_counter() - started
        except Exception as error:  # noqa: BLE001 - counted, and the run goes on
            self.failed += 1
            self.causes[failure_cause(error)] += 1
            return False, None, time.perf_counter() - started
        return True, result, time.perf_counter() - started

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def plan_summary(record: Mapping[str, Any]) -> Tuple[bool, float, Optional[float], float]:
    """``(feasible, capacity_mw, green_fraction, monthly_cost)`` of a record.

    A ``single_site`` record (the cheapest of per-location single-site
    plans) carries no network green fraction: each per-site LP enforces the
    minimum itself, so that entry is ``None``.
    """
    if record["workflow"] == "single_site":
        return (
            record["num_feasible"] > 0,
            record["capacity_kw"] / 1000.0,
            None,
            record["min_monthly_cost"],
        )
    return (
        bool(record["feasible"]),
        record["capacity_mw"],
        record["green_fraction"],
        record["monthly_cost"],
    )


def check_plan(
    label: str, record: Mapping[str, Any], spec: Any, reference: Mapping[str, Any]
) -> None:
    """Raise :class:`WrongAnswer` unless ``record`` is the reference plan.

    A feasible reference needs a feasible plan whose capacity covers the
    demand, whose green fraction meets the spec's minimum, and whose monthly
    cost is within :data:`COST_RTOL` of the reference.  A reference that is
    infeasible (no plan exists, e.g. solar without storage at 100 % green)
    needs an infeasible answer.
    """
    if label not in reference:
        raise WrongAnswer(f"{label}: no reference cost recorded")
    expected = reference[label]
    feasible, capacity_mw, green_fraction, cost = plan_summary(record)
    if not expected["feasible"]:
        if feasible:
            raise WrongAnswer(f"{label}: feasible, but the reference is infeasible")
        return
    if not feasible:
        raise WrongAnswer(f"{label}: infeasible: {record.get('message')}")
    demand_mw = spec.total_capacity_kw / 1000.0
    if not capacity_mw >= demand_mw - CONSTRAINT_ATOL:
        raise WrongAnswer(f"{label}: capacity {capacity_mw} MW < demand {demand_mw} MW")
    if green_fraction is not None and not (
        green_fraction >= spec.min_green_fraction - CONSTRAINT_ATOL
    ):
        raise WrongAnswer(f"{label}: green fraction {green_fraction} < {spec.min_green_fraction}")
    target = expected["monthly_cost"]
    if not abs(cost - target) <= COST_RTOL * abs(target):
        raise WrongAnswer(f"{label}: monthly cost {cost!r} != reference {target!r}")


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest ladder percentile with at least ten samples beyond it.

    Nearest-rank: the p-th percentile of n sorted samples is the
    ``ceil(p/100 * n)``-th, and the samples beyond it are those ranked after
    it.  ``None`` when no ladder percentile has ten samples beyond it (fewer
    than 20 samples).
    """
    ordered = sorted(values)
    count = len(ordered)
    best = None
    for percent in TAIL_LADDER:
        # Rounded first so 99.99 % of 100000 is rank 99990, not 99991.
        rank = max(1, math.ceil(round(percent / 100.0 * count, 6)))
        beyond = count - rank
        if beyond >= 10:
            best = {
                "percentile": percent,
                "value": ordered[rank - 1],
                "samples": count,
                "beyond": beyond,
            }
    return best


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
