"""The paper's primary contribution: siting and provisioning green datacenters.

``repro.core`` implements the cost-driven placement framework of Sections II
and III of the paper:

* :class:`FrameworkParameters` — every parameter of Table I with the paper's
  default instantiation,
* :class:`CostModel` / :class:`FinancingModel` — CAPEX/OPEX accounting with
  per-component financing and amortisation,
* availability modelling for networks of Tier I-IV datacenters,
* :class:`SitingProblem` and the Fig. 1 optimisation as the fixed-siting LP
  the heuristic solves for every siting it visits
  (:mod:`repro.core.provisioning`; the full MILP, solvable only for a handful
  of candidates, is the test-suite's exact oracle in ``tests/oracle_milp.py``),
* :class:`HeuristicSolver` — location filtering plus the simulated-annealing
  search over sitings described in Section II-C, and
* :class:`PlacementTool` — the high-level tool of Section III that produces a
  :class:`NetworkPlan` from a catalogue, a capacity target and a desired green
  percentage.
"""

from repro.core.availability import Tier, datacenters_needed, network_availability
from repro.core.costs import CostModel, FinancingModel
from repro.core.parameters import FrameworkParameters
from repro.core.problem import EnergySources, GreenEnforcement, SitingProblem, StorageMode
from repro.core.provisioning import (
    IncrementalSitingEvaluator,
    ProvisioningCompiler,
    ProvisioningResult,
    solve_provisioning,
)
from repro.core.adaptive_grid import AdaptiveGridRefiner, coarsen_problem
from repro.core.heuristic import HeuristicSolver, SearchSettings
from repro.core.single_site import SingleSiteAnalyzer, SingleSiteCost
from repro.core.solution import DatacenterPlan, NetworkPlan
from repro.core.tool import PlacementTool

__all__ = [
    "AdaptiveGridRefiner",
    "CostModel",
    "DatacenterPlan",
    "EnergySources",
    "FinancingModel",
    "FrameworkParameters",
    "GreenEnforcement",
    "HeuristicSolver",
    "IncrementalSitingEvaluator",
    "NetworkPlan",
    "PlacementTool",
    "ProvisioningCompiler",
    "ProvisioningResult",
    "SearchSettings",
    "SingleSiteAnalyzer",
    "SingleSiteCost",
    "SitingProblem",
    "StorageMode",
    "Tier",
    "coarsen_problem",
    "datacenters_needed",
    "network_availability",
    "solve_provisioning",
]
