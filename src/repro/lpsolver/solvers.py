"""Solve options shared by every HiGHS call of the library."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class SolverOptions:
    """Knobs of the HiGHS backend.

    Attributes
    ----------
    time_limit:
        Wall-clock limit in seconds (``None`` = no limit).
    presolve:
        Whether to let HiGHS presolve the problem.
    """

    time_limit: Optional[float] = None
    presolve: bool = True
