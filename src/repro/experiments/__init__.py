"""The evaluation harness: one module per paper figure/table.

Each experiment builds a self-contained simulated testbed (host apps,
scheduler under test, wire, receiver), runs it, and returns a typed
result that the benchmark suite renders as the same rows/series the
paper reports. See DESIGN.md §3 for the experiment index and
EXPERIMENTS.md for paper-vs-measured numbers.

Every figure module exposes the unified entry-point shape
``run(setup: ScaledSetup, **spec_params) -> Result`` where the result
exposes ``to_table()`` (DESIGN.md §9); timelines over an arbitrary
policy and demand set go through :func:`repro.topology.timeline`. The
:mod:`.campaign` subpackage (imported explicitly) registers every
entry point as an :class:`ExperimentSpec` and runs parameter grids in
parallel.
"""

from .base import (
    ScaledSetup,
    TimelineResult,
    run_kernel_htb_timeline,
)
from .policies import (
    fair_policy,
    motivation_policy,
    motivation_htb_tree,
    weighted_policy,
)
from .workloads import (
    fair_queueing_demands,
    motivation_demands,
    weighted_demands,
)
from .fabric import FabricResult
from .megaflow import MegaflowResult
from .fig13 import Fig13Result, Fig13Row
from .fig14 import Fig14Result, Fig14Row
from .cpu_cores import CpuResult, CpuRow
from .ablations import (
    IntervalSensitivityResult,
    LockAblationResult,
    PropagationDelayResult,
)
from .tcp_realism import TcpRealismResult, tcp_realism_table

__all__ = [
    "ScaledSetup",
    "TimelineResult",
    "run_kernel_htb_timeline",
    "fair_policy",
    "motivation_policy",
    "motivation_htb_tree",
    "weighted_policy",
    "fair_queueing_demands",
    "motivation_demands",
    "weighted_demands",
    "FabricResult",
    "MegaflowResult",
    "Fig13Result",
    "Fig13Row",
    "Fig14Result",
    "Fig14Row",
    "CpuResult",
    "CpuRow",
    "IntervalSensitivityResult",
    "LockAblationResult",
    "PropagationDelayResult",
    "TcpRealismResult",
    "tcp_realism_table",
]
