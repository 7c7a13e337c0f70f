"""Extensions beyond the paper's core: its future-work and discussion items.

* :mod:`~repro.extensions.result_return` — the Section 9 two-port model and
  counterexample; :mod:`~repro.extensions.return_sim` executes it on any
  tree;
* :mod:`~repro.extensions.dynamic` — drift + re-negotiation scenarios;
* :mod:`~repro.extensions.makespan` — the finite-N makespan heuristic;
* :mod:`~repro.extensions.infinite` — BW-First on lazily-generated infinite
  trees with certified throughput brackets.
"""

from .dynamic import AdaptationReport, adapt, degraded_rate, perturb
from .infinite import (
    InfiniteThroughput,
    InfiniteTreeSpec,
    geometric_chain,
    infinite_throughput,
    truncate,
    uniform_binary,
)
from .makespan import (
    MakespanReport,
    makespan_lower_bound,
    makespan_report,
    steady_state_makespan,
)
from .online import OnlineReport, online_renegotiation
from .overlay_search import (
    OverlaySearchResult,
    enumerate_overlays,
    hill_climb,
    overlay_from_parents,
)
from .multiport import (
    PortGapReport,
    multiport_lp_throughput,
    multiport_throughput,
    port_gap_report,
)
from .return_sim import ReturnSimResult, ReturnSimulation, simulate_with_returns
from .result_return import (
    CounterexampleReport,
    ReturnPlatform,
    merged_model_throughput,
    return_lp_throughput,
    section9_counterexample,
    uniform_return_platform,
)

__all__ = [
    "AdaptationReport",
    "adapt",
    "degraded_rate",
    "perturb",
    "InfiniteTreeSpec",
    "InfiniteThroughput",
    "infinite_throughput",
    "truncate",
    "uniform_binary",
    "geometric_chain",
    "MakespanReport",
    "makespan_lower_bound",
    "makespan_report",
    "steady_state_makespan",
    "OnlineReport",
    "online_renegotiation",
    "OverlaySearchResult",
    "hill_climb",
    "enumerate_overlays",
    "overlay_from_parents",
    "PortGapReport",
    "multiport_throughput",
    "multiport_lp_throughput",
    "port_gap_report",
    "ReturnPlatform",
    "uniform_return_platform",
    "return_lp_throughput",
    "merged_model_throughput",
    "CounterexampleReport",
    "section9_counterexample",
    "ReturnSimulation",
    "ReturnSimResult",
    "simulate_with_returns",
]
