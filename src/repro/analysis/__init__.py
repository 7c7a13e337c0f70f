"""Trace analysis: throughput, buffers, phases, Gantt charts and reports."""

from .buffers import (
    occupancy_series,
    peak,
    peak_per_node,
    prop3_buffer_bound,
    steady_state_buffer_stats,
    time_average,
    total_occupancy_series,
)
from .export import buffer_csv, completions_csv, export_trace, segments_csv
from .periodicity import is_periodic, periodic_from, segments_in_window
from .svg import buffer_svg, gantt_svg, save_svg
from .sensitivity import (
    Sensitivity,
    bottlenecks,
    edge_sensitivity,
    node_sensitivity,
    sensitivity_report,
    sensitivity_sweep,
)
from .gantt import render_gantt
from .phases import (
    node_steady_entry,
    startup_efficiency,
    startup_length,
)
from .compare import (
    STRATEGIES,
    StrategyMetrics,
    compare_strategies,
    comparison_table,
)
from .report import (
    rootless_period,
    simulation_metrics,
    simulation_report,
    utilization_report,
    workers_rate,
)
from .throughput import measured_rate, per_node_rate, steady_state_rate, window_rates

__all__ = [
    "Sensitivity",
    "node_sensitivity",
    "edge_sensitivity",
    "sensitivity_sweep",
    "sensitivity_report",
    "bottlenecks",
    "prop3_buffer_bound",
    "is_periodic",
    "periodic_from",
    "segments_in_window",
    "STRATEGIES",
    "StrategyMetrics",
    "compare_strategies",
    "comparison_table",
    "occupancy_series",
    "total_occupancy_series",
    "peak",
    "peak_per_node",
    "time_average",
    "steady_state_buffer_stats",
    "render_gantt",
    "startup_length",
    "startup_efficiency",
    "node_steady_entry",
    "simulation_metrics",
    "simulation_report",
    "workers_rate",
    "rootless_period",
    "utilization_report",
    "segments_csv",
    "completions_csv",
    "buffer_csv",
    "export_trace",
    "gantt_svg",
    "buffer_svg",
    "save_svg",
    "measured_rate",
    "window_rates",
    "steady_state_rate",
    "per_node_rate",
]
