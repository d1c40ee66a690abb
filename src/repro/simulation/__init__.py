"""Trace-driven sampling simulation substrate (Section 8 of the paper)."""

from .binning import BinLayout, build_bin_layouts
from .evaluation import (
    SwappedPairCounts,
    TopFlows,
    detection_pair_budget,
    ranking_pair_budget,
    swapped_pair_counts,
)
from .results import MetricSeries, SimulationResult
from .runner import (
    PAPER_NUM_RUNS,
    PAPER_SAMPLING_RATES,
    SimulationConfig,
    run_packet_simulation,
    run_trace_simulation,
)

__all__ = [
    "BinLayout",
    "build_bin_layouts",
    "SwappedPairCounts",
    "TopFlows",
    "swapped_pair_counts",
    "ranking_pair_budget",
    "detection_pair_budget",
    "MetricSeries",
    "SimulationResult",
    "SimulationConfig",
    "run_trace_simulation",
    "run_packet_simulation",
    "PAPER_SAMPLING_RATES",
    "PAPER_NUM_RUNS",
]
