"""(Cyclo-Static) Data Flow analysis library.

Implements the temporal-analysis substrate the paper builds on: (C)SDF
graphs, repetition vectors, HSDF expansion, Maximum-Cycle-Mean analysis,
exact state-space throughput, admissible schedules, buffer-capacity
minimisation and the-earlier-the-better refinement checks.
"""

from .buffers import (
    BufferSizingResult,
    bound_channel,
    bounded_graph,
    capacity_lower_bound,
    min_capacities,
    min_capacity_for_liveness,
    min_capacity_single,
)
from .graph import Actor, CSDFGraph, Edge, GraphError, SDFGraph
from .hsdf import expand_to_hsdf, hsdf_node
from .latency import TokenLatencyReport, measure_latency, token_latencies
from .mcm import CycleRatioResult, max_cycle_ratio, mcm_throughput
from .refinement import RefinementReport, refines_times
from .repetition import firing_repetition_vector, is_consistent, repetition_vector
from .schedule import Schedule, admissible_schedule
from .simulation import DeadlockError, ExecutionResult, Firing, SelfTimedEngine, execute
from .statespace import ThroughputResult, steady_state_throughput
from .validate import ValidationReport, check_liveness, validate_graph

__all__ = [
    "Actor",
    "BufferSizingResult",
    "CSDFGraph",
    "CycleRatioResult",
    "DeadlockError",
    "Edge",
    "ExecutionResult",
    "Firing",
    "GraphError",
    "RefinementReport",
    "SDFGraph",
    "Schedule",
    "SelfTimedEngine",
    "ThroughputResult",
    "TokenLatencyReport",
    "ValidationReport",
    "admissible_schedule",
    "bound_channel",
    "bounded_graph",
    "capacity_lower_bound",
    "check_liveness",
    "execute",
    "expand_to_hsdf",
    "firing_repetition_vector",
    "hsdf_node",
    "is_consistent",
    "max_cycle_ratio",
    "mcm_throughput",
    "measure_latency",
    "token_latencies",
    "min_capacities",
    "min_capacity_for_liveness",
    "min_capacity_single",
    "refines_times",
    "repetition_vector",
    "steady_state_throughput",
    "validate_graph",
]
