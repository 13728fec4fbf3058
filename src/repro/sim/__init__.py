"""Discrete-event simulation kernel (cycle-level) used by :mod:`repro.arch`."""

from .faults import (
    AdmissionController,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    StreamRequirement,
    WatchdogConfig,
)
from .kernel import (
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .metrics import (
    GatewayUtilization,
    StreamMetrics,
    fastpath_summary,
    gateway_utilization,
    metrics_table,
    stream_metrics,
)
from .queues import FifoQueue, Signal
from .trace import GanttRow, Kind, TraceRecord, Tracer

__all__ = [
    "AdmissionController",
    "AnyOf",
    "Event",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FifoQueue",
    "GanttRow",
    "GatewayUtilization",
    "Interrupt",
    "Kind",
    "Process",
    "Signal",
    "SimulationError",
    "Simulator",
    "StreamMetrics",
    "StreamRequirement",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "WatchdogConfig",
    "fastpath_summary",
    "gateway_utilization",
    "metrics_table",
    "stream_metrics",
]
