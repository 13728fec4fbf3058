"""The paper's primary contribution: temporal analysis of shared accelerators.

Workflow (mirrors Sections III–V of the paper):

1. describe the shared chain as a :class:`GatewaySystem` with
   :class:`StreamSpec`/:class:`AcceleratorSpec`,
2. compute minimum block sizes with :func:`compute_block_sizes`
   (Algorithm 1), or buffer-optimal ones with
   :func:`optimal_block_sizes_for_buffers`,
3. verify the assignment end-to-end with :func:`verify_system`
   (Eq. 5 + CSDF/SDF models + refinement),
4. size the buffers (:func:`stream_buffer_cost`) and inspect utilization
   (:func:`analyze_utilization`).
"""

from .blocksize_bnb import (
    BufferOptimalResult,
    optimal_block_sizes_for_buffers,
    stream_buffer_cost,
)
from .blocksize_ilp import (
    BlockSizeResult,
    compute_block_sizes,
    resolve_block_sizes,
    sharing_load,
    system_fingerprint,
)
from .config_io import (
    JOURNAL_KINDS,
    JOURNAL_SCHEMA,
    JOURNAL_SCHEMA_VERSION,
    REPORT_KINDS,
    REPORT_SCHEMA,
    REPORT_SCHEMA_VERSION,
    JournalError,
    ReportError,
    dump_journal_entry,
    dump_report,
    dump_system,
    load_report,
    load_system,
    make_journal_entry,
    make_report,
    parse_journal_entry,
    system_from_dict,
    system_to_dict,
)
from .conformance import (
    AttributedReport,
    Attribution,
    ConformanceReport,
    ModalConformanceReport,
    ModeConformance,
    ModeWindow,
    StreamBounds,
    StreamConformance,
    Violation,
    attribute_conformance,
    attribute_modal_conformance,
    bounds_for,
    calibrated_system,
    check_conformance,
    check_modal_conformance,
    check_stream,
    slice_stream_window,
    violation_window,
)
from .design_flow import DesignReport, run_design_flow
from .csdf_builder import StreamModelInfo, build_stream_csdf, measure_block_time
from .parametric import Affine, ParametricSchedule, parametric_schedule
from .params import AcceleratorSpec, GatewaySystem, ParameterError, StreamSpec
from .sdf_abstraction import build_stream_sdf, verify_with_sdf_model
from .timing import (
    block_round_length,
    sample_latency_bound,
    epsilon_hat,
    gamma,
    guaranteed_throughput,
    rho_g0_first_phase,
    tau_hat,
    throughput_satisfied,
)
from .utilization import (
    UtilizationReport,
    accelerator_utilization_gain,
    analyze_utilization,
)
from .verification import StreamVerification, VerificationReport, verify_system

__all__ = [
    "AcceleratorSpec",
    "Affine",
    "AttributedReport",
    "Attribution",
    "BlockSizeResult",
    "BufferOptimalResult",
    "ConformanceReport",
    "DesignReport",
    "GatewaySystem",
    "ModalConformanceReport",
    "ModeConformance",
    "ModeWindow",
    "ParameterError",
    "ParametricSchedule",
    "StreamBounds",
    "StreamConformance",
    "StreamModelInfo",
    "StreamSpec",
    "StreamVerification",
    "UtilizationReport",
    "VerificationReport",
    "Violation",
    "accelerator_utilization_gain",
    "analyze_utilization",
    "attribute_conformance",
    "attribute_modal_conformance",
    "block_round_length",
    "bounds_for",
    "build_stream_csdf",
    "build_stream_sdf",
    "calibrated_system",
    "check_conformance",
    "check_modal_conformance",
    "check_stream",
    "compute_block_sizes",
    "dump_system",
    "load_system",
    "system_from_dict",
    "system_to_dict",
    "REPORT_KINDS",
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "ReportError",
    "dump_report",
    "load_report",
    "make_report",
    "JOURNAL_KINDS",
    "JOURNAL_SCHEMA",
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "dump_journal_entry",
    "make_journal_entry",
    "parse_journal_entry",
    "epsilon_hat",
    "gamma",
    "guaranteed_throughput",
    "measure_block_time",
    "optimal_block_sizes_for_buffers",
    "parametric_schedule",
    "resolve_block_sizes",
    "rho_g0_first_phase",
    "run_design_flow",
    "sample_latency_bound",
    "sharing_load",
    "slice_stream_window",
    "system_fingerprint",
    "stream_buffer_cost",
    "tau_hat",
    "throughput_satisfied",
    "verify_system",
    "verify_with_sdf_model",
    "violation_window",
]
