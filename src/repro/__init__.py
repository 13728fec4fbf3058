"""Reproduction of Dekens, Bekooij & Smit, *Real-Time Multiprocessor
Architecture for Sharing Stream Processing Accelerators* (IPDPSW 2015).

Package map
-----------

=================  ===========================================================
``repro.core``     the paper's contribution: per-stream CSDF/SDF models,
                   Eqs. 1–5, exact Algorithm-1 block sizes, buffer-optimal
                   search, verification and utilization analysis
``repro.dataflow`` (C)SDF substrate: graphs, repetition vectors, HSDF + MCM,
                   state-space throughput, buffer minimisation, refinement
``repro.arch``     cycle-level MPSoC model: dual ring, credit NIs, C-FIFOs,
                   budget-scheduled processors, accelerator tiles, gateways
``repro.accel``    CORDIC / FIR+down-sampler kernels, synthetic PAL front-end
``repro.app``      the PAL stereo audio decoder (functional + architectural)
``repro.hwcost``   Virtex-6 cost database and Table-I sharing comparison
``repro.sim``      discrete-event simulation kernel
``repro.api``      unified facade: ``Scenario`` builder → ``RunResult``
``repro.exp``      parallel experiment engine: validated sweeps, solver
                   cache, process-pool fan-out, ``BENCH_*.json`` artifacts
=================  ===========================================================

Quickstart::

    from fractions import Fraction
    from repro.core import (AcceleratorSpec, GatewaySystem, StreamSpec,
                            compute_block_sizes, verify_system)

    system = GatewaySystem(
        accelerators=(AcceleratorSpec("cordic", 1),),
        streams=(StreamSpec("radio_a", Fraction(1, 60), reconfigure=4100),
                 StreamSpec("radio_b", Fraction(1, 90), reconfigure=4100)),
        entry_copy=15, exit_copy=1,
    )
    sizes = compute_block_sizes(system).block_sizes
    report = verify_system(system.with_block_sizes(sizes))
    assert report.ok
"""

from . import accel, api, app, arch, core, dataflow, exp, hwcost, sim

__version__ = "1.0.0"

__all__ = ["accel", "api", "app", "arch", "core", "dataflow", "exp", "hwcost",
           "sim", "__version__"]
