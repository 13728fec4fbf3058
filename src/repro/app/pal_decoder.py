"""The PAL stereo audio decoder application (paper Section VI-A, Fig. 10).

Two execution modes over the identical task graph:

* :func:`decode_functional` — the golden reference: the four processing
  streams run back-to-back on the kernel objects (no timing), producing the
  reconstructed stereo audio.
* :func:`build_pal_soc` / :func:`run_pal_on_soc` — the full architecture:
  one shared CORDIC tile + one shared FIR+down-sampler tile behind an
  entry/exit-gateway pair, multiplexing **four streams** (2 channels × 2
  chain stages) exactly as in the prototype; a producer task feeds the
  synthetic front-end samples, the stage-1 outputs loop back into the
  gateway as stage-2 inputs, and a software task reconstructs
  ``L = 2·(L+R)/2 − R``.

Because both modes share kernels and stream structure, the integration
tests can assert that the gateway-multiplexed system is *functionally
identical* to the reference (sharing is transparent) while the timing side
is validated against the temporal analysis of :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accel import (
    CordicKernel,
    FirDecimatorKernel,
    PalChannelPlan,
    design_lowpass,
    normalize_fm_output,
    reconstruct_stereo,
    run_kernel,
    synthesize_pal_baseband,
)
from ..arch import Compute, Get, MPSoC, Put, TaskSpec

__all__ = ["PalDecoderConfig", "decode_functional", "build_pal_soc", "run_pal_on_soc",
           "PalSocHandles"]


@dataclass(frozen=True)
class PalDecoderConfig:
    """Parameters of the PAL decoder deployment.

    ``eta_stage1``/``eta_stage2`` are the block sizes of the high-rate and
    low-rate streams (the paper's 10136/1267 pair at full scale; tests use
    proportionally scaled values keeping the 8:1 ratio).
    """

    plan: PalChannelPlan = field(default_factory=PalChannelPlan)
    eta_stage1: int = 64
    eta_stage2: int = 8
    entry_copy: int = 15
    exit_copy: int = 1
    reconfigure_cycles: int = 4100
    ni_capacity: int = 2
    fir_taps: int = 33
    decimation: int = 8

    def __post_init__(self) -> None:
        if self.eta_stage1 % self.decimation:
            raise ValueError("eta_stage1 must be a multiple of the decimation factor")
        if self.eta_stage2 % self.decimation:
            raise ValueError("eta_stage2 must be a multiple of the decimation factor")

    def stage1_states(self, carrier: float) -> list[dict]:
        """Kernel contexts for a stage-1 stream (mix to baseband + LPF↓8)."""
        cordic = CordicKernel("mix", carrier / self.plan.sample_rate)
        fir = FirDecimatorKernel(
            design_lowpass(self.fir_taps, 0.8 / (2 * self.decimation)),
            self.decimation,
        )
        return [cordic.get_state(), fir.get_state()]

    def stage2_states(self) -> list[dict]:
        """Kernel contexts for a stage-2 stream (FM demod + LPF↓8)."""
        cordic = CordicKernel("fm")
        fir = FirDecimatorKernel(
            design_lowpass(self.fir_taps, 0.8 / (2 * self.decimation)),
            self.decimation,
        )
        return [cordic.get_state(), fir.get_state()]


# --------------------------------------------------------------- functional
def decode_functional(
    baseband: np.ndarray, config: PalDecoderConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-reference decode: kernels run directly, no architecture.

    Returns the reconstructed ``(left, right)`` audio at the final rate.
    """
    plan = config.plan

    def stage_pair(states1: list[dict], states2: list[dict], x: np.ndarray) -> np.ndarray:
        c1, f1 = CordicKernel(), FirDecimatorKernel(factor=config.decimation)
        c1.set_state(states1[0])
        f1.set_state(states1[1])
        mid = run_kernel(f1, run_kernel(c1, x))
        c2, f2 = CordicKernel(), FirDecimatorKernel(factor=config.decimation)
        c2.set_state(states2[0])
        f2.set_state(states2[1])
        return run_kernel(f2, run_kernel(c2, mid))

    ch1 = stage_pair(config.stage1_states(plan.carrier1), config.stage2_states(), baseband)
    ch2 = stage_pair(config.stage1_states(plan.carrier2), config.stage2_states(), baseband)
    fm_rate = plan.sample_rate / config.decimation
    lpr = normalize_fm_output(np.real(ch1), plan.deviation, fm_rate)
    r = normalize_fm_output(np.real(ch2), plan.deviation, fm_rate)
    return reconstruct_stereo(lpr, r)


# ------------------------------------------------------------ architectural
@dataclass
class PalSocHandles:
    """Handles into a built PAL MPSoC for driving and inspection."""

    soc: MPSoC
    chain: object  # SharedChain
    in_fifos: dict[str, object]
    out_fifos: dict[str, object]
    collected: dict[str, list]

    def stream_metrics(self) -> dict:
        """Observed per-stream :class:`~repro.sim.StreamMetrics`."""
        return self.chain.stream_metrics()

    def utilization(self) -> object:
        """Entry-gateway :class:`~repro.sim.GatewayUtilization` so far."""
        return self.chain.utilization_breakdown(self.soc.sim.now)


def build_pal_soc(
    config: PalDecoderConfig,
    baseband: np.ndarray,
) -> PalSocHandles:
    """Wire the Fig. 10 task graph onto the shared-accelerator MPSoC.

    Streams (round-robin order mirrors the prototype):

    ========  =================  =====================================
    name       block size         role
    ========  =================  =====================================
    ch1.s1    ``eta_stage1``      mix carrier 1 → LPF↓8
    ch2.s1    ``eta_stage1``      mix carrier 2 → LPF↓8
    ch1.s2    ``eta_stage2``      FM demod → LPF↓8
    ch2.s2    ``eta_stage2``      FM demod → LPF↓8
    ========  =================  =====================================

    Stage-1 output FIFOs feed straight back into the entry-gateway as the
    stage-2 inputs ("passed … to a processing tile or entry-gateway").
    """
    n = len(baseband)
    soc = MPSoC(n_stations=8)
    producer = soc.add_processor("fe")       # front-end feeder, station 0
    consumer = soc.add_processor("audio")    # stereo task, station 1

    entry_station = 2
    exit_station = entry_station + 3  # entry + 2 accelerators + exit

    big = max(4 * config.eta_stage1, n + 8)
    in1 = {
        "ch1": producer.fifo_to(entry_station, capacity=big, name="ch1.s1.in"),
        "ch2": producer.fifo_to(entry_station, capacity=big, name="ch2.s1.in"),
    }
    # stage-1 out == stage-2 in: exit gateway -> entry gateway loopback
    mid = {
        "ch1": soc.software_fifo(exit_station, entry_station,
                                 capacity=max(2 * config.eta_stage2, 16),
                                 name="ch1.mid"),
        "ch2": soc.software_fifo(exit_station, entry_station,
                                 capacity=max(2 * config.eta_stage2, 16),
                                 name="ch2.mid"),
    }
    out = {
        "ch1": soc.software_fifo(exit_station, consumer,
                                 capacity=max(config.eta_stage2, 16), name="ch1.out"),
        "ch2": soc.software_fifo(exit_station, consumer,
                                 capacity=max(config.eta_stage2, 16), name="ch2.out"),
    }

    kernels = [CordicKernel(), FirDecimatorKernel(factor=config.decimation)]
    plan = config.plan
    configs = [
        {"name": "ch1.s1", "eta": config.eta_stage1, "in_fifo": in1["ch1"],
         "out_fifo": mid["ch1"], "states": config.stage1_states(plan.carrier1),
         "reconfigure_cycles": config.reconfigure_cycles},
        {"name": "ch2.s1", "eta": config.eta_stage1, "in_fifo": in1["ch2"],
         "out_fifo": mid["ch2"], "states": config.stage1_states(plan.carrier2),
         "reconfigure_cycles": config.reconfigure_cycles},
        {"name": "ch1.s2", "eta": config.eta_stage2, "in_fifo": mid["ch1"],
         "out_fifo": out["ch1"], "states": config.stage2_states(),
         "reconfigure_cycles": config.reconfigure_cycles},
        {"name": "ch2.s2", "eta": config.eta_stage2, "in_fifo": mid["ch2"],
         "out_fifo": out["ch2"], "states": config.stage2_states(),
         "reconfigure_cycles": config.reconfigure_cycles},
    ]
    chain = soc.shared_chain(
        "pal", kernels, configs,
        entry_copy=config.entry_copy, exit_copy=config.exit_copy,
        ni_capacity=config.ni_capacity,
    )

    collected: dict[str, list] = {"lpr": [], "r": [], "left": [], "right": []}
    n_audio = n // (config.decimation ** 2)

    def feeder():
        for s in baseband:
            yield Put(in1["ch1"], complex(s))
            yield Put(in1["ch2"], complex(s))

    def stereo_task():
        fm_rate = plan.sample_rate / config.decimation
        scale = 2.0 * np.pi * plan.deviation / fm_rate
        for _ in range(n_audio):
            a = yield Get(out["ch1"])
            b = yield Get(out["ch2"])
            yield Compute(4)  # the L = 2·(L+R)/2 − R arithmetic
            lpr, r = float(np.real(a)) / scale, float(np.real(b)) / scale
            collected["lpr"].append(lpr)
            collected["r"].append(r)
            collected["left"].append(2.0 * lpr - r)
            collected["right"].append(r)

    producer.add_task(TaskSpec("feeder", feeder))
    consumer.add_task(TaskSpec("stereo", stereo_task))
    producer.start()
    consumer.start()
    return PalSocHandles(soc, chain, {**in1, **mid}, out, collected)


def run_pal_on_soc(
    config: PalDecoderConfig,
    left: np.ndarray,
    right: np.ndarray,
    horizon: int | None = None,
) -> tuple[np.ndarray, np.ndarray, PalSocHandles]:
    """Synthesise a baseband for (left, right), decode it on the MPSoC.

    Returns ``(left_rec, right_rec, handles)`` with the audio de-meaned the
    same way the functional path normalises it.
    """
    baseband = synthesize_pal_baseband(left, right, config.plan)
    handles = build_pal_soc(config, baseband)
    if horizon is None:
        # generous: every input sample through a 15-cycle gateway, 4 streams,
        # plus reconfiguration per block rotation
        blocks = max(1, len(baseband) // config.eta_stage1) * 4 + 8
        horizon = int(len(baseband) * 2 * (config.entry_copy + 10)
                      + blocks * (config.reconfigure_cycles + 200))
    handles.soc.run(until=horizon)
    left_rec = np.asarray(handles.collected["left"], dtype=float)
    right_rec = np.asarray(handles.collected["right"], dtype=float)
    left_rec -= np.mean(left_rec) if len(left_rec) else 0.0
    right_rec -= np.mean(right_rec) if len(right_rec) else 0.0
    return left_rec, right_rec, handles
