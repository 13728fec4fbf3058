"""Construction of the per-stream CSDF model (paper Fig. 5).

For each stream ``s`` multiplexed over a gateway-managed accelerator chain, a
separate CSDF model is built (the interference of all *other* streams is
folded into the first-phase firing duration of the entry-gateway actor, Eq. 1
— that is what makes one-model-per-stream sound despite sharing).

Actors (for a chain of ``A`` accelerators):

=========  =============================================================
``vP``     producer task filling the entry buffer (α0)
``vG0``    entry-gateway: ``η_s`` phases; phase 0 waits for the whole
           block *and* for ``η_s`` spaces in the consumer buffer *and*
           for the pipeline-idle token, then pays ``ε̂_s + R_s + ε``;
           later phases pay ``ε`` each (one sample copied per phase)
``vA0..``  the accelerators, one token in / one token out per firing
``vG1``    exit-gateway: ``η_s`` phases of ``δ``; emits the
           pipeline-idle token to ``vG0`` in its last phase
``vC``     consumer task draining the exit buffer (α3)
=========  =============================================================

Edges: ``α1 = α2 = ni_capacity`` bound the NI FIFOs around the accelerators;
``α0`` bounds the producer buffer; ``α3`` is the consumer buffer whose *space*
is checked by the entry-gateway (back edge ``space`` from ``vC`` straight to
``vG0`` — the paper's check-for-space contribution, Section V-G).  The
``idle`` edge from ``vG1`` to ``vG0`` with one initial token enforces that a
new block only enters an empty pipeline.
"""

from __future__ import annotations

from fractions import Fraction

from ..dataflow import CSDFGraph
from ..dataflow.simulation import execute
from .params import GatewaySystem, ParameterError

__all__ = ["build_stream_csdf", "measure_block_time", "StreamModelInfo"]


class StreamModelInfo:
    """Names and parameters of a generated per-stream CSDF model."""

    def __init__(self, stream: str, eta: int, accelerators: list[str]):
        self.stream = stream
        self.eta = eta
        self.producer = "vP"
        self.entry = "vG0"
        self.accelerators = accelerators
        self.exit = "vG1"
        self.consumer = "vC"

    @property
    def block_phases(self) -> dict[str, tuple[int]]:
        """The phases that bound a block, as ``execute``'s ``record``:
        ``vG0``'s phase 0 starts it and ``vG1``'s last phase ends it."""
        return {self.entry: (0,), self.exit: (self.eta - 1,)}

    def block_times(self, run) -> list[int | Fraction]:
        """Per-block times ``τ_s`` of a run of this model that kept
        :attr:`block_phases` (see :func:`measure_block_time`)."""
        starts = run.firings_of(self.entry, phase=0)
        ends = run.firings_of(self.exit, phase=self.eta - 1)
        return [end.end - start.start for start, end in zip(starts, ends)]


def build_stream_csdf(
    system: GatewaySystem,
    stream_name: str,
    producer_period: float | Fraction | None = None,
    consumer_period: float | Fraction | None = None,
    alpha0: int | None = None,
    alpha3: int | None = None,
    epsilon_s: int | None = None,
    prequeued: int | None = None,
) -> tuple[CSDFGraph, StreamModelInfo]:
    """Build the Fig. 5 CSDF model for one stream.

    Parameters
    ----------
    producer_period / consumer_period:
        Firing durations of ``vP`` / ``vC`` in cycles per sample.  Default:
        ``1/μ_s`` (a producer/consumer exactly at the required rate).
    alpha0 / alpha3:
        Capacities of the producer/consumer buffers; default ``2·η_s``
        (enough to decouple the gateway round from the end tasks).
    epsilon_s:
        Worst-case interference ``ε̂_s`` from other streams folded into the
        first phase of ``vG0``.  Default: Eq. 3 over the system's streams
        (0 when the stream is alone).
    prequeued:
        Tokens initially in the producer buffer (Fig. 6 assumes a full block
        is already queued; default ``0`` — produced at rate ``1/μ_s``).
    """
    from .timing import epsilon_hat  # local import to avoid a cycle

    s = system.stream(stream_name)
    if s.block_size is None:
        raise ParameterError(f"stream {stream_name!r} needs a block size for the CSDF model")
    eta = s.block_size
    period = Fraction(1) / s.throughput
    if producer_period is None:
        producer_period = period
    if consumer_period is None:
        consumer_period = period
    if alpha0 is None:
        alpha0 = 2 * eta
    if alpha3 is None:
        alpha3 = 2 * eta
    if epsilon_s is None:
        epsilon_s = epsilon_hat(system, stream_name) if len(system.streams) > 1 else 0
    prequeued = int(prequeued or 0)
    if alpha0 < eta or alpha3 < eta:
        raise ParameterError("α0 and α3 must hold at least one block (η_s tokens)")
    if prequeued > alpha0:
        raise ParameterError("cannot prequeue more tokens than α0 holds")

    g = CSDFGraph(f"csdf[{stream_name}]")
    info = StreamModelInfo(stream_name, eta, [f"vA{i}" for i in range(len(system.accelerators))])

    g.add_actor(info.producer, duration=producer_period)
    first = epsilon_s + s.reconfigure + system.entry_copy
    g.add_actor(info.entry, duration=[first] + [system.entry_copy] * (eta - 1), phases=eta)
    for name, acc in zip(info.accelerators, system.accelerators):
        g.add_actor(name, duration=acc.rho)
    g.add_actor(info.exit, duration=[system.exit_copy] * eta, phases=eta)
    g.add_actor(info.consumer, duration=consumer_period)

    block_head = [eta] + [0] * (eta - 1)  # consume/produce a whole block in phase 0
    block_tail = [0] * (eta - 1) + [eta]  # ... or in the last phase
    per_phase = [1] * eta

    # α0: producer buffer; vG0 claims the whole block at once, releases the
    # space only after the block has fully left the gateway (last phase).
    g.add_edge(info.producer, info.entry, production=1, consumption=block_head,
               tokens=prequeued, name="p2g")
    g.add_edge(info.entry, info.producer, production=block_tail, consumption=1,
               tokens=alpha0 - prequeued, name="cap:p2g")

    # entry-gateway -> accelerator chain -> exit-gateway, all over bounded NIs
    stages = [info.entry, *info.accelerators, info.exit]
    for i, (src, dst) in enumerate(zip(stages, stages[1:])):
        prod = per_phase if src in (info.entry,) else 1
        cons = per_phase if dst in (info.exit,) else 1
        fwd = f"ni{i}"
        g.add_edge(src, dst, production=prod, consumption=cons, tokens=0, name=fwd)
        g.add_edge(dst, src, production=cons, consumption=prod,
                   tokens=system.ni_capacity, name=f"cap:{fwd}")

    # α3: exit buffer. Forward tokens flow vG1 -> vC; the *space* is checked
    # by the ENTRY gateway (phase 0 needs η_s free places, Section V-G).
    g.add_edge(info.exit, info.consumer, production=per_phase, consumption=1,
               tokens=0, name="g2c")
    g.add_edge(info.consumer, info.entry, production=1, consumption=block_head,
               tokens=alpha3, name="space")

    # pipeline-idle notification: produced by vG1's last phase, consumed by
    # vG0's first phase; one token = the pipeline starts idle.
    g.add_edge(info.exit, info.entry, production=block_tail[:-1] + [1],
               consumption=[1] + [0] * (eta - 1), tokens=1, name="idle")

    return g, info


def measure_block_time(
    graph: CSDFGraph, info: StreamModelInfo, blocks: int = 1
) -> list[int | Fraction]:
    """Observed per-block processing times ``τ_s`` in a self-timed run.

    A block spans from the start of ``vG0``'s phase 0 to the end of
    ``vG1``'s last phase (exactly the τ_s of Fig. 6).  Returns one value per
    completed block: a block whose last exit phase never completed has no
    time, so a run that stops short of ``blocks`` returns fewer values, and
    a caller checking τ̂ must count them.  Only those two phases are
    recorded (:attr:`StreamModelInfo.block_phases`): two records per block.
    """
    run = execute(graph, iterations=blocks, record=info.block_phases)
    return info.block_times(run)
