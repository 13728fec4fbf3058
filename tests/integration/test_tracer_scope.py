"""The tracer costs only what its filter keeps.

Under ``Kind.METRICS`` (the filter of every harness run) the ring, the NI
channels, the C-FIFOs and the tiles' per-sample ``fire`` records are
filtered out, so those components hold no tracer and make no call at all:
a harness trace is a per-block log.  What the run stores and counts must
still be exactly the ``Kind.METRICS`` part of an unfiltered run of the
same system.
"""

from unittest import mock

import pytest

from repro.app.scenarios import build_scenario
from repro.sim.trace import Kind, Tracer

#: generated scenarios: seed 0 is a churn point (joins/leaves), 2 is static
SEEDS = (0, 2)


def _run(seed, unfiltered=False):
    scenario = build_scenario(f"scenario://generated?seed={seed}")
    with mock.patch.object(Tracer, "log", autospec=True, side_effect=Tracer.log) as log:
        if unfiltered:
            # the harness passes Kind.METRICS as its filter; None keeps all
            with mock.patch.object(Kind, "METRICS", None):
                run = scenario.build().run
        else:
            run = scenario.build().run
    return run, log.call_count


@pytest.mark.parametrize("seed", SEEDS)
def test_metrics_filter_makes_no_filtered_calls(seed):
    run, calls = _run(seed)
    tracer = run.soc.tracer
    assert tracer.kinds == Kind.METRICS
    assert run.soc.ring.tracer is None
    # the ring's clients are the C-FIFOs and the NI channels
    assert run.soc.ring.clients
    assert all(client.tracer is None for client in run.soc.ring.clients)
    assert all(tile._fire_tracer is None for tile in run.chain.tiles)
    assert all(p.scheduler.tracer is None for p in run.soc.processors)
    # every call is stored: none was built only to be dropped
    assert calls == len(tracer.records) > 0
    assert not {Kind.PUT, Kind.GET} & {r.kind for r in tracer.records}


@pytest.mark.parametrize("seed", SEEDS)
def test_metrics_filter_stores_the_metrics_part_of_a_full_trace(seed):
    run, _calls = _run(seed)
    full, full_calls = _run(seed, unfiltered=True)
    kept, everything = run.soc.tracer, full.soc.tracer
    assert full.soc.ring.tracer is everything
    assert all(client.tracer is everything for client in full.soc.ring.clients)
    assert all(tile._fire_tracer is everything for tile in full.chain.tiles)
    assert full_calls == len(everything.records) > len(kept.records)
    assert kept.records == [r for r in everything.records if r.kind in Kind.METRICS]
    assert kept.counts() == {
        key: n for key, n in everything.counts().items() if key[1] in Kind.METRICS
    }
