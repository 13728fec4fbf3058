"""One pass of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py WORKLOAD --seed N --seconds S --out FILE
        --spawned T [--trace] [--setup-only]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this interpreter.  Writes one JSON record to ``--out``: the set-up time,
the run's timings, the operations attempted and failed with the reasons,
the exact values that must repeat between runs, and -- with ``--trace``
-- the spans and per-layer values.
``--setup-only`` stops at ready.  ``run.py`` drives it; see there for the
metric definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from checks import (
    check_answer,
    check_corpus_point,
    check_final_state,
    check_pal_stream,
)
from spans import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: blocks per stream of the paper-scale simulation (two full rotations)
PAL_BLOCKS = 2
#: corpus points per second of ``--seconds``.  A point takes ~90 ms on a
#: shared 2-vCPU virtual machine, so the sweep lasts ~1.4x ``--seconds``;
#: the points are random systems of very different cost, so their number
#: sets the spread between seeds (IQR/median 8-17% with 11 per second)
CORPUS_POINTS_PER_S = 16
#: offered rate of the admission open loop, well below the ~49 req/s the
#: service sustains back to back on two connections (shared 2-vCPU VM)
ADMISSION_RATE = 16.0
#: tenant streams kept admitted (the baseline config adds two)
ADMISSION_TARGET = 22
ADMISSION_CONFIG = "examples/configs/two_radios.json"


def percentile_tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``; with fewer than eleven
    samples no percentile qualifies and the maximum is returned as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def op_metrics(latencies_ms: list[float], cpu_s: float,
               ops: int) -> dict[str, float]:
    """Median and tail latency of the operations, and CPU per operation."""
    value, pct, n = percentile_tail(latencies_ms)
    return {
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": value,
        "op_tail_pct": pct,
        "op_tail_n": n,
        "op_cpu_ms": 1000 * cpu_s / ops,
    }


def children_cpu_s() -> float:
    """CPU seconds of the child processes this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or, if larger, of a child it waited for."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


class Pass:
    """Timing and bookkeeping shared by the workloads.

    CPU times include the child processes waited for, so that work moved
    into a child still counts.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.record: dict = {"errors": []}
        self._children0 = children_cpu_s()

    def cpu_s(self) -> float:
        """This process's CPU time plus its waited-for children's."""
        return time.process_time() + children_cpu_s() - self._children0

    def ready(self) -> None:
        self.record["setup_s"] = time.monotonic() - self.args.spawned
        self._c0 = self.cpu_s()
        self._t0 = time.perf_counter()

    def done(self) -> None:
        self.record["run_s"] = time.perf_counter() - self._t0
        self.record["cpu_s"] = self.cpu_s() - self._c0
        self.record["peak_rss_mb"] = peak_rss_mb()
        # the user waits for the whole flow or sweep: the one timed operation
        self.record.update(op_metrics([1000 * self.record["run_s"]],
                                      self.record["cpu_s"], 1))


def pal_paper(p: Pass) -> None:
    """The paper's PAL decoder: Algorithm 1, dataflow verification, a
    cycle-level simulation of two block rotations, attributed Eq. 2-5
    conformance and the versioned report.  Ignores the seed."""
    from repro.api import Scenario
    from repro.app import PAPER_BLOCK_SIZES
    from repro.core import config_io, verification

    from layers import count_simulations, merge_sim, sim_metrics

    counts = count_simulations()
    scenario = Scenario.from_registry(
        "pal_decoder", eta_stage1=0, eta_stage2=0, margin_ppm=1270)
    p.ready()
    if p.args.setup_only:
        return
    solved = scenario.solve()
    verified = verification.verify_system(solved.system)
    result = solved.with_blocks(PAL_BLOCKS).build()
    attributed = result.attributed_conformance()
    text = config_io.dump_report(result.report())

    eta = {s.name: s.block_size for s in solved.system.streams}
    ok = {s.stream: s.ok for s in verified.streams}
    metrics = result.metrics()
    violations = Counter(a.violation.stream for a in attributed.attributions)
    failed = 0
    for name in eta:
        stage = "stage1" if name.endswith(".s1") else "stage2"
        errors = check_pal_stream(
            name, eta[name], PAPER_BLOCK_SIZES[stage], ok.get(name, False),
            metrics[name].blocks_done, PAL_BLOCKS, violations[name])
        p.record["errors"] += errors
        failed += bool(errors)
    p.done()
    p.record["attempted"] = len(eta)
    p.record["failed"] = failed
    p.record["exact"] = {
        "eta": eta,
        **sim_metrics(merge_sim(counts)),
        "conformance.violations": len(attributed.attributions),
    }
    p.record["extra"] = {
        "conformance.violations": len(attributed.attributions),
        "report.bytes": len(text),
    }


def corpus(p: Pass) -> None:
    """The serial ``repro sweep`` path over the seeded generated corpus."""
    from repro import exp
    from repro.core import config_io

    from layers import count_simulations, merge_sim, sim_metrics

    counts = count_simulations()
    points = max(1, round(CORPUS_POINTS_PER_S * p.args.seconds))
    sweep = exp.scenario_corpus(
        f"scenario://generated?seed={p.args.seed}", points=points, strict=True)
    p.ready()
    if p.args.setup_only:
        return
    result = exp.run_sweep(sweep, workers=1)
    payload = result.payload()
    for point in payload:
        p.record["errors"] += check_corpus_point(point)
    text = config_io.dump_report(result.to_report())
    p.done()
    values = [pt["value"] or {} for pt in payload]
    p.record["attempted"] = len(payload)
    p.record["failed"] = len(p.record["errors"])
    p.record["exact"] = {
        "digest": result.digest(),
        "points": len(payload),
        **sim_metrics(merge_sim(counts)),
        "conformance.violations": sum(v.get("violations", 0) for v in values),
    }
    p.record["extra"] = {
        "conformance.violations": p.record["exact"]["conformance.violations"],
        "report.bytes": len(text),
        "exp.cache_lookups": result.cache["lookups"],
        "exp.cache_hits": result.cache["hits"],
        "exp.warm_starts": result.cache["warm_starts"],
    }


# -- admission ---------------------------------------------------------------

def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


class Server:
    """``repro serve`` (CLI defaults) as a child process."""

    def __init__(self, spans: Path | None, log) -> None:
        if spans is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"), str(spans)]
        cmd += ["serve", ADMISSION_CONFIG, "--port", "0"]
        started = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=log, text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.monotonic() - started
        match = re.search(r"listening on (\S+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self.ready_cpu_s = _proc_cpu_s(self.proc.pid)

    def shutdown(self) -> None:
        from repro.serve import ServeClient

        try:
            with ServeClient(self.host, self.port) as client:
                client.request({"op": "shutdown"})
        finally:
            self.stop()

    def stop(self) -> None:
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


async def _drive(host: str, port: int, plan, budget_s: float) -> dict:
    """Send the plan over two connections; return the final status."""
    conns = [await asyncio.open_connection(host, port) for _ in range(2)]

    async def call(conn: int, payload: dict) -> dict:
        reader, writer = conns[conn]
        writer.write(json.dumps(payload).encode() + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    for req in plan.prefill:
        req.response = await call(req.conn, req.payload)

    start = time.perf_counter() + 0.05

    async def send(reqs):
        for req in reqs:
            delay = start + req.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            req.sent = time.perf_counter()
            writer = conns[req.conn][1]
            writer.write(json.dumps(req.payload).encode() + b"\n")
            await writer.drain()

    async def receive(reqs):
        for req in reqs:
            line = await conns[req.conn][0].readline()
            if not line:
                return
            req.answered = time.perf_counter()
            req.response = json.loads(line)

    lanes = [[r for r in plan.open if r.conn == c] for c in (0, 1)]
    await asyncio.wait_for(
        asyncio.gather(*(send(lane) for lane in lanes),
                       *(receive(lane) for lane in lanes)),
        timeout=budget_s)
    for req in plan.open:
        req.due += start
    for req in plan.close:
        req.response = await call(req.conn, req.payload)
    status = await call(0, {"op": "status"})
    for _reader, writer in conns:
        writer.close()
        await writer.wait_closed()
    return status


def admission(p: Pass) -> None:
    """``repro serve`` under an open-loop join/leave/quote load."""
    from repro.core import load_system
    from repro.serve import REJECT_CODES

    from loadgen import make_plan

    args = p.args
    plan = make_plan(args.seed, args.seconds, ADMISSION_RATE, ADMISSION_TARGET)
    baseline = load_system((ROOT / ADMISSION_CONFIG).read_text())
    work = ROOT / ".perfbench"
    spans_path = work / f"server-spans-{os.getpid()}.json" if args.trace else None
    with open(work / "server.log", "w") as log:
        server = Server(spans_path, log)
        p.record["setup_s"] = server.setup_s
        if args.setup_only:
            server.shutdown()
            return
        t0 = time.perf_counter()
        try:
            status = asyncio.run(_drive(server.host, server.port, plan,
                                        budget_s=args.seconds + 60))
            cpu_s = _proc_cpu_s(server.proc.pid) - server.ready_cpu_s
            rss_mb = _proc_hwm_mb(server.proc.pid)
        finally:
            server.shutdown()

    requests = plan.requests
    failed = 0
    for req in requests:
        errors = check_answer(req.expect, req.payload, req.response)
        p.record["errors"] += errors
        failed += bool(errors)
    p.record["errors"] += check_final_state(status, baseline, plan.final)
    p.record["run_s"] = time.perf_counter() - t0
    p.record["cpu_s"] = cpu_s
    p.record["peak_rss_mb"] = rss_mb
    p.record["attempted"] = len(requests)
    p.record["failed"] = failed

    answered = [r for r in plan.open if r.answered is not None]
    admits = [1000 * (r.answered - r.due) for r in answered
              if r.payload["op"] != "quote"]
    quotes = [1000 * (r.answered - r.due) for r in answered
              if r.payload["op"] == "quote"]
    late = sorted(1000 * (r.sent - r.due) for r in plan.open if r.sent)
    p.record.update(op_metrics(admits or [0.0], cpu_s,
                               sum(r.response is not None for r in requests)))
    p.record["quote_p50_ms"] = statistics.median(quotes) if quotes else 0.0
    etas = {name: entry["eta"] for name, entry in status["streams"].items()}
    p.record["exact"] = {"fingerprint": status["fingerprint"], "eta": etas}

    counters = status["counters"]
    paths = Counter(r.response.get("solver") for r in requests
                    if r.response and r.response.get("ok"))
    extra = {
        "serve.transitions": counters["transitions"],
        "serve.batch_mean": ((counters["admitted"] + counters["left"])
                             / counters["transitions"]
                             if counters["transitions"] else 0.0),
        "serve.cache_hit_rate": status["cache"]["hit_rate"],
        "serve.coalesced_solves": counters["coalesced_solves"],
        "serve.breaker_trips": status["breaker"]["trips"],
        "serve.quote_p50_ms": p.record["quote_p50_ms"],
        "serve.admit_tail_ms": p.record["op_tail_ms"],
        "load.late_p99_ms": late[min(len(late) - 1, int(0.99 * len(late)))],
        "load.late_max_ms": late[-1],
    }
    for path in ("memo", "warm", "ilp", "closed-form"):
        extra[f"serve.path.{path}"] = paths.get(path, 0)
    for code in sorted(REJECT_CODES):
        extra[f"serve.rejects.{code}"] = counters["rejected"].get(code, 0)
    p.record["extra"] = extra
    if spans_path is not None:
        p.record["spans"] = json.loads(spans_path.read_text())
        spans_path.unlink()


WORKLOADS = {"pal_paper": pal_paper, "corpus": corpus, "admission": admission}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    p = Pass(args)

    # the admission client is not traced: its server records the spans
    recorder = (Recorder() if args.trace and args.workload != "admission"
                else None)
    timed = recorder.span if recorder else (lambda name: contextlib.nullcontext())
    with timed("import"):
        import repro  # noqa: F401  (the package import every workload pays)
    if recorder is not None:
        from layers import install

        install(recorder)
    WORKLOADS[args.workload](p)
    record = p.record
    if recorder is not None:
        record["spans"] = recorder.spans
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
