#!/usr/bin/env python3
"""Self-test of the benchmark's own code.

    python3 perfbench/selftest.py

1. Each output check accepts a real answer of the program and rejects the
   same answer deliberately corrupted: a wrong block size, an unattributed
   violation, a ``guaranteed`` rate below the requested one, a final block
   size that breaks Eq. 5, and a differing or missing exact value.
2. A short untraced and traced run of every workload prints every metric
   of ``BENCHMARK.json`` with its unit (pal_paper has no short form, so
   this takes a few minutes).

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import asyncio
import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from checks import (  # noqa: E402
    check_answer,
    check_corpus_point,
    check_final_state,
    check_pal_stream,
    exact_mismatches,
)

failures: list[str] = []


def expect(name: str, ok: bool, detail: object = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if not ok else ""))
    if not ok:
        failures.append(name)


def check_rejections() -> None:
    from repro.app import PAPER_BLOCK_SIZES
    from repro.core import load_system
    from repro.exp import run_sweep, scenario_corpus
    from repro.serve import AdmissionService

    eta = PAPER_BLOCK_SIZES["stage1"]
    expect("pal: paper eta accepted",
           not check_pal_stream("ch1.s1", eta, eta, True, 2, 2, 0))
    expect("pal: wrong eta rejected",
           bool(check_pal_stream("ch1.s1", eta - 1, eta, True, 2, 2, 0)))

    point = run_sweep(scenario_corpus("scenario://generated?seed=1", points=1,
                                      strict=True), workers=1).payload()[0]
    expect("corpus: real point accepted", not check_corpus_point(point),
           check_corpus_point(point))
    bad = copy.deepcopy(point)
    bad["value"].update(unattributed=1, fully_attributed=False)
    expect("corpus: unattributed violation rejected",
           bool(check_corpus_point(bad)))

    baseline = load_system((ROOT / "examples/configs/two_radios.json").read_text())
    join = {"op": "join", "tenant": "t0", "stream": "s0",
            "throughput": [1, 2000], "reconfigure": 40}

    async def serve_once():
        async with AdmissionService(baseline) as service:
            answer = await service.submit(dict(join))
            return answer, service.status()

    answer, status = asyncio.run(serve_once())
    expect("admission: real admit accepted", not check_answer("ok", join, answer),
           check_answer("ok", join, answer))
    low = dict(answer, guaranteed=[1, 4000])
    expect("admission: guaranteed below requested rejected",
           bool(check_answer("ok", join, low)))
    expect("admission: unexpected admit of a duplicate rejected",
           bool(check_answer("reject:already_joined", join, answer)))
    final = {"s0": (Fraction(1, 2000), 40)}
    expect("admission: real final state accepted",
           not check_final_state(status, baseline, final),
           check_final_state(status, baseline, final))
    broken = copy.deepcopy(status)
    broken["streams"]["radio_a"]["eta"] = 1
    expect("admission: final eta breaking Eq. 5 rejected",
           bool(check_final_state(broken, baseline, final)))
    expect("exact: differing digest detected",
           bool(exact_mismatches({"digest": "a", "n": 1}, {"digest": "b", "n": 1})))
    expect("exact: value missing from one record detected",
           bool(exact_mismatches({"digest": "a", "n": 1}, {"digest": "a"})))



def check_short_runs() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{workload['name']} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload["name"], "--seed", "1", "--seconds", "2",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=400,
                env={**os.environ, "PYTHONPATH": ""})
            if proc.returncode != 0:
                expect(name, False, proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            numeric = all(isinstance(v["value"], (int, float))
                          for v in result["metrics"].values())
            expect(f"{name}: every metric with its unit", got == want and numeric,
                   sorted(set(want) ^ set(got)))
            expect(f"{name}: correct", result["correct"] is True, proc.stdout[-2000:])


def main() -> int:
    check_rejections()
    check_short_runs()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
