#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload {pal_paper,corpus,admission,all}
        [--seed N] [--seconds S] [--trace {0,1}]

Each workload runs in a fresh interpreter (``workloads.py``); this script
times its set-up, checks its outputs, prints every metric by name and unit,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``all`` runs the three workloads in turn, a JSON line after
each).  With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``, with ``--trace 1`` the ``per_layer`` list, taken from a
traced pass and printed next to the untraced pass of the same inputs (the
difference is the tracing overhead).  The seed defaults to the default seed
of ``manifest.json``, which also records what each workload loads and
bypasses and what each metric means; the run length defaults to
``run_seconds``.

Exact repeat: the simulated counts, the solved block sizes, the corpus
digest and the admission fingerprint must be identical between the traced
and untraced passes and between all runs of the same source tree in this
checkout (recorded in ``.perfbench/ledger.json``); a mismatch makes the
run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from checks import exact_mismatches  # noqa: E402
from layers import per_layer  # noqa: E402

#: fresh interpreters timed for ``setup_s``, the measured pass included
SETUP_SAMPLES = 5
#: every run, the untraced pass of a traced run included, ends within this
DEADLINE_S = 170.0
#: end-to-end host times, as measured
HOST_TIMES = ("run_s", "cpu_s", "op_p50_ms", "op_cpu_ms")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def source_hash() -> str:
    """SHA-256 over the program and benchmark sources (the ledger's key)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    # the ceiling keeps git from searching the directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def steal_s() -> float:
    """Host CPU time taken from this machine by its hypervisor so far."""
    with open("/proc/stat") as fh:
        ticks = int(fh.readline().split()[8])
    return ticks / os.sysconf("SC_CLK_TCK")


def version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def spawn_pass(args, traced: bool, deadline: float, setup_only: bool = False) -> dict:
    """Run ``workloads.py`` once in a fresh interpreter; return its record."""
    out = WORK / f"pass-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "workloads.py"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(out), "--spawned", repr(spawned)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    # a session of its own, so that a pass over the deadline is stopped
    # together with any server it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=deadline - spawned)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args.workload} pass exceeded the run deadline") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"{args.workload} pass failed (exit {proc.returncode}):\n"
                         + output[-4000:])
    record = json.loads(out.read_text())
    out.unlink()
    return record


def measured(record: dict) -> dict:
    """A pass's host times and its peak RSS."""
    return {**{k: record[k] for k in HOST_TIMES},
            "peak_rss_mb": record["peak_rss_mb"]}


def end_to_end(args, deadline: float) -> dict:
    """The untraced pass plus set-up samples: every end-to-end metric."""
    passes = [spawn_pass(args, False, deadline, setup_only=True)
              for _ in range(SETUP_SAMPLES - 1)]
    record = spawn_pass(args, False, deadline)
    passes.append(record)
    record["setups"] = [r["setup_s"] for r in passes]
    record["metrics"] = {"setup_s": statistics.median(record["setups"]),
                         **measured(record)}
    return record


class Ledger:
    """Exact values and untraced metrics of earlier runs in this checkout."""

    def __init__(self, key: str) -> None:
        self.path = WORK / "ledger.json"
        self.data = json.loads(self.path.read_text()) if self.path.exists() else {}
        self.entry = self.data.setdefault(key, {})

    def check(self, field: str, exact: dict) -> list[str]:
        """Compare with every earlier record of the same source tree, then
        keep ``exact`` as ``field`` if none was kept yet."""
        problems = []
        for name in ("exact_untraced", "exact_traced"):
            if name in self.entry:
                problems += [f"vs earlier {name[6:]} run: {m}"
                             for m in exact_mismatches(exact, self.entry[name])]
        self.entry.setdefault(field, exact)
        return problems

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        tmp.replace(self.path)


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_end_to_end(args, record: dict) -> None:
    """Every end-to-end metric under the names the workload's users know."""
    m = record["metrics"]
    tail = f"p{record['op_tail_pct']:.4g} of {record['op_tail_n']}"
    unit = {"pal_paper": "streams", "corpus": "points",
            "admission": "requests"}[args.workload]
    # (name, value, unit, note)
    rows = [("setup_s", m["setup_s"], "s",
             f"median of {len(record['setups'])} set-ups"),
            ("peak_rss_mb", m["peak_rss_mb"], "MB",
             "server" if args.workload == "admission" else ""),
            ("error_rate", record["failed"] / record["attempted"], "fraction",
             f"{record['failed']}/{record['attempted']} {unit}")]
    if args.workload == "admission":
        names = [("admit_p50_ms", "op_p50_ms", "ms", "joins and leaves"),
                 ("admit_tail_ms", "op_tail_ms", "ms",
                  f"{tail} (serve.admit_tail_ms)"),
                 ("quote_p50_ms", "quote_p50_ms", "ms", ""),
                 ("server_cpu_ms_per_req", "op_cpu_ms", "ms", ""),
                 ("run_s", "run_s", "s", "ready to checked final state"),
                 ("cpu_s", "cpu_s", "s", "server, after set-up")]
    else:
        names = [("run_s", "run_s", "s", "ready to checked result"),
                 ("cpu_s", "cpu_s", "s", ""),
                 ("op_p50_ms", "op_p50_ms", "ms",
                  "the sweep" if args.workload == "corpus" else "the flow"),
                 ("op_cpu_ms", "op_cpu_ms", "ms", "CPU per operation")]
    rows += [(name, record[key], unit_, note) for name, key, unit_, note in names]
    for name, value, unit_, note in rows:
        print(f"  {name:<24}{fmt(value):>14} {unit_:<9} {note}")


def run_workload(args, bench: dict) -> dict:
    """One workload: print its metrics, return the result line's object."""
    deadline = time.monotonic() + DEADLINE_S
    code = source_hash()
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace), "commit": git_commit(),
        "source_sha256": code, "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": version("numpy"),
        "scipy": version("scipy"), "loadavg_before": os.getloadavg(),
    }
    steal = steal_s()
    # pal_paper ignores the seed and the run length
    key = (f"{args.workload}|{code}" if args.workload == "pal_paper" else
           f"{args.workload}|seed={args.seed}|seconds={args.seconds}|{code}")
    ledger = Ledger(key)
    problems: list[str] = []

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    if not args.trace:
        record = end_to_end(args, deadline)
        problems += ledger.check("exact_untraced", record["exact"])
        ledger.entry["untraced"] = record["metrics"]
        print_end_to_end(args, record)
        names = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        metrics = record["metrics"]
    else:
        if "untraced" not in ledger.entry:
            base = spawn_pass(args, False, deadline)
            problems += ledger.check("exact_untraced", base["exact"])
            ledger.entry["untraced"] = measured(base)
        untraced = ledger.entry["untraced"]
        record = spawn_pass(args, True, deadline)
        traced = measured(record)
        names = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = per_layer(record.pop("spans"),
                            {**record["exact"], **record["extra"]},
                            list(names))
        problems += ledger.check("exact_traced", record["exact"])
        print("  tracing overhead (untraced -> traced):")
        for name in (*HOST_TIMES, "peak_rss_mb"):
            before, after = untraced[name], traced[name]
            print(f"    {name:<14}{fmt(before):>12} ->{fmt(after):>12} "
                  f"({100 * (after - before) / before:+.1f}%)")
        for name, unit in names.items():
            print(f"  {name:<30}{fmt(metrics[name]):>16} {unit}")
    ledger.save()

    problems += record["errors"]
    for problem in problems[:20]:
        print(f"  WRONG: {problem}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more")
    missing = sorted(set(names) - set(metrics))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    provenance["loadavg_after"] = os.getloadavg()
    provenance["steal_s"] = steal_s() - steal
    print("provenance: " + json.dumps(provenance))
    return {
        "correct": not problems and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names.items()},
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=manifest["seeds"]["default"])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    for workload in workloads if args.workload == "all" else [args.workload]:
        result = run_workload(argparse.Namespace(**{**vars(args),
                                                    "workload": workload}), bench)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
