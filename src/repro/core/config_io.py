"""JSON (de)serialisation of gateway-system descriptions.

Lets designs live in version-controlled config files and feed the CLI::

    {
      "entry_copy": 15,
      "exit_copy": 1,
      "accelerators": [{"name": "cordic", "rho": 1}],
      "streams": [
        {"name": "radio_a", "samples_per_second": 2000000,
         "clock_hz": 100000000, "reconfigure": 4100},
        {"name": "radio_b", "throughput": [1, 200], "reconfigure": 4100}
      ]
    }

Throughput is given either as ``samples_per_second`` + ``clock_hz`` or as
an exact ``[numerator, denominator]`` samples-per-cycle fraction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Callable

from .params import AcceleratorSpec, GatewaySystem, ParameterError, StreamSpec

__all__ = [
    "system_to_dict",
    "system_from_dict",
    "dump_system",
    "load_system",
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "REPORT_KINDS",
    "ReportError",
    "make_report",
    "dump_report",
    "load_report",
    "JOURNAL_SCHEMA",
    "JOURNAL_SCHEMA_VERSION",
    "JOURNAL_KINDS",
    "JournalError",
    "make_journal_entry",
    "dump_journal_entry",
    "parse_journal_entry",
]


def system_to_dict(system: GatewaySystem) -> dict[str, Any]:
    """Plain-dict representation of a gateway system."""
    return {
        "entry_copy": system.entry_copy,
        "exit_copy": system.exit_copy,
        "ni_capacity": system.ni_capacity,
        "accelerators": [
            {"name": a.name, "rho": a.rho} for a in system.accelerators
        ],
        "streams": [
            {
                "name": s.name,
                "throughput": [s.throughput.numerator, s.throughput.denominator],
                "reconfigure": s.reconfigure,
                **({"block_size": s.block_size} if s.block_size is not None else {}),
            }
            for s in system.streams
        ],
    }


def _stream_from(entry: dict[str, Any]) -> StreamSpec:
    name = entry["name"]
    reconfigure = entry["reconfigure"]
    if "throughput" in entry:
        throughput = entry["throughput"]
        if not isinstance(throughput, (list, tuple)) or len(throughput) != 2:
            raise ParameterError(f"stream {name!r}: throughput must be "
                                 f"[numerator, denominator], got {throughput!r}")
        num, den = throughput
        return StreamSpec(name, Fraction(num, den), reconfigure, entry.get("block_size"))
    if "samples_per_second" in entry:
        if not entry.get("clock_hz"):
            raise ParameterError(
                f"stream {name!r}: samples_per_second needs a nonzero clock_hz")
        return StreamSpec.from_rate(
            name, entry["samples_per_second"], entry["clock_hz"], reconfigure,
            entry.get("block_size"),
        )
    raise ParameterError(
        f"stream {name!r}: give 'throughput' [num, den] or "
        "'samples_per_second' + 'clock_hz'"
    )


#: the keys, top-level or in an entry, that count cycles or samples
_INTEGER_KEYS = ("entry_copy", "exit_copy", "ni_capacity", "rho", "reconfigure",
                 "block_size")


def _require_integers(where: str, obj: dict[str, Any]) -> None:
    for key in _INTEGER_KEYS:
        value = obj.get(key)
        if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
            raise ParameterError(f"{where}: {key} must be an integer, got {value!r}")


def _entries(kind: str, entries: Any, build: Callable[[dict[str, Any]], Any]) -> tuple:
    """``build`` applied to each entry of a config section; a malformed
    entry raises a :class:`ParameterError` that names it."""
    specs = []
    for index, entry in enumerate(entries):
        where = f"{kind} entry {index}"
        if not isinstance(entry, dict):
            raise ParameterError(f"{where} must be a JSON object, got {entry!r}")
        if "name" in entry:
            where += f" ({entry['name']!r})"
        _require_integers(where, entry)
        try:
            specs.append(build(entry))
        except ParameterError:
            raise
        except KeyError as err:
            raise ParameterError(f"{where}: missing key {err}") from err
        except ZeroDivisionError as err:
            raise ParameterError(f"{where}: zero denominator in {err}") from err
        except (TypeError, ValueError) as err:
            raise ParameterError(f"{where}: {err}") from err
    return tuple(specs)


#: every key a system JSON object may carry at the top level
_SYSTEM_KEYS = frozenset(
    {"entry_copy", "exit_copy", "ni_capacity", "accelerators", "streams"}
)


def system_from_dict(data: dict[str, Any]) -> GatewaySystem:
    """Rebuild a gateway system from :func:`system_to_dict` output.

    Unknown top-level keys are rejected eagerly with a did-you-mean hint —
    a misspelled ``entry_copy`` must fail loudly, not silently fall back to
    its default and skew every bound downstream.
    """
    if not isinstance(data, dict):
        raise ParameterError(
            f"system config must be a JSON object, got {type(data).__name__}"
        )
    unknown = set(data) - _SYSTEM_KEYS
    if unknown:
        from difflib import get_close_matches

        hints = []
        for key in sorted(unknown):
            close = get_close_matches(str(key), sorted(_SYSTEM_KEYS), n=1)
            if close:
                hints.append(f"did you mean {close[0]!r} instead of {key!r}?")
        hint = (" " + " ".join(hints)) if hints else ""
        raise ParameterError(
            f"unknown top-level key(s) {sorted(unknown)} in system config "
            f"(expected a subset of {sorted(_SYSTEM_KEYS)}).{hint}"
        )
    try:
        accs = data["accelerators"]
        streams = data["streams"]
    except KeyError as err:
        raise ParameterError(f"system dict missing key {err}") from err
    _require_integers("system config", data)
    try:
        return GatewaySystem(
            accelerators=_entries(
                "accelerator", accs, lambda a: AcceleratorSpec(a["name"], a["rho"])),
            streams=_entries("stream", streams, _stream_from),
            entry_copy=data.get("entry_copy", 15),
            exit_copy=data.get("exit_copy", 1),
            ni_capacity=data.get("ni_capacity", 2),
        )
    except TypeError as err:  # e.g. a number where a list belongs
        raise ParameterError(f"malformed system config: {err}") from err


def dump_system(system: GatewaySystem, indent: int | None = 2) -> str:
    """Serialise a system to JSON."""
    return json.dumps(system_to_dict(system), indent=indent)


def load_system(text: str) -> GatewaySystem:
    """Parse a system from JSON."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParameterError(f"invalid system JSON: {err}") from err
    return system_from_dict(data)


# ---------------------------------------------------------------------------
# Report schema — one JSON envelope for every machine-readable result
# ---------------------------------------------------------------------------
#
# Before this schema existed the repo emitted three overlapping ad-hoc
# dicts: StreamMetrics dumps (``metrics --json``), conformance reports
# (``conformance --json``) and reconfiguration transition tables
# (``reconfig --json``), each with its own shape and no version marker.
# Every machine-readable artifact — CLI ``--json`` output, ``BENCH_*.json``
# sweep payloads, :meth:`repro.api.RunResult.report` — now shares one
# envelope::
#
#     {"schema": "repro.report", "version": 1, "kind": "<kind>", ...body...}
#
# Body keys live at the top level next to the envelope fields, so pre-schema
# consumers that indexed e.g. ``blob["streams"]`` keep working unchanged.

REPORT_SCHEMA = "repro.report"
REPORT_SCHEMA_VERSION = 1

#: every report kind the toolkit emits; ``load_report`` rejects others
#: ("bench" is a standalone benchmark comparison, e.g. BENCH_kernel_wheel)
REPORT_KINDS = frozenset(
    {"metrics", "conformance", "faults", "reconfig", "run", "sweep", "bench"}
)

_ENVELOPE_KEYS = ("schema", "version", "kind")


class ReportError(ParameterError):
    """Raised for malformed or unsupported report envelopes."""


def make_report(kind: str, body: dict[str, Any]) -> dict[str, Any]:
    """Wrap ``body`` in the versioned report envelope.

    ``body`` keys must not collide with the envelope fields; the result is a
    plain JSON-serialisable dict with the envelope fields first.
    """
    if kind not in REPORT_KINDS:
        raise ReportError(
            f"unknown report kind {kind!r}; expected one of {sorted(REPORT_KINDS)}"
        )
    clash = [k for k in _ENVELOPE_KEYS if k in body]
    if clash:
        raise ReportError(f"report body shadows envelope key(s): {clash}")
    return {
        "schema": REPORT_SCHEMA,
        "version": REPORT_SCHEMA_VERSION,
        "kind": kind,
        **body,
    }


def dump_report(report: dict[str, Any], indent: int | None = 2) -> str:
    """Serialise a report envelope to JSON (validates the envelope first)."""
    _check_envelope(report)
    return json.dumps(report, indent=indent)


def load_report(text: str) -> dict[str, Any]:
    """Parse and validate a report envelope produced by :func:`dump_report`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ReportError(f"invalid report JSON: {err}") from err
    if not isinstance(data, dict):
        raise ReportError(f"report must be a JSON object, got {type(data).__name__}")
    _check_envelope(data)
    return data


def _check_envelope(report: dict[str, Any]) -> None:
    missing = [k for k in _ENVELOPE_KEYS if k not in report]
    if missing:
        raise ReportError(f"report missing envelope key(s): {missing}")
    if report["schema"] != REPORT_SCHEMA:
        raise ReportError(
            f"unknown report schema {report['schema']!r} (expected {REPORT_SCHEMA!r})"
        )
    if report["version"] != REPORT_SCHEMA_VERSION:
        raise ReportError(
            f"unsupported report version {report['version']!r} "
            f"(this build reads version {REPORT_SCHEMA_VERSION})"
        )
    if report["kind"] not in REPORT_KINDS:
        raise ReportError(f"unknown report kind {report['kind']!r}")


# ---------------------------------------------------------------------------
# Journal schema — one-line envelopes for the durable sweep result store
# ---------------------------------------------------------------------------
#
# The sweep engine's :class:`repro.exp.store.ResultStore` journals every
# completed point as it lands so an interrupted run can resume.  Journals are
# append-only JSONL: one envelope per line, written atomically enough that a
# crash can at worst truncate the *final* line (readers tolerate a ragged
# tail).  The envelope mirrors the report schema — versioned, kind-tagged —
# but each entry is a single line, never pretty-printed.

JOURNAL_SCHEMA = "repro.journal"
#: version 2: each ``point`` line is its own commit record, keyed by point
#: index; a version-1 journal (grouped points) is never read back
JOURNAL_SCHEMA_VERSION = 2

#: ``meta`` pins the sweep identity a journal belongs to; ``point`` is one
#: durable point outcome (the store's unit of commit and resume)
JOURNAL_KINDS = frozenset({"meta", "point"})


class JournalError(ParameterError):
    """Raised for malformed or mismatched journal entries."""


def make_journal_entry(kind: str, body: dict[str, Any]) -> dict[str, Any]:
    """Wrap ``body`` in the versioned one-line journal envelope."""
    if kind not in JOURNAL_KINDS:
        raise JournalError(
            f"unknown journal kind {kind!r}; expected one of {sorted(JOURNAL_KINDS)}"
        )
    clash = [k for k in _ENVELOPE_KEYS if k in body]
    if clash:
        raise JournalError(f"journal body shadows envelope key(s): {clash}")
    return {
        "schema": JOURNAL_SCHEMA,
        "version": JOURNAL_SCHEMA_VERSION,
        "kind": kind,
        **body,
    }


def dump_journal_entry(entry: dict[str, Any]) -> str:
    """Serialise a journal entry to exactly one JSON line (no newline)."""
    _check_journal_envelope(entry)
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def parse_journal_entry(line: str) -> dict[str, Any]:
    """Parse and validate one journal line produced by :func:`dump_journal_entry`."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as err:
        raise JournalError(f"invalid journal line: {err}") from err
    if not isinstance(data, dict):
        raise JournalError(
            f"journal entry must be a JSON object, got {type(data).__name__}"
        )
    _check_journal_envelope(data)
    return data


def _check_journal_envelope(entry: dict[str, Any]) -> None:
    missing = [k for k in _ENVELOPE_KEYS if k not in entry]
    if missing:
        raise JournalError(f"journal entry missing envelope key(s): {missing}")
    if entry["schema"] != JOURNAL_SCHEMA:
        raise JournalError(
            f"unknown journal schema {entry['schema']!r} "
            f"(expected {JOURNAL_SCHEMA!r})"
        )
    if entry["version"] != JOURNAL_SCHEMA_VERSION:
        raise JournalError(
            f"unsupported journal version {entry['version']!r} "
            f"(this build reads version {JOURNAL_SCHEMA_VERSION})"
        )
    if entry["kind"] not in JOURNAL_KINDS:
        raise JournalError(f"unknown journal kind {entry['kind']!r}")
