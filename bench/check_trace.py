#!/usr/bin/env python3
"""Schema gate over the observability artifacts (trace, flight dumps and
Prometheus text).

Three modes, one per artifact:

Trace mode (positional path): validates a Chrome/Perfetto trace_event
JSON produced by --trace=<file> (serve_throughput, serving_demo):

  * top level is {"traceEvents": [...]} with a non-empty event list,
  * every record carries name/ph/pid/tid, and every non-metadata record
    a numeric ts; ph is limited to B/E/i/M,
  * every tid that emits events has an 'M' thread_name record,
  * per tid, timestamps are monotonic non-decreasing (each thread's
    buffer is emission-ordered; an out-of-order ts means the exporter
    interleaved buffers or the clock went backwards),
  * per tid, B/E records pair up under stack discipline (every E closes
    the innermost open B of the same name; nothing left open at EOF),
  * --require-names, when given, asserts each named span/instant occurs
    at least once (CI uses this to pin the scheduler phases: a trace of
    a continuous-batching run without "tick" or "decode-batch" means
    the instrumentation regressed even if the JSON is well-formed).

Flight mode (--flight PATH): validates a flight-recorder dump appended
by fault_campaign --flight-dump on crash_hang trials (or written by
serve_throughput / serving_demo on demand):

  * at least one dump block is present (header line '# flight recorder:
    R of T events retained (capacity N)'),
  * every event line parses as 'seq t+<ns>ns <kind> <component>
    <detail> [v=<value>]' with a known event kind,
  * --expect-crash-hang additionally requires at least one campaign
    header '=== crash_hang scheduler=<mode> subsystem=<name> ... ==='
    naming the injected subsystem, and at least one 'hang' event —
    the post-mortem must say what was being injected when the stack
    wedged, or the recorder is decoration.

Prometheus mode (--prom PATH): validates the text exposition written by
serve_throughput --prom=<file> (TelemetrySnapshot::prometheus_text):

  * every family carries exactly one '# HELP' and one '# TYPE' line,
    with a known metric type,
  * every sample parses as 'name[{labels}] value' and belongs to a
    declared family (a histogram's _bucket/_sum/_count samples belong
    to the histogram family),
  * per histogram series, the buckets are cumulative (le and count both
    non-decreasing), the last one is le="+Inf", and _count equals the
    +Inf bucket.

Exit codes: 0 pass, 1 validation failure, 2 bad invocation / unreadable
file (same convention as check_regression.py / check_coverage.py).

Usage:
  python3 bench/check_trace.py trace.json \
      [--require-names tick,decode-batch,prefill]
  python3 bench/check_trace.py --flight flight.txt [--expect-crash-hang]
  python3 bench/check_trace.py --prom metrics.txt
"""

import argparse
import json
import re
import sys

VALID_PHASES = {"B", "E", "i", "M"}

FLIGHT_KINDS = {
    "alarm", "recovery", "escalation", "fallback", "breaker_trip",
    "heal_epoch", "preemption", "resume", "scrub_repair", "hang", "note",
}

FLIGHT_HEADER_RE = re.compile(
    r"^# flight recorder: (\d+) of (\d+) events retained \(capacity (\d+)\)$")
FLIGHT_EVENT_RE = re.compile(
    r"^(\d+) t\+(\d+)ns (\S+) (\S+) (\S+)( v=(\d+))?$")
PROM_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}
PROM_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})? (\S+)$")
PROM_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

CAMPAIGN_HEADER_RE = re.compile(
    r"^=== crash_hang scheduler=(\S+) subsystem=(\S+) trial=(\d+) "
    r"step=(\d+) ===$")


def check_trace(path, require_names):
    """Returns a list of failure strings (empty = pass)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        return [f"cannot parse {path}: {err}"]

    failures = []
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return [f"{path}: no traceEvents list"]

    named_tids = set()   # tids with an 'M' thread_name record.
    emitting_tids = set()
    last_ts = {}         # tid -> last seen ts.
    stacks = {}          # tid -> open-span name stack.
    seen_names = set()

    for i, event in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(event, dict):
            failures.append(f"{where}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                failures.append(f"{where}: missing {field!r}")
        ph = event.get("ph")
        if ph not in VALID_PHASES:
            failures.append(f"{where}: bad phase {ph!r}")
            continue
        tid = event.get("tid")
        if ph == "M":
            if event.get("name") == "thread_name":
                named_tids.add(tid)
            continue

        emitting_tids.add(tid)
        seen_names.add(event.get("name"))
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            failures.append(f"{where}: bad ts {ts!r}")
            continue
        if ts < last_ts.get(tid, 0.0):
            failures.append(
                f"{where}: ts {ts} < previous {last_ts[tid]} on tid {tid}")
        last_ts[tid] = ts

        stack = stacks.setdefault(tid, [])
        if ph == "B":
            stack.append(event.get("name"))
        elif ph == "E":
            if not stack:
                failures.append(
                    f"{where}: 'E' {event.get('name')!r} with no open span "
                    f"on tid {tid}")
            elif stack[-1] != event.get("name"):
                failures.append(
                    f"{where}: 'E' {event.get('name')!r} closes open span "
                    f"{stack[-1]!r} on tid {tid}")
                stack.pop()
            else:
                stack.pop()

    for tid, stack in sorted(stacks.items()):
        if stack:
            failures.append(
                f"tid {tid}: {len(stack)} span(s) left open at end of "
                f"trace: {stack}")
    for tid in sorted(emitting_tids - named_tids):
        failures.append(f"tid {tid}: emits events but has no thread_name "
                        "metadata record")
    for name in require_names:
        if name not in seen_names:
            failures.append(f"required span/instant {name!r} never occurs")

    if not failures:
        print(f"{path}: {len(events)} records over "
              f"{len(emitting_tids)} thread(s), "
              f"{len(seen_names)} distinct names — trace ok")
    return failures


def check_flight(path, expect_crash_hang):
    """Returns a list of failure strings (empty = pass)."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as err:
        return [f"cannot read {path}: {err}"]

    failures = []
    dumps = 0
    event_lines = 0
    campaign_headers = 0
    subsystems = set()
    kinds = set()

    for i, line in enumerate(lines):
        if not line.strip():
            continue
        where = f"line {i + 1}"
        header = FLIGHT_HEADER_RE.match(line)
        if header:
            dumps += 1
            retained, total, capacity = map(int, header.groups())
            if retained > total or retained > capacity:
                failures.append(
                    f"{where}: inconsistent header (retained {retained}, "
                    f"total {total}, capacity {capacity})")
            continue
        campaign = CAMPAIGN_HEADER_RE.match(line)
        if campaign:
            campaign_headers += 1
            subsystems.add(campaign.group(2))
            continue
        event = FLIGHT_EVENT_RE.match(line)
        if event:
            event_lines += 1
            kind = event.group(3)
            kinds.add(kind)
            if kind not in FLIGHT_KINDS:
                failures.append(f"{where}: unknown event kind {kind!r}")
            continue
        failures.append(f"{where}: unparseable: {line!r}")

    if dumps == 0:
        failures.append(f"{path}: no flight-recorder dump header found")
    if expect_crash_hang:
        if campaign_headers == 0:
            failures.append("no '=== crash_hang ... ===' campaign header — "
                            "the dump does not name an injected subsystem")
        if "hang" not in kinds:
            failures.append("no 'hang' event recorded — a crash_hang dump "
                            "must show the expired tick/step budget")

    if not failures:
        detail = (f", subsystems {sorted(subsystems)}"
                  if subsystems else "")
        print(f"{path}: {dumps} dump(s), {event_lines} event line(s), "
              f"kinds {sorted(kinds)}{detail} — flight dump ok")
    return failures


def parse_prom_labels(text):
    """'k="v",k2="v2"' -> list of (k, v) pairs; None if malformed."""
    pairs = []
    rest = text
    while rest:
        match = PROM_LABEL_RE.match(rest)
        if not match:
            return None
        pairs.append(match.groups())
        rest = rest[match.end():]
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            return None
    return pairs


def check_prom(path):
    """Returns a list of failure strings (empty = pass)."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as err:
        return [f"cannot read {path}: {err}"]

    failures = []
    helps = {}   # family -> HELP line count.
    types = {}   # family -> declared type (first TYPE line).
    type_lines = {}
    samples = []  # (line number, family, suffix, labels, value)

    for i, line in enumerate(lines):
        if not line.strip():
            continue
        where = f"line {i + 1}"
        if line.startswith("# HELP "):
            family = line[7:].split(" ", 1)[0]
            helps[family] = helps.get(family, 0) + 1
            continue
        if line.startswith("# TYPE "):
            parts = line[7:].split(" ")
            if len(parts) != 2 or parts[1] not in PROM_TYPES:
                failures.append(f"{where}: bad TYPE line: {line!r}")
                continue
            type_lines[parts[0]] = type_lines.get(parts[0], 0) + 1
            types.setdefault(parts[0], parts[1])
            continue
        if line.startswith("#"):
            continue  # free-form comment.
        match = PROM_SAMPLE_RE.match(line)
        if not match:
            failures.append(f"{where}: unparseable sample: {line!r}")
            continue
        name, _, label_text, value_text = match.groups()
        labels = parse_prom_labels(label_text or "")
        try:
            value = float(value_text)
        except ValueError:
            value = None
        if labels is None or value is None:
            failures.append(f"{where}: malformed sample: {line!r}")
            continue
        family, suffix = name, ""
        if name not in types:
            for candidate in ("_bucket", "_sum", "_count"):
                base = name[:-len(candidate)]
                if (name.endswith(candidate)
                        and types.get(base) in ("histogram", "summary")):
                    family, suffix = base, candidate
                    break
        if family not in types:
            failures.append(f"{where}: sample {name!r} belongs to no "
                            "declared family")
            continue
        samples.append((where, family, suffix, labels, value))

    for family in sorted(set(helps) | set(type_lines)):
        if helps.get(family, 0) != 1:
            failures.append(f"family {family}: {helps.get(family, 0)} HELP "
                            "line(s), expected 1")
        if type_lines.get(family, 0) != 1:
            failures.append(f"family {family}: {type_lines.get(family, 0)} "
                            "TYPE line(s), expected 1")

    # Histogram series, keyed by (family, labels without le).
    series = {}
    for where, family, suffix, labels, value in samples:
        if types[family] != "histogram" or not suffix:
            continue
        key = (family, tuple(kv for kv in labels if kv[0] != "le"))
        entry = series.setdefault(key, {"buckets": [], "count": None})
        if suffix == "_bucket":
            le = dict(labels).get("le")
            if le is None:
                failures.append(f"{where}: {family}_bucket without le")
                continue
            entry["buckets"].append((where, le, value))
        elif suffix == "_count":
            entry["count"] = value
    for (family, labels), entry in sorted(series.items()):
        label = f"{family}{{{','.join(f'{k}={v}' for k, v in labels)}}}"
        buckets = entry["buckets"]
        if not buckets:
            failures.append(f"{label}: histogram series without buckets")
            continue
        prev_le, prev_count = float("-inf"), 0.0
        for where, le, count in buckets:
            edge = float(le)  # "+Inf" parses as inf.
            if edge <= prev_le or count < prev_count:
                failures.append(f"{where}: {label} bucket le={le} is not "
                                "cumulative")
            prev_le, prev_count = edge, count
        if buckets[-1][1] != "+Inf":
            failures.append(f"{label}: last bucket is le={buckets[-1][1]}, "
                            "not +Inf")
        elif entry["count"] != buckets[-1][2]:
            failures.append(f"{label}: _count {entry['count']} != +Inf "
                            f"bucket {buckets[-1][2]}")

    if not failures:
        print(f"{path}: {len(types)} families, {len(samples)} samples, "
              f"{len(series)} histogram series — prometheus ok")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?",
                        help="Chrome trace_event JSON to validate")
    parser.add_argument("--require-names", default="",
                        help="comma-separated span/instant names that must "
                             "occur in the trace")
    parser.add_argument("--flight",
                        help="flight-recorder dump file to validate")
    parser.add_argument("--expect-crash-hang", action="store_true",
                        help="require a crash_hang campaign header naming "
                             "the injected subsystem, plus a hang event")
    parser.add_argument("--prom",
                        help="Prometheus text exposition to validate")
    args = parser.parse_args()

    if args.trace is None and args.flight is None and args.prom is None:
        parser.print_usage(sys.stderr)
        return 2

    failures = []
    if args.trace is not None:
        names = [n for n in args.require_names.split(",") if n]
        failures += check_trace(args.trace, names)
    if args.flight is not None:
        failures += check_flight(args.flight, args.expect_crash_hang)
    if args.prom is not None:
        failures += check_prom(args.prom)

    if failures:
        print(f"trace check FAILED ({len(failures)} problem(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
