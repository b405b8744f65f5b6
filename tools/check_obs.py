#!/usr/bin/env python3
"""Validate observability artifacts written by campaign_runner.

Checks any combination of:

  --metrics FILE     an hs-metrics document (--metrics-json): versioned
                     header, every counter/phase key present with sane
                     integer values, trials > 0, phase shares finite.
  --trace FILE       a Chrome trace-event timeline (--trace): valid JSON,
                     a traceEvents list whose B/E events pair up per
                     (pid, tid) and whose timestamps are monotonic per
                     (pid, tid) — the guarantee the recorder makes by
                     appending each thread's events in capture order.
  --compare A B      two canonical report files that must be
                     byte-identical (the metrics-on vs metrics-off gate).

Exits non-zero with a message naming the first violation. Used by the CI
observability job; handy locally after touching src/obs/.

    python3 tools/check_obs.py --metrics m.json --trace t.json \
        --compare on.csv off.csv
"""

import argparse
import json
import math
import pathlib
import sys

METRICS_VERSION = 3
COUNTERS = [
    "trials", "chunks", "deployments_built", "deployments_reused",
    "snapshots_restored", "snapshots_saved", "chunks_redealt",
    "chunks_duplicate", "shards_dead", "shards_straggler", "tasks_retried",
]
PHASES = [
    "warmup", "snapshot_save", "snapshot_restore", "medium_mix", "jamgen",
    "receiver_demod", "trial", "stats_merge", "chunk_acquire",
]


def fail(msg):
    sys.exit(f"check_obs: {msg}")


def check_metrics(path):
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")
    if doc.get("format") != "hs-metrics":
        fail(f"{path}: format is {doc.get('format')!r}, not 'hs-metrics'")
    if doc.get("version") != METRICS_VERSION:
        fail(f"{path}: version {doc.get('version')!r}, expected "
             f"{METRICS_VERSION}")
    for key in ("scenario", "seed", "shards", "threads", "wall_seconds",
                "counters", "phases"):
        if key not in doc:
            fail(f"{path}: missing key {key!r}")
    counters = doc["counters"]
    for name in COUNTERS:
        v = counters.get(name)
        if not isinstance(v, int) or v < 0:
            fail(f"{path}: counter {name!r} is {v!r}, expected a "
                 f"non-negative integer")
    extra = set(counters) - set(COUNTERS)
    if extra:
        fail(f"{path}: unknown counters {sorted(extra)}")
    if counters["trials"] == 0:
        fail(f"{path}: zero trials recorded — the run did no work")
    phases = doc["phases"]
    for name in PHASES:
        p = phases.get(name)
        if (not isinstance(p, dict)
                or not isinstance(p.get("calls"), int) or p["calls"] < 0
                or not isinstance(p.get("ns"), int) or p["ns"] < 0
                or not isinstance(p.get("share"), (int, float))
                or not math.isfinite(p["share"]) or p["share"] < 0):
            fail(f"{path}: phase {name!r} is malformed: {p!r}")
        if p["calls"] == 0 and p["ns"] != 0:
            fail(f"{path}: phase {name!r} has time but zero calls")
    extra = set(phases) - set(PHASES)
    if extra:
        fail(f"{path}: unknown phases {sorted(extra)}")
    print(f"check_obs: {path}: OK ({counters['trials']} trials, "
          f"{sum(p['calls'] for p in phases.values())} timed phase calls)")


def check_trace(path):
    try:
        doc = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable JSON: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")
    last_ts = {}
    depth = {}
    counts = {"B": 0, "E": 0, "i": 0, "M": 0}
    for n, e in enumerate(events):
        ph = e.get("ph")
        if ph not in counts:
            fail(f"{path}: event {n} has unsupported phase {ph!r}")
        counts[ph] += 1
        if ph == "M":
            continue
        key = (e.get("pid"), e.get("tid"))
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{path}: event {n} has bad ts {ts!r}")
        if ts < last_ts.get(key, 0.0):
            fail(f"{path}: event {n} breaks monotonic ts on pid/tid {key}: "
                 f"{ts} < {last_ts[key]}")
        last_ts[key] = ts
        if ph == "B":
            depth[key] = depth.get(key, 0) + 1
        elif ph == "E":
            depth[key] = depth.get(key, 0) - 1
            if depth[key] < 0:
                fail(f"{path}: event {n} is an E without a matching B on "
                     f"pid/tid {key}")
    unclosed = {k: d for k, d in depth.items() if d != 0}
    if unclosed:
        fail(f"{path}: unclosed spans at end of trace: {unclosed}")
    if counts["B"] != counts["E"]:
        fail(f"{path}: {counts['B']} B events vs {counts['E']} E events")
    print(f"check_obs: {path}: OK ({counts['B']} spans, {counts['i']} "
          f"instants, {counts['M']} metadata, {len(last_ts)} thread(s))")


def check_compare(a, b):
    ba = pathlib.Path(a).read_bytes()
    bb = pathlib.Path(b).read_bytes()
    if ba != bb:
        fail(f"{a} and {b} differ — observability must never change a "
             f"canonical report byte")
    print(f"check_obs: {a} == {b}: OK ({len(ba)} bytes)")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--metrics", action="append", default=[],
                    help="hs-metrics JSON file to validate (repeatable)")
    ap.add_argument("--trace", action="append", default=[],
                    help="Chrome-trace JSON file to validate (repeatable)")
    ap.add_argument("--compare", nargs=2, action="append", default=[],
                    metavar=("A", "B"),
                    help="two report files that must be byte-identical "
                         "(repeatable)")
    args = ap.parse_args()
    if not (args.metrics or args.trace or args.compare):
        ap.error("nothing to check: pass --metrics, --trace or --compare")
    for path in args.metrics:
        check_metrics(path)
    for path in args.trace:
        check_trace(path)
    for a, b in args.compare:
        check_compare(a, b)


if __name__ == "__main__":
    main()
