#!/usr/bin/env python3
"""Benchmark of the IMD-shield simulator: campaign CLI, sharded dispatch
and campaign service.

    python3 perfbench/run.py --workload fig9-cli --seed 1 --seconds 20 --trace 0

Builds perfbench_driver (perfbench/CMakeLists.txt) from the repository
sources, runs one workload for the window, checks every canonical report
byte against the serial references in perfbench/golden.json, prints every
metric by name and unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes a Chrome trace). perfbench/README.md explains
why each workload and metric exists.

    python3 perfbench/run.py --record-golden   # re-record golden.json
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
WORKLOADS = ("fig9-cli", "fig3-sharded", "serve-mixed")
DRIVER_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880

# (name, unit, better) of every metric the result line carries.
END_TO_END = [
    ("trials_per_s", "trials/s", "higher"),
    ("setup_s", "s", "lower"),
    ("request_p50_ms", "ms", "lower"),
    ("request_p90_ms", "ms", "lower"),
    ("campaigns_per_s", "req/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]
KERNELS = ("sync_corr", "dual_tone_mac", "cmac", "fir_real", "fir_cplx")
BACKENDS = ("scalar", "sse2", "avx2")
PER_LAYER = [
    ("campaign.trial_ms", "ms", "lower"),
    ("campaign.trial_other_ms", "ms", "lower"),
    ("campaign.chunk_acquire_share", "fraction", "lower"),
    ("campaign.stats_merge_share", "fraction", "lower"),
    ("campaign.report_ms", "ms", "lower"),
    ("chunk_stream.serialize_us_per_chunk", "us", "lower"),
    ("chunk_stream.bytes_per_chunk", "B", "lower"),
    ("chunk_stream.merge_ms", "ms", "lower"),
    ("dispatch.wave_ms", "ms", "lower"),
    ("dispatch.shard_imbalance", "ratio", "lower"),
    ("dispatch.chunks_redealt", "count", "lower"),
    ("shield.warmup_ms_per_trial", "ms", "lower"),
    ("shield.jamgen_ms_per_trial", "ms", "lower"),
    ("shield.deployments_built", "1/campaign", "lower"),
    ("shield.deployments_reused", "1/campaign", "higher"),
    ("snapshot.saves", "1/campaign", "lower"),
    ("snapshot.restores", "1/campaign", "higher"),
    ("snapshot.save_ms", "ms", "lower"),
    ("channel.medium_mix_ms_per_trial", "ms", "lower"),
    ("channel.medium_mix_ns_per_call", "ns", "lower"),
    ("phy.receiver_demod_ms_per_trial", "ms", "lower"),
    ("phy.receiver_demod_ns_per_call", "ns", "lower"),
    ("adversary.eavesdrop_decode_us", "us", "lower"),
] + [
    (f"dsp.kernels.{k}.{b}.ns_per_sample", "ns", "lower")
    for k in KERNELS for b in BACKENDS
] + [
    (f"dsp.kernels.{k}.bytes_per_sample", "B", "lower") for k in KERNELS
] + [
    ("serve.queue_wait_ms_p50", "ms", "lower"),
    ("serve.exec_ms_p50", "ms", "lower"),
    ("serve.delivery_ms_p50", "ms", "lower"),
    ("serve.short_request_p50_ms", "ms", "lower"),
    ("serve.long_request_p50_ms", "ms", "lower"),
    ("serve.frame_bytes_per_request", "B", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.open_fds_delta", "count", "lower"),
    ("serve.threads_delta", "count", "lower"),
    ("obs.trace_overhead", "ratio", "higher"),
]
# Operations whose latency and throughput are the workload's own.
MEASURED = ("campaign", "short", "long")


class BenchError(Exception):
    pass


# -- statistics -------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n):
    """The highest of p99.9/p99/p90/p50 with at least ten of `n` samples
    beyond it, or None when not even the median has."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


# -- correctness ------------------------------------------------------------

def golden_key(preset, trials, chunk_size):
    return f"{preset}/t{trials}/c{chunk_size}"


def report_digest(csv_text, json_text):
    data = (csv_text + "\0" + json_text).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def op_reports(op):
    """The canonical (csv, json) an operation produced."""
    if "report_frame" in op:
        frame = json.loads(op["report_frame"])
        return frame["csv"], frame["json"]
    return op["csv"], op["json"]


def check_op(op, golden):
    """None when the operation succeeded and its report bytes equal the
    serial reference; otherwise why it failed."""
    if op["outcome"] != "ok":
        return f"{op['outcome']}: {op['detail']}"
    if op["cls"] == "check":
        return None
    try:
        csv_text, json_text = op_reports(op)
    except (KeyError, ValueError) as e:
        return f"no report ({e})"
    refs = golden.get(golden_key(op["preset"], op["trials"], op["chunk_size"]))
    want = None if refs is None else refs.get(str(op["seed"]))
    if want is None:
        return f"no serial reference for {op['preset']} seed {op['seed']}"
    if report_digest(csv_text, json_text) != want:
        return (f"{op['preset']} seed {op['seed']}: report bytes differ from "
                "the serial run_campaign reference")
    return None


# -- metrics ----------------------------------------------------------------

def sequential_rate(ops):
    """Trials per second of back-to-back operations. A mean over the run,
    so a change of host speed inside the run blends in instead of
    flipping the result between two modes."""
    return (sum(o["trial_count"] for o in ops)
            / sum(o["wall_ms"] / 1e3 for o in ops))


def end_to_end(doc, ok_ops, strict):
    """The end-to-end metrics of the run's untraced operations. A correct
    run (`strict`) must have the 100 samples its p90 needs; a failed one
    reports what it has."""
    ops = [o for o in ok_ops if o["cls"] in MEASURED and not o["traced"]]
    if not ops:
        raise BenchError("no operation completed in the window")
    tail = tail_percentile(len(ops))
    if strict and (tail is None or tail < 90.0):
        raise BenchError(f"{len(ops)} completed operations: a p90 needs 100")
    walls = [o["wall_ms"] for o in ops]
    window = doc["window_s"]
    if doc["workload"] == "serve-mixed":
        # Interleaved requests overlap, so throughput is over the window.
        trials_per_s = sum(o["trial_count"] for o in ops) / window
    else:
        trials_per_s = sequential_rate(ops)
    return {
        "trials_per_s": trials_per_s,
        "setup_s": statistics.median(doc["setup_s"]),
        "request_p50_ms": percentile(walls, 50),
        "request_p90_ms": percentile(walls, 90),
        "campaigns_per_s": len(ops) / window,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }, len(ops), tail


def serve_layers(ops):
    served = [o for o in ops if o["cls"] in ("short", "long")]
    done = [(o, json.loads(o["done_frame"])) for o in served
            if o["outcome"] == "ok"]
    if not done:
        return {name: 0.0 for name in (
            "serve.queue_wait_ms_p50", "serve.exec_ms_p50",
            "serve.delivery_ms_p50", "serve.short_request_p50_ms",
            "serve.long_request_p50_ms", "serve.frame_bytes_per_request",
            "serve.rejected")}

    def p50(values):
        values = list(values)
        return percentile(values, 50) if values else 0.0

    return {
        "serve.queue_wait_ms_p50": p50(d["queue_wait_ms"] for _, d in done),
        "serve.exec_ms_p50": p50(d["wall_ms"] - d["queue_wait_ms"]
                                 for _, d in done),
        "serve.delivery_ms_p50": p50(o["wall_ms"] - d["wall_ms"]
                                     for o, d in done),
        "serve.short_request_p50_ms": p50(o["wall_ms"] for o, _ in done
                                          if o["cls"] == "short"),
        "serve.long_request_p50_ms": p50(o["wall_ms"] for o, _ in done
                                         if o["cls"] == "long"),
        "serve.frame_bytes_per_request": statistics.fmean(
            o["bytes"] for o, _ in done),
        "serve.rejected": float(sum(o["outcome"] == "rejected"
                                    for o in served)),
    }


def trace_overhead(doc, ok_ops):
    """Traced / untraced throughput of the same campaigns run back to
    back. serve-mixed pairs its direct run_campaign probes (the service
    runs its workers without obs timers, so its traced half only adds
    client spans); the other workloads alternate their window's
    operations."""
    cls = "direct" if doc["workload"] == "serve-mixed" else "campaign"
    ops = [o for o in ok_ops if o["cls"] == cls]
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    if not traced or not plain:
        return 0.0
    return sequential_rate(traced) / sequential_rate(plain)


def per_layer(doc, ok_ops):
    layers = dict(doc["layers"])
    layers.update(serve_layers(doc["ops"]))
    layers.setdefault("serve.open_fds_delta", 0.0)
    layers.setdefault("serve.threads_delta", 0.0)
    layers["obs.trace_overhead"] = trace_overhead(doc, ok_ops)
    return layers


def summarize(doc, golden):
    """(result line, human-readable lines) of one driver document."""
    failures = []
    ok_ops = []
    for op in doc["ops"]:
        reason = check_op(op, golden)
        if reason is None:
            ok_ops.append(op)
        else:
            failures.append(reason)
    attempted = len(doc["ops"])
    lines = [f"workload {doc['workload']}  seed {doc['seed']}  "
             f"trace {doc['trace']}  stamp {json.dumps(doc['stamp'])}"]
    lines.append(f"  operations: {attempted} attempted, {len(failures)} "
                 f"failed (error_rate {len(failures) / max(attempted, 1):.4f})")
    if doc["fd_capped"]:
        lines.append("  window ended early: the service's leaked connection "
                     "fds reached the fd limit")
    for reason in failures[:10]:
        lines.append(f"  FAILED {reason}")

    if doc["trace"]:
        values = per_layer(doc, ok_ops)
        spec = PER_LAYER
        decode, calls = (values.get("adversary.eavesdrop_decode_us", 0.0),
                         values.get("adversary.eavesdrop_calls_per_trial", 0.0))
        if doc["workload"] == "fig9-cli" and values.get("campaign.trial_ms"):
            lines.append(f"  eavesdrop_decode share of a fig9 trial: "
                         f"{decode * calls / 1e3 / values['campaign.trial_ms']:.4f}")
    else:
        values, samples, tail = end_to_end(doc, ok_ops, strict=not failures)
        values["error_rate"] = len(failures) / max(attempted, 1)
        spec = END_TO_END + [("error_rate", "fraction", "lower")]
        lines.append(f"  latency samples {samples}; highest percentile with "
                     f">=10 samples beyond: p{tail}")
    for name, unit, _ in spec:
        lines.append(f"  {name:46s} {values[name]:>16.6f} {unit}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in (PER_LAYER if doc["trace"] else END_TO_END)}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return result, lines


# -- build and run ----------------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources beside {HERE}")
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr,
             "timeout": BUILD_TIMEOUT_S, "check": True}
    try:
        if not (bdir / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=Release", "-DHS_SANITIZE=OFF",
                            "-DHS_NATIVE=OFF"], **quiet)
        subprocess.run(["cmake", "--build", str(bdir), "--target",
                        "perfbench_driver", "-j", str(os.cpu_count() or 1)],
                       **quiet)
    except subprocess.CalledProcessError as e:
        raise BenchError(f"build failed: {e}") from e
    return bdir / "perfbench_driver"


def refusal(stamp):
    """Why a build must not be benchmarked, or None. Sanitizer, HS_NATIVE
    and non-Release builds measure a different program."""
    off = ("", "OFF", "FALSE", "0", "NO", "N")
    if stamp["build_type"] != "Release":
        return f"build type {stamp['build_type']!r} is not Release"
    if stamp["sanitize"].upper() not in off:
        return f"sanitizer build (HS_SANITIZE={stamp['sanitize']})"
    if stamp["native"].upper() not in off:
        return f"HS_NATIVE build (HS_NATIVE={stamp['native']})"
    if not stamp["ndebug"]:
        return "assertions enabled (NDEBUG not defined)"
    return None


def read_driver_output(path):
    """The driver writes one JSON line per operation, then its summary."""
    lines = path.read_text().splitlines()
    doc = json.loads(lines[-1])
    doc["ops"] = [json.loads(line) for line in lines[:-1]]
    return doc


def run_driver(driver, args, out_dir, driver_args=()):
    """Runs one workload. `driver_args` are extra driver flags; only the
    self-tests pass any (to shrink the service's admission limits)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = json.loads(subprocess.run(
        [str(driver), "--stamp"], capture_output=True, text=True, check=True,
        timeout=30).stdout)
    reason = refusal(stamp)
    if reason:
        raise BenchError(f"refusing to benchmark: {reason}")
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out.name, *driver_args]
    if args.trace:
        cmd += ["--trace-out", f"trace-{args.workload}-seed{args.seed}.json"]
    # The driver's cwd is the output directory: the service socket is a
    # short relative path there, whatever the checkout's path length.
    proc = subprocess.run(cmd, cwd=out_dir, stdout=sys.stderr,
                          stderr=sys.stderr, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"driver exited with {proc.returncode}")
    doc = read_driver_output(out)
    out.unlink()
    return doc


def record_golden(driver, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "golden-run.json"
    subprocess.run([str(driver), "--record-golden", "--out", str(out)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    golden = {}
    for op in read_driver_output(out)["ops"]:
        key = golden_key(op["preset"], op["trials"], op["chunk_size"])
        golden.setdefault(key, {})[str(op["seed"])] = report_digest(
            op["csv"], op["json"])
    out.unlink()
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                      for k, v in sorted(golden.items()))
    GOLDEN.write_text("{\n" + body + "\n}\n")
    print(f"recorded {sum(map(len, golden.values()))} references in {GOLDEN}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    try:
        bdir = build_dir()
        driver = build(bdir)
        if args.record_golden:
            record_golden(driver, bdir / "out")
            return 0
        golden = json.loads(GOLDEN.read_text())
        doc = run_driver(driver, args, bdir / "out")
        result, lines = summarize(doc, golden)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
