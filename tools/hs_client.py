#!/usr/bin/env python3
"""Closed-loop load generator + verifier for campaign_serverd.

Drives N concurrent clients against a running campaign_serverd, each
submitting campaigns back to back (closed loop: the next request goes
out only after the previous one's `done` frame), and reports sustained
campaigns/sec plus p50/p90/p99 request latency:

    build/campaign_serverd --port=0 --port-file=/tmp/hs.port &
    python3 tools/hs_client.py --port "$(cat /tmp/hs.port)" \
        --clients 4 --campaigns 5 --preset fig9-eaves-ber --trials 4

Every campaign uses a distinct seed (seed-base + a running index), so
concurrent requests exercise genuinely different RNG streams while the
scheduler interleaves their chunks over one worker pool.

--verify-runner PATH byte-compares every streamed report against the
serial CLI (`PATH --scenario ... --canonical --csv --json`) run of the
same request — the service determinism contract. Any mismatch is fatal
(exit 1). The received chunk frames are also checked: every chunk id
exactly once, and the unescaped header/record/trailer lines must
reassemble into a stream the serial chunk-stream parser would accept
(we check the sealed-line CRC suffix shape and the chunk count here;
the gtest suite does the full reparse).

--json PATH writes the load-test result document:

    {"clients": N, "campaigns": C, "preset": ...,
     "campaigns_per_second": ..., "p50_ms": ..., "p90_ms": ...,
     "p99_ms": ..., "rejected_retries": ..., "byte_identical": true|null}

A rejected (429) response is retried after its retry_after_ms hint —
closed-loop clients never drop work, they back off.
"""

import argparse
import json
import pathlib
import socket
import subprocess
import sys
import tempfile
import threading
import time


class ClientError(Exception):
    pass


class Connection:
    """One line-delimited JSON connection to the daemon."""

    def __init__(self, host, port, unix_path):
        if unix_path:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.connect(unix_path)
        else:
            self.sock = socket.create_connection((host, port))
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def send(self, obj):
        self.file.write(json.dumps(obj) + "\n")
        self.file.flush()

    def recv(self):
        line = self.file.readline()
        if not line:
            raise ClientError("server closed the connection")
        return json.loads(line)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def run_campaign(conn, request):
    """Submits one run request and consumes its full frame stream.

    Returns (latency_seconds, report_frame, chunk_lines, rejected_retries).
    """
    rejected = 0
    while True:
        t0 = time.monotonic()
        conn.send(request)
        first = conn.recv()
        if first["type"] == "rejected":
            rejected += 1
            time.sleep(first.get("retry_after_ms", 50) / 1000.0)
            continue
        if first["type"] == "error":
            raise ClientError(f"request refused: {first['reason']}")
        if first["type"] != "admitted":
            raise ClientError(f"expected admitted, got {first}")
        rid = first["id"]
        total_chunks = first["total_chunks"]
        chunk_lines = {}
        report = None
        header = None
        trailer = None
        while True:
            msg = conn.recv()
            mtype = msg["type"]
            if mtype == "header" and msg["id"] == rid:
                header = msg["line"]
            elif mtype == "chunk" and msg["id"] == rid:
                body = json.loads(msg["line"].rsplit(',"crc":', 1)[0] + "}")
                cid = body["chunk"]
                if cid in chunk_lines:
                    raise ClientError(f"duplicate chunk {cid}")
                chunk_lines[cid] = msg["line"]
            elif mtype == "trailer" and msg["id"] == rid:
                trailer = msg["line"]
            elif mtype == "report" and msg["id"] == rid:
                report = msg
            elif mtype == "done" and msg["id"] == rid:
                latency = time.monotonic() - t0
                if header is None or trailer is None or report is None:
                    raise ClientError("incomplete stream before done")
                if len(chunk_lines) != total_chunks:
                    raise ClientError(
                        f"{len(chunk_lines)} chunk frames != "
                        f"admitted total_chunks {total_chunks}")
                for line in [header, trailer, *chunk_lines.values()]:
                    if ',"crc":"' not in line:
                        raise ClientError(f"frame missing CRC seal: {line}")
                return latency, report, chunk_lines, rejected
            else:
                raise ClientError(f"unexpected frame {msg}")


def client_loop(index, args, results, errors):
    try:
        conn = Connection(args.host, args.port, args.unix)
        for j in range(args.campaigns):
            seed = args.seed_base + index * args.campaigns + j
            request = {
                "cmd": "run",
                "preset": args.preset,
                "seed": seed,
                "trials": args.trials,
                "chunk_size": args.chunk_size,
                "priority": 1 + (index % 8),
            }
            latency, report, _, rejected = run_campaign(conn, request)
            results.append({
                "seed": seed,
                "latency_s": latency,
                "rejected_retries": rejected,
                "csv": report["csv"],
                "json": report["json"],
            })
        conn.close()
    except (ClientError, OSError, json.JSONDecodeError) as e:
        errors.append(f"client {index}: {e}")


def verify_reports(runner, args, results):
    """Serial-CLI byte-identity check for every distinct request."""
    with tempfile.TemporaryDirectory(prefix="hs_client.") as tmp:
        tmp = pathlib.Path(tmp)
        for r in results:
            csv_path = tmp / f"{r['seed']}.csv"
            json_path = tmp / f"{r['seed']}.json"
            cmd = [runner,
                   f"--scenario={args.preset}",
                   f"--seed={r['seed']}",
                   f"--trials={args.trials}",
                   f"--chunk={args.chunk_size}",
                   "--threads=1", "--canonical",
                   f"--csv={csv_path}", f"--json={json_path}"]
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if proc.returncode != 0:
                sys.exit(f"hs_client: serial verify run failed: "
                         f"{' '.join(cmd)}")
            if r["csv"] != csv_path.read_text():
                sys.exit(f"hs_client: CSV mismatch for seed {r['seed']} — "
                         f"served report is NOT byte-identical to the "
                         f"serial run")
            if r["json"] != json_path.read_text():
                sys.exit(f"hs_client: JSON mismatch for seed {r['seed']}")
    print(f"hs_client: verified {len(results)} report(s) byte-identical "
          f"to serial runs")


def percentile(sorted_values, p):
    """Nearest-rank percentile, matching obs::LatencyWindow."""
    import math
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def main():
    ap = argparse.ArgumentParser(
        description="closed-loop load generator for campaign_serverd")
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=0)
    ap.add_argument("--unix", default="",
                    help="Unix-domain socket path (instead of --port)")
    ap.add_argument("--clients", type=int, default=4)
    ap.add_argument("--campaigns", type=int, default=5,
                    help="campaigns per client (closed loop)")
    ap.add_argument("--preset", default="fig9-eaves-ber")
    ap.add_argument("--trials", type=int, default=4)
    ap.add_argument("--chunk-size", type=int, default=1)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--verify-runner", default="",
                    help="campaign_runner binary; byte-compare every "
                         "report against its serial --canonical output")
    ap.add_argument("--json", default="", metavar="PATH",
                    help="write the load-test result document to PATH")
    args = ap.parse_args()
    if not args.unix and args.port == 0:
        sys.exit("hs_client: need --port or --unix")

    results = []  # list append is atomic under the GIL
    errors = []
    t0 = time.monotonic()
    threads = [
        threading.Thread(target=client_loop, args=(i, args, results, errors))
        for i in range(args.clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.monotonic() - t0
    if errors:
        for e in errors:
            print(f"hs_client: {e}", file=sys.stderr)
        sys.exit(1)

    total = len(results)
    latencies = sorted(r["latency_s"] * 1000.0 for r in results)
    rejected = sum(r["rejected_retries"] for r in results)
    doc = {
        "clients": args.clients,
        "campaigns": total,
        "preset": args.preset,
        "trials": args.trials,
        "chunk_size": args.chunk_size,
        "wall_seconds": round(wall, 6),
        "campaigns_per_second": round(total / wall, 3) if wall > 0 else 0.0,
        "p50_ms": round(percentile(latencies, 50), 3),
        "p90_ms": round(percentile(latencies, 90), 3),
        "p99_ms": round(percentile(latencies, 99), 3),
        "max_ms": round(latencies[-1], 3),
        "rejected_retries": rejected,
        "byte_identical": None,
    }
    if args.verify_runner:
        verify_reports(args.verify_runner, args, results)
        doc["byte_identical"] = True
    print(f"hs_client: {total} campaigns over {args.clients} client(s) in "
          f"{wall:.2f}s — {doc['campaigns_per_second']} campaigns/s, "
          f"p50 {doc['p50_ms']}ms, p99 {doc['p99_ms']}ms, "
          f"{rejected} rejected-retry(ies)")

    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
