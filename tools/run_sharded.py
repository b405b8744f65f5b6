#!/usr/bin/env python3
"""Launch a campaign as K shard processes and merge their chunk streams.

Spawns K `campaign_runner --shards=K --shard=i --emit-chunks=...`
processes (no communication between them — each shard's chunk set is a
pure function of (scenario, seed, trials, K, i)), waits for all of them,
then runs `campaign_runner --merge` to fold the streams into CSV/JSON
reports that are byte-identical to a serial single-process run.

    python3 tools/run_sharded.py --runner build/campaign_runner \
        --scenario fig9-eaves-ber --shards 3 --seed 1 \
        --outdir shards --csv merged.csv --json merged.json --verify

Each shard prints periodic `shard i/K: chunks c/C` progress lines to its
stderr; this driver multiplexes them onto one stream, prefixing each line
with `[shard i]`.

--snapshot-dir DIR makes every shard share one on-disk warm-state
snapshot cache (see docs/REPRODUCING.md "Warm-state snapshots"): the
first process to finish a configuration's warm-up publishes
`<key>.hsnap`, every other process restores it instead of re-simulating.
With --prewarm, a serial 1-trial-per-point pass populates the cache
first, so all K shards skip every cold warm-up. Results are
byte-identical with or without snapshots.

--verify additionally runs the serial campaign in-process (1 thread,
--canonical) and byte-compares its reports against the merged ones,
exiting non-zero on any difference.

--inject SPEC injects deterministic faults into the shard processes
(forwarded as `campaign_runner --fault-plan`; see docs/REPRODUCING.md
"Fault tolerance"). SPEC is comma-separated `kind:shard@arg` — e.g.
`kill:1@3` makes shard 1 die (exit 70) after its 3rd chunk record,
`trunc:0@140` / `truncl:2@4` cut shard 0/2's stream at a byte/line, and
`corrupt:0@5` flips a byte of line 5. With --inject, shard processes may
legitimately fail, and the fold step switches from the strict
`--merge` to `--recover`: each stream is salvaged to its valid prefix
and the missing chunks are re-executed in-process, so the recovered
reports are still byte-identical to the serial run (pair with --verify
to prove it). `delay:` faults are delivery faults of the in-process
dispatcher and have no effect here, where every stream is a file.

--metrics-json PATH has the merge step aggregate the K shards' metrics
trailers (counters + phase timers, summed) into one hs-metrics document
and turns each shard's phase timers on (per-shard documents land next to
the chunk streams as shard-i.metrics.json);
--trace-dir DIR gives every shard process its own Chrome-trace timeline
(shard-i.trace.json, pid = shard index — load them together in Perfetto).
"""

import argparse
import pathlib
import subprocess
import sys
import threading
import time


def run_checked(cmd, what):
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        sys.exit(f"run_sharded: {what} failed (exit {proc.returncode}): "
                 f"{' '.join(map(str, cmd))}")


def pump_stderr(index, stream):
    """Forwards one shard's stderr line by line, tagged with its index, so
    the interleaved progress of all K processes reads as one stream."""
    for line in iter(stream.readline, b""):
        sys.stderr.write(f"[shard {index}] " +
                         line.decode("utf-8", "replace"))
        sys.stderr.flush()
    stream.close()


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runner", default="build/campaign_runner",
                    help="path to the campaign_runner binary")
    ap.add_argument("--scenario", default="fig9-eaves-ber")
    ap.add_argument("--shards", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trials", type=int, default=0,
                    help="trials per sweep point (0 = preset default)")
    ap.add_argument("--threads", type=int, default=1,
                    help="worker threads per shard process")
    ap.add_argument("--outdir", default="shard-out",
                    help="directory for the per-shard chunk streams")
    ap.add_argument("--csv", default="", help="merged CSV report path")
    ap.add_argument("--json", default="", help="merged JSON report path")
    ap.add_argument("--snapshot-dir", default="", metavar="DIR",
                    help="shared warm-state snapshot cache directory for "
                         "all shard processes (created if missing)")
    ap.add_argument("--prewarm", action="store_true",
                    help="populate --snapshot-dir with a serial "
                         "1-trial-per-point pass before fanning out, so "
                         "no shard ever runs a cold warm-up")
    ap.add_argument("--verify", action="store_true",
                    help="byte-compare merged reports against a serial run")
    ap.add_argument("--inject", default="", metavar="SPEC",
                    help="fault plan injected into the shard processes "
                         "(kind:shard@arg,... — see --fault-plan); folds "
                         "with --recover instead of --merge")
    ap.add_argument("--metrics-json", default="", metavar="PATH",
                    help="aggregate the shards' metrics trailers into one "
                         "hs-metrics document at the merge step")
    ap.add_argument("--trace-dir", default="", metavar="DIR",
                    help="write each shard's Chrome-trace timeline to "
                         "DIR/shard-i.trace.json (created if missing)")
    args = ap.parse_args()

    if args.shards < 1:
        sys.exit("run_sharded: --shards must be >= 1")
    runner = pathlib.Path(args.runner)
    if not runner.exists():
        sys.exit(f"run_sharded: runner not found: {runner}")
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    common = [f"--scenario={args.scenario}", f"--seed={args.seed}",
              f"--trials={args.trials}", f"--threads={args.threads}"]
    if args.snapshot_dir:
        snapdir = pathlib.Path(args.snapshot_dir)
        snapdir.mkdir(parents=True, exist_ok=True)
        common.append(f"--snapshot-dir={snapdir}")
    elif args.prewarm:
        sys.exit("run_sharded: --prewarm needs --snapshot-dir")

    # --- optional prewarm: publish every warm snapshot before fanning out -
    if args.prewarm:
        run_checked([str(runner), f"--scenario={args.scenario}",
                     f"--seed={args.seed}", "--trials=1", "--threads=1",
                     f"--snapshot-dir={snapdir}"], "prewarm pass")

    # --- fan out: one process per shard, all concurrent -------------------
    streams = [outdir / f"shard-{i}.jsonl" for i in range(args.shards)]
    trace_dir = None
    if args.trace_dir:
        trace_dir = pathlib.Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()
    procs = []
    pumps = []
    for i, stream in enumerate(streams):
        cmd = [str(runner), *common, f"--shards={args.shards}",
               f"--shard={i}", f"--emit-chunks={stream}"]
        if args.inject:
            # Every shard gets the full plan and applies only its own
            # faults; a killed shard exits 70 with a truncated stream.
            cmd.append(f"--fault-plan={args.inject}")
        if args.metrics_json:
            # Per-shard metrics documents ride along; requesting them also
            # turns the shard's phase timers on, so the trailer the merge
            # aggregates carries timings, not just counters.
            cmd.append(f"--metrics-json={outdir / f'shard-{i}.metrics.json'}")
        if trace_dir is not None:
            cmd.append(f"--trace={trace_dir / f'shard-{i}.trace.json'}")
        p = subprocess.Popen(cmd, stderr=subprocess.PIPE)
        procs.append((cmd, p))
        pump = threading.Thread(target=pump_stderr, args=(i, p.stderr),
                                daemon=True)
        pump.start()
        pumps.append(pump)
    failed = [cmd for cmd, p in procs if p.wait() != 0]
    for pump in pumps:
        pump.join(timeout=5)
    if failed and not args.inject:
        sys.exit("run_sharded: shard process(es) failed:\n  " +
                 "\n  ".join(" ".join(c) for c in failed))
    if failed:
        # Injected faults legitimately kill shards (exit 70); recovery
        # below re-deals whatever their streams lost.
        print(f"run_sharded: {len(failed)} shard(s) failed under --inject "
              f"{args.inject!r}; recovering", file=sys.stderr)

    # --- fold: strict merge, or salvage + recover under fault injection ---
    fold = "--recover" if args.inject else "--merge"
    merge_cmd = [str(runner), fold, *map(str, streams)]
    csv_path = args.csv or str(outdir / "merged.csv")
    json_path = args.json or str(outdir / "merged.json")
    merge_cmd += [f"--csv={csv_path}", f"--json={json_path}"]
    if args.metrics_json:
        merge_cmd.append(f"--metrics-json={args.metrics_json}")
    run_checked(merge_cmd, fold.lstrip("-"))
    wall = time.monotonic() - t0
    print(f"run_sharded: {args.shards} shard(s) + {fold.lstrip('-')} "
          f"in {wall:.2f}s")

    # --- optional serial byte-comparison ----------------------------------
    if args.verify:
        serial_csv = outdir / "serial.csv"
        serial_json = outdir / "serial.json"
        run_checked([str(runner), *common[:3], "--threads=1", "--canonical",
                     f"--csv={serial_csv}", f"--json={serial_json}"],
                    "serial verification run")
        for merged, serial in ((csv_path, serial_csv),
                               (json_path, serial_json)):
            if pathlib.Path(merged).read_bytes() != serial.read_bytes():
                sys.exit(f"run_sharded: VERIFY FAILED: {merged} differs "
                         f"from the serial run's {serial}")
        print("run_sharded: verify OK — merged reports byte-identical to "
              "the serial run")


if __name__ == "__main__":
    main()
