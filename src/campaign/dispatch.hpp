/// @file
/// Fault-tolerant campaign dispatcher: launches the K shards of a
/// sharded campaign through a pluggable Executor, watches their chunk
/// streams, and re-deals exactly the chunks that were lost to dead,
/// truncated, corrupted or straggling shards — with the merged report
/// still byte-identical to the serial run.
///
/// Why recovery can be exact: shard work is a pure function of
/// (scenario, seed, trials, chunk_size, K, i) and every trial seed is
/// keyed by global chunk identity, never by which worker executed it
/// (runner.hpp). So a chunk re-run by a repair task produces the same
/// bits the dead shard would have produced, and folding records in
/// ascending chunk id erases the recovery history from the result:
///
///     deal tasks ──Executor──▶ streams ──salvage──▶ valid-prefix
///        ▲                                           records
///        │                                              │
///     re-deal  ◀── missing chunk ids ◀── first-wins dedup by id
///     (repair                                           │
///      plans)                              all ids covered? ──▶ fold
///                                                              (ascending)
///
/// The recovery loop trusts nothing but validated records: streams are
/// parsed in salvage mode (chunk_stream.hpp) so only lines the strict
/// parser would accept survive, per-line CRCs reject silent corruption,
/// and every record must match the global chunk enumeration recomputed
/// from the scenario. Duplicates (a straggler finishing after its chunks
/// were re-dealt) are suppressed first-wins — harmless either way, since
/// determinism makes both copies bit-identical. dispatch_campaign and
/// the offline recover_campaign run this one loop; recover seeds it with
/// streams that already exist and repairs in-process.
///
/// Every recovery path is exercised deterministically through FaultPlan:
/// a declarative list of faults (kill after N records, truncate at a
/// byte/line, delay delivery by N waves, corrupt one line). The
/// dispatcher hands each generation-0 task its slot's share
/// (ShardTask::faults); the executor applies the stream faults, and the
/// Executor base class withholds the delayed outcomes. Faults are data,
/// not race conditions, so tests/test_dispatch.cpp can sweep the full
/// kill-each-shard-at-each-chunk matrix reproducibly.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/chunk_stream.hpp"
#include "campaign/runner.hpp"

namespace hs::campaign {

/// Dispatch-layer failure (unrecoverable loss, executor misuse, bad
/// fault spec).
class DispatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultKind {
  kKill,           ///< shard dies after writing N chunk records (no trailer)
  kTruncateBytes,  ///< stream cut to its first N bytes
  kTruncateLines,  ///< stream cut to its first N lines
  kDelay,          ///< delivery withheld for N collect waves (straggler)
  kCorrupt,        ///< one byte of line N (1-based) flipped
};

/// One injected fault, targeting generation-0 task `shard`. Repair tasks
/// are never faulted: the matrix proves recovery from every single
/// fault, and a fault-plan that also killed repairs would only retest
/// max_rounds.
struct Fault {
  FaultKind kind = FaultKind::kKill;
  std::size_t shard = 0;
  /// kill: records completed; truncate: bytes/lines kept; delay: waves
  /// withheld; corrupt: 1-based line mutated.
  std::size_t arg = 0;

  bool operator==(const Fault&) const = default;
};

/// A deterministic fault schedule. Text form (CLI `--fault-plan`) is
/// comma-separated `kind:shard@arg`, with unsigned decimal numbers:
///
///   kill:1@3      shard 1 dies after its 3rd chunk record
///   trunc:0@140   shard 0's stream keeps only its first 140 bytes
///   truncl:2@4    shard 2's stream keeps only its first 4 lines
///   delay:1@2     shard 1's stream is delivered 2 collect waves late
///   corrupt:0@5   one byte of line 5 of shard 0's stream is flipped
struct FaultPlan {
  std::vector<Fault> faults;

  bool empty() const { return faults.empty(); }

  /// Parses the text form. Throws DispatchError with the offending
  /// token named.
  static FaultPlan parse(std::string_view spec);

  /// The canonical text form (round-trips through parse).
  std::string to_string() const;

  /// The subset targeting one shard (what a subprocess child is told).
  FaultPlan for_shard(std::size_t shard) const;

  /// Collect waves shard `shard`'s delivery is withheld (0 = none).
  std::size_t delay_waves(std::size_t shard) const;
};

/// Applies the stream-mutating faults (kill / truncate / corrupt — not
/// delay, which is a delivery fault) for `shard` to a serialized stream.
/// Sets *killed when a kill fault applied, so the caller can also fail
/// the task's exit status. Deterministic: same plan + same stream →
/// same bytes.
std::string apply_stream_faults(const FaultPlan& plan, std::size_t shard,
                                std::string text, bool* killed);

/// One unit of executor work: run `plan`'s chunks, emit the stream.
/// generation 0 is the initial round-robin deal; generation g >= 1 is
/// the g-th repair wave.
struct ShardTask {
  std::size_t slot = 0;  ///< worker slot == plan.shard_index
  std::size_t generation = 0;
  ShardPlan plan;
  /// The slot's share of DispatchOptions::faults on a generation-0 task;
  /// empty on a repair task, which is never faulted.
  FaultPlan faults;
};

/// What came back from a task: the stream text as it exists after any
/// faults (possibly truncated, corrupted, or empty). The dispatcher
/// trusts nothing else about the task — a clean exit with a corrupt
/// stream is still a corrupt stream — and salvages the text regardless.
struct TaskOutcome {
  std::string stream_text;
  std::string source;  ///< label for diagnostics ("thread 1 gen 0", a path)
};

/// Where shard tasks actually run. An implementation runs every task of
/// a wave, applies the task's own stream faults, and returns the
/// outcomes through deliver(), so each outcome leaves exactly once
/// across run_wave / collect_delayed / drain. ThreadExecutor (in-process
/// shards) and SubprocessExecutor (campaign_runner child processes)
/// implement it, behind campaign_runner's `--executor=thread|process`.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs the wave's tasks concurrently and returns the outcomes that
  /// are due now (delay-faulted outcomes are withheld).
  virtual std::vector<TaskOutcome> run_wave(
      const std::vector<ShardTask>& tasks) = 0;

  /// Advances withheld outcomes one wave and returns those now due.
  /// The dispatcher calls this once per recovery round.
  virtual std::vector<TaskOutcome> collect_delayed();

  /// All still-withheld outcomes, immediately (end-of-dispatch drain so
  /// stragglers are accounted even when recovery finished first).
  virtual std::vector<TaskOutcome> drain();

 protected:
  /// Takes one outcome per task, in task order, and returns those due
  /// now; an outcome whose task carries a delay fault is withheld for
  /// that many collect waves.
  std::vector<TaskOutcome> deliver(const std::vector<ShardTask>& tasks,
                                   std::vector<TaskOutcome> outcomes);

 private:
  struct Withheld {
    TaskOutcome outcome;
    std::size_t waves_left = 0;
  };
  std::vector<Withheld> withheld_;  ///< in delivery order
};

/// Runs tasks as in-process threads (run_campaign_chunks + serialize),
/// applying each task's stream faults in memory. The cheapest transport,
/// and the one the deterministic fault matrix in tests/test_dispatch.cpp
/// sweeps. A task that throws fails the wave: run_wave joins every task
/// and rethrows the first task's exception.
class ThreadExecutor : public Executor {
 public:
  ThreadExecutor(const Scenario& scenario, const CampaignOptions& options);

  std::vector<TaskOutcome> run_wave(
      const std::vector<ShardTask>& tasks) override;

 private:
  const Scenario& scenario_;
  CampaignOptions options_;
};

/// Runs tasks as local campaign_runner child processes (`--shards
/// --shard --emit-chunks`, repair waves via `--chunks`), forwarding each
/// task's faults with `--fault-plan` so the child itself writes the
/// faulted stream and dies for kill faults — the real crash path, not a
/// simulation of it. Streams land in `workdir` as
/// `shard-<slot>-gen<generation>.jsonl`; with `metrics_timers` set, each
/// child also writes `shard-<slot>-gen<generation>.metrics.json`, which
/// is what turns its phase timers on. Child stdout is discarded, child
/// stderr passes through. A child ignores delay faults: delivery is the
/// parent's, and deliver() withholds the outcome.
class SubprocessExecutor : public Executor {
 public:
  SubprocessExecutor(std::string runner_path, std::string workdir,
                     std::string scenario_name, CampaignOptions options);

  std::vector<TaskOutcome> run_wave(
      const std::vector<ShardTask>& tasks) override;

 private:
  std::string runner_path_;
  std::string workdir_;
  std::string scenario_name_;
  CampaignOptions options_;
};

struct DispatchOptions {
  std::size_t shard_count = 1;
  /// Recovery rounds after the initial deal before giving up. Every
  /// single-fault plan recovers in 1; the bound only trips when loss
  /// repeats every round.
  std::size_t max_rounds = 4;
  /// The campaign's one fault plan: each generation-0 task carries its
  /// slot's share (ShardTask::faults).
  FaultPlan faults;
};

/// How the campaign was recovered: the dispatcher's own accounting plus
/// the aggregated trailers of every COMPLETE stream (partial streams
/// lose their counters with their trailer; their salvaged records are
/// still merged). Trailers of duplicated work (stragglers, their repair
/// tasks) all count, so `deployments_built + deployments_reused` equals
/// trials *executed*, which exceeds trials *merged* exactly when work
/// was duplicated.
struct DispatchReport {
  std::size_t rounds = 0;  ///< recovery rounds actually run
  std::size_t chunks_redealt = 0;
  std::size_t chunks_duplicate = 0;
  std::size_t shards_dead = 0;        ///< gen-0 slots with no complete stream
  std::size_t shards_straggler = 0;   ///< outcomes delivered only duplicates
  std::size_t tasks_retried = 0;      ///< repair tasks launched
  std::size_t streams_complete = 0;   ///< trailers aggregated into `metrics`
  MergedMetrics metrics;  ///< dispatch counters folded into metrics.report
};

/// Runs the campaign through `executor` with recovery. The result is
/// canonical (runtime fields zeroed) and byte-identical — through
/// to_csv/to_json — to the serial run of the same (scenario, options),
/// regardless of which faults fired. Throws DispatchError when a fault
/// targets a shard >= shard_count (it could never fire) and when chunks
/// are still missing after max_rounds.
CampaignResult dispatch_campaign(const Scenario& scenario,
                                 const CampaignOptions& options,
                                 const DispatchOptions& dispatch,
                                 Executor& executor,
                                 DispatchReport* report = nullptr);

/// Offline recovery: fold already-written (possibly truncated, corrupted
/// or missing) shard streams, then run the missing chunks in-process and
/// fold those too. The `--recover` path — dispatch_campaign's recovery
/// loop, seeded with the salvaged streams instead of an initial deal,
/// with an in-process ThreadExecutor running up to K repair tasks.
/// `options` supplies each repair task's worker thread count; campaign
/// identity (seed, trials, chunk size, shard count) comes from the
/// salvaged headers. `shards_dead` counts the initial-deal slots with no
/// complete stream, and `streams_complete` includes every repair task.
/// Throws DispatchError when no stream yields a valid header or the
/// headers disagree with `scenario`.
CampaignResult recover_campaign(const Scenario& scenario,
                                const CampaignOptions& options,
                                const std::vector<SalvagedStream>& streams,
                                DispatchReport* report = nullptr);

}  // namespace hs::campaign
