/// @file
/// Parallel Monte Carlo campaign runner.
///
/// Expands a Scenario's sweep axis into points, fans (point, trial) work
/// units over a std::thread pool, and aggregates per-point statistics.
/// Determinism: every trial's seed is derived from (campaign seed,
/// scenario name, point index, trial index) through the named-substream
/// Rng, and chunk accumulators are merged in fixed chunk order by
/// fold_chunks() — so 1-thread and N-thread runs produce bit-identical
/// aggregates.
///
/// Each worker owns a shield::TrialContext: deployments and experiment
/// nodes are reset-and-reseeded between trials instead of reconstructed
/// (reused trials are bit-identical to fresh ones; see trial_context.hpp).
///
/// Workers take chunks from one shared cursor: an atomic index into the
/// plan's chunk list. Only chunk boundaries — never which worker ran a
/// chunk — define the RNG streams and the merge order, so any schedule
/// preserves bit-identity. run_campaign_shard() runs one shard of a
/// multi-process campaign on the same pool (see shard.hpp /
/// chunk_stream.hpp).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "campaign/scenario.hpp"
#include "campaign/shard.hpp"
#include "campaign/stats.hpp"
#include "obs/metrics.hpp"

namespace hs::shield {
class TrialContext;
}  // namespace hs::shield

namespace hs::snapshot {
class SnapshotCache;
}  // namespace hs::snapshot

namespace hs::campaign {

struct CampaignOptions {
  std::uint64_t seed = 1;
  /// Trials per sweep point; 0 uses the scenario's default_trials.
  std::size_t trials_per_point = 0;
  /// Worker threads; 0 uses std::thread::hardware_concurrency().
  unsigned threads = 1;
  /// Trials per work chunk. Chunk boundaries — not thread count — define
  /// the merge order, so this must stay fixed across runs being compared.
  /// One trial per chunk maximizes parallelism (a trial simulates a full
  /// deployment, so accumulator merge overhead is negligible).
  std::size_t chunk_size = 1;
  /// Restore post-warm-up deployment state from warm snapshots instead of
  /// re-simulating the warm-up on every trial (see src/snapshot/). The
  /// per-trial RNG streams always run two-phase (warm-up streams keyed by
  /// campaign_warmup_seed, trial streams by the trial seed), so
  /// aggregates are bit-identical with snapshots on or off — `false` is
  /// the `--no-snapshot` escape hatch that only disables the cache.
  bool snapshots = true;
  /// Collect nanosecond phase timers (obs::Phase) alongside the
  /// always-on counters. Enabled by the CLI's `--metrics-json`; timers
  /// read clocks only, never RNG state, so aggregates are bit-identical
  /// with timers on or off.
  bool metrics_timers = false;
  /// Optional Chrome-trace span recorder (the CLI's `--trace`); not
  /// owned. Workers buffer spans thread-locally and flush them at chunk
  /// boundaries. Null disables tracing.
  obs::TraceRecorder* trace = nullptr;
  /// Optional liveness counter, incremented once per completed chunk
  /// (relaxed; not owned). The CLI's `--timeout-seconds` watchdog reads
  /// it to report partial progress when it aborts a hung campaign. Never
  /// read by the engine itself — aggregates are unaffected.
  std::atomic<std::size_t>* chunks_completed = nullptr;
};

/// Aggregates for one sweep point.
struct PointResult {
  std::size_t point_index = 0;
  double axis_value = 0.0;
  std::array<StreamingStats, kMetricCount> metrics;

  const StreamingStats& stats(Metric m) const {
    return metrics[static_cast<std::size_t>(m)];
  }
};

struct CampaignResult {
  Scenario scenario;
  CampaignOptions options;
  std::vector<PointResult> points;
  std::size_t total_trials = 0;
  double wall_seconds = 0.0;
  /// Merged observability report: every obs::Counter (trials, chunks,
  /// deployment builds/reuses, snapshot restores/saves) plus, when
  /// CampaignOptions::metrics_timers was set, per-phase wall time.
  /// Runtime-only — reports/CSV/JSON never include it, so canonical
  /// outputs stay byte-identical with metrics on or off.
  obs::Report metrics;

  double trials_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(total_trials) / wall_seconds
               : 0.0;
  }
};

/// Deterministic per-trial seed derived via the Rng substream mechanism.
std::uint64_t trial_seed(std::uint64_t campaign_seed,
                         std::string_view scenario_name,
                         std::size_t point_index, std::size_t trial_index);

/// The warm-up seed every trial, worker and shard of a campaign shares
/// (two-phase seeding; see DeploymentOptions::warmup_seed). A pure
/// function of (campaign seed, scenario name) so shard processes agree
/// on it — and on the snapshot keys derived from it — without
/// communicating.
std::uint64_t campaign_warmup_seed(std::uint64_t campaign_seed,
                                   std::string_view scenario_name);

/// One metric sample produced by a trial.
struct TrialSample {
  Metric metric;
  double value;
};

/// Executes one trial of the scenario at the given sweep point (exposed
/// for tests; run_campaign is the normal entry point). With a
/// TrialContext the deployment and experiment nodes come from the pool —
/// bit-identical results, cheaper setup; with nullptr everything is
/// built fresh.
std::vector<TrialSample> run_trial(const Scenario& scenario,
                                   std::size_t point_index,
                                   double axis_value, std::uint64_t seed,
                                   shield::TrialContext* context = nullptr);

/// One chunk's per-metric accumulators.
using ChunkMetrics = std::array<StreamingStats, kMetricCount>;

/// Executes one chunk and returns its metric accumulators — the
/// chunk-granular submission point for external schedulers (the service
/// daemon feeds interleaved chunks from many concurrent campaigns
/// through here). The trial seeds and the accumulation order depend
/// only on (campaign seed, scenario, chunk), never on which thread,
/// worker, pool or process runs the chunk, so any interleaving
/// reproduces the serial aggregates bit-for-bit once chunks are folded
/// in ascending chunk id.
///
/// `context` is the caller's resident TrialContext and must not be null
/// (its warm policy is (re)applied from `warmup_seed`/`cache` on every
/// call, so one context may serve chunks of different campaigns back to
/// back). `warmup_seed` must come from campaign_warmup_seed(); `cache`
/// may be null (two-phase seeding stays on, only the snapshot cache is
/// bypassed).
ChunkMetrics run_chunk(const Scenario& scenario, std::uint64_t campaign_seed,
                       const ChunkRef& chunk, shield::TrialContext* context,
                       std::uint64_t warmup_seed,
                       snapshot::SnapshotCache* cache);

/// The one fold of chunk accumulators into per-point aggregates, shared
/// by every execution path (run_campaign, the service scheduler, the
/// dispatcher and the shard merge). `plan` must be the campaign's whole
/// 1-shard plan and `chunk_metrics[c]` the accumulator of `plan.chunks[c]`;
/// chunks merge in ascending chunk id, the order that makes every path
/// bit-identical to a serial run. The result's runtime fields (wall
/// time, metrics) stay zero; options are copied as given.
CampaignResult fold_chunks(const Scenario& scenario,
                           const CampaignOptions& options,
                           const ShardPlan& plan,
                           const std::vector<ChunkMetrics>& chunk_metrics);

/// One shard's execution: per-chunk accumulators (parallel to
/// plan.chunks). Kept un-merged so the chunk stream can serialize every
/// chunk individually.
struct ShardExecution {
  ShardPlan plan;
  std::vector<ChunkMetrics> chunk_metrics;
  unsigned threads = 1;
  double wall_seconds = 0.0;
  /// Merged-across-workers observability report for this shard; the
  /// chunk-stream trailer serializes it so `--merge` can aggregate all
  /// K shards' metrics (see chunk_stream.hpp).
  obs::Report metrics;
};

/// Runs an explicit chunk plan on the worker pool — the engine
/// underneath both the round-robin shard path and the dispatcher's
/// repair tasks (make_repair_plan). Chunk ids, not the plan's provenance,
/// key every trial seed and accumulator, so a chunk executed by a repair
/// task is bit-identical to the same chunk executed by its original
/// shard.
ShardExecution run_campaign_chunks(const Scenario& scenario,
                                   const CampaignOptions& options,
                                   ShardPlan plan);

/// Runs shard `shard_index` of `shard_count` on the worker pool.
/// (shard_count, shard_index) = (1, 0) executes the whole campaign —
/// run_campaign is exactly that plus the fixed-order chunk merge.
ShardExecution run_campaign_shard(const Scenario& scenario,
                                  const CampaignOptions& options,
                                  std::size_t shard_count,
                                  std::size_t shard_index);

/// Runs the full campaign on the configured worker pool.
CampaignResult run_campaign(const Scenario& scenario,
                            const CampaignOptions& options);

}  // namespace hs::campaign
