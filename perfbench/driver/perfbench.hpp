// Shared types of the benchmark driver. The driver runs one workload for
// a fixed window and writes every measured operation (with the canonical
// report bytes it produced) to a JSON document; perfbench/run.py checks
// the bytes against the golden digests and turns the operations into the
// metrics listed in BENCHMARK.json.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/dispatch.hpp"
#include "campaign/runner.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One campaign family of a workload: the preset and request shape, and
/// how many distinct campaign seeds (1..pool) have golden digests.
struct CampaignShape {
  const char* preset;
  std::size_t trials;
  std::size_t pool;
};

inline constexpr std::size_t kChunkSize = 1;
// Each pool holds about 2.5x the seeds one window draws on a 4-vCPU
// x86-64 host, so a faster program does not run out of fresh seeds (a
// reused seed fails the run).
/// fig9-cli campaigns and serve-mixed long requests.
inline constexpr CampaignShape kFig9{"fig9-eaves-ber", 1, 640};
/// fig3-sharded campaigns.
inline constexpr CampaignShape kFig3{"fig3-imd-timing", 180, 384};
/// serve-mixed short requests.
inline constexpr CampaignShape kFig11{"fig11-trigger", 1, 2048};
inline constexpr std::size_t kShards = 3;
/// The percentile rule: a p90 needs at least 10 samples beyond it.
inline constexpr std::size_t kMinOps = 100;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;        ///< result document path
  std::string trace_out;  ///< Chrome trace path (traced runs)
  /// Scheduler admission limits for serve-mixed (self-tests force
  /// rejections by shrinking them).
  std::size_t serve_max_active = 4;
  std::size_t serve_max_queue = 8;
};

/// One measured operation: a campaign (CLI or dispatched) or a service
/// request.
struct Op {
  std::string cls;  ///< "campaign", "short" or "long"
  std::string preset;
  std::uint64_t seed = 0;
  std::size_t trials = 0;       ///< trials per point, as requested
  std::size_t trial_count = 0;  ///< trials executed (points x trials)
  double wall_ms = 0.0;         ///< latency as the caller saw it
  double end_ms = 0.0;          ///< completion, relative to window start
  bool traced = false;
  /// "ok", or why the operation failed: "rejected", "error", "io",
  /// "dispatch_error", "redealt", "stream_mismatch".
  std::string outcome = "ok";
  std::string detail;
  std::string csv, json;     ///< canonical report (campaign operations)
  std::string report_frame;  ///< raw `report` frame (service requests)
  std::string done_frame;    ///< raw `done` frame (service requests)
  std::size_t bytes = 0;     ///< bytes received (service requests)
};

/// Writes each operation to the result file as it completes, so the
/// driver never holds a window's report bytes and peak_rss_mb measures
/// the program rather than the benchmark's buffers. Thread-safe. The
/// file holds one JSON line per operation, then the summary line.
class OpLog {
 public:
  explicit OpLog(const std::string& path);
  ~OpLog();
  OpLog(const OpLog&) = delete;
  OpLog& operator=(const OpLog&) = delete;

  void add(const Op& op);
  /// Writes the last line; false if any write failed.
  bool finish(const std::string& summary);

 private:
  std::mutex mutex_;
  std::FILE* file_;
  bool ok_ = true;
};

struct Result {
  std::vector<double> setup_s;
  double window_s = 0.0;
  std::size_t pool_wraps = 0;  ///< seeds reused because a pool ran out
  /// VmHWM once kMinOps operations completed: a fixed amount of work, so
  /// the figure does not follow host speed (0: never reached).
  std::size_t peak_rss_kb = 0;
  bool fd_capped = false;      ///< the window stopped at the fd limit
  std::map<std::string, double> layers;
};

/// Campaign seeds 1..shape.pool in a seed-determined order (Fisher-Yates
/// over mt19937_64, whose output sequence the standard fixes).
std::vector<std::uint64_t> seed_order(std::uint64_t seed, std::uint64_t salt,
                                      std::size_t pool);

const hs::campaign::Scenario& scenario(const CampaignShape& shape);
hs::campaign::CampaignOptions campaign_options(const CampaignShape& shape,
                                               std::uint64_t seed);

Op new_op(const CampaignShape& shape, std::uint64_t seed, bool traced);

/// Canonical CSV/JSON of a result, exactly as `campaign_runner
/// --canonical` writes them.
void fill_report(hs::campaign::CampaignResult result, Op& op);

/// Seconds of the cold start a campaign worker pays: the campaign's first
/// chunk through run_chunk on a fresh TrialContext with an empty snapshot
/// cache (deployment build, warm-up, snapshot save and that chunk).
double cold_start_s(const CampaignShape& shape, std::uint64_t seed);

/// How many cold starts set-up times; setup_s is their median.
inline constexpr std::size_t kSetupReps = 41;
/// kSetupReps cold starts of `shape` on distinct seeds, each pinned to the
/// next CPU of the affinity mask in turn.
std::vector<double> cold_starts(const CampaignShape& shape,
                                std::uint64_t seed, std::uint64_t salt);

std::size_t peak_rss_kb();
std::size_t count_dir_entries(const char* path);

// -- workloads (workloads.cpp, serve_load.cpp) ----------------------------
Result run_fig9_cli(const Args& args, OpLog& log);
Result run_fig3_sharded(const Args& args, OpLog& log);
Result run_serve_mixed(const Args& args, OpLog& log);
/// Serial run_campaign over every pool seed of every shape: the
/// reference the golden digests are recorded from.
Result record_golden(OpLog& log);

// -- per-layer measurements (layers.cpp) ----------------------------------

/// Engine counters and phase timers summed over traced campaigns.
struct EngineAgg {
  hs::obs::Report report;
  double wall_ns = 0.0;  ///< summed worker wall time
  std::size_t campaigns = 0;
  double report_ms = 0.0;  ///< summed to_csv + to_json time
  void add(const hs::obs::Report& r, double wall, double report_time_ms) {
    report.merge(r);
    wall_ns += wall;
    report_ms += report_time_ms;
    ++campaigns;
  }
};

/// The campaign/shield/snapshot/channel/phy rows. Returns false (and
/// names the term) when the exclusive split of a trial has a negative
/// term, i.e. the phases overlap.
bool engine_layers(const EngineAgg& agg, std::map<std::string, double>& out,
                   std::string* problem);

/// chunk_stream and dispatch rows, gathered by wrapping ThreadExecutor.
struct StreamAgg {
  std::size_t waves = 0;
  double wave_ms = 0.0;
  std::size_t campaigns = 0;
  double imbalance_sum = 0.0;
  std::size_t chunks_redealt = 0;
  std::size_t records = 0;
  double record_bytes = 0.0;
  double serialize_us = 0.0;
  double merge_ms = 0.0;
};

/// A campaign dispatched through a wrapped ThreadExecutor, with every
/// chunk stream its shards wrote.
struct TracedDispatch {
  hs::campaign::CampaignResult result;
  hs::campaign::DispatchReport report;
  std::vector<std::string> streams;
};

/// Dispatches one campaign with each wave timed and its streams kept.
TracedDispatch traced_dispatch(const hs::campaign::Scenario& scenario,
                               const hs::campaign::CampaignOptions& options,
                               StreamAgg& agg);

/// The untimed checks of a traced dispatch: every salvaged record must
/// re-serialize to its stream line, and the strict parse + merge of the
/// streams must equal the dispatched report. A mismatch or a re-dealt
/// chunk marks `op` failed.
void check_streams(const hs::campaign::Scenario& scenario,
                   const TracedDispatch& d, StreamAgg& agg, Op& op);
void stream_layers(const StreamAgg& agg, std::map<std::string, double>& out);

/// The stream rows of a workload that has no chunk streams of its own:
/// one of its campaigns dispatched through traced_dispatch, checked
/// against the golden digests like any other operation.
Op dispatch_probe(const CampaignShape& shape, std::uint64_t seed,
                  StreamAgg& agg);

/// dsp.kernels rows for every backend and adversary.eavesdrop_decode_us.
void kernel_layers(std::map<std::string, double>& out);
void eavesdrop_layers(std::map<std::string, double>& out);

/// The rows every traced run ends with: engine, stream, kernel and
/// eavesdropper rows, plus the Chrome trace file. A negative term in the
/// exclusive split of a trial is recorded as a failed "check" op.
void finish_traced(const Args& args, const EngineAgg& engine,
                   const StreamAgg& streams, hs::obs::TraceRecorder& recorder,
                   OpLog& log, Result& r);

}  // namespace perfbench
