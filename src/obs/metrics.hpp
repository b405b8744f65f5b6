/// @file
/// Low-overhead observability: named counters and nanosecond phase timers
/// with thread-local accumulation, merged at chunk boundaries.
///
/// Design constraints, in order:
///   1. Instrumentation must never perturb results. Counters and timers
///      read clocks and integers only — no RNG draws, no allocation in
///      the timer path — and each worker accumulates into its own
///      thread-local block, merging into the shared `MetricsRegistry`
///      only at chunk boundaries (where the campaign engine already
///      synchronizes). Aggregates are bit-identical with metrics on or
///      off by construction.
///   2. Near-zero cost when off. Instrumentation sites call `tls()`
///      (one thread-local read + branch); timers additionally check the
///      per-thread `timers` flag snapshotted at attach time, so a run
///      without `--metrics-json` never reads the clock in a hot loop.
///   3. Associative merging. `Report::merge` is integer addition, so
///      thread-, chunk- and shard-level aggregation all commute and the
///      shard trailer merge (chunk_stream.hpp) is order-independent.
///
/// Instrumentation sites are enum-indexed (`Counter`, `Phase`) rather
/// than string-keyed: fixed arrays, no hashing on the hot path. The
/// names surface in the `--metrics-json` schema (docs/REPRODUCING.md).
/// Phases nest (a trial contains medium mixing, which a warm-up also
/// contains), so phase time shares are overlapping, not a partition.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace hs::obs {

/// Schema version of the metrics report (--metrics-json document and the
/// chunk-stream metrics trailer). v2 added the fault-tolerant dispatch
/// counters (chunks_redealt, chunks_duplicate, shards_dead,
/// shards_straggler, tasks_retried); v3 dropped the work-steal counter.
inline constexpr int kMetricsVersion = 3;

enum class Counter : unsigned {
  kTrials,
  kChunks,
  kDeploymentsBuilt,
  kDeploymentsReused,
  kSnapshotsRestored,
  kSnapshotsSaved,
  /// Chunks whose original shard lost them (dead/straggler/corrupt) and
  /// that the dispatcher handed to a repair task (src/campaign/dispatch).
  kChunksRedealt,
  /// Chunk records that arrived more than once (a straggler finishing
  /// after its chunks were re-dealt) and were suppressed before the merge.
  kChunksDuplicate,
  /// Shard tasks whose stream never completed (killed / truncated /
  /// corrupt past salvage).
  kShardsDead,
  /// Shard tasks whose results arrived only after their chunks had been
  /// re-dealt.
  kShardsStraggler,
  /// Repair tasks launched by the recovery loop.
  kTasksRetried,
  kCount_,
};
inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount_);

std::string_view counter_name(Counter c);

/// Instrumented phases of a campaign. Wall-clock per phase accumulates
/// only while timers are enabled for the attached thread.
enum class Phase : unsigned {
  kWarmup,           ///< deployment warm-up simulation (cold path)
  kSnapshotSave,     ///< warm-state capture + publish to the cache
  kSnapshotRestore,  ///< warm-state restore from a cached snapshot
  kMediumMix,        ///< channel::Medium::mix per-block TX->RX mixing
  kJamgen,           ///< jamming waveform synthesis (IFFT shaping)
  kReceiverDemod,    ///< FSK receiver push: detection + demodulation
  kTrial,            ///< one whole Monte Carlo trial
  kStatsMerge,       ///< sample accumulation + fixed-order chunk folds
  kChunkAcquire,     ///< chunk-cursor fetch between chunks
  kCount_,
};
inline constexpr std::size_t kPhaseCount =
    static_cast<std::size_t>(Phase::kCount_);

std::string_view phase_name(Phase p);

struct PhaseTotals {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;

  bool operator==(const PhaseTotals&) const = default;
};

/// One mergeable block of observability data: every counter and every
/// phase timer, fixed-size. Used as the thread-local accumulation block,
/// the registry total, and the shard-trailer payload.
struct Report {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<PhaseTotals, kPhaseCount> phases{};

  void merge(const Report& other);
  void clear();
  bool empty() const;

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  const PhaseTotals& phase(Phase p) const {
    return phases[static_cast<std::size_t>(p)];
  }

  bool operator==(const Report&) const = default;
};

/// Shared sink for the thread-local blocks. One registry per campaign
/// shard execution; the timers flag is fixed at construction so attached
/// threads can snapshot it without atomics.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(bool timers_enabled = false)
      : timers_(timers_enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool timers_enabled() const { return timers_; }

  /// Folds one thread block into the total. Thread-safe.
  void merge(const Report& block);

  /// The merged-across-threads totals. Thread-safe.
  Report report() const;

 private:
  bool timers_;
  mutable std::mutex mutex_;
  Report total_;
};

/// Per-thread observability state. Instrumentation sites reach it through
/// tls(); a null pointer (thread not attached) makes every site a no-op.
struct ThreadState {
  Report block;
  bool timers = false;
  TraceRecorder* trace = nullptr;
  std::uint32_t tid = 0;
  std::vector<TraceEvent> pending;
};

namespace detail {
// constinit: no dynamic initializer, so tls() compiles to a plain TLS
// load instead of a call through the thread_local init wrapper (which
// UBSan's null check trips over).
extern constinit thread_local ThreadState* t_state;
}  // namespace detail

inline ThreadState* tls() { return detail::t_state; }

/// Attaches the calling thread to a registry (and optionally a trace
/// recorder) for its lifetime. The campaign runner creates one per
/// worker; flush() is called at chunk boundaries so the shared sinks are
/// only touched between chunks. Nesting-safe: the previous attachment is
/// restored on destruction.
class WorkerScope {
 public:
  WorkerScope(MetricsRegistry* registry, TraceRecorder* trace,
              const std::string& thread_name);
  ~WorkerScope();

  WorkerScope(const WorkerScope&) = delete;
  WorkerScope& operator=(const WorkerScope&) = delete;

  /// Merges the thread block into the registry and hands pending trace
  /// events to the recorder. Call at chunk boundaries.
  void flush();

 private:
  MetricsRegistry* registry_;
  ThreadState state_;
  ThreadState* previous_;
};

/// Adds to a named counter on the attached thread's block; a detached
/// thread (tests, examples, non-campaign callers) is a no-op.
inline void count(Counter c, std::uint64_t n = 1) {
  ThreadState* ts = tls();
  if (ts != nullptr) ts->block.counters[static_cast<std::size_t>(c)] += n;
}

/// RAII phase timer. Reads the clock only when the attached thread has
/// timers enabled; otherwise costs one thread-local read and a branch.
///
/// steady_clock use is allowlisted in LINT.toml (steady-clock-scope):
/// phase timings are observability output by design (invariant 1 above)
/// and never reach campaign aggregates.
class ScopedTimer {
 public:
  explicit ScopedTimer(Phase phase) {
    ThreadState* ts = tls();
    if (ts != nullptr && ts->timers) {
      state_ = ts;
      phase_ = phase;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (state_ != nullptr) {
      PhaseTotals& t = state_->block.phases[static_cast<std::size_t>(phase_)];
      ++t.calls;
      t.ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ThreadState* state_ = nullptr;
  Phase phase_{};
  std::chrono::steady_clock::time_point start_{};
};

/// RAII trace span: buffers a B event at construction and the matching E
/// event at destruction on the attached thread. No-op without a trace
/// recorder. `args_json` (a preformatted JSON object) rides on the B
/// event.
class TraceSpan {
 public:
  TraceSpan(const char* category, std::string name,
            std::string args_json = {});
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  ThreadState* state_ = nullptr;
  const char* category_ = nullptr;
  std::string name_;
};

/// Buffers an instant event on the attached thread; no-op when detached
/// or not tracing.
void trace_instant(const char* category, std::string name,
                   std::string args_json = {});

}  // namespace hs::obs
