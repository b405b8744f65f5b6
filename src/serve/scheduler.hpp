/// @file
/// Session-scoped campaign scheduler for campaign_serverd: admission
/// control over a bounded queue, weighted-fair (stride) interleaving of
/// chunks across active requests on a resident worker pool, per-request
/// cancellation, and graceful drain.
///
/// Determinism argument (the service-layer invariant, gtest-enforced by
/// tests/test_serve.cpp): a request's final report depends only on
/// (scenario, seed, trials, chunk_size) — the same chunk plan the serial
/// CLI builds. Workers execute chunks through campaign::run_chunk, whose
/// trial seeds and accumulators are pure functions of (campaign seed,
/// scenario, chunk); each chunk's accumulator is stored by chunk id and
/// the final fold is campaign::fold_chunks — run_campaign's own merge in
/// ascending chunk id. So no matter how requests interleave, how many other
/// campaigns share the pool, which worker (with whatever TrialContext
/// history) runs a chunk, or in what order chunks finish, the assembled
/// canonical report is byte-identical to the serial run. Scheduling
/// policy (priorities, admission, cancellation) decides only WHEN chunks
/// run and whether a report is produced — never its bytes.
///
/// Warm state stays resident across requests: one shield::TrialContext
/// per worker (run_chunk re-applies each request's warm policy per
/// chunk) and one shared snapshot::SnapshotCache, so a new request for
/// an already-warmed configuration skips its warm-up entirely.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "obs/service_stats.hpp"
#include "serve/protocol.hpp"
#include "snapshot/snapshot_cache.hpp"

namespace hs::serve {

struct SchedulerOptions {
  /// Worker threads; 0 uses std::thread::hardware_concurrency().
  unsigned workers = 1;
  /// Requests scheduled concurrently (the weighted-fair set).
  std::size_t max_active = 4;
  /// Admitted requests queued beyond the active set; a submit that finds
  /// the queue full is rejected with a retry-after hint (429-style).
  std::size_t max_queue = 8;
  /// Snapshot directory shared by all workers ("" = in-memory cache).
  std::string snapshot_dir;
};

/// Most chunks one request may plan. Each chunk holds ~750 B of
/// accumulator state until the report is assembled, so this is ~47 MiB,
/// ~70x the largest default preset (fig13, 900 chunks).
inline constexpr std::size_t kMaxRequestChunks = std::size_t{1} << 16;

/// submit()'s admission decision. For admitted requests `header_line`
/// carries the sealed v3 stream header so the caller can frame and send
/// it before releasing the request for scheduling with start().
struct Admission {
  bool admitted = false;
  std::uint64_t id = 0;
  std::size_t total_chunks = 0;
  std::size_t queue_depth = 0;
  std::string header_line;
  std::uint64_t retry_after_ms = 0;  ///< rejection back-off hint
  std::string reason;                ///< rejection reason
};

class Scheduler {
 public:
  /// Result delivery, invoked from worker threads. Per request, calls
  /// are serialized and ordered: every on_record strictly before
  /// on_complete; after a cancellation the single terminal call is
  /// on_cancelled (already-executing chunks may still deliver records
  /// first). Records arrive in completion order, NOT sorted by chunk id.
  struct Callbacks {
    std::function<void(std::uint64_t id, const std::string& record_line)>
        on_record;
    std::function<void(std::uint64_t id, const std::string& trailer_line,
                       const campaign::CampaignResult& result,
                       double wall_ms, double queue_wait_ms,
                       std::size_t chunks)>
        on_complete;
    std::function<void(std::uint64_t id, std::size_t chunks_completed)>
        on_cancelled;
  };

  Scheduler(SchedulerOptions options, obs::ServiceStats* stats);
  ~Scheduler();  // stop()s: in-flight chunks finish, the rest is dropped

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admission decision. An admitted request holds a slot (active or
  /// queued) but is NOT schedulable until start(id) — the caller writes
  /// its admitted + header frames first, so the wire order is always
  /// admitted, header, records. Never invokes callbacks. Throws
  /// ProtocolError, before planning a chunk, for a request that would
  /// plan more than kMaxRequestChunks chunks: no retry can admit it.
  Admission submit(const campaign::Scenario& scenario,
                   const RunRequest& request, Callbacks callbacks);

  /// Releases an admitted request for scheduling.
  void start(std::uint64_t id);

  /// Cancels an admitted request: unstarted chunks are dropped,
  /// in-flight chunks finish and are discarded. on_cancelled fires once
  /// (immediately if nothing is in flight). False if `id` is unknown or
  /// already finished.
  bool cancel(std::uint64_t id);

  /// Graceful drain: stop admitting (submits are rejected), let every
  /// admitted request run to completion, then return. Workers stay
  /// alive; call before destruction for a clean SIGTERM path.
  void drain();

  /// Hard stop: workers exit after their in-flight chunk; undelivered
  /// callbacks are dropped. Idempotent; the destructor calls it.
  void stop();

 private:
  struct RequestState;

  void worker_loop();
  /// Picks the runnable request with the least virtual time (ties to the
  /// lowest id) and claims its next chunk. Stride scheduling: each claim
  /// advances the request's vtime by kStrideScale / priority, so over
  /// time requests receive chunk slots proportional to their priority.
  bool claim_locked(std::shared_ptr<RequestState>* out_req,
                    std::size_t* out_chunk);
  void retire_locked(const std::shared_ptr<RequestState>& req);
  std::uint64_t estimate_retry_ms_locked() const;
  campaign::CampaignResult assemble_result(const RequestState& req) const;

  SchedulerOptions options_;
  obs::ServiceStats* stats_;
  snapshot::SnapshotCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_idle_;
  /// Every live request, keyed by id — std::map so claim_locked's
  /// tie-break iteration is ordered (and lint-clean by construction).
  std::map<std::uint64_t, std::shared_ptr<RequestState>> requests_;
  std::deque<std::uint64_t> pending_;  ///< admitted, waiting for a slot
  std::size_t active_count_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t global_vtime_ = 0;
  double avg_chunk_ms_ = 50.0;  ///< EWMA; seeds the retry-after estimate
  /// Terminal callbacks (on_complete / on_cancelled) being emitted
  /// outside the lock. The request is already retired from requests_ at
  /// that point, so drain() must wait for this to reach zero too —
  /// otherwise it could return before the last report was delivered.
  std::size_t emitting_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace hs::serve
