/// @file
/// Request-level observability for the campaign service daemon
/// (src/serve/): admission counters, queue-depth / active-request
/// gauges, per-request wall + queue-wait latency windows, and counts of
/// the load the socket layer shed, surfaced through the protocol's
/// `{"cmd":"stats"}` endpoint.
///
/// Deliberately separate from the campaign engine's obs::Counter /
/// obs::Phase enums: those are serialized in the versioned chunk-stream
/// metrics trailer (kMetricsVersion), so growing them would force a
/// schema bump through every parser and test. Service stats are
/// process-local, never serialized into campaign artifacts, and never
/// reach byte-compared output — reports stay canonical with the service
/// layer present or absent.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace hs::obs {

/// Fixed-capacity sliding window of latency samples (most recent N),
/// with nearest-rank percentiles over the retained window. `count` is
/// the lifetime total, so a saturated window still reports how many
/// requests it summarizes a tail of. Thread-safe; recording is a mutex
/// + one store, far off any trial path.
class LatencyWindow {
 public:
  explicit LatencyWindow(std::size_t capacity = 4096);

  void record(double ms);

  struct Percentiles {
    std::uint64_t count = 0;  ///< lifetime samples, not window size
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };
  Percentiles percentiles() const;

 private:
  mutable std::mutex mutex_;
  std::vector<double> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
};

/// One coherent read of every service counter/gauge; the protocol's
/// stats response is rendered from this.
struct ServiceStatsSnapshot {
  std::uint64_t requests_admitted = 0;
  std::uint64_t requests_rejected = 0;
  std::uint64_t requests_cancelled = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t chunks_executed = 0;
  std::size_t queue_depth = 0;      ///< admitted but not yet scheduled
  std::size_t active_requests = 0;  ///< in the weighted-fair set
  std::uint64_t accept_backoffs = 0;  ///< accept() out of fds or memory
  std::uint64_t clients_dropped = 0;  ///< closed past the unsent-output cap
  LatencyWindow::Percentiles wall_ms;        ///< admission -> final report
  LatencyWindow::Percentiles queue_wait_ms;  ///< admission -> first schedule
};

/// Shared by the server (accept back-offs, dropped clients) and the
/// scheduler (admission, gauges, completion timers). All methods are
/// thread-safe.
class ServiceStats {
 public:
  void on_admitted() { requests_admitted_.fetch_add(1, relaxed); }
  void on_rejected() { requests_rejected_.fetch_add(1, relaxed); }
  void on_cancelled() { requests_cancelled_.fetch_add(1, relaxed); }
  void on_chunk() { chunks_executed_.fetch_add(1, relaxed); }
  void on_accept_backoff() { accept_backoffs_.fetch_add(1, relaxed); }
  void on_client_dropped() { clients_dropped_.fetch_add(1, relaxed); }
  void on_completed(double wall_ms, double queue_wait_ms);

  void set_queue_depth(std::size_t depth) {
    queue_depth_.store(depth, relaxed);
  }
  void set_active_requests(std::size_t active) {
    active_requests_.store(active, relaxed);
  }

  ServiceStatsSnapshot snapshot() const;

 private:
  static constexpr std::memory_order relaxed = std::memory_order_relaxed;

  std::atomic<std::uint64_t> requests_admitted_{0};
  std::atomic<std::uint64_t> requests_rejected_{0};
  std::atomic<std::uint64_t> requests_cancelled_{0};
  std::atomic<std::uint64_t> requests_completed_{0};
  std::atomic<std::uint64_t> chunks_executed_{0};
  std::atomic<std::size_t> queue_depth_{0};
  std::atomic<std::size_t> active_requests_{0};
  std::atomic<std::uint64_t> accept_backoffs_{0};
  std::atomic<std::uint64_t> clients_dropped_{0};
  LatencyWindow wall_ms_;
  LatencyWindow queue_wait_ms_;
};

}  // namespace hs::obs
