#include "obs/service_stats.hpp"

#include <algorithm>
#include <cmath>

namespace hs::obs {

LatencyWindow::LatencyWindow(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(capacity_);
}

void LatencyWindow::record(double ms) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(ms);
  } else {
    ring_[next_] = ms;
  }
  next_ = (next_ + 1) % capacity_;
  ++total_;
}

LatencyWindow::Percentiles LatencyWindow::percentiles() const {
  std::vector<double> sorted;
  std::uint64_t total;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sorted = ring_;
    total = total_;
  }
  Percentiles out;
  out.count = total;
  if (sorted.empty()) return out;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: p-th percentile is element ceil(p/100 * n), 1-based.
  const auto rank = [&](double p) {
    const auto n = static_cast<double>(sorted.size());
    const auto r = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    return sorted[std::min(std::max<std::size_t>(r, 1), sorted.size()) - 1];
  };
  out.p50 = rank(50.0);
  out.p90 = rank(90.0);
  out.p99 = rank(99.0);
  out.max = sorted.back();
  return out;
}

void ServiceStats::on_completed(double wall_ms, double queue_wait_ms) {
  requests_completed_.fetch_add(1, relaxed);
  wall_ms_.record(wall_ms);
  queue_wait_ms_.record(queue_wait_ms);
}

ServiceStatsSnapshot ServiceStats::snapshot() const {
  ServiceStatsSnapshot s;
  s.requests_admitted = requests_admitted_.load(relaxed);
  s.requests_rejected = requests_rejected_.load(relaxed);
  s.requests_cancelled = requests_cancelled_.load(relaxed);
  s.requests_completed = requests_completed_.load(relaxed);
  s.chunks_executed = chunks_executed_.load(relaxed);
  s.queue_depth = queue_depth_.load(relaxed);
  s.active_requests = active_requests_.load(relaxed);
  s.accept_backoffs = accept_backoffs_.load(relaxed);
  s.clients_dropped = clients_dropped_.load(relaxed);
  s.wall_ms = wall_ms_.percentiles();
  s.queue_wait_ms = queue_wait_ms_.percentiles();
  return s;
}

}  // namespace hs::obs
