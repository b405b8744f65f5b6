#include "serve/scheduler.hpp"

#include <algorithm>

#include "campaign/chunk_stream.hpp"
#include "campaign/report.hpp"
#include "campaign/shard.hpp"
#include "shield/trial_context.hpp"

namespace hs::serve {

namespace {

/// Stride-scheduling scale: lcm(1..8), so every priority in
/// [kMinPriority, kMaxPriority] gets an exact integer stride and chunk
/// slots are apportioned in exact priority ratios.
constexpr std::uint64_t kStrideScale = 840;

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

struct Scheduler::RequestState {
  std::uint64_t id = 0;
  campaign::Scenario scenario;
  campaign::CampaignOptions options;
  campaign::ShardPlan plan;
  std::uint64_t warm_seed = 0;
  Callbacks callbacks;
  std::uint64_t stride = kStrideScale;
  std::uint64_t vtime = 0;
  bool ready = false;      ///< start() called; schedulable
  bool active = false;     ///< holds a weighted-fair slot
  bool cancelled = false;
  bool finished = false;   ///< terminal callback emitted or claimed
  std::size_t next_chunk = 0;
  std::size_t in_flight = 0;
  std::size_t completed = 0;
  std::size_t delivered = 0;
  std::vector<campaign::ChunkMetrics> chunk_metrics;
  // steady_clock is allowlisted for this file in LINT.toml: request
  // latency timing is service observability, never trial input.
  std::chrono::steady_clock::time_point admitted_at;
  std::chrono::steady_clock::time_point scheduled_at;
  bool scheduled_stamped = false;
  /// Serializes callback delivery for this request (workers finishing
  /// different chunks of the same request would otherwise interleave).
  std::mutex emit_mutex;
};

Scheduler::Scheduler(SchedulerOptions options, obs::ServiceStats* stats)
    : options_(options), stats_(stats) {
  unsigned workers = options_.workers > 0
                         ? options_.workers
                         : std::max(1u, std::thread::hardware_concurrency());
  options_.workers = workers;
  options_.max_active = std::max<std::size_t>(options_.max_active, 1);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Scheduler::~Scheduler() { stop(); }

Admission Scheduler::submit(const campaign::Scenario& scenario,
                            const RunRequest& request, Callbacks callbacks) {
  auto state = std::make_shared<RequestState>();
  state->scenario = scenario;
  state->options.seed = request.seed;
  state->options.trials_per_point = request.trials;
  state->options.chunk_size = std::max<std::size_t>(request.chunk_size, 1);
  state->options.threads = 1;
  // Count the chunks before planning them: the plan and its accumulators
  // grow with the count.
  const std::size_t trials =
      campaign::resolved_trials(scenario, state->options);
  const std::size_t chunk_size = state->options.chunk_size;
  const std::size_t chunks = scenario.point_count() *
                             (trials / chunk_size + (trials % chunk_size != 0));
  if (chunks > kMaxRequestChunks) {
    throw ProtocolError("run: " + std::to_string(chunks) +
                        " chunks exceed the cap of " +
                        std::to_string(kMaxRequestChunks) +
                        " per request; raise chunk_size (now " +
                        std::to_string(chunk_size) + ")");
  }
  state->plan = campaign::plan_shard(scenario, state->options, 1, 0);
  state->warm_seed =
      campaign::campaign_warmup_seed(request.seed, scenario.name);
  state->callbacks = std::move(callbacks);
  state->stride = kStrideScale / std::clamp<std::uint64_t>(
                                     request.priority, kMinPriority,
                                     kMaxPriority);
  state->chunk_metrics.resize(state->plan.chunks.size());

  Admission adm;
  adm.total_chunks = state->plan.chunks.size();

  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_ || stopping_) {
    adm.reason = "server is draining";
    adm.retry_after_ms = 0;  // do not come back; the daemon is going away
    stats_->on_rejected();
    return adm;
  }
  if (active_count_ >= options_.max_active &&
      pending_.size() >= options_.max_queue) {
    adm.reason = "admission queue full";
    adm.retry_after_ms = estimate_retry_ms_locked();
    stats_->on_rejected();
    return adm;
  }

  state->id = next_id_++;
  state->admitted_at = std::chrono::steady_clock::now();
  requests_.emplace(state->id, state);
  if (active_count_ < options_.max_active) {
    state->active = true;
    state->vtime = global_vtime_;
    ++active_count_;
  } else {
    pending_.push_back(state->id);
  }

  adm.admitted = true;
  adm.id = state->id;
  adm.queue_depth = pending_.size();
  adm.header_line =
      campaign::serialize_stream_header(scenario, state->options, state->plan);
  stats_->on_admitted();
  stats_->set_queue_depth(pending_.size());
  stats_->set_active_requests(active_count_);
  return adm;
}

void Scheduler::start(std::uint64_t id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = requests_.find(id);
    if (it == requests_.end()) return;  // cancelled before release
    it->second->ready = true;
  }
  cv_work_.notify_all();
}

bool Scheduler::cancel(std::uint64_t id) {
  std::shared_ptr<RequestState> req;
  std::size_t done = 0;
  bool emit_now = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = requests_.find(id);
    if (it == requests_.end() || it->second->finished) return false;
    req = it->second;
    req->cancelled = true;
    done = req->completed;
    if (req->in_flight == 0) {
      // Nothing executing: retire immediately. Otherwise the last worker
      // to finish one of its in-flight chunks emits on_cancelled.
      req->finished = true;
      emit_now = true;
      ++emitting_;
      retire_locked(req);
    }
    stats_->on_cancelled();
  }
  cv_work_.notify_all();
  if (emit_now) {
    if (req->callbacks.on_cancelled) {
      std::lock_guard<std::mutex> emit(req->emit_mutex);
      req->callbacks.on_cancelled(id, done);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (--emitting_ == 0 && requests_.empty()) cv_idle_.notify_all();
  }
  return true;
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  draining_ = true;
  cv_idle_.wait(lock, [this] {
    return (requests_.empty() && emitting_ == 0) || stopping_;
  });
}

void Scheduler::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_work_.notify_all();
  cv_idle_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

bool Scheduler::claim_locked(std::shared_ptr<RequestState>* out_req,
                             std::size_t* out_chunk) {
  RequestState* best = nullptr;
  std::shared_ptr<RequestState> best_sp;
  for (const auto& [id, sp] : requests_) {
    RequestState& r = *sp;
    if (!r.active || !r.ready || r.cancelled) continue;
    if (r.next_chunk >= r.plan.chunks.size()) continue;
    if (best == nullptr || r.vtime < best->vtime) {
      best = &r;
      best_sp = sp;
    }
  }
  if (best == nullptr) return false;
  *out_chunk = best->next_chunk++;
  ++best->in_flight;
  if (!best->scheduled_stamped) {
    best->scheduled_stamped = true;
    best->scheduled_at = std::chrono::steady_clock::now();
  }
  global_vtime_ = best->vtime;
  best->vtime += best->stride;
  *out_req = std::move(best_sp);
  return true;
}

void Scheduler::retire_locked(const std::shared_ptr<RequestState>& req) {
  requests_.erase(req->id);
  if (req->active) {
    --active_count_;
    while (active_count_ < options_.max_active && !pending_.empty()) {
      const std::uint64_t id = pending_.front();
      pending_.pop_front();
      auto it = requests_.find(id);
      if (it == requests_.end()) continue;
      it->second->active = true;
      // A promoted request competes from the current virtual time — it
      // neither inherits credit for its wait nor starts in debt.
      it->second->vtime = global_vtime_;
      ++active_count_;
    }
  } else {
    const auto it = std::find(pending_.begin(), pending_.end(), req->id);
    if (it != pending_.end()) pending_.erase(it);
  }
  stats_->set_queue_depth(pending_.size());
  stats_->set_active_requests(active_count_);
  cv_work_.notify_all();
  if (requests_.empty()) cv_idle_.notify_all();
}

std::uint64_t Scheduler::estimate_retry_ms_locked() const {
  std::size_t remaining = 0;
  for (const auto& [id, sp] : requests_) {
    remaining += sp->plan.chunks.size() - sp->completed;
  }
  const double est =
      avg_chunk_ms_ * static_cast<double>(remaining) /
      static_cast<double>(std::max(options_.workers, 1u));
  return static_cast<std::uint64_t>(std::clamp(est, 10.0, 60000.0));
}

campaign::CampaignResult Scheduler::assemble_result(
    const RequestState& req) const {
  campaign::CampaignOptions options = req.options;
  options.trials_per_point = req.plan.trials_per_point;  // resolved
  campaign::CampaignResult result = campaign::fold_chunks(
      req.scenario, options, req.plan, req.chunk_metrics);
  campaign::canonicalize(result);
  return result;
}

void Scheduler::worker_loop() {
  // One TrialContext per worker, serving chunks of whatever request the
  // fair-share pick hands it; run_chunk re-applies the owning request's
  // warm-up seed on every chunk.
  shield::TrialContext pool;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    std::shared_ptr<RequestState> req;
    std::size_t chunk_idx = 0;
    cv_work_.wait(lock, [&] {
      return stopping_ || claim_locked(&req, &chunk_idx);
    });
    if (stopping_) return;

    lock.unlock();
    const campaign::ChunkRef& chunk = req->plan.chunks[chunk_idx];
    const auto c0 = std::chrono::steady_clock::now();
    auto metrics = campaign::run_chunk(req->scenario, req->options.seed,
                                       chunk, &pool, req->warm_seed, nullptr);
    const double chunk_ms =
        ms_between(c0, std::chrono::steady_clock::now());
    stats_->on_chunk();

    lock.lock();
    avg_chunk_ms_ = 0.9 * avg_chunk_ms_ + 0.1 * chunk_ms;
    req->chunk_metrics[chunk_idx] = metrics;
    --req->in_flight;
    ++req->completed;
    if (req->cancelled) {
      const std::size_t done = req->completed;
      if (req->in_flight == 0 && !req->finished) {
        req->finished = true;
        ++emitting_;
        retire_locked(req);
        lock.unlock();
        if (req->callbacks.on_cancelled) {
          std::lock_guard<std::mutex> emit(req->emit_mutex);
          req->callbacks.on_cancelled(req->id, done);
        }
        lock.lock();
        if (--emitting_ == 0 && requests_.empty()) cv_idle_.notify_all();
      }
      continue;
    }
    lock.unlock();

    // Deliver this chunk's record before counting it delivered, so the
    // worker that delivers the LAST record is the one that emits the
    // completion — on_complete can never overtake an on_record.
    const std::string record =
        campaign::serialize_chunk_record(chunk, metrics);
    if (req->callbacks.on_record) {
      std::lock_guard<std::mutex> emit(req->emit_mutex);
      req->callbacks.on_record(req->id, record);
    }

    lock.lock();
    ++req->delivered;
    const bool complete =
        !req->cancelled && !req->finished &&
        req->delivered == req->plan.chunks.size();
    double wall_ms = 0.0, queue_wait_ms = 0.0;
    if (complete) {
      req->finished = true;
      const auto now = std::chrono::steady_clock::now();
      wall_ms = ms_between(req->admitted_at, now);
      queue_wait_ms = req->scheduled_stamped
                          ? ms_between(req->admitted_at, req->scheduled_at)
                          : 0.0;
      ++emitting_;
      retire_locked(req);
    }
    if (complete) {
      lock.unlock();
      const campaign::CampaignResult result = assemble_result(*req);
      // The trailer mirrors the shard trailer: run geometry plus the
      // engine counters this scheduler tracks per request (trials and
      // chunks; service workers run obs-detached, so phase timers and
      // deployment/snapshot counters are not collected per request).
      obs::Report report;
      report.counters[static_cast<std::size_t>(obs::Counter::kTrials)] =
          result.total_trials;
      report.counters[static_cast<std::size_t>(obs::Counter::kChunks)] =
          req->plan.chunks.size();
      const std::string trailer = campaign::serialize_metrics_trailer(
          options_.workers, wall_ms / 1e3, report);
      stats_->on_completed(wall_ms, queue_wait_ms);
      if (req->callbacks.on_complete) {
        std::lock_guard<std::mutex> emit(req->emit_mutex);
        req->callbacks.on_complete(req->id, trailer, result, wall_ms,
                                   queue_wait_ms, req->plan.chunks.size());
      }
      lock.lock();
      if (--emitting_ == 0 && requests_.empty()) cv_idle_.notify_all();
    }
  }
}

}  // namespace hs::serve
