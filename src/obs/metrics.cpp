#include "obs/metrics.hpp"

namespace hs::obs {

namespace detail {
constinit thread_local ThreadState* t_state = nullptr;
}  // namespace detail

namespace {

constexpr std::array<std::string_view, kCounterCount> kCounterNames = {
    "trials",
    "chunks",
    "deployments_built",
    "deployments_reused",
    "snapshots_restored",
    "snapshots_saved",
    "chunks_redealt",
    "chunks_duplicate",
    "shards_dead",
    "shards_straggler",
    "tasks_retried",
};

constexpr std::array<std::string_view, kPhaseCount> kPhaseNames = {
    "warmup",
    "snapshot_save",
    "snapshot_restore",
    "medium_mix",
    "jamgen",
    "receiver_demod",
    "trial",
    "stats_merge",
    "chunk_acquire",
};

}  // namespace

std::string_view counter_name(Counter c) {
  return kCounterNames[static_cast<std::size_t>(c)];
}

std::string_view phase_name(Phase p) {
  return kPhaseNames[static_cast<std::size_t>(p)];
}

void Report::merge(const Report& other) {
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    counters[i] += other.counters[i];
  }
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    phases[i].calls += other.phases[i].calls;
    phases[i].ns += other.phases[i].ns;
  }
}

void Report::clear() { *this = Report{}; }

bool Report::empty() const { return *this == Report{}; }

void MetricsRegistry::merge(const Report& block) {
  std::lock_guard<std::mutex> lock(mutex_);
  total_.merge(block);
}

Report MetricsRegistry::report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

WorkerScope::WorkerScope(MetricsRegistry* registry, TraceRecorder* trace,
                         const std::string& thread_name)
    : registry_(registry), previous_(detail::t_state) {
  state_.timers = registry != nullptr && registry->timers_enabled();
  state_.trace = trace;
  if (trace != nullptr) state_.tid = trace->register_thread(thread_name);
  detail::t_state = &state_;
}

WorkerScope::~WorkerScope() {
  flush();
  detail::t_state = previous_;
}

void WorkerScope::flush() {
  if (registry_ != nullptr && !state_.block.empty()) {
    registry_->merge(state_.block);
    state_.block.clear();
  }
  if (state_.trace != nullptr) state_.trace->add(state_.pending);
}

TraceSpan::TraceSpan(const char* category, std::string name,
                     std::string args_json) {
  ThreadState* ts = tls();
  if (ts == nullptr || ts->trace == nullptr) return;
  state_ = ts;
  category_ = category;
  name_ = std::move(name);
  TraceEvent e;
  e.name = name_;
  e.category = category_;
  e.phase = 'B';
  e.ts_ns = ts->trace->now_ns();
  e.tid = ts->tid;
  e.args_json = std::move(args_json);
  ts->pending.push_back(std::move(e));
}

TraceSpan::~TraceSpan() {
  if (state_ == nullptr) return;
  TraceEvent e;
  e.name = std::move(name_);
  e.category = category_;
  e.phase = 'E';
  e.ts_ns = state_->trace->now_ns();
  e.tid = state_->tid;
  state_->pending.push_back(std::move(e));
}

void trace_instant(const char* category, std::string name,
                   std::string args_json) {
  ThreadState* ts = tls();
  if (ts == nullptr || ts->trace == nullptr) return;
  TraceEvent e;
  e.name = std::move(name);
  e.category = category;
  e.phase = 'i';
  e.ts_ns = ts->trace->now_ns();
  e.tid = ts->tid;
  e.args_json = std::move(args_json);
  ts->pending.push_back(std::move(e));
}

}  // namespace hs::obs
