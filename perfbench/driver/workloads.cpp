// The two campaign workloads (fig9-cli, fig3-sharded), their set-up
// measurement, and the golden-digest reference run.
#include <dirent.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>
#include <utility>

#include "campaign/report.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "shield/trial_context.hpp"
#include "snapshot/snapshot_cache.hpp"

namespace perfbench {

namespace campaign = hs::campaign;

std::vector<std::uint64_t> seed_order(std::uint64_t seed, std::uint64_t salt,
                                      std::size_t pool) {
  std::vector<std::uint64_t> order(pool);
  for (std::size_t i = 0; i < pool; ++i) order[i] = i + 1;
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + salt);
  for (std::size_t i = pool; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

const campaign::Scenario& scenario(const CampaignShape& shape) {
  const campaign::Scenario* s = campaign::find_scenario(shape.preset);
  if (s == nullptr) {
    throw std::runtime_error(std::string("unknown preset ") + shape.preset);
  }
  return *s;
}

campaign::CampaignOptions campaign_options(const CampaignShape& shape,
                                           std::uint64_t seed) {
  campaign::CampaignOptions o;
  o.seed = seed;
  o.trials_per_point = shape.trials;
  o.threads = 1;
  o.chunk_size = kChunkSize;
  return o;
}

void fill_report(campaign::CampaignResult result, Op& op) {
  campaign::canonicalize(result);
  op.csv = campaign::to_csv(result);
  op.json = campaign::to_json(result);
  op.trial_count = result.total_trials;
}

double cold_start_s(const CampaignShape& shape, std::uint64_t seed) {
  const campaign::Scenario& s = scenario(shape);
  const campaign::ChunkRef first{0, 0, 0, kChunkSize};
  hs::snapshot::SnapshotCache cache;
  hs::shield::TrialContext context;
  const auto t0 = Clock::now();
  campaign::run_chunk(s, seed, first, &context,
                      campaign::campaign_warmup_seed(seed, s.name), &cache);
  const double secs = ms_between(t0, Clock::now()) / 1e3;
  if (context.deployments_built() == 0 || context.snapshots_saved() == 0) {
    throw std::runtime_error("first chunk of " + s.name +
                             " built no deployment or saved no snapshot");
  }
  return secs;
}

std::size_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoul(line.substr(6));
    }
  }
  return 0;
}

std::size_t count_dir_entries(const char* path) {
  DIR* dir = ::opendir(path);
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (const dirent* e = ::readdir(dir)) {
    if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0) {
      ++n;
    }
  }
  ::closedir(dir);
  return n;
}

namespace {

/// Pins the calling thread to each CPU of its affinity mask in turn and
/// restores the mask on destruction. On a shared host the cores' speeds
/// differ by up to 1.8x for tens of seconds, and a single-threaded
/// measurement stays on whichever core the scheduler picked; visiting
/// every core averages that out as a multi-threaded workload does.
/// Threads started while pinned inherit the one CPU, so only
/// single-threaded work runs under it.
class CpuRotation {
 public:
  CpuRotation() {
    if (::sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the `k`-th CPU of the mask (modulo its size).
  void pin(std::size_t k) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t saved_{};
  std::vector<int> cpus_;
};

}  // namespace

std::vector<double> cold_starts(const CampaignShape& shape,
                                std::uint64_t seed, std::uint64_t salt) {
  CpuRotation rotation;
  std::vector<double> out;
  std::size_t k = 0;
  for (const std::uint64_t s : seed_order(seed, salt, kSetupReps)) {
    rotation.pin(k++);
    out.push_back(cold_start_s(shape, s));
  }
  return out;
}

namespace {

/// Runs `run_op(seed, traced)` over the seed order for the window; an
/// operation's latency is the call alone, and `verify(op)` (the traced
/// path's stream checks) runs after it, outside the timed section.
/// Untraced runs keep going past the window until the percentile rule
/// has kMinOps completed samples (capped at three windows); traced runs
/// alternate untraced and traced operations so their throughput ratio is
/// the tracing overhead.
template <typename RunOp, typename Verify>
void run_window(const Args& args, const std::vector<std::uint64_t>& order,
                OpLog& log, Result& r, RunOp run_op, Verify verify) {
  const auto t0 = Clock::now();
  const double window_ms = args.seconds * 1e3;
  std::size_t completed = 0;
  for (std::size_t i = 0;; ++i) {
    const double elapsed = ms_between(t0, Clock::now());
    const bool enough = args.trace || completed >= kMinOps;
    if ((elapsed >= window_ms && enough) || elapsed >= 3 * window_ms) break;
    if (i == order.size()) ++r.pool_wraps;
    const auto start = Clock::now();
    Op op = run_op(order[i % order.size()], args.trace && i % 2 == 1);
    const auto end = Clock::now();
    op.cls = "campaign";
    op.wall_ms = ms_between(start, end);
    op.end_ms = ms_between(t0, end);
    verify(op);
    if (op.outcome == "ok" && ++completed == kMinOps) {
      r.peak_rss_kb = peak_rss_kb();
    }
    r.window_s = op.end_ms / 1e3;
    log.add(op);
  }
}

}  // namespace

Op new_op(const CampaignShape& shape, std::uint64_t seed, bool traced) {
  Op op;
  op.preset = shape.preset;
  op.seed = seed;
  op.trials = shape.trials;
  op.traced = traced;
  return op;
}

Op dispatch_probe(const CampaignShape& shape, std::uint64_t seed,
                  StreamAgg& agg) {
  Op probe = new_op(shape, seed, true);
  probe.cls = "probe";
  const campaign::Scenario& sc = scenario(shape);
  const TracedDispatch d = traced_dispatch(sc, campaign_options(shape, seed), agg);
  check_streams(sc, d, agg, probe);
  fill_report(d.result, probe);
  return probe;
}

void finish_traced(const Args& args, const EngineAgg& engine,
                   const StreamAgg& streams, hs::obs::TraceRecorder& recorder,
                   OpLog& log, Result& r) {
  std::string problem;
  if (!engine_layers(engine, r.layers, &problem)) {
    Op check;
    check.cls = "check";
    check.outcome = "phase_overlap";
    check.detail = problem;
    log.add(check);
  }
  stream_layers(streams, r.layers);
  kernel_layers(r.layers);
  eavesdrop_layers(r.layers);
  if (!args.trace_out.empty() &&
      !campaign::write_file(args.trace_out, recorder.to_json())) {
    throw std::runtime_error("cannot write " + args.trace_out);
  }
}

Result run_fig9_cli(const Args& args, OpLog& log) {
  Result r;
  const campaign::Scenario& sc = scenario(kFig9);
  r.setup_s = cold_starts(kFig9, args.seed, 90);

  hs::obs::TraceRecorder recorder;
  hs::obs::MetricsRegistry bench_registry;
  std::optional<hs::obs::WorkerScope> scope;
  if (args.trace) scope.emplace(&bench_registry, &recorder, "perfbench");
  EngineAgg engine;

  const std::vector<std::uint64_t> order = seed_order(args.seed, 9, kFig9.pool);
  std::optional<CpuRotation> rotation(std::in_place);
  std::size_t ops = 0;
  run_window(args, order, log, r, [&](std::uint64_t seed, bool traced) {
    // A traced run alternates untraced and traced campaigns: each pair
    // shares a core.
    rotation->pin(ops++ / 2);
    Op op = new_op(kFig9, seed, traced);
    campaign::CampaignOptions o = campaign_options(kFig9, seed);
    if (!traced) {
      fill_report(campaign::run_campaign(sc, o), op);
      return op;
    }
    o.metrics_timers = true;
    o.trace = &recorder;
    campaign::CampaignResult result;
    {
      hs::obs::TraceSpan span("perfbench", "run_campaign");
      result = campaign::run_campaign(sc, o);
    }
    const auto r0 = Clock::now();
    {
      hs::obs::TraceSpan span("perfbench", "report");
      fill_report(result, op);
    }
    engine.add(result.metrics, result.wall_seconds * 1e9,
               ms_between(r0, Clock::now()));
    scope->flush();
    return op;
  }, [](Op&) {});
  rotation.reset();  // the dispatch probe below runs three shard threads

  if (args.trace) {
    // The CLI path has no chunk streams or dispatcher; these rows come
    // from dispatching one of the window's campaigns.
    StreamAgg streams;
    log.add(dispatch_probe(kFig9, order.front(), streams));
    scope->flush();
    finish_traced(args, engine, streams, recorder, log, r);
  }
  return r;
}

Result run_fig3_sharded(const Args& args, OpLog& log) {
  Result r;
  const campaign::Scenario& sc = scenario(kFig3);
  r.setup_s = cold_starts(kFig3, args.seed, 30);

  hs::obs::TraceRecorder recorder;
  hs::obs::MetricsRegistry bench_registry;
  std::optional<hs::obs::WorkerScope> scope;
  if (args.trace) scope.emplace(&bench_registry, &recorder, "perfbench");
  EngineAgg engine;
  StreamAgg streams;
  campaign::DispatchOptions dispatch;
  dispatch.shard_count = kShards;

  std::optional<TracedDispatch> pending;  // a traced op's unchecked streams
  run_window(args, seed_order(args.seed, 3, kFig3.pool), log, r,
             [&](std::uint64_t seed, bool traced) {
    Op op = new_op(kFig3, seed, traced);
    campaign::CampaignOptions o = campaign_options(kFig3, seed);
    try {
      if (!traced) {
        campaign::DispatchReport report;
        campaign::ThreadExecutor executor(sc, o);
        fill_report(
            campaign::dispatch_campaign(sc, o, dispatch, executor, &report),
            op);
        if (report.chunks_redealt > 0) {
          op.outcome = "redealt";
          op.detail = std::to_string(report.chunks_redealt) +
                      " chunk(s) re-dealt without a fault plan";
        }
      } else {
        o.metrics_timers = true;
        o.trace = &recorder;
        {
          hs::obs::TraceSpan span("perfbench", "dispatch_campaign");
          pending = traced_dispatch(sc, o, streams);
        }
        const auto r0 = Clock::now();
        {
          hs::obs::TraceSpan span("perfbench", "report");
          fill_report(pending->result, op);
        }
        engine.add(pending->report.metrics.report,
                   static_cast<double>(pending->report.metrics.wall_ns),
                   ms_between(r0, Clock::now()));
        scope->flush();
      }
    } catch (const campaign::DispatchError& e) {
      pending.reset();
      op.outcome = "dispatch_error";
      op.detail = e.what();
    }
    return op;
  }, [&](Op& op) {
    if (!pending) return;
    check_streams(sc, *pending, streams, op);
    pending.reset();
    scope->flush();
  });

  if (args.trace) finish_traced(args, engine, streams, recorder, log, r);
  return r;
}

Result record_golden(OpLog& log) {
  std::vector<std::pair<const CampaignShape*, std::uint64_t>> work;
  for (const CampaignShape* shape : {&kFig9, &kFig3, &kFig11}) {
    for (std::uint64_t seed = 1; seed <= shape->pool; ++seed) {
      work.emplace_back(shape, seed);
    }
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
       ++t) {
    threads.emplace_back([&] {
      for (std::size_t i; (i = next++) < work.size();) {
        const auto [shape, seed] = work[i];
        Op op = new_op(*shape, seed, false);
        op.cls = "golden";
        fill_report(campaign::run_campaign(scenario(*shape),
                                           campaign_options(*shape, seed)),
                    op);
        log.add(op);
      }
    });
  }
  for (auto& t : threads) t.join();
  return {};
}

}  // namespace perfbench
