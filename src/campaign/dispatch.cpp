#include "campaign/dispatch.hpp"

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "wire/file.hpp"
#include "wire/lexer.hpp"

namespace hs::campaign {

namespace {

std::string_view fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kKill: return "kill";
    case FaultKind::kTruncateBytes: return "trunc";
    case FaultKind::kTruncateLines: return "truncl";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kCorrupt: return "corrupt";
  }
  return "?";
}

bool fault_kind_from_name(std::string_view name, FaultKind* out) {
  for (FaultKind k : {FaultKind::kKill, FaultKind::kTruncateBytes,
                      FaultKind::kTruncateLines, FaultKind::kDelay,
                      FaultKind::kCorrupt}) {
    if (fault_kind_name(k) == name) {
      *out = k;
      return true;
    }
  }
  return false;
}

/// Digits only, so "-1" cannot wrap to a shard id that never fires and
/// an overflow is an error instead of a saturated value.
std::size_t fault_number(std::string_view text, std::string_view token) {
  const auto v = wire::parse_u64(text);
  if (!v) {
    throw DispatchError("fault-plan: bad number '" + std::string(text) +
                        "' in '" + std::string(token) + "'");
  }
  return *v;
}

/// Byte offsets of the starts of complete (newline-terminated) lines,
/// plus one-past-the-last such line.
std::vector<std::size_t> line_starts(std::string_view text) {
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

}  // namespace

FaultPlan FaultPlan::parse(std::string_view spec) {
  FaultPlan plan;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find_first_of(",;", start);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view token = spec.substr(start, end - start);
    start = end + 1;
    while (!token.empty() && (token.front() == ' ' || token.front() == '\t'))
      token.remove_prefix(1);
    while (!token.empty() && (token.back() == ' ' || token.back() == '\t'))
      token.remove_suffix(1);
    if (token.empty()) continue;
    const std::size_t colon = token.find(':');
    const std::size_t at = token.find('@');
    if (colon == std::string_view::npos || at == std::string_view::npos ||
        at < colon) {
      throw DispatchError("fault-plan: token '" + std::string(token) +
                          "' is not kind:shard@arg");
    }
    Fault f;
    if (!fault_kind_from_name(token.substr(0, colon), &f.kind)) {
      throw DispatchError("fault-plan: unknown fault kind '" +
                          std::string(token.substr(0, colon)) +
                          "' (kill, trunc, truncl, delay, corrupt)");
    }
    f.shard = fault_number(token.substr(colon + 1, at - colon - 1), token);
    f.arg = fault_number(token.substr(at + 1), token);
    plan.faults.push_back(f);
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const Fault& f : faults) {
    if (!out.empty()) out += ',';
    out += fault_kind_name(f.kind);
    out += ':';
    out += std::to_string(f.shard);
    out += '@';
    out += std::to_string(f.arg);
  }
  return out;
}

FaultPlan FaultPlan::for_shard(std::size_t shard) const {
  FaultPlan out;
  for (const Fault& f : faults) {
    if (f.shard == shard) out.faults.push_back(f);
  }
  return out;
}

std::size_t FaultPlan::delay_waves(std::size_t shard) const {
  std::size_t waves = 0;
  for (const Fault& f : faults) {
    if (f.kind == FaultKind::kDelay && f.shard == shard) {
      waves = std::max(waves, f.arg);
    }
  }
  return waves;
}

std::string apply_stream_faults(const FaultPlan& plan, std::size_t shard,
                                std::string text, bool* killed) {
  if (killed != nullptr) *killed = false;
  for (const Fault& f : plan.faults) {
    if (f.shard != shard) continue;
    switch (f.kind) {
      case FaultKind::kKill: {
        // Death after writing `arg` chunk records: header + arg complete
        // lines survive, the trailer never does.
        const auto starts = line_starts(text);
        const std::size_t complete_lines = starts.size() - 1;
        const std::size_t keep =
            std::min(1 + f.arg,
                     complete_lines > 0 ? complete_lines - 1 : std::size_t{0});
        text.resize(starts[keep]);
        if (killed != nullptr) *killed = true;
        break;
      }
      case FaultKind::kTruncateBytes:
        text.resize(std::min(f.arg, text.size()));
        break;
      case FaultKind::kTruncateLines: {
        const auto starts = line_starts(text);
        text.resize(starts[std::min(f.arg, starts.size() - 1)]);
        break;
      }
      case FaultKind::kCorrupt: {
        // Flip one bit in the middle of line `arg` (1-based). The line
        // usually still parses field-by-field — the per-line CRC is what
        // must catch it.
        const auto starts = line_starts(text);
        if (f.arg == 0 || f.arg > starts.size() - 1) break;
        const std::size_t begin = starts[f.arg - 1];
        const std::size_t len = starts[f.arg] - begin - 1;  // sans newline
        if (len == 0) break;
        text[begin + len / 2] ^= 0x01;
        break;
      }
      case FaultKind::kDelay:
        break;  // a delivery fault; executors consult delay_waves()
    }
  }
  return text;
}

void DelayQueue::push(TaskOutcome outcome, std::size_t waves) {
  entries_.push_back(Entry{std::move(outcome), waves});
}

std::vector<TaskOutcome> DelayQueue::advance() {
  std::vector<TaskOutcome> due;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (--it->waves_left == 0) {
      due.push_back(std::move(it->outcome));
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  return due;
}

std::vector<TaskOutcome> DelayQueue::drain() {
  std::vector<TaskOutcome> due;
  for (auto& e : entries_) due.push_back(std::move(e.outcome));
  entries_.clear();
  return due;
}

// ---------------------------------------------------------------------------
// ThreadExecutor

ThreadExecutor::ThreadExecutor(const Scenario& scenario,
                               const CampaignOptions& options,
                               FaultPlan faults)
    : scenario_(scenario), options_(options), faults_(std::move(faults)) {
  // Task results are consumed as serialized text; trace buffers belong
  // to real shard processes, not dispatch tasks.
  options_.trace = nullptr;
}

std::vector<TaskOutcome> ThreadExecutor::run_wave(
    const std::vector<ShardTask>& tasks) {
  std::vector<TaskOutcome> outcomes(tasks.size());
  std::vector<std::thread> threads;
  threads.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    threads.emplace_back([this, &tasks, &outcomes, i] {
      const ShardTask& task = tasks[i];
      const ShardExecution exec =
          run_campaign_chunks(scenario_, options_, task.plan);
      std::string text = serialize_chunk_stream(scenario_, options_, exec);
      bool task_killed = false;
      if (task.generation == 0) {
        text = apply_stream_faults(faults_, task.slot, std::move(text),
                                   &task_killed);
      }
      TaskOutcome& o = outcomes[i];
      o.slot = task.slot;
      o.generation = task.generation;
      o.exited_ok = !task_killed;
      o.stream_text = std::move(text);
      o.source = "thread slot " + std::to_string(task.slot) + " gen " +
                 std::to_string(task.generation);
    });
  }
  for (auto& t : threads) t.join();

  // Deliver in task order (determinism is first-wins order-sensitive for
  // the counters, though never for the aggregates); delay faults divert
  // generation-0 outcomes into the queue.
  std::vector<TaskOutcome> ready;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::size_t waves = tasks[i].generation == 0
                                  ? faults_.delay_waves(tasks[i].slot)
                                  : 0;
    if (waves > 0) {
      delayed_.push(std::move(outcomes[i]), waves);
    } else {
      ready.push_back(std::move(outcomes[i]));
    }
  }
  return ready;
}

std::vector<TaskOutcome> ThreadExecutor::collect_delayed() {
  return delayed_.advance();
}

std::vector<TaskOutcome> ThreadExecutor::drain() { return delayed_.drain(); }

// ---------------------------------------------------------------------------
// SubprocessExecutor

namespace {

/// POSIX-shell single quoting (popen runs through /bin/sh).
std::string shell_quote(std::string_view s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

}  // namespace

SubprocessExecutor::SubprocessExecutor(std::string runner_path,
                                       std::string workdir,
                                       std::string scenario_name,
                                       CampaignOptions options,
                                       FaultPlan faults)
    : runner_path_(std::move(runner_path)),
      workdir_(std::move(workdir)),
      scenario_name_(std::move(scenario_name)),
      options_(options),
      faults_(std::move(faults)) {}

std::vector<TaskOutcome> SubprocessExecutor::run_wave(
    const std::vector<ShardTask>& tasks) {
  struct Child {
    std::FILE* pipe = nullptr;
    std::string path;
  };
  std::vector<Child> children(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const ShardTask& task = tasks[i];
    Child& child = children[i];
    const std::string stem = workdir_ + "/shard-" + std::to_string(task.slot) +
                             "-gen" + std::to_string(task.generation);
    child.path = stem + ".jsonl";

    std::string cmd = shell_quote(runner_path_);
    cmd += " --scenario=" + shell_quote(scenario_name_);
    cmd += " --seed=" + std::to_string(options_.seed);
    if (options_.trials_per_point > 0) {
      cmd += " --trials=" + std::to_string(options_.trials_per_point);
    }
    cmd += " --threads=" + std::to_string(options_.threads);
    cmd += " --chunk=" + std::to_string(options_.chunk_size);
    cmd += " --shards=" + std::to_string(task.plan.shard_count);
    cmd += " --shard=" + std::to_string(task.slot);
    cmd += " --emit-chunks=" + shell_quote(child.path);
    if (options_.metrics_timers) {
      // A child times its phases only when it writes a metrics document;
      // the timings reach the parent through the stream's trailer.
      cmd += " --metrics-json=" + shell_quote(stem + ".metrics.json");
    }
    if (task.generation > 0) {
      // Repair wave: the explicit chunk set, never refaulted.
      std::string ids;
      for (const ChunkRef& ref : task.plan.chunks) {
        if (!ids.empty()) ids += ',';
        ids += std::to_string(ref.chunk_index);
      }
      cmd += " --chunks=" + shell_quote(ids);
    } else {
      const FaultPlan shard_faults = faults_.for_shard(task.slot);
      if (!shard_faults.empty()) {
        cmd += " --fault-plan=" + shell_quote(shard_faults.to_string());
      }
    }
    cmd += " >/dev/null";  // stderr passes through: failures stay visible
    child.pipe = ::popen(cmd.c_str(), "r");
    if (child.pipe == nullptr) {
      throw DispatchError("dispatch: popen failed for slot " +
                          std::to_string(task.slot));
    }
  }

  std::vector<TaskOutcome> ready;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const int status = ::pclose(children[i].pipe);
    TaskOutcome o;
    o.slot = tasks[i].slot;
    o.generation = tasks[i].generation;
    o.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    o.source = children[i].path;
    // A dead child's stream is whatever it wrote before dying — possibly
    // nothing; an unreadable file is data loss, not an error.
    std::string text;
    if (wire::read_whole_file(children[i].path, text) ==
        wire::FileReadStatus::kOk) {
      o.stream_text = std::move(text);
    }
    const std::size_t waves = tasks[i].generation == 0
                                  ? faults_.delay_waves(tasks[i].slot)
                                  : 0;
    if (waves > 0) {
      delayed_.push(std::move(o), waves);
    } else {
      ready.push_back(std::move(o));
    }
  }
  return ready;
}

std::vector<TaskOutcome> SubprocessExecutor::collect_delayed() {
  return delayed_.advance();
}

std::vector<TaskOutcome> SubprocessExecutor::drain() {
  return delayed_.drain();
}

// ---------------------------------------------------------------------------
// dispatch_campaign

namespace {

/// Surfaces the dispatcher's accounting through the standard obs
/// counters so --metrics-json (and CI's chunks_redealt gate) see it.
void add_dispatch_counters(DispatchReport& rep) {
  auto& counters = rep.metrics.report.counters;
  counters[static_cast<std::size_t>(obs::Counter::kChunksRedealt)] +=
      rep.chunks_redealt;
  counters[static_cast<std::size_t>(obs::Counter::kChunksDuplicate)] +=
      rep.chunks_duplicate;
  counters[static_cast<std::size_t>(obs::Counter::kShardsDead)] +=
      rep.shards_dead;
  counters[static_cast<std::size_t>(obs::Counter::kShardsStraggler)] +=
      rep.shards_straggler;
  counters[static_cast<std::size_t>(obs::Counter::kTasksRetried)] +=
      rep.tasks_retried;
}

/// Chunk accumulators accepted so far, by global chunk id.
struct ChunkCover {
  explicit ChunkCover(std::size_t total_chunks)
      : metrics(total_chunks), accepted(total_chunks, false) {}

  std::vector<std::size_t> missing() const {
    std::vector<std::size_t> ids;
    for (std::size_t id = 0; id < accepted.size(); ++id) {
      if (!accepted[id]) ids.push_back(id);
    }
    return ids;
  }

  std::vector<ChunkMetrics> metrics;
  std::vector<bool> accepted;
};

/// What one stream contributed to the cover.
struct StreamAcceptance {
  std::size_t duplicates = 0;
  /// The stream matched the geometry and was complete, so its trailer
  /// was added to the report.
  bool trailer = false;
};

/// The record-acceptance step dispatch_campaign and recover_campaign
/// share. A stream whose header disagrees with the campaign geometry
/// contributes nothing. Otherwise its records, which salvage already
/// checked one by one under the strict rules, are pinned to the global
/// chunk enumeration (a stream from a different build or a hand-edited
/// geometry cannot smuggle a mislabeled chunk in) and accepted
/// first-wins by chunk id. Duplicates are bit-identical by determinism,
/// so which copy merges never matters. Only a complete stream's trailer
/// is trustworthy accounting: a salvaged prefix merges its records but
/// forfeits its counters.
StreamAcceptance accept_stream(const SalvagedStream& s,
                               const Scenario& scenario, std::uint64_t seed,
                               std::size_t shard_count, const ShardPlan& global,
                               ChunkCover& cover, DispatchReport& rep) {
  StreamAcceptance out;
  const bool geometry_ok =
      s.header_valid && s.header.scenario == scenario.name &&
      s.header.seed == seed &&
      s.header.trials_per_point == global.trials_per_point &&
      s.header.chunk_size == global.chunk_size &&
      s.header.shard_count == shard_count &&
      s.header.point_count == global.point_count &&
      s.header.total_chunks == global.total_chunks;
  if (!geometry_ok) return out;
  for (const ChunkRecord& rec : s.chunks) {
    const std::size_t id = rec.ref.chunk_index;
    if (!(rec.ref == global.chunks[id])) break;
    if (cover.accepted[id]) {
      ++out.duplicates;
      continue;
    }
    cover.metrics[id] = rec.metrics;
    cover.accepted[id] = true;
  }
  rep.chunks_duplicate += out.duplicates;
  if (s.complete) {
    out.trailer = true;
    ++rep.streams_complete;
    ++rep.metrics.shards;
    rep.metrics.threads += s.trailer.threads;
    rep.metrics.wall_ns += s.trailer.wall_ns;
    rep.metrics.report.merge(s.trailer.report);
  }
  return out;
}

/// The canonical result of a fully covered campaign: runtime fields
/// zeroed, exactly as merge_chunk_streams produces.
CampaignResult fold_canonical(const Scenario& scenario, std::uint64_t seed,
                              const ShardPlan& global,
                              const ChunkCover& cover) {
  CampaignOptions canonical;
  canonical.seed = seed;
  canonical.trials_per_point = global.trials_per_point;
  canonical.chunk_size = global.chunk_size;
  canonical.threads = 0;
  return fold_chunks(scenario, canonical, global, cover.metrics);
}

}  // namespace

CampaignResult dispatch_campaign(const Scenario& scenario,
                                 const CampaignOptions& options,
                                 const DispatchOptions& dispatch,
                                 Executor& executor,
                                 DispatchReport* report) {
  if (dispatch.shard_count == 0) {
    throw DispatchError("dispatch: shard_count must be >= 1");
  }
  const std::size_t K = dispatch.shard_count;
  for (const Fault& f : dispatch.faults.faults) {
    if (f.shard >= K) {
      throw DispatchError("dispatch: fault '" + FaultPlan{{f}}.to_string() +
                          "' targets shard " + std::to_string(f.shard) +
                          " of a " + std::to_string(K) + "-shard campaign");
    }
  }
  // The global chunk enumeration is the single source of truth: every
  // accepted record must match it exactly, every id must end up covered.
  const ShardPlan global = plan_shard(scenario, options, 1, 0);

  DispatchReport rep;
  ChunkCover cover(global.total_chunks);
  std::vector<bool> slot_complete(K, false);

  const auto process_outcome = [&](TaskOutcome& o, bool from_delay) {
    const SalvagedStream s = salvage_chunk_stream(o.stream_text, o.source);
    const StreamAcceptance a =
        accept_stream(s, scenario, options.seed, K, global, cover, rep);
    if (a.trailer && o.generation == 0 && o.slot < K) {
      slot_complete[o.slot] = true;
    }
    if (from_delay && a.duplicates > 0) ++rep.shards_straggler;
  };

  // Initial deal: the same round-robin plans a faultless sharded run
  // uses, one task per slot.
  std::vector<ShardTask> tasks;
  tasks.reserve(K);
  for (std::size_t i = 0; i < K; ++i) {
    ShardTask task;
    task.slot = i;
    task.generation = 0;
    task.plan = plan_shard(scenario, options, K, i);
    tasks.push_back(std::move(task));
  }
  std::vector<TaskOutcome> outcomes = executor.run_wave(tasks);

  for (std::size_t round = 0;; ++round) {
    for (TaskOutcome& o : outcomes) process_outcome(o, false);
    for (TaskOutcome& o : executor.collect_delayed()) {
      process_outcome(o, true);
    }

    const std::vector<std::size_t> missing = cover.missing();
    if (missing.empty()) break;
    if (round >= dispatch.max_rounds) {
      throw DispatchError(
          "dispatch: " + std::to_string(missing.size()) +
          " chunk(s) still missing after " + std::to_string(round) +
          " recovery round(s) (first missing id " +
          std::to_string(missing.front()) + ")");
    }

    // Re-deal ONLY the missing ids, round-robin over the worker slots.
    rep.rounds = round + 1;
    rep.chunks_redealt += missing.size();
    const std::size_t repair_slots = std::min(K, missing.size());
    std::vector<ShardTask> repairs;
    for (std::size_t j = 0; j < repair_slots; ++j) {
      std::vector<std::size_t> ids;
      for (std::size_t m = j; m < missing.size(); m += repair_slots) {
        ids.push_back(missing[m]);
      }
      ShardTask task;
      task.slot = j;
      task.generation = round + 1;
      task.plan = make_repair_plan(scenario, options, K, j, ids);
      repairs.push_back(std::move(task));
    }
    rep.tasks_retried += repairs.size();
    outcomes = executor.run_wave(repairs);
  }

  // Account stragglers that were still in flight when recovery finished.
  for (TaskOutcome& o : executor.drain()) process_outcome(o, true);
  for (std::size_t i = 0; i < K; ++i) {
    if (!slot_complete[i]) ++rep.shards_dead;
  }

  add_dispatch_counters(rep);
  CampaignResult result =
      fold_canonical(scenario, options.seed, global, cover);
  if (report != nullptr) *report = std::move(rep);
  return result;
}

CampaignResult recover_campaign(const Scenario& scenario,
                                const CampaignOptions& options,
                                const std::vector<SalvagedStream>& streams,
                                DispatchReport* report) {
  const SalvagedStream* first = nullptr;
  for (const SalvagedStream& s : streams) {
    if (s.header_valid) {
      first = &s;
      break;
    }
  }
  if (first == nullptr) {
    throw DispatchError(
        "recover: no stream has a salvageable header — the campaign "
        "identity (scenario/seed/trials/chunk size) is unrecoverable");
  }
  const ChunkStreamHeader& h = first->header;
  if (h.scenario != scenario.name) {
    throw DispatchError("recover: streams are for scenario '" + h.scenario +
                        "', not '" + scenario.name + "'");
  }
  // Campaign identity from the salvaged header; execution knobs (worker
  // threads) from the caller.
  CampaignOptions ropt = options;
  ropt.seed = h.seed;
  ropt.trials_per_point = h.trials_per_point;
  ropt.chunk_size = h.chunk_size;
  const std::size_t K = h.shard_count;
  const ShardPlan global = plan_shard(scenario, ropt, 1, 0);
  if (global.trials_per_point != h.trials_per_point ||
      global.point_count != h.point_count ||
      global.total_chunks != h.total_chunks) {
    throw DispatchError("recover: " + first->source +
                        " geometry disagrees with scenario '" +
                        scenario.name + "'");
  }

  DispatchReport rep;
  ChunkCover cover(global.total_chunks);
  for (const SalvagedStream& s : streams) {
    if (!accept_stream(s, scenario, h.seed, K, global, cover, rep).trailer) {
      ++rep.shards_dead;
    }
  }

  const std::vector<std::size_t> missing = cover.missing();
  if (!missing.empty()) {
    // One in-process repair execution covers every missing chunk —
    // chunk identity, not worker identity, keys the trial seeds, so
    // this is bit-identical to what the dead shards would have run.
    rep.rounds = 1;
    rep.chunks_redealt = missing.size();
    rep.tasks_retried = 1;
    const ShardExecution exec = run_campaign_chunks(
        scenario, ropt, make_repair_plan(scenario, ropt, K, 0, missing));
    for (std::size_t c = 0; c < exec.plan.chunks.size(); ++c) {
      const std::size_t id = exec.plan.chunks[c].chunk_index;
      cover.metrics[id] = exec.chunk_metrics[c];
      cover.accepted[id] = true;
    }
    ++rep.streams_complete;
    ++rep.metrics.shards;
    rep.metrics.threads += exec.threads;
    rep.metrics.wall_ns +=
        static_cast<std::uint64_t>(exec.wall_seconds * 1e9);
    rep.metrics.report.merge(exec.metrics);
  }

  add_dispatch_counters(rep);
  CampaignResult result = fold_canonical(scenario, h.seed, global, cover);
  if (report != nullptr) *report = std::move(rep);
  return result;
}

}  // namespace hs::campaign
