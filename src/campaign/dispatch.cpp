#include "campaign/dispatch.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
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
        break;  // a delivery fault; Executor::deliver consults delay_waves()
    }
  }
  return text;
}

// ---------------------------------------------------------------------------
// Executor: delivery

std::vector<TaskOutcome> Executor::deliver(const std::vector<ShardTask>& tasks,
                                           std::vector<TaskOutcome> outcomes) {
  // Task order (the counters are first-wins order-sensitive, though the
  // aggregates never are).
  std::vector<TaskOutcome> due;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const std::size_t waves = tasks[i].faults.delay_waves(tasks[i].slot);
    if (waves > 0) {
      withheld_.push_back(Withheld{std::move(outcomes[i]), waves});
    } else {
      due.push_back(std::move(outcomes[i]));
    }
  }
  return due;
}

std::vector<TaskOutcome> Executor::collect_delayed() {
  std::vector<TaskOutcome> due;
  for (auto it = withheld_.begin(); it != withheld_.end();) {
    if (--it->waves_left == 0) {
      due.push_back(std::move(it->outcome));
      it = withheld_.erase(it);
    } else {
      ++it;
    }
  }
  return due;
}

std::vector<TaskOutcome> Executor::drain() {
  std::vector<TaskOutcome> due;
  for (Withheld& w : withheld_) due.push_back(std::move(w.outcome));
  withheld_.clear();
  return due;
}

// ---------------------------------------------------------------------------
// ThreadExecutor

ThreadExecutor::ThreadExecutor(const Scenario& scenario,
                               const CampaignOptions& options)
    : scenario_(scenario), options_(options) {
  // Task results are consumed as serialized text; trace buffers belong
  // to real shard processes, not dispatch tasks.
  options_.trace = nullptr;
}

std::vector<TaskOutcome> ThreadExecutor::run_wave(
    const std::vector<ShardTask>& tasks) {
  std::vector<TaskOutcome> outcomes(tasks.size());
  std::vector<std::exception_ptr> errors(tasks.size());
  std::vector<std::thread> threads;
  threads.reserve(tasks.size());
  const auto join_all = [&threads] {
    for (auto& t : threads) t.join();
  };
  try {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      threads.emplace_back([this, &tasks, &outcomes, &errors, i] {
        const ShardTask& task = tasks[i];
        try {
          const ShardExecution exec =
              run_campaign_chunks(scenario_, options_, task.plan);
          outcomes[i].stream_text = apply_stream_faults(
              task.faults, task.slot,
              serialize_chunk_stream(scenario_, options_, exec), nullptr);
          outcomes[i].source = "thread slot " + std::to_string(task.slot) +
                               " gen " + std::to_string(task.generation);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
  } catch (...) {
    join_all();  // a thread that failed to start: finish the started ones
    throw;
  }
  join_all();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return deliver(tasks, std::move(outcomes));
}

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
                                       CampaignOptions options)
    : runner_path_(std::move(runner_path)),
      workdir_(std::move(workdir)),
      scenario_name_(std::move(scenario_name)),
      options_(options) {}

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
    } else if (!task.faults.empty()) {
      cmd += " --fault-plan=" + shell_quote(task.faults.to_string());
    }
    cmd += " >/dev/null";  // stderr passes through: failures stay visible
    child.pipe = ::popen(cmd.c_str(), "r");
    if (child.pipe == nullptr) {
      // Reap the children already started, so a caller that survives the
      // error keeps neither their pipes nor unwaited processes.
      for (std::size_t j = 0; j < i; ++j) ::pclose(children[j].pipe);
      throw DispatchError("dispatch: popen failed for slot " +
                          std::to_string(task.slot));
    }
  }

  std::vector<TaskOutcome> outcomes(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    // The exit status tells nothing the stream does not: a dead child's
    // stream is whatever it wrote before dying — possibly nothing; an
    // unreadable file is data loss, not an error.
    ::pclose(children[i].pipe);
    outcomes[i].source = children[i].path;
    std::string text;
    if (wire::read_whole_file(children[i].path, text) ==
        wire::FileReadStatus::kOk) {
      outcomes[i].stream_text = std::move(text);
    }
  }
  return deliver(tasks, std::move(outcomes));
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

/// The recovery loop dispatch_campaign and recover_campaign share. The
/// global chunk enumeration is the single source of truth: every
/// accepted record must match it exactly, and every id must end up
/// covered.
///
/// Each round accepts the streams the executor delivers. A stream whose
/// header disagrees with the campaign geometry contributes nothing.
/// Otherwise its records, which salvage already checked one by one
/// under the strict rules, are pinned to the global enumeration (a
/// stream from a different build or a hand-edited geometry cannot
/// smuggle a mislabeled chunk in) and accepted first-wins by chunk id.
/// Duplicates are bit-identical by determinism, so which copy merges
/// never matters. Only a complete stream's trailer is trustworthy
/// accounting: a salvaged prefix merges its records but forfeits its
/// counters. The ids still missing are then re-dealt round-robin over up
/// to K repair tasks, for at most `max_rounds` rounds.
///
/// `seeded` streams are accepted before the first round, whose wave is
/// `tasks` (the initial deal, or nothing when the streams already
/// exist). The result is canonical: runtime fields zeroed, exactly as
/// merge_chunk_streams produces.
CampaignResult recover_chunks(const Scenario& scenario,
                              const CampaignOptions& options,
                              std::size_t K, std::size_t max_rounds,
                              const std::vector<SalvagedStream>& seeded,
                              std::vector<ShardTask> tasks,
                              Executor& executor, DispatchReport* report) {
  const ShardPlan global = plan_shard(scenario, options, 1, 0);
  DispatchReport rep;
  std::vector<ChunkMetrics> metrics(global.total_chunks);
  std::vector<bool> accepted(global.total_chunks, false);
  std::vector<bool> slot_complete(K, false);

  const auto accept = [&](const SalvagedStream& s, bool late) {
    const ChunkStreamHeader& h = s.header;
    if (!s.header_valid || h.scenario != scenario.name ||
        h.seed != options.seed ||
        h.trials_per_point != global.trials_per_point ||
        h.chunk_size != global.chunk_size || h.shard_count != K ||
        h.point_count != global.point_count ||
        h.total_chunks != global.total_chunks) {
      return;
    }
    std::size_t duplicates = 0;
    for (const ChunkRecord& rec : s.chunks) {
      const std::size_t id = rec.ref.chunk_index;
      if (!(rec.ref == global.chunks[id])) break;
      if (accepted[id]) {
        ++duplicates;
        continue;
      }
      metrics[id] = rec.metrics;
      accepted[id] = true;
    }
    rep.chunks_duplicate += duplicates;
    if (late && duplicates > 0) ++rep.shards_straggler;
    if (!s.complete) return;
    if (!h.repair) slot_complete[h.shard_index] = true;
    ++rep.streams_complete;
    ++rep.metrics.shards;
    rep.metrics.threads += s.trailer.threads;
    rep.metrics.wall_ns += s.trailer.wall_ns;
    rep.metrics.report.merge(s.trailer.report);
  };
  const auto accept_all = [&](const std::vector<TaskOutcome>& outcomes,
                              bool late) {
    for (const TaskOutcome& o : outcomes) {
      accept(salvage_chunk_stream(o.stream_text, o.source), late);
    }
  };

  for (const SalvagedStream& s : seeded) accept(s, false);
  for (std::size_t round = 0;; ++round) {
    accept_all(executor.run_wave(tasks), false);
    accept_all(executor.collect_delayed(), true);

    std::vector<std::size_t> missing;
    for (std::size_t id = 0; id < accepted.size(); ++id) {
      if (!accepted[id]) missing.push_back(id);
    }
    if (missing.empty()) break;
    if (round >= max_rounds) {
      throw DispatchError(
          "dispatch: " + std::to_string(missing.size()) +
          " chunk(s) still missing after " + std::to_string(round) +
          " recovery round(s) (first missing id " +
          std::to_string(missing.front()) + ")");
    }

    // Re-deal ONLY the missing ids, round-robin over the worker slots.
    rep.rounds = round + 1;
    rep.chunks_redealt += missing.size();
    tasks.assign(std::min(K, missing.size()), ShardTask{});
    for (std::size_t j = 0; j < tasks.size(); ++j) {
      std::vector<std::size_t> ids;
      for (std::size_t m = j; m < missing.size(); m += tasks.size()) {
        ids.push_back(missing[m]);
      }
      tasks[j].slot = j;
      tasks[j].generation = round + 1;
      tasks[j].plan = make_repair_plan(scenario, options, K, j, ids);
    }
    rep.tasks_retried += tasks.size();
  }

  // Account stragglers that were still in flight when recovery finished.
  accept_all(executor.drain(), true);
  for (std::size_t i = 0; i < K; ++i) {
    if (!slot_complete[i]) ++rep.shards_dead;
  }

  add_dispatch_counters(rep);
  CampaignOptions canonical;
  canonical.seed = options.seed;
  canonical.trials_per_point = global.trials_per_point;
  canonical.chunk_size = global.chunk_size;
  canonical.threads = 0;
  CampaignResult result = fold_chunks(scenario, canonical, global, metrics);
  if (report != nullptr) *report = std::move(rep);
  return result;
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
  // Initial deal: the same round-robin plans a faultless sharded run
  // uses, one task per slot, each carrying its slot's faults.
  std::vector<ShardTask> tasks(K);
  for (std::size_t i = 0; i < K; ++i) {
    tasks[i].slot = i;
    tasks[i].plan = plan_shard(scenario, options, K, i);
    tasks[i].faults = dispatch.faults.for_shard(i);
  }
  return recover_chunks(scenario, options, K, dispatch.max_rounds, {},
                        std::move(tasks), executor, report);
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
  const ShardPlan global = plan_shard(scenario, ropt, 1, 0);
  if (global.trials_per_point != h.trials_per_point ||
      global.point_count != h.point_count ||
      global.total_chunks != h.total_chunks) {
    throw DispatchError("recover: " + first->source +
                        " geometry disagrees with scenario '" +
                        scenario.name + "'");
  }
  // This process is the repair executor. Chunk identity, not worker
  // identity, keys the trial seeds, so a repaired chunk is bit-identical
  // to what the dead shard would have run.
  ThreadExecutor executor(scenario, ropt);
  return recover_chunks(scenario, ropt, h.shard_count,
                        DispatchOptions{}.max_rounds, streams, {}, executor,
                        report);
}

}  // namespace hs::campaign
