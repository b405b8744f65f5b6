// Campaign CLI: runs any named scenario preset across the worker pool
// and emits CSV/JSON aggregates; runs one shard of a multi-process
// campaign (--shards/--shard/--emit-chunks) writing a mergeable chunk
// stream; merges shard streams back into reports byte-identical to a
// serial run (--merge); recovers partial shard streams (--recover); and
// runs the whole campaign through the fault-tolerant dispatcher
// (--dispatch). Aggregates are bit-identical across every mode and
// thread count by construction. main() parses the flags once and hands
// the run to one function per mode.
//
// Observability: --metrics-json writes the merged counter/phase-timer
// report (serial, parallel, per-shard, or aggregated across shards by
// --merge from the chunk-stream trailers); --trace writes a Chrome
// trace-event timeline (chrome://tracing / Perfetto) of workers and
// chunks. Neither changes any aggregate or report byte (see
// src/obs/metrics.hpp).
//
// `--list [--json]` prints the preset list and takes no other flag.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/chunk_stream.hpp"
#include "campaign/dispatch.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "wire/cli.hpp"

using namespace hs;
using wire::flag_u32;
using wire::flag_u64;
using wire::flag_value;

namespace {

void list_presets(std::FILE* out) {
  std::fprintf(out, "%-28s %-26s %s\n", "scenario", "reproduces",
               "description");
  for (const auto& s : campaign::scenario_presets()) {
    char shape[48];
    std::snprintf(shape, sizeof shape, "  (%zu points x %zu trials)",
                  s.point_count(), s.default_trials);
    std::fprintf(out, "%-28s %-26s %s%s\n", s.name.c_str(),
                 s.paper_ref.c_str(), s.description.c_str(), shape);
  }
}

/// `--list --json`: the preset list as machine-readable JSON, so scripts
/// and CI matrix generators need not scrape the human table.
void list_presets_json(std::FILE* out) {
  std::string doc = "[\n";
  const auto& presets = campaign::scenario_presets();
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const auto& s = presets[i];
    doc += "  {\"name\": \"" + campaign::json_escape(s.name) +
           "\", \"paper_ref\": \"" + campaign::json_escape(s.paper_ref) +
           "\", \"description\": \"" + campaign::json_escape(s.description) +
           "\", \"kind\": \"" +
           std::string(campaign::experiment_kind_name(s.kind)) +
           "\", \"axis\": \"" +
           std::string(campaign::axis_name(s.axis)) + "\"";
    char shape[96];
    std::snprintf(shape, sizeof shape,
                  ", \"points\": %zu, \"trials\": %zu, "
                  "\"units_per_trial\": %zu}",
                  s.point_count(), s.default_trials, s.units_per_trial);
    doc += shape;
    doc += i + 1 < presets.size() ? ",\n" : "\n";
  }
  doc += "]\n";
  std::fputs(doc.c_str(), out);
}

/// `--version`: every schema this binary reads or writes, one per line,
/// machine-greppable. Scripts and CI use it to confirm a binary and a
/// recorded artifact speak the same format.
void print_versions(std::FILE* out) {
  std::fprintf(out, "chunk-stream %d\nmetrics %d\ntrace %d\n",
               campaign::kChunkStreamVersion, obs::kMetricsVersion,
               obs::kTraceVersion);
}

int usage(const char* argv0, bool is_error) {
  // Help goes to stdout (it was asked for); an unknown flag's usage dump
  // goes to stderr so it cannot pollute piped CSV/JSON output.
  std::fprintf(
      is_error ? stderr : stdout,
      "usage: %s [--scenario=NAME] [--seed=N]\n"
      "          [--trials=N] [--threads=N] [--chunk=N] [--canonical]\n"
      "          [--csv=PATH] [--json=PATH]\n"
      "          [--metrics-json=PATH] [--trace=PATH] [--version]\n"
      "          [--timeout-seconds=N]\n"
      "       %s --list [--json]\n"
      "       %s --shards=K --shard=I --emit-chunks=PATH [run options]\n"
      "          [--chunks=ID,ID,...] [--fault-plan=SPEC]\n"
      "       %s --merge A.jsonl B.jsonl ... [--csv=PATH] [--json=PATH]\n"
      "          [--metrics-json=PATH]\n"
      "       %s --recover A.jsonl B.jsonl ... [--threads=N] [--csv=PATH]\n"
      "          [--json=PATH] [--metrics-json=PATH]\n"
      "       %s --dispatch --shards=K [--executor=thread|process]\n"
      "          [--workdir=DIR] [--fault-plan=SPEC]\n"
      "          [run options] [--csv=PATH] [--json=PATH]\n"
      "          [--metrics-json=PATH]\n"
      "  Every value flag also accepts the space-separated form\n"
      "  (--shards 3). --threads=0 uses all hardware threads (default).\n"
      "  --list --json emits the preset list as machine-readable JSON;\n"
      "  --list takes no other flag.\n"
      "  --canonical zeroes the runtime fields (wall time, threads) in\n"
      "  reports so they diff cleanly against a --merge report.\n"
      "  --shards/--shard/--emit-chunks run one deterministic shard of\n"
      "  the campaign and write its chunk stream (JSONL); shards never\n"
      "  communicate, and --merge folds their streams into aggregates\n"
      "  byte-identical to the serial run (--dispatch\n"
      "  --executor=process runs the whole flow as child processes).\n"
      "  --metrics-json writes the counter + phase-timer report (schema\n"
      "  in docs/REPRODUCING.md); in --merge mode it aggregates the K\n"
      "  shard trailers. --trace writes a Chrome trace-event timeline\n"
      "  (load in chrome://tracing or Perfetto). Neither changes any\n"
      "  aggregate or report byte. --version prints the schema versions\n"
      "  this binary speaks.\n"
      "  --chunks runs an explicit chunk-id set (a dispatcher re-deal)\n"
      "  instead of the round-robin deal; the stream is written in\n"
      "  repair mode. --fault-plan injects deterministic faults into\n"
      "  this shard's stream (kill:I@C, trunc:I@BYTES, truncl:I@LINES,\n"
      "  delay:I@WAVES, corrupt:I@LINE, comma-separated); a kill exits\n"
      "  with status 70 after writing the truncated stream.\n"
      "  --timeout-seconds aborts a hung run: if the campaign has not\n"
      "  finished after N seconds the process prints a partial-progress\n"
      "  line (chunks completed) to stderr and exits with status 124.\n"
      "  --recover salvages the valid prefix of each (possibly\n"
      "  truncated/corrupted/missing) stream, re-runs only the missing\n"
      "  chunks in-process, and writes reports byte-identical to the\n"
      "  serial run. --dispatch runs the whole campaign through the\n"
      "  fault-tolerant dispatcher (thread executor, or process\n"
      "  executor spawning this binary; --workdir, which must exist,\n"
      "  holds the child streams).\n",
      argv0, argv0, argv0, argv0, argv0, argv0);
  return is_error ? 1 : 0;
}

/// `--timeout-seconds`: a detached-from-the-campaign watchdog thread.
/// If the campaign has not finished when the deadline passes, it prints
/// a partial-progress line (chunks completed out of the known total, fed
/// by CampaignOptions::chunks_completed) to stderr and hard-exits with
/// status 124 — the conventional timeout status — so CI can tell a hang
/// from a crash. _Exit skips destructors on purpose: worker threads are
/// by definition wedged.
class Watchdog {
 public:
  Watchdog(std::uint64_t timeout_seconds, const std::string& label,
           std::atomic<std::size_t>* progress)
      : progress_(progress) {
    if (timeout_seconds == 0) return;
    thread_ = std::thread([this, timeout_seconds, label] {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_for(lock, std::chrono::seconds(timeout_seconds),
                       [this] { return done_; })) {
        return;
      }
      std::string done = std::to_string(progress_->load());
      if (total_chunks_ > 0) done += '/' + std::to_string(total_chunks_);
      std::fprintf(stderr,
                   "FATAL: %s timed out after %llu s: %s chunk(s) "
                   "completed\n",
                   label.c_str(),
                   static_cast<unsigned long long>(timeout_seconds),
                   done.c_str());
      std::_Exit(124);
    });
  }

  /// Arms the "c/C" form of the progress line once the chunk plan is
  /// known. Safe to skip — the watchdog then reports the bare count.
  void set_total_chunks(std::size_t total) {
    std::lock_guard<std::mutex> lock(mutex_);
    total_chunks_ = total;
  }

  ~Watchdog() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::atomic<std::size_t>* progress_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::size_t total_chunks_ = 0;  ///< guarded by mutex_
  std::thread thread_;
};

/// The whole command line, parsed once; each mode reads what it needs.
struct Cli {
  const char* argv0 = "";
  std::string scenario_name = "fig9-eaves-ber";
  campaign::CampaignOptions options;
  std::string csv_path, json_path, emit_chunks_path;
  std::string metrics_json_path, trace_path;
  std::string fault_plan_spec, chunks_spec, executor_name = "thread";
  std::string workdir;
  std::size_t shard_count = 0, shard_index = 0;
  std::uint64_t timeout_seconds = 0;
  bool have_shard_index = false, merge_mode = false, canonical = false;
  bool list_mode = false, list_json = false;
  bool recover_mode = false, dispatch_mode = false;
  std::vector<std::string> stream_files;  ///< --merge / --recover inputs
  /// First run-shaping flag seen, for the merge-mode conflict diagnostic
  /// (merging replays recorded streams; a --seed there would be ignored).
  const char* run_flag = nullptr;
  /// Campaign-identity flags specifically: --recover takes identity from
  /// the salvaged headers, so these conflict there while --threads &co
  /// (which shape the repair execution) do not.
  const char* identity_flag = nullptr;
  /// Last of --executor/--workdir seen; only --dispatch reads them.
  const char* dispatch_flag = nullptr;
  /// First argument other than --list and a bare --json, which --list
  /// refuses (listing reads no other flag).
  const char* non_list_arg = nullptr;
};

/// Parses argv into `cli`. Returns an exit status when the command line
/// alone ends the run (--version, --help, an unknown flag).
std::optional<int> parse_cli(int argc, char** argv, Cli& cli) {
  cli.argv0 = argv[0];
  cli.options.threads = 0;  // hardware concurrency
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    bool lists = false;  // --list, or a bare --json
    if (std::strcmp(arg, "--list") == 0) {
      cli.list_mode = lists = true;
    } else if (std::strcmp(arg, "--version") == 0) {
      print_versions(stdout);
      return 0;
    } else if ((value = flag_value(arg, "--metrics-json", argc, argv, &i))) {
      cli.metrics_json_path = value;
    } else if ((value = flag_value(arg, "--trace", argc, argv, &i))) {
      cli.trace_path = value;
    } else if (std::strcmp(arg, "--merge") == 0) {
      cli.merge_mode = true;
    } else if (std::strcmp(arg, "--recover") == 0) {
      cli.recover_mode = true;
    } else if (std::strcmp(arg, "--dispatch") == 0) {
      cli.dispatch_mode = true;
    } else if ((value = flag_value(arg, "--fault-plan", argc, argv, &i))) {
      cli.fault_plan_spec = value;
    } else if ((value = flag_value(arg, "--chunks", argc, argv, &i))) {
      cli.chunks_spec = value;
    } else if ((value = flag_value(arg, "--executor", argc, argv, &i))) {
      cli.executor_name = value;
      cli.dispatch_flag = "--executor";
    } else if ((value = flag_value(arg, "--workdir", argc, argv, &i))) {
      cli.workdir = value;
      cli.dispatch_flag = "--workdir";
    } else if ((value = flag_value(arg, "--timeout-seconds", argc, argv, &i))) {
      cli.timeout_seconds = flag_u64(value, "--timeout-seconds");
    } else if (std::strcmp(arg, "--canonical") == 0) {
      cli.canonical = true;
    } else if ((value = flag_value(arg, "--scenario", argc, argv, &i))) {
      cli.scenario_name = value;
      cli.run_flag = cli.identity_flag = "--scenario";
    } else if ((value = flag_value(arg, "--seed", argc, argv, &i))) {
      cli.options.seed = flag_u64(value, "--seed");
      cli.run_flag = cli.identity_flag = "--seed";
    } else if ((value = flag_value(arg, "--trials", argc, argv, &i))) {
      cli.options.trials_per_point = flag_u64(value, "--trials");
      cli.run_flag = cli.identity_flag = "--trials";
    } else if ((value = flag_value(arg, "--threads", argc, argv, &i))) {
      cli.options.threads = flag_u32(value, "--threads");
      cli.run_flag = "--threads";
    } else if ((value = flag_value(arg, "--chunk", argc, argv, &i))) {
      cli.options.chunk_size = flag_u64(value, "--chunk");
      cli.run_flag = cli.identity_flag = "--chunk";
    } else if ((value = flag_value(arg, "--shards", argc, argv, &i))) {
      cli.shard_count = flag_u64(value, "--shards");
    } else if ((value = flag_value(arg, "--shard", argc, argv, &i))) {
      cli.shard_index = flag_u64(value, "--shard");
      cli.have_shard_index = true;
    } else if ((value = flag_value(arg, "--emit-chunks", argc, argv, &i))) {
      cli.emit_chunks_path = value;
    } else if ((value = flag_value(arg, "--csv", argc, argv, &i))) {
      cli.csv_path = value;
    } else if ((value = flag_value(arg, "--json", argc, argv, &i))) {
      cli.json_path = value;
    } else if (std::strcmp(arg, "--json") == 0) {
      // Bare --json (no value) selects the machine-readable preset list;
      // --json=PATH / --json PATH stays the report destination above.
      cli.list_json = lists = true;
    } else if (arg[0] != '-' && (cli.merge_mode || cli.recover_mode)) {
      cli.stream_files.push_back(arg);
    } else {
      return usage(argv[0], std::strcmp(arg, "--help") != 0);
    }
    if (!lists && cli.non_list_arg == nullptr) cli.non_list_arg = arg;
  }
  return std::nullopt;
}

/// Writes the CSV/JSON reports that were asked for.
bool write_reports(const Cli& cli, const campaign::CampaignResult& result) {
  return (cli.csv_path.empty() ||
          campaign::write_file(cli.csv_path, campaign::to_csv(result))) &&
         (cli.json_path.empty() ||
          campaign::write_file(cli.json_path, campaign::to_json(result)));
}

/// Writes the --metrics-json document, if one was asked for.
bool write_metrics(const Cli& cli, const std::string& scenario_name,
                   std::uint64_t seed, std::size_t shards, unsigned threads,
                   double wall_seconds, const obs::Report& report) {
  return cli.metrics_json_path.empty() ||
         campaign::write_file(
             cli.metrics_json_path,
             campaign::metrics_report_json(scenario_name, seed, shards,
                                           threads, wall_seconds, report));
}

/// Writes the --trace timeline, if one was asked for.
bool write_trace(const Cli& cli) {
  return cli.options.trace == nullptr ||
         campaign::write_file(cli.trace_path, cli.options.trace->to_json());
}

/// The outputs of a result folded from shard streams. Its metrics are
/// the shards' summed trailers, so wall_seconds is the total compute
/// budget, not elapsed time. Returns the exit status.
int write_folded_outputs(const Cli& cli,
                         const campaign::CampaignResult& result,
                         const campaign::MergedMetrics& metrics) {
  const bool ok =
      write_reports(cli, result) &&
      write_metrics(cli, result.scenario.name, result.options.seed,
                    metrics.shards, metrics.threads,
                    static_cast<double>(metrics.wall_ns) / 1e9,
                    metrics.report);
  return ok ? 0 : 1;
}

int run_list(const Cli& cli) {
  if (cli.non_list_arg != nullptr) {
    std::fprintf(stderr,
                 "--list prints the preset list and reads no other flag "
                 "— %s would be silently ignored; drop it (--json is the "
                 "only companion)\n",
                 cli.non_list_arg);
    return 1;
  }
  if (cli.list_json) {
    list_presets_json(stdout);
  } else {
    list_presets(stdout);
  }
  return 0;
}

/// --recover: salvage partial streams, re-run what was lost.
int run_recover(const Cli& cli) {
  if (cli.stream_files.empty()) {
    std::fprintf(stderr,
                 "--recover needs the chunk-stream files of the "
                 "(possibly failed) shard runs\n");
    return 1;
  }
  if (!cli.emit_chunks_path.empty() || cli.shard_count > 0 ||
      cli.have_shard_index || !cli.trace_path.empty() ||
      !cli.fault_plan_spec.empty() || !cli.chunks_spec.empty()) {
    std::fprintf(stderr,
                 "--recover folds existing streams and re-runs only "
                 "missing chunks; it cannot be combined with "
                 "--emit-chunks, --shards, --shard, --trace, "
                 "--fault-plan or --chunks\n");
    return 1;
  }
  if (cli.identity_flag != nullptr) {
    std::fprintf(stderr,
                 "--recover takes the campaign identity from the "
                 "salvaged headers — %s would be silently ignored; "
                 "drop it (--threads still shapes the repair "
                 "execution)\n",
                 cli.identity_flag);
    return 1;
  }
  try {
    std::vector<campaign::SalvagedStream> streams;
    streams.reserve(cli.stream_files.size());
    for (const auto& path : cli.stream_files) {
      streams.push_back(campaign::salvage_chunk_stream_file(path));
      const auto& s = streams.back();
      if (s.complete) {
        std::fprintf(stderr, "recover: %s: complete (%zu chunks)\n",
                     path.c_str(), s.chunks.size());
      } else {
        // The reason names the stream and the line at fault.
        std::fprintf(stderr, "recover: salvaged %zu chunk(s) — %s\n",
                     s.chunks.size(), s.truncation_reason.c_str());
      }
    }
    const auto first_valid =
        std::find_if(streams.begin(), streams.end(),
                     [](const auto& s) { return s.header_valid; });
    if (first_valid == streams.end()) {
      std::fprintf(stderr, "recover: no stream has a salvageable header\n");
      return 1;
    }
    const campaign::Scenario* scenario =
        campaign::find_scenario(first_valid->header.scenario);
    if (!scenario) {
      std::fprintf(stderr, "unknown scenario '%s' in %s\n",
                   first_valid->header.scenario.c_str(),
                   first_valid->source.c_str());
      return 1;
    }
    campaign::DispatchReport drep;
    const auto result =
        campaign::recover_campaign(*scenario, cli.options, streams, &drep);
    campaign::print_summary(stdout, result);
    std::printf("\n  recovered: %zu stream(s) complete, %zu dead, "
                "%zu chunk(s) re-dealt, %zu duplicate(s) suppressed\n",
                drep.streams_complete, drep.shards_dead, drep.chunks_redealt,
                drep.chunks_duplicate);
    return write_folded_outputs(cli, result, drep.metrics);
  } catch (const campaign::DispatchError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

/// --merge: fold complete shard chunk streams into canonical reports.
int run_merge(const Cli& cli) {
  if (cli.stream_files.empty()) {
    std::fprintf(stderr, "--merge needs at least one chunk-stream file\n");
    return 1;
  }
  if (!cli.emit_chunks_path.empty() || cli.shard_count > 0 ||
      cli.have_shard_index) {
    std::fprintf(stderr,
                 "--merge folds existing chunk streams; it cannot be "
                 "combined with --emit-chunks, --shards or --shard\n");
    return 1;
  }
  if (!cli.trace_path.empty()) {
    std::fprintf(stderr,
                 "--merge replays recorded streams — there is no live "
                 "execution to trace; pass --trace to the shard runs "
                 "instead\n");
    return 1;
  }
  if (cli.run_flag != nullptr) {
    std::fprintf(stderr,
                 "--merge replays the streams' recorded campaign — %s "
                 "would be silently ignored; drop it (the header pins "
                 "scenario/seed/trials/chunk size)\n",
                 cli.run_flag);
    return 1;
  }
  try {
    std::vector<campaign::ChunkStream> streams;
    streams.reserve(cli.stream_files.size());
    for (const auto& path : cli.stream_files) {
      streams.push_back(campaign::load_chunk_stream(path));
    }
    const campaign::Scenario* scenario =
        campaign::find_scenario(streams.front().header.scenario);
    if (!scenario) {
      std::fprintf(stderr, "unknown scenario '%s' in %s\n",
                   streams.front().header.scenario.c_str(),
                   cli.stream_files.front().c_str());
      return 1;
    }
    campaign::MergedMetrics merged_metrics;
    const auto result =
        campaign::merge_chunk_streams(*scenario, streams, &merged_metrics);
    campaign::print_summary(stdout, result);
    std::printf("\n  merged %zu shard stream(s), %zu chunks verified\n",
                streams.size(), streams.front().header.total_chunks);
    return write_folded_outputs(cli, result, merged_metrics);
  } catch (const campaign::ChunkStreamError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

/// The flag combinations the dispatch, shard and serial modes refuse.
/// Prints the reason and returns false.
bool run_flags_ok(const Cli& cli) {
  if (cli.have_shard_index && cli.shard_count == 0) {
    std::fprintf(stderr, "--shard requires --shards=K\n");
    return false;
  }
  if (cli.dispatch_mode) {
    if (cli.shard_count == 0) {
      std::fprintf(stderr, "--dispatch requires --shards=K\n");
      return false;
    }
    if (cli.have_shard_index || !cli.emit_chunks_path.empty() ||
        !cli.chunks_spec.empty() || !cli.trace_path.empty()) {
      std::fprintf(stderr,
                   "--dispatch runs (and recovers) all K shards itself; "
                   "it cannot be combined with --shard, --emit-chunks, "
                   "--chunks or --trace\n");
      return false;
    }
    if (cli.executor_name != "thread" && cli.executor_name != "process") {
      std::fprintf(stderr, "--executor must be 'thread' or 'process'\n");
      return false;
    }
    if (cli.executor_name == "process" && cli.workdir.empty()) {
      std::fprintf(stderr,
                   "--executor=process needs --workdir=DIR (an existing "
                   "directory for the child shard streams)\n");
      return false;
    }
  } else if (cli.shard_count > 0 &&
             (!cli.have_shard_index || cli.emit_chunks_path.empty())) {
    std::fprintf(stderr,
                 "--shards needs both --shard=I and --emit-chunks=PATH "
                 "(a shard run only makes sense if its chunk stream is "
                 "kept for the merge)\n");
    return false;
  }
  if (!cli.chunks_spec.empty() && cli.shard_count == 0) {
    std::fprintf(stderr,
                 "--chunks re-runs an explicit chunk set as a repair "
                 "stream; it needs --shards/--shard/--emit-chunks\n");
    return false;
  }
  if (!cli.fault_plan_spec.empty() && cli.shard_count == 0) {
    std::fprintf(stderr,
                 "--fault-plan injects faults into a shard run or a "
                 "--dispatch campaign; it needs --shards\n");
    return false;
  }
  if (cli.shard_count > 0 && cli.shard_index >= cli.shard_count) {
    std::fprintf(stderr, "--shard=%zu out of range for --shards=%zu\n",
                 cli.shard_index, cli.shard_count);
    return false;
  }
  if (!cli.emit_chunks_path.empty() && cli.shard_count == 0) {
    std::fprintf(stderr, "--emit-chunks requires --shards and --shard\n");
    return false;
  }
  if (!cli.emit_chunks_path.empty() &&
      (!cli.csv_path.empty() || !cli.json_path.empty())) {
    std::fprintf(stderr,
                 "--emit-chunks writes one shard's chunk stream; partial "
                 "aggregates would be misleading — use --merge on all "
                 "shard streams to produce CSV/JSON reports\n");
    return false;
  }
  return true;
}

/// --dispatch: all K shards through the recovering dispatcher.
int run_dispatch(const Cli& cli, const campaign::Scenario& scenario) {
  try {
    campaign::DispatchOptions dopt;
    dopt.shard_count = cli.shard_count;
    dopt.faults = campaign::FaultPlan::parse(cli.fault_plan_spec);
    campaign::DispatchReport drep;
    campaign::CampaignResult result;
    if (cli.executor_name == "thread") {
      campaign::ThreadExecutor ex(scenario, cli.options);
      result = campaign::dispatch_campaign(scenario, cli.options, dopt, ex,
                                           &drep);
    } else {
      campaign::SubprocessExecutor ex(cli.argv0, cli.workdir, scenario.name,
                                      cli.options);
      result = campaign::dispatch_campaign(scenario, cli.options, dopt, ex,
                                           &drep);
    }
    campaign::print_summary(stdout, result);
    std::printf("\n  dispatched %zu shard(s) (%s executor): %zu recovery "
                "round(s), %zu chunk(s) re-dealt, %zu duplicate(s) "
                "suppressed, %zu dead, %zu straggler(s), %zu repair "
                "task(s)\n",
                cli.shard_count, cli.executor_name.c_str(), drep.rounds,
                drep.chunks_redealt, drep.chunks_duplicate, drep.shards_dead,
                drep.shards_straggler, drep.tasks_retried);
    return write_folded_outputs(cli, result, drep.metrics);
  } catch (const campaign::DispatchError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

/// --shards/--shard/--emit-chunks: run this shard's chunks, write the
/// stream.
int run_shard(const Cli& cli, const campaign::Scenario& scenario,
              Watchdog& watchdog) {
  campaign::ShardPlan plan;
  campaign::FaultPlan faults;
  try {
    faults = campaign::FaultPlan::parse(cli.fault_plan_spec);
    if (cli.chunks_spec.empty()) {
      plan = campaign::plan_shard(scenario, cli.options, cli.shard_count,
                                  cli.shard_index);
    } else {
      // Repair run: the explicit chunk ids a dispatcher re-dealt here.
      std::vector<std::size_t> ids;
      const std::string& spec = cli.chunks_spec;
      std::size_t start = 0;
      while (start <= spec.size()) {
        std::size_t end = spec.find(',', start);
        if (end == std::string::npos) end = spec.size();
        const std::string token = spec.substr(start, end - start);
        if (!token.empty()) ids.push_back(flag_u64(token.c_str(), "--chunks"));
        start = end + 1;
      }
      plan = campaign::make_repair_plan(scenario, cli.options,
                                        cli.shard_count, cli.shard_index, ids);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  watchdog.set_total_chunks(plan.chunks.size());
  const auto exec =
      campaign::run_campaign_chunks(scenario, cli.options, std::move(plan));
  bool fault_killed = false;
  const std::string stream_text = campaign::apply_stream_faults(
      faults, cli.shard_index,
      campaign::serialize_chunk_stream(scenario, cli.options, exec),
      &fault_killed);
  if (!campaign::write_file(cli.emit_chunks_path, stream_text)) return 1;
  if (fault_killed) {
    // The injected crash: the truncated stream is on disk, the process
    // dies with a distinctive status (EX_SOFTWARE) for the dispatcher to
    // observe.
    std::fprintf(stderr, "fault-plan: shard %zu killed (stream truncated)\n",
                 cli.shard_index);
    return 70;
  }
  if (!write_metrics(cli, scenario.name, cli.options.seed, 1, exec.threads,
                     exec.wall_seconds, exec.metrics) ||
      !write_trace(cli)) {
    return 1;
  }
  std::size_t shard_trials = 0;
  for (const auto& c : exec.plan.chunks) {
    shard_trials += c.trial_end - c.trial_begin;
  }
  std::printf("shard %zu/%zu of %s: %zu/%zu chunks (%zu trials), "
              "%u thread(s), %.2fs (%.1f trials/s) -> %s\n",
              cli.shard_index, cli.shard_count, scenario.name.c_str(),
              exec.plan.chunks.size(), exec.plan.total_chunks, shard_trials,
              exec.threads, exec.wall_seconds,
              exec.wall_seconds > 0.0
                  ? static_cast<double>(shard_trials) / exec.wall_seconds
                  : 0.0,
              cli.emit_chunks_path.c_str());
  return 0;
}

/// The plain run: the whole campaign in this process.
int run_serial(const Cli& cli, const campaign::Scenario& scenario,
               Watchdog& watchdog) {
  watchdog.set_total_chunks(
      campaign::plan_shard(scenario, cli.options, 1, 0).chunks.size());
  const auto result = campaign::run_campaign(scenario, cli.options);
  campaign::print_summary(stdout, result);
  auto report = result;
  if (cli.canonical) campaign::canonicalize(report);
  const bool ok = write_reports(cli, report) &&
                  write_metrics(cli, scenario.name, cli.options.seed, 1,
                                result.options.threads, result.wall_seconds,
                                result.metrics) &&
                  write_trace(cli);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (const auto status = parse_cli(argc, argv, cli)) return *status;
  if (cli.dispatch_flag != nullptr && !cli.dispatch_mode) {
    std::fprintf(stderr,
                 "%s is read only by --dispatch; without it the flag "
                 "would be silently ignored\n",
                 cli.dispatch_flag);
    return 1;
  }

  if (cli.list_mode) return run_list(cli);
  if (cli.list_json) {
    std::fprintf(stderr, "bare --json selects the JSON preset list and "
                         "needs --list (use --json=PATH for a report)\n");
    return 1;
  }
  if (cli.merge_mode + cli.recover_mode + cli.dispatch_mode > 1) {
    std::fprintf(stderr,
                 "--merge, --recover and --dispatch are mutually "
                 "exclusive modes\n");
    return 1;
  }

  // `--timeout-seconds` watchdog. Armed here so it covers every
  // executing mode (normal run, shard, --recover re-runs, --dispatch)
  // and even a wedged --merge parse; the chunk progress counter is fed
  // by the runner through CampaignOptions::chunks_completed.
  std::atomic<std::size_t> watchdog_chunks{0};
  if (cli.timeout_seconds > 0) cli.options.chunks_completed = &watchdog_chunks;
  Watchdog watchdog(cli.timeout_seconds, "campaign_runner", &watchdog_chunks);

  if (cli.recover_mode) return run_recover(cli);
  if (cli.merge_mode) return run_merge(cli);
  if (!run_flags_ok(cli)) return 1;

  const campaign::Scenario* scenario =
      campaign::find_scenario(cli.scenario_name);
  if (!scenario) {
    std::fprintf(stderr, "unknown scenario '%s'; valid presets:\n\n",
                 cli.scenario_name.c_str());
    list_presets(stderr);
    return 1;
  }
  if (cli.options.threads == 0) {
    cli.options.threads = std::max(1u, std::thread::hardware_concurrency());
  }

  // Observability wiring: timers are collected exactly when a metrics
  // report was requested; the trace recorder lives here (CLI scope) and
  // the runner only buffers into it. In shard mode the recorder's pid is
  // the shard index, so merged timelines from K processes stay distinct.
  cli.options.metrics_timers = !cli.metrics_json_path.empty();
  obs::TraceRecorder trace_recorder(
      static_cast<std::uint32_t>(cli.shard_index));
  if (!cli.trace_path.empty()) cli.options.trace = &trace_recorder;

  if (cli.dispatch_mode) return run_dispatch(cli, *scenario);
  if (cli.shard_count > 0) return run_shard(cli, *scenario, watchdog);
  return run_serial(cli, *scenario, watchdog);
}
