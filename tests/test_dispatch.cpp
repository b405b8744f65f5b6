// Fault-tolerant dispatcher correctness: (1) Dispatch.KillMatrix* — for
// K in {2,3,7} across three presets, kill EVERY shard after EVERY chunk
// count; the recovered merge must be byte-identical (CSV and JSON) to
// the serial canonical run. (2) stream faults (truncation, corruption)
// recover the same way; (3) a delayed straggler finishing after its
// chunks were re-dealt is suppressed without double-merging and the
// executed-trial accounting stays exact; (4) FaultPlan text form
// round-trips and rejects malformed specs, and a fault aimed past the
// last shard is refused; (5) recover_campaign folds damaged on-disk
// streams back to the serial bytes; (6) unrecoverable loss (max_rounds
// exhausted) raises DispatchError instead of emitting a short report;
// (7) SubprocessExecutor recovers a really killed campaign_runner child
// (HS_CAMPAIGN_RUNNER, built alongside this test) to the serial bytes,
// with the children's phase timers reaching the parent's report; (8)
// that binary refuses the dispatch-only flags outside --dispatch; (9) a
// trial that throws fails its campaign on the serial, pooled and
// dispatched paths instead of terminating the process; (10) the
// Executor base class withholds each delay-faulted outcome for its
// waves and never a repair task's; (11) a SubprocessExecutor wave whose
// third launch fails reaps the two children it started.
#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "campaign/chunk_stream.hpp"
#include "campaign/dispatch.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/shard.hpp"
#include "obs/metrics.hpp"
#include "wire/file.hpp"

namespace hs::campaign {
namespace {

Scenario shrunk(const char* preset, std::vector<double> axis_values,
                std::size_t units_per_trial) {
  const Scenario* s = find_scenario(preset);
  EXPECT_NE(s, nullptr) << preset;
  Scenario out = *s;
  if (!axis_values.empty()) out.axis_values = std::move(axis_values);
  out.units_per_trial = units_per_trial;
  return out;
}

CampaignOptions small_options() {
  CampaignOptions opt;
  opt.seed = 13;
  opt.threads = 1;
  opt.trials_per_point = 4;
  return opt;
}

/// The ground truth every recovery must reproduce: the serial run,
/// canonicalized exactly like dispatch_campaign's fold.
struct Baseline {
  std::string csv;
  std::string json;
};

Baseline serial_baseline(const Scenario& s, const CampaignOptions& opt) {
  CampaignResult serial = run_campaign(s, opt);
  canonicalize(serial);
  return {to_csv(serial), to_json(serial)};
}

void expect_matches(const CampaignResult& result, const Baseline& want,
                    const std::string& label) {
  EXPECT_EQ(to_csv(result), want.csv) << label;
  EXPECT_EQ(to_json(result), want.json) << label;
}

/// Sweeps the full kill matrix for one preset: every shard of every K,
/// killed after every possible number of completed chunk records
/// (including "all of them", which still drops the trailer — a dead
/// shard with nothing missing).
void sweep_kill_matrix(const char* preset, std::vector<double> axis) {
  const Scenario s = shrunk(preset, std::move(axis), 1);
  const CampaignOptions opt = small_options();
  const Baseline want = serial_baseline(s, opt);
  for (std::size_t k : {std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
    for (std::size_t shard = 0; shard < k; ++shard) {
      const std::size_t chunks = plan_shard(s, opt, k, shard).chunks.size();
      for (std::size_t after = 0; after <= chunks; ++after) {
        DispatchOptions d;
        d.shard_count = k;
        d.faults = FaultPlan::parse("kill:" + std::to_string(shard) + "@" +
                                    std::to_string(after));
        ThreadExecutor exec(s, opt);
        DispatchReport rep;
        const CampaignResult got = dispatch_campaign(s, opt, d, exec, &rep);
        const std::string label = std::string(preset) + " K=" +
                                  std::to_string(k) + " kill:" +
                                  std::to_string(shard) + "@" +
                                  std::to_string(after);
        expect_matches(got, want, label);
        EXPECT_EQ(rep.shards_dead, 1u) << label;
        EXPECT_EQ(rep.chunks_redealt, chunks - after) << label;
        EXPECT_EQ(rep.metrics.report.counter(obs::Counter::kChunksRedealt),
                  chunks - after)
            << label;
        if (after < chunks) {
          EXPECT_GE(rep.tasks_retried, 1u) << label;
          EXPECT_EQ(rep.rounds, 1u) << label;
        } else {
          // Every record salvaged; only the trailer died with the shard.
          EXPECT_EQ(rep.tasks_retried, 0u) << label;
          EXPECT_EQ(rep.rounds, 0u) << label;
        }
      }
    }
  }
}

TEST(Dispatch, KillMatrixFig5JamShaped) { sweep_kill_matrix("fig5-jam-shaped", {}); }

TEST(Dispatch, KillMatrixFig8Tradeoff) { sweep_kill_matrix("fig8-tradeoff", {10, 20}); }

TEST(Dispatch, KillMatrixFig11Trigger) { sweep_kill_matrix("fig11-trigger", {1, 9}); }

TEST(Dispatch, NoFaultsIsByteIdenticalAndQuiet) {
  const Scenario s = shrunk("fig8-tradeoff", {10, 20}, 1);
  const CampaignOptions opt = small_options();
  const Baseline want = serial_baseline(s, opt);
  DispatchOptions d;
  d.shard_count = 3;
  ThreadExecutor exec(s, opt);
  DispatchReport rep;
  expect_matches(dispatch_campaign(s, opt, d, exec, &rep), want, "clean");
  EXPECT_EQ(rep.rounds, 0u);
  EXPECT_EQ(rep.chunks_redealt, 0u);
  EXPECT_EQ(rep.chunks_duplicate, 0u);
  EXPECT_EQ(rep.shards_dead, 0u);
  EXPECT_EQ(rep.shards_straggler, 0u);
  EXPECT_EQ(rep.streams_complete, 3u);
}

TEST(Dispatch, RecoversFromTruncationAndCorruption) {
  const Scenario s = shrunk("fig11-trigger", {1, 9}, 1);
  const CampaignOptions opt = small_options();
  const Baseline want = serial_baseline(s, opt);
  // Byte truncation deep enough to lose records, line truncation that
  // keeps only the header, and a single-byte corruption — on distinct
  // shards, all in one dispatch.
  DispatchOptions d;
  d.shard_count = 3;
  d.faults = FaultPlan::parse("trunc:0@120,truncl:1@1,corrupt:2@2");
  ThreadExecutor exec(s, opt);
  DispatchReport rep;
  expect_matches(dispatch_campaign(s, opt, d, exec, &rep), want,
                 "trunc+corrupt");
  EXPECT_EQ(rep.shards_dead, 3u);
  EXPECT_GT(rep.chunks_redealt, 0u);
  EXPECT_EQ(rep.rounds, 1u);
}

TEST(Dispatch, StragglerAfterRedealDoesNotDoubleMerge) {
  const Scenario s = shrunk("fig9-eaves-ber", {4, 12}, 1);
  CampaignOptions opt = small_options();
  opt.chunk_size = 1;
  const Baseline want = serial_baseline(s, opt);
  const std::size_t straggler_chunks = plan_shard(s, opt, 2, 1).chunks.size();

  DispatchOptions d;
  d.shard_count = 2;
  // Shard 1's (complete, correct) stream arrives two collect waves late:
  // after its chunks were re-dealt and the repair results merged.
  d.faults = FaultPlan::parse("delay:1@2");
  ThreadExecutor exec(s, opt);
  DispatchReport rep;
  const CampaignResult got = dispatch_campaign(s, opt, d, exec, &rep);
  expect_matches(got, want, "straggler");

  EXPECT_EQ(rep.shards_straggler, 1u);
  EXPECT_EQ(rep.chunks_duplicate, straggler_chunks);
  EXPECT_EQ(rep.chunks_redealt, straggler_chunks);
  EXPECT_EQ(got.total_trials, opt.trials_per_point * s.axis_values.size());

  // Executed-work accounting: every complete stream's trailer counts —
  // the straggler AND the repair tasks that re-ran its chunks. With
  // chunk_size=1, executed trials exceed merged trials by exactly the
  // suppressed duplicates, and the deployment pool accounts for every
  // executed trial.
  const obs::Report& m = rep.metrics.report;
  EXPECT_EQ(m.counter(obs::Counter::kTrials),
            got.total_trials + rep.chunks_duplicate);
  EXPECT_EQ(m.counter(obs::Counter::kDeploymentsBuilt) +
                m.counter(obs::Counter::kDeploymentsReused),
            m.counter(obs::Counter::kTrials));
  EXPECT_EQ(m.counter(obs::Counter::kShardsStraggler), 1u);
  EXPECT_EQ(m.counter(obs::Counter::kChunksDuplicate), straggler_chunks);
}

TEST(Dispatch, UnrecoverableLossRaisesAfterMaxRounds) {
  const Scenario s = shrunk("fig5-jam-shaped", {}, 1);
  const CampaignOptions opt = small_options();
  DispatchOptions d;
  d.shard_count = 2;
  d.max_rounds = 0;  // any loss is immediately unrecoverable
  d.faults = FaultPlan::parse("kill:1@0");
  ThreadExecutor exec(s, opt);
  EXPECT_THROW(dispatch_campaign(s, opt, d, exec), DispatchError);
}

TEST(Dispatch, FaultPastTheLastShardIsRefused) {
  const Scenario s = shrunk("fig8-tradeoff", {10, 20}, 1);
  const CampaignOptions opt = small_options();
  DispatchOptions d;
  d.shard_count = 3;
  d.faults = FaultPlan::parse("kill:5@3");
  ThreadExecutor exec(s, opt);
  EXPECT_THROW(dispatch_campaign(s, opt, d, exec), DispatchError);
}

TEST(Dispatch, ATrialThatThrowsFailsTheCampaignOnEveryPath) {
  // Zero samples per symbol: every trial's FskModulator throws.
  Scenario s = shrunk("fig3-imd-timing", {}, 1);
  s.imd_profiles[0].fsk.sps = 0;
  CampaignOptions opt = small_options();
  EXPECT_THROW(run_campaign(s, opt), std::invalid_argument);
  opt.threads = 2;  // the exception leaves a pool thread
  EXPECT_THROW(run_campaign(s, opt), std::invalid_argument);
  opt.threads = 1;  // ... and a dispatch task's thread
  DispatchOptions d;
  d.shard_count = 2;
  ThreadExecutor exec(s, opt);
  EXPECT_THROW(dispatch_campaign(s, opt, d, exec), std::invalid_argument);
}

/// Hands back one canned outcome per task, named after the task,
/// through the base class's delivery.
class CannedExecutor : public Executor {
 public:
  std::vector<TaskOutcome> run_wave(
      const std::vector<ShardTask>& tasks) override {
    std::vector<TaskOutcome> outcomes(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      outcomes[i].source = "slot " + std::to_string(tasks[i].slot) + " gen " +
                           std::to_string(tasks[i].generation);
    }
    return deliver(tasks, std::move(outcomes));
  }
};

std::vector<std::string> sources(const std::vector<TaskOutcome>& outcomes) {
  std::vector<std::string> out;
  for (const TaskOutcome& o : outcomes) out.push_back(o.source);
  return out;
}

TEST(Dispatch, DeliveryWithholdsEachDelayedOutcome) {
  using Names = std::vector<std::string>;
  const FaultPlan plan = FaultPlan::parse("delay:1@2,delay:2@1");
  std::vector<ShardTask> deal(4);
  for (std::size_t i = 0; i < deal.size(); ++i) {
    deal[i].slot = i;
    deal[i].faults = plan.for_shard(i);
  }
  // A repair wave on the delayed slots: repair tasks carry no faults.
  std::vector<ShardTask> repairs(2);
  for (std::size_t j = 0; j < repairs.size(); ++j) {
    repairs[j].slot = j + 1;
    repairs[j].generation = 1;
  }

  CannedExecutor ex;
  EXPECT_EQ(sources(ex.run_wave(deal)),
            (Names{"slot 0 gen 0", "slot 3 gen 0"}));
  EXPECT_EQ(sources(ex.collect_delayed()), Names{"slot 2 gen 0"});
  EXPECT_EQ(sources(ex.run_wave(repairs)),
            (Names{"slot 1 gen 1", "slot 2 gen 1"}));
  EXPECT_EQ(sources(ex.collect_delayed()), Names{"slot 1 gen 0"});
  EXPECT_TRUE(ex.collect_delayed().empty());
  EXPECT_TRUE(ex.drain().empty());

  // drain() hands back everything still withheld at once, in task order.
  EXPECT_EQ(sources(ex.run_wave(deal)),
            (Names{"slot 0 gen 0", "slot 3 gen 0"}));
  EXPECT_EQ(sources(ex.drain()), (Names{"slot 1 gen 0", "slot 2 gen 0"}));
  EXPECT_TRUE(ex.collect_delayed().empty());
}

/// A fresh directory under the system temp dir, removed with its
/// contents on scope exit.
struct TempDir {
  TempDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "hs-dispatch-XXXXXX")
            .string();
    if (::mkdtemp(pattern.data()) != nullptr) path = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  std::string path;
};

TEST(Dispatch, ProcessExecutorRecoversAKilledChild) {
  const Scenario* s = find_scenario("fig8-tradeoff");
  ASSERT_NE(s, nullptr);
  CampaignOptions opt;
  opt.seed = 7;
  opt.threads = 1;
  opt.trials_per_point = 2;
  opt.metrics_timers = true;
  const Baseline want = serial_baseline(*s, opt);

  const TempDir workdir;
  ASSERT_FALSE(workdir.path.empty());
  DispatchOptions d;
  d.shard_count = 3;
  d.faults = FaultPlan::parse("kill:1@3");
  SubprocessExecutor exec(HS_CAMPAIGN_RUNNER, workdir.path, s->name, opt);
  DispatchReport rep;
  expect_matches(dispatch_campaign(*s, opt, d, exec, &rep), want,
                 "process kill:1@3");
  EXPECT_EQ(rep.shards_dead, 1u);
  EXPECT_GT(rep.chunks_redealt, 0u);
  // The children's trailers carry their phase timers.
  EXPECT_GT(rep.metrics.report.phase(obs::Phase::kTrial).calls, 0u);
}

/// The descriptors this process has open, ascending.
std::vector<int> open_fds() {
  std::vector<int> fds;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return fds;
  const int own = ::dirfd(dir);
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    const int fd = std::atoi(e->d_name);
    if (fd != own) fds.push_back(fd);
  }
  ::closedir(dir);
  std::sort(fds.begin(), fds.end());
  return fds;
}

TEST(Dispatch, ProcessExecutorReapsStartedChildrenWhenALaunchFails) {
  const Scenario* s = find_scenario("fig3-imd-timing");
  ASSERT_NE(s, nullptr);
  CampaignOptions opt;
  opt.seed = 5;
  opt.threads = 1;
  opt.trials_per_point = 1;
  const TempDir workdir;
  ASSERT_FALSE(workdir.path.empty());
  SubprocessExecutor exec(HS_CAMPAIGN_RUNNER, workdir.path, s->name, opt);
  std::vector<ShardTask> wave(4);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    wave[i].slot = i;
    wave[i].plan = plan_shard(*s, opt, wave.size(), i);
  }

  // A launch opens its pipe on the two lowest free descriptors and keeps
  // the lower one, so a soft limit at the fourth free descriptor lets two
  // launches through and fails the third. At that limit the children's
  // shells fail too ("sh: 1: 1: Invalid argument").
  const std::vector<int> before = open_fds();
  int limit = -1;
  for (int free_seen = 0; free_seen < 4;) {
    ++limit;
    if (!std::binary_search(before.begin(), before.end(), limit)) {
      ++free_seen;
    }
  }
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(limit);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::string error;
  try {
    exec.run_wave(wave);
  } catch (const std::exception& e) {
    error = e.what();
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  EXPECT_NE(error.find("popen failed for slot 2"), std::string::npos) << error;
  EXPECT_EQ(open_fds(), before);
  int status = 0;
  errno = 0;
  EXPECT_EQ(::waitpid(-1, &status, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

TEST(DispatchCli, FlagsTheModeDoesNotReadAreRefused) {
  // Only --dispatch reads --executor and --workdir, and --list reads no
  // run flag; each exits 1 naming the flag instead of ignoring it.
  const TempDir dir;
  ASSERT_FALSE(dir.path.empty());
  const std::string err = dir.path + "/stderr.txt";
  const auto run = [&err](const std::string& flags) {
    const std::string cmd = std::string(HS_CAMPAIGN_RUNNER) +
                            " --scenario=fig3-imd-timing --trials=1"
                            " --threads=1 " +
                            flags + " > /dev/null 2> " + err;
    const int status = std::system(cmd.c_str());
    std::string text;
    wire::read_whole_file(err, text);
    return std::make_pair(WIFEXITED(status) ? WEXITSTATUS(status) : -1,
                          text);
  };
  // {argument, the flag the message names, the mode it names}
  const std::tuple<std::string, std::string, std::string> cases[] = {
      {"--executor=bogus", "--executor", "--dispatch"},
      {"--workdir=/nonexistent", "--workdir", "--dispatch"},
      {"--list", "--scenario", "--list"}};
  for (const auto& [arg, flag, mode] : cases) {
    const auto [status, text] = run(arg);
    EXPECT_EQ(status, 1) << arg << ": " << text;
    EXPECT_NE(text.find(flag), std::string::npos) << text;
    EXPECT_NE(text.find(mode), std::string::npos) << text;
  }
  EXPECT_EQ(run("--executor=bogus --workdir=/nonexistent").first, 1);
  EXPECT_EQ(run("").first, 0);
}

TEST(FaultPlanSpec, ParsesAndRoundTrips) {
  const FaultPlan plan =
      FaultPlan::parse("kill:1@3, trunc:0@140; truncl:2@4,delay:1@2,corrupt:0@5");
  ASSERT_EQ(plan.faults.size(), 5u);
  EXPECT_EQ(plan.faults[0], (Fault{FaultKind::kKill, 1, 3}));
  EXPECT_EQ(plan.faults[1], (Fault{FaultKind::kTruncateBytes, 0, 140}));
  EXPECT_EQ(plan.faults[2], (Fault{FaultKind::kTruncateLines, 2, 4}));
  EXPECT_EQ(plan.faults[3], (Fault{FaultKind::kDelay, 1, 2}));
  EXPECT_EQ(plan.faults[4], (Fault{FaultKind::kCorrupt, 0, 5}));
  // The canonical text form parses back to the same plan.
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.faults, plan.faults);
  EXPECT_EQ(plan.delay_waves(1), 2u);
  EXPECT_EQ(plan.delay_waves(0), 0u);
  EXPECT_EQ(plan.for_shard(0).faults.size(), 2u);
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ").empty());
}

TEST(FaultPlanSpec, RejectsMalformedTokens) {
  EXPECT_THROW(FaultPlan::parse("explode:1@3"), DispatchError);
  EXPECT_THROW(FaultPlan::parse("kill:1"), DispatchError);
  EXPECT_THROW(FaultPlan::parse("kill@3"), DispatchError);
  EXPECT_THROW(FaultPlan::parse("kill:x@3"), DispatchError);
  EXPECT_THROW(FaultPlan::parse("kill:1@"), DispatchError);
  EXPECT_THROW(FaultPlan::parse("kill:1@3x"), DispatchError);
  // Digits only: a sign or a blank inside a number is not a shard id.
  EXPECT_THROW(FaultPlan::parse("kill:-1@3"), DispatchError);
  EXPECT_THROW(FaultPlan::parse("kill:+1@3"), DispatchError);
  EXPECT_THROW(FaultPlan::parse("kill: 1@3"), DispatchError);
  EXPECT_THROW(FaultPlan::parse("kill:1@-2"), DispatchError);
  EXPECT_THROW(FaultPlan::parse("kill:1@ 2"), DispatchError);
  EXPECT_THROW(FaultPlan::parse("kill:1@18446744073709551616"),
               DispatchError);
}

TEST(FaultPlanSpec, StreamFaultsAreDeterministic) {
  const Scenario s = shrunk("fig5-jam-shaped", {}, 1);
  const CampaignOptions opt = small_options();
  const std::string text = serialize_chunk_stream(
      s, opt, run_campaign_shard(s, opt, 1, 0));
  const FaultPlan plan = FaultPlan::parse("kill:0@1,corrupt:0@2");
  bool killed_a = false;
  bool killed_b = false;
  const std::string a = apply_stream_faults(plan, 0, text, &killed_a);
  const std::string b = apply_stream_faults(plan, 0, text, &killed_b);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(killed_a);
  EXPECT_LT(a.size(), text.size());
  // Faults for another shard leave the stream untouched.
  bool killed_other = false;
  EXPECT_EQ(apply_stream_faults(plan, 1, text, &killed_other), text);
  EXPECT_FALSE(killed_other);
}

TEST(Recover, FoldsDamagedStreamsBackToSerialBytes) {
  const Scenario s = shrunk("fig8-tradeoff", {10, 20}, 1);
  const CampaignOptions opt = small_options();
  const Baseline want = serial_baseline(s, opt);
  const std::size_t k = 3;
  // Shard 0 intact, shard 1 killed after 1 record, shard 2 missing
  // entirely (its file was never written).
  const FaultPlan faults = FaultPlan::parse("kill:1@1");
  std::vector<SalvagedStream> streams;
  for (std::size_t i = 0; i < 2; ++i) {
    std::string text = serialize_chunk_stream(
        s, opt, run_campaign_shard(s, opt, k, i));
    bool killed = false;
    text = apply_stream_faults(faults, i, std::move(text), &killed);
    streams.push_back(
        salvage_chunk_stream(text, "shard-" + std::to_string(i)));
  }
  SalvagedStream missing;
  missing.source = "shard-2";
  streams.push_back(missing);

  DispatchReport rep;
  expect_matches(recover_campaign(s, opt, streams, &rep), want, "recover");
  EXPECT_EQ(rep.shards_dead, 2u);
  EXPECT_GT(rep.chunks_redealt, 0u);
  // One round re-deals the missing chunks over up to K in-process repair
  // tasks; the intact input stream and every repair task contribute
  // complete trailers.
  EXPECT_EQ(rep.rounds, 1u);
  EXPECT_EQ(rep.tasks_retried, std::min(k, rep.chunks_redealt));
  EXPECT_EQ(rep.streams_complete, 1 + rep.tasks_retried);
}

TEST(Recover, AllStreamsInvalidRaises) {
  const Scenario s = shrunk("fig5-jam-shaped", {}, 1);
  const CampaignOptions opt = small_options();
  std::vector<SalvagedStream> streams(2);
  streams[0].source = "a";
  streams[1].source = "b";
  EXPECT_THROW(recover_campaign(s, opt, streams), DispatchError);
}

}  // namespace
}  // namespace hs::campaign
