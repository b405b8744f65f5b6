// TSan-targeted stress tests (also run in the regular suite): hammer the
// two shared-state hot spots of the campaign engine from many threads at
// once and assert the determinism contract held.
//
// (1) SnapshotCacheStressTest: N threads race stores over a small key
//     set against one in-memory cache — first-store-wins dedup must
//     hand each key to exactly one store.
//
// (2) DispatchStragglerStressTest: the ThreadExecutor runs a campaign
//     where several shards straggle (wave-counted delay faults) while
//     another is killed mid-stream, so repair tasks, late deliveries and
//     duplicate suppression overlap — the recovered report must stay
//     byte-identical to the serial run.
//
// (3) ServeSchedulerStressTest: many client threads hammer one resident
//     serve::Scheduler — concurrent submits, starts and racing cancels
//     over a shared worker pool — and every request that completes must
//     still report bytes identical to its serial run.
//
// The TSan CI job runs these suites with halt-on-error; any data race
// in SnapshotCache, the runner's chunk cursor, the DelayQueue or the
// obs thread-local merge fails the build. Keep this file free of
// sleeps: stress comes from contention, not timing.
#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "campaign/dispatch.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "serve/scheduler.hpp"
#include "snapshot/snapshot_cache.hpp"

namespace hs {
namespace {

std::string key_name(std::size_t key) {
  return "stress-key-" + std::to_string(key);
}

TEST(SnapshotCacheStressTest, ManyThreadsRaceStoresFirstStoreWins) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeys = 16;
  constexpr std::size_t kRounds = 40;

  snapshot::SnapshotCache cache;
  // Every thread stores in a key order offset by its index, so the same
  // key sees concurrent store/store traffic. wins[t][k] counts the
  // stores of thread t that found key k absent.
  std::vector<std::vector<std::size_t>> wins(
      kThreads, std::vector<std::size_t>(kKeys, 0));

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < kKeys; ++k) {
          const std::size_t key = (k + t * 3 + round) % kKeys;
          if (cache.store(key_name(key), "payload of " + key_name(key))) {
            ++wins[t][key];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // First store wins: across all threads, each key was stored once.
  for (std::size_t k = 0; k < kKeys; ++k) {
    std::size_t stored = 0;
    for (std::size_t t = 0; t < kThreads; ++t) stored += wins[t][k];
    EXPECT_EQ(stored, 1u) << "key " << k;
  }
}

TEST(DispatchStragglerStressTest, OverlappingStragglersAndAKill) {
  using namespace hs::campaign;
  const Scenario* preset = find_scenario("fig8-tradeoff");
  ASSERT_NE(preset, nullptr);
  Scenario s = *preset;
  s.axis_values = {10, 20};
  s.units_per_trial = 1;

  CampaignOptions opt;
  opt.seed = 29;
  opt.threads = 4;  // worker threads inside every shard task
  opt.trials_per_point = 4;
  opt.chunk_size = 1;

  CampaignResult serial = run_campaign(s, opt);
  canonicalize(serial);
  const std::string want_csv = to_csv(serial);
  const std::string want_json = to_json(serial);

  // Three shards straggle two collect waves each while a fourth dies
  // mid-stream: repair tasks for the dead shard run concurrently with
  // the late deliveries, and every late delivery duplicates chunks that
  // were already re-dealt.
  DispatchOptions d;
  d.shard_count = 4;
  d.max_rounds = 6;
  d.faults = FaultPlan::parse("delay:0@2,delay:2@2,delay:3@2,kill:1@1");
  ThreadExecutor exec(s, opt, d.faults);
  DispatchReport rep;
  const CampaignResult got = dispatch_campaign(s, opt, d, exec, &rep);

  EXPECT_EQ(to_csv(got), want_csv);
  EXPECT_EQ(to_json(got), want_json);
  EXPECT_EQ(rep.shards_dead, 1u);
  EXPECT_GE(rep.chunks_redealt, 1u);
  // The delayed shards' chunks were re-dealt before their streams
  // arrived, so their eventual delivery must have been suppressed as
  // duplicates rather than double-merged.
  EXPECT_GE(rep.chunks_duplicate, 1u);
  EXPECT_GE(rep.shards_straggler, 1u);
}

TEST(ServeSchedulerStressTest, RacingSubmitsCancelsAndCompletions) {
  using namespace hs::campaign;
  const Scenario* preset = find_scenario("fig8-tradeoff");
  ASSERT_NE(preset, nullptr);
  Scenario s = *preset;
  s.axis_values = {10, 20};
  s.units_per_trial = 1;

  // One resident scheduler: 4 workers, 4-deep weighted-fair set, queue
  // sized so every submit is admitted — the stress is contention on the
  // scheduler lock, the shared snapshot cache and the per-worker
  // TrialContexts, not admission push-back (test_serve covers that).
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 4;
  obs::ServiceStats stats;
  serve::SchedulerOptions options;
  options.workers = 4;
  options.max_active = 4;
  options.max_queue = kClients * kPerClient;
  serve::Scheduler scheduler(options, &stats);

  struct Outcome {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    bool cancelled = false;
    CampaignResult result;
  };
  std::vector<std::shared_ptr<Outcome>> outcomes(kClients * kPerClient);
  for (auto& out : outcomes) out = std::make_shared<Outcome>();

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (std::size_t j = 0; j < kPerClient; ++j) {
        const std::size_t slot = t * kPerClient + j;
        auto out = outcomes[slot];
        serve::RunRequest r;
        r.preset = s.name;
        r.seed = 1000 + slot;
        r.trials = 2;
        r.chunk_size = 1 + slot % 2;
        r.priority = 1 + static_cast<unsigned>(slot % 8);
        serve::Scheduler::Callbacks cb;
        cb.on_record = [](std::uint64_t, const std::string&) {};
        cb.on_complete = [out](std::uint64_t, const std::string&,
                               const CampaignResult& result, double, double,
                               std::size_t) {
          {
            std::lock_guard<std::mutex> lock(out->mutex);
            out->result = result;
            out->done = true;
          }
          out->cv.notify_all();
        };
        cb.on_cancelled = [out](std::uint64_t, std::size_t) {
          {
            std::lock_guard<std::mutex> lock(out->mutex);
            out->cancelled = true;
          }
          out->cv.notify_all();
        };
        const serve::Admission adm = scheduler.submit(s, r, std::move(cb));
        ASSERT_TRUE(adm.admitted) << "slot " << slot;
        scheduler.start(adm.id);
        // Every third request is cancelled right after release — racing
        // the workers already executing its chunks. Either terminal
        // outcome is legal; completion must still be byte-exact.
        if (slot % 3 == 0) scheduler.cancel(adm.id);
      }
    });
  }
  for (auto& th : clients) th.join();
  for (auto& out : outcomes) {
    std::unique_lock<std::mutex> lock(out->mutex);
    out->cv.wait(lock, [&] { return out->done || out->cancelled; });
  }

  std::size_t completed = 0;
  for (std::size_t slot = 0; slot < outcomes.size(); ++slot) {
    auto& out = outcomes[slot];
    std::lock_guard<std::mutex> lock(out->mutex);
    EXPECT_NE(out->done, out->cancelled) << "slot " << slot;
    if (!out->done) continue;
    ++completed;
    CampaignOptions opt;
    opt.seed = 1000 + slot;
    opt.trials_per_point = 2;
    opt.chunk_size = 1 + slot % 2;
    opt.threads = 1;
    CampaignResult serial = run_campaign(s, opt);
    canonicalize(serial);
    EXPECT_EQ(to_csv(out->result), to_csv(serial)) << "slot " << slot;
    EXPECT_EQ(to_json(out->result), to_json(serial)) << "slot " << slot;
  }
  // Uncancelled requests always complete; cancelled ones may have won or
  // lost their race, but every request reached exactly one terminal
  // state and the books balance.
  const auto snap = stats.snapshot();
  EXPECT_EQ(snap.requests_admitted, outcomes.size());
  EXPECT_EQ(snap.requests_completed + snap.requests_cancelled,
            outcomes.size());
  EXPECT_EQ(snap.requests_completed, completed);
  EXPECT_GE(completed, outcomes.size() - (outcomes.size() + 2) / 3);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.active_requests, 0u);
}

}  // namespace
}  // namespace hs
