#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/stats.hpp"
#include "dsp/rng.hpp"
#include "shield/calibrate.hpp"
#include "shield/trial_context.hpp"

namespace hs::campaign {
namespace {

// A fast scenario for engine tests: spectrum trials avoid the full
// deployment simulation, so many trials run in milliseconds.
Scenario fast_scenario() {
  Scenario s = *find_scenario("fig5-jam-shaped");
  s.default_trials = 24;
  return s;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      const auto& sa = a.points[p].metrics[m];
      const auto& sb = b.points[p].metrics[m];
      EXPECT_EQ(sa.count(), sb.count());
      // Bit-identical, not approximately equal.
      EXPECT_EQ(sa.mean(), sb.mean());
      EXPECT_EQ(sa.stddev(), sb.stddev());
      EXPECT_EQ(sa.min(), sb.min());
      EXPECT_EQ(sa.max(), sb.max());
    }
  }
}

TEST(StreamingStats, MatchesSerialReference) {
  dsp::Rng rng(42, "stats-test");
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) xs.push_back(rng.gaussian(3.0, 2.5));

  StreamingStats st;
  double sum = 0.0, sum_sq = 0.0, mn = xs[0], mx = xs[0];
  for (double x : xs) {
    st.add(x);
    sum += x;
    sum_sq += x * x;
    mn = std::min(mn, x);
    mx = std::max(mx, x);
  }
  const double n = static_cast<double>(xs.size());
  const double mean = sum / n;
  // Sample variance (Bessel's correction): sum of squared deviations over
  // n-1, the estimator variance() reports.
  const double var = (sum_sq - n * mean * mean) / (n - 1.0);

  EXPECT_EQ(st.count(), xs.size());
  EXPECT_NEAR(st.mean(), mean, 1e-12);
  EXPECT_NEAR(st.variance(), var, 1e-9);
  EXPECT_EQ(st.min(), mn);
  EXPECT_EQ(st.max(), mx);
}

TEST(StreamingStats, BesselCorrection) {
  StreamingStats st;
  st.add(1.0);
  EXPECT_EQ(st.variance(), 0.0);  // undefined for n < 2 -> 0
  st.add(3.0);
  // Deviations +-1 around mean 2: m2 = 2, sample variance 2/(2-1) = 2
  // (the population estimator would report 1).
  EXPECT_DOUBLE_EQ(st.variance(), 2.0);
  EXPECT_DOUBLE_EQ(st.stddev(), std::sqrt(2.0));
}

TEST(StreamingStats, MergeEqualsSequentialFeed) {
  dsp::Rng rng(7, "stats-merge");
  std::vector<double> xs;
  for (int i = 0; i < 500; ++i) xs.push_back(rng.uniform(-10.0, 10.0));

  StreamingStats whole;
  for (double x : xs) whole.add(x);

  // Split into uneven chunks, accumulate separately, merge in order.
  StreamingStats merged;
  const std::size_t cuts[] = {0, 13, 100, 101, 350, 500};
  for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
    StreamingStats part;
    for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i) part.add(xs[i]);
    merged.merge(part);
  }

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9);
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
}

TEST(StreamingStats, MergeEmptyIsIdentity) {
  StreamingStats a;
  a.add(1.0);
  a.add(2.0);
  StreamingStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 1.5);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Wilson, KnownValues) {
  // 8/10 successes at 95%: Wilson interval ~[0.49, 0.94].
  const auto w = wilson_interval(8, 10);
  EXPECT_NEAR(w.lo, 0.49, 0.02);
  EXPECT_NEAR(w.hi, 0.94, 0.02);
  const auto none = wilson_interval(0, 0);
  EXPECT_EQ(none.lo, 0.0);
  EXPECT_EQ(none.hi, 0.0);
  const auto all = wilson_interval(10, 10);
  EXPECT_GT(all.lo, 0.6);
  EXPECT_EQ(all.hi, 1.0);
}

TEST(TrialSeed, DeterministicAndDistinct) {
  const auto s1 = trial_seed(1, "scenario-a", 0, 0);
  EXPECT_EQ(s1, trial_seed(1, "scenario-a", 0, 0));
  EXPECT_NE(s1, trial_seed(1, "scenario-a", 0, 1));
  EXPECT_NE(s1, trial_seed(1, "scenario-a", 1, 0));
  EXPECT_NE(s1, trial_seed(1, "scenario-b", 0, 0));
  EXPECT_NE(s1, trial_seed(2, "scenario-a", 0, 0));
}

TEST(Campaign, SameSeedSameAggregates) {
  const Scenario s = fast_scenario();
  CampaignOptions opt;
  opt.seed = 99;
  opt.threads = 1;
  const auto a = run_campaign(s, opt);
  const auto b = run_campaign(s, opt);
  expect_identical(a, b);

  CampaignOptions other = opt;
  other.seed = 100;
  const auto c = run_campaign(s, other);
  EXPECT_NE(a.points[0].stats(Metric::kToneBandFraction).mean(),
            c.points[0].stats(Metric::kToneBandFraction).mean());
}

TEST(Campaign, ParallelBitIdenticalToSerial) {
  const Scenario s = fast_scenario();
  CampaignOptions serial;
  serial.seed = 5;
  serial.threads = 1;
  const auto a = run_campaign(s, serial);

  for (unsigned threads : {2u, 4u, 7u}) {
    CampaignOptions parallel = serial;
    parallel.threads = threads;
    const auto b = run_campaign(s, parallel);
    expect_identical(a, b);
  }
}

TEST(Campaign, ParallelBitIdenticalOnSweptScenario) {
  // An eavesdrop scenario exercises the full deployment path and a sweep
  // axis; keep it tiny so the test stays fast.
  Scenario s = *find_scenario("fig8-tradeoff");
  s.axis_values = {10.0, 20.0};
  s.units_per_trial = 1;
  s.default_trials = 2;

  CampaignOptions serial;
  serial.seed = 3;
  serial.threads = 1;
  CampaignOptions parallel = serial;
  parallel.threads = 4;
  expect_identical(run_campaign(s, serial), run_campaign(s, parallel));
}

TEST(Campaign, ChunkAccumulatorsMatchSerialReference) {
  // The campaign's chunked merge must agree with a plain in-order
  // accumulation of the same trial samples.
  const Scenario s = fast_scenario();
  CampaignOptions opt;
  opt.seed = 11;
  opt.threads = 3;
  opt.chunk_size = 5;  // uneven: 24 trials -> chunks of 5,5,5,5,4
  const auto result = run_campaign(s, opt);

  StreamingStats reference;
  for (std::size_t t = 0; t < s.default_trials; ++t) {
    const auto samples =
        run_trial(s, 0, 0.0, trial_seed(opt.seed, s.name, 0, t));
    for (const auto& sample : samples) {
      if (sample.metric == Metric::kToneBandFraction) {
        reference.add(sample.value);
      }
    }
  }
  const auto& st = result.points[0].stats(Metric::kToneBandFraction);
  EXPECT_EQ(st.count(), reference.count());
  EXPECT_NEAR(st.mean(), reference.mean(), 1e-12);
  EXPECT_NEAR(st.variance(), reference.variance(), 1e-12);
  EXPECT_EQ(st.min(), reference.min());
  EXPECT_EQ(st.max(), reference.max());
}

TEST(TrialContext, DeploymentResetMatchesFreshConstruction) {
  shield::DeploymentOptions first;
  first.seed = 11;
  shield::DeploymentOptions second;
  second.seed = 22;
  second.shield_config.hardware_error_sigma = 0.1;
  second.shield_config.jam_profile = shield::JamProfile::kConstant;

  shield::Deployment fresh_first(first);
  const double want_first = shield::measure_cancellation_db(fresh_first);
  shield::Deployment fresh_second(second);
  const double want_second = shield::measure_cancellation_db(fresh_second);

  // One pooled deployment, reset across both configurations and back:
  // every measurement must be bit-identical to the fresh ones.
  shield::Deployment pooled(first);
  ASSERT_TRUE(pooled.can_reset_to(second));
  pooled.reset(second);
  EXPECT_EQ(shield::measure_cancellation_db(pooled), want_second);
  pooled.reset(first);
  EXPECT_EQ(shield::measure_cancellation_db(pooled), want_first);

  // A structural change (observer node) forces a rebuild instead.
  shield::DeploymentOptions observed = first;
  observed.with_observer = true;
  EXPECT_FALSE(pooled.can_reset_to(observed));
}

/// The fresh-construction reference the pool must match: every trial
/// gets a new TrialContext carrying only the campaign's warm policy (no
/// snapshot cache), and the chunk accumulators fold in chunk order.
CampaignResult run_fresh(const Scenario& s, const CampaignOptions& options) {
  const ShardPlan plan = plan_shard(s, options, 1, 0);
  const std::uint64_t warm_seed = campaign_warmup_seed(options.seed, s.name);
  std::vector<ChunkMetrics> chunk_metrics(plan.chunks.size());
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
    const ChunkRef& chunk = plan.chunks[c];
    const double axis_value = s.axis_value_at(chunk.point_index);
    for (std::size_t t = chunk.trial_begin; t < chunk.trial_end; ++t) {
      shield::TrialContext fresh;
      fresh.set_warm_policy(warm_seed, nullptr);
      const std::uint64_t seed =
          trial_seed(options.seed, s.name, chunk.point_index, t);
      for (const TrialSample& sample :
           run_trial(s, chunk.point_index, axis_value, seed, &fresh)) {
        const auto m = static_cast<std::size_t>(sample.metric);
        chunk_metrics[c][m].add(sample.value);
      }
    }
  }
  return fold_chunks(s, options, plan, chunk_metrics);
}

TEST(TrialContext, PoolReusesAndStaysBitIdentical) {
  // The tentpole determinism claim: per-point aggregates with the
  // trial-context pool are bit-identical to fresh per-trial construction,
  // at 1 and N threads, across experiment kinds. Scenarios are shrunk
  // copies of the real presets so the test covers the genuine trial code
  // paths in milliseconds-per-trial territory.
  struct Case {
    const char* preset;
    std::vector<double> axis_values;  // empty keeps the preset's axis
    std::size_t units_per_trial;
    std::size_t trials;
  };
  const std::vector<Case> cases = {
      {"fig8-tradeoff", {10.0, 20.0}, 1, 2},     // kEavesdrop
      {"fig11-trigger", {1.0, 9.0}, 1, 2},       // kActiveAttack
      {"fig11-trigger-noshield", {1.0, 9.0}, 1, 2},  // no shield
      {"table1-pthresh", {-16.0, 10.0}, 1, 2},   // kPthresh
      {"fig7-cancellation", {}, 1, 3},           // kCancellation
      {"table2-coexistence", {3.0}, 1, 2},       // kCoexistence
      {"fig3-imd-timing", {}, 1, 2},             // kImdTiming
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.preset);
    const Scenario* preset = find_scenario(c.preset);
    ASSERT_NE(preset, nullptr);
    Scenario s = *preset;
    if (!c.axis_values.empty()) s.axis_values = c.axis_values;
    s.units_per_trial = c.units_per_trial;
    s.default_trials = c.trials;

    CampaignOptions pooled;
    pooled.seed = 7;
    pooled.threads = 1;
    const auto reference = run_fresh(s, pooled);

    const auto reused = run_campaign(s, pooled);
    expect_identical(reference, reused);
    // The pool must actually have kicked in, not silently rebuilt.
    EXPECT_GT(reused.metrics.counter(obs::Counter::kDeploymentsReused), 0u);

    CampaignOptions pooled_mt = pooled;
    pooled_mt.threads = 3;
    expect_identical(reference, run_campaign(s, pooled_mt));
  }
}

TEST(Campaign, EveryPresetExpandsAndSeeds) {
  for (const auto& s : scenario_presets()) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.description.empty()) << s.name;
    EXPECT_GE(s.point_count(), 1u);
    EXPECT_GT(s.default_trials, 0u);
    EXPECT_FALSE(metrics_for(s.kind).empty());
    // Seeds must be derivable for every point without collisions across
    // the first two trials.
    const auto a = trial_seed(1, s.name, 0, 0);
    const auto b = trial_seed(1, s.name, 0, 1);
    EXPECT_NE(a, b);
  }
  EXPECT_EQ(find_scenario("definitely-not-a-preset"), nullptr);
  EXPECT_NE(find_scenario("fig9-eaves-ber"), nullptr);
}

TEST(Report, CsvQuotesFieldsWithCommasAndQuotes) {
  Scenario s = fast_scenario();
  s.description = "profiles, with \"quotes\" and, commas";
  CampaignOptions opt;
  opt.seed = 2;
  opt.threads = 1;
  opt.trials_per_point = 2;
  const auto result = run_campaign(s, opt);

  const auto csv = to_csv(result);
  // Header gained the description column.
  EXPECT_NE(csv.find("wilson_lo,wilson_hi,description\n"), std::string::npos);
  // RFC 4180: the whole field quoted, embedded quotes doubled.
  EXPECT_NE(csv.find("\"profiles, with \"\"quotes\"\" and, commas\""),
            std::string::npos);
  // Every data row must have the same number of columns as the header
  // once quoted regions are skipped.
  const std::size_t header_cols = 12;
  std::size_t line_start = 0;
  while (line_start < csv.size()) {
    std::size_t line_end = csv.find('\n', line_start);
    if (line_end == std::string::npos) line_end = csv.size();
    std::size_t cols = 1;
    bool quoted = false;
    for (std::size_t i = line_start; i < line_end; ++i) {
      if (csv[i] == '"') quoted = !quoted;
      if (csv[i] == ',' && !quoted) ++cols;
    }
    if (line_end > line_start) {
      EXPECT_EQ(cols, header_cols);
    }
    line_start = line_end + 1;
  }

  // JSON escapes the quotes in the description.
  const auto json = to_json(result);
  EXPECT_NE(json.find("profiles, with \\\"quotes\\\" and, commas"),
            std::string::npos);
}

TEST(Report, CsvAndJsonWellFormed) {
  const Scenario s = fast_scenario();
  CampaignOptions opt;
  opt.seed = 1;
  opt.threads = 2;
  opt.trials_per_point = 4;
  const auto result = run_campaign(s, opt);

  const auto csv = to_csv(result);
  EXPECT_NE(csv.find("scenario,axis,axis_value,metric"), std::string::npos);
  EXPECT_NE(csv.find("fig5-jam-shaped"), std::string::npos);
  EXPECT_NE(csv.find("tone_band_fraction"), std::string::npos);

  const auto json = to_json(result);
  EXPECT_NE(json.find("\"scenario\": \"fig5-jam-shaped\""),
            std::string::npos);
  EXPECT_NE(json.find("\"points\""), std::string::npos);
  // Balanced braces is a cheap well-formedness proxy.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Report, WriteFileFailsOnAFullDisk) {
  // /dev/full takes the open and the buffered fwrite; the error only
  // shows when fclose flushes.
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) GTEST_SKIP() << "/dev/full is not available";
  std::fclose(probe);
  EXPECT_FALSE(write_file("/dev/full", "x"));
}

}  // namespace
}  // namespace hs::campaign
