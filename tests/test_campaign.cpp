#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/stats.hpp"
#include "crypto/sha256.hpp"
#include "dsp/kernels.hpp"
#include "dsp/rng.hpp"
#include "shield/calibrate.hpp"
#include "shield/deployment.hpp"
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

// ---- Golden report digests -----------------------------------------------

campaign::Scenario shrink(const campaign::Scenario& preset) {
  campaign::Scenario s = preset;
  if (s.axis != campaign::SweepAxis::kNone && s.axis_values.size() > 2) {
    s.axis_values.resize(2);
  }
  s.units_per_trial = std::min<std::size_t>(s.units_per_trial, 1);
  s.default_trials = 2;
  return s;
}

std::string sha256_hex(const std::string& text) {
  const auto digest = crypto::Sha256::hash(crypto::ByteView(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex;
  for (const std::uint8_t b : digest) {
    hex += kHex[b >> 4];
    hex += kHex[b & 15];
  }
  return hex;
}

// SHA-256 of each shrunk preset's canonical CSV and JSON at seed 13.
// Report bytes are a pure function of the configuration, so a change that
// moves any digest changed what the simulator computes.
struct PresetDigests {
  const char* preset;
  const char* csv;
  const char* json;
};

constexpr PresetDigests kGoldenDigests[] = {
    {"fig3-imd-timing",
     "c571ced3bd853b678fbf219da1ced2e494150f1c9e9b4bb90ddcbba1c2188609",
     "c6a97a9910da4b5aec030a390a32eca520e4a867e5b660693e1cf7475bf87093"},
    {"fig4-fsk-profile",
     "cbdd831e57c93019d0742fc98de2170974cefb912922d696af1f5cb40cde78d7",
     "079d3de69256f68caae9c3c5f9b616429608b7343908d59a037cc78415a6d9f9"},
    {"fig5-jam-shaped",
     "12a2f8e3388723d52ecd37a3734a8f4eb609418b7a39b99ed38b47cf927262e5",
     "36697326c86f8d33a3222fea8b8811188b733f3e361f466b60561f51dde4952e"},
    {"fig5-jam-constant",
     "934b7b385d0298219de335c0e6ce3998e9f09dd3e46676971c91ba98f1f59afb",
     "d6933e5afeba513ed5185f1abc0470ad6e066ab3866fe26788a59789462a21a4"},
    {"fig7-cancellation",
     "7e433523ae910963a20e17eed2475a813bcbc83a26ccdcc7666f050621f49272",
     "b35acf1beae925ad820671627468651ee435ba3be450eb1f09c01bc8b10b9f08"},
    {"fig8-tradeoff",
     "afd34807a5f23724f66286aab87703bb9452bed825a2f710a5001e628171ac93",
     "85bd624ac7f58f73c0fea6618c26b0968f7098f22238bbd39b71bf0df9090c40"},
    {"fig9-eaves-ber",
     "8ecfaf8156f42b5c7e2ef359967d1dd28423be01b98b08d19be363c858289e3e",
     "689e15c8b7cd4859e29b3e5aad237a001e2c0e99e57a696b90f0efcd728f00c4"},
    {"fig10-shield-per",
     "07d41100fe1c88318e5e5fcf8cce893b3d0992d24fb92b811601b5cf6b594a64",
     "74d9710275ea49639fe540647c8a1afadd7a18d70669b538649bff252f495612"},
    {"fig11-trigger",
     "a58e9c01eb1f82faab19ef4969453cff0f93ce251cb8db33d963b16128744cb8",
     "5404913ab05ced627f546f1ddfdcd527779d58ddcc8f0e79b0b13bce8630c4e3"},
    {"fig12-therapy",
     "7835232d5b318759af99761a525c3e9e783f9f657c5ea11268b74fe2a227a037",
     "76e763b3af6d2aae39d7c884fd880c37c5c0e67558c82be93db7070c7f665915"},
    {"fig13-high-power",
     "3e3c51749d7948bbf9165fb29a85a6d38853c178a9dfc59d5b18650e7975af76",
     "198badb351c776e1833fb042aed8f1d32e669b0b6418f448d035e51b2e285d74"},
    {"fig11-trigger-noshield",
     "b2d93edcafe06328fab7039ac31b3dbeccb98ddcef6a74230530329d71d237d5",
     "513c77b2c59ede4dcea0af15331e89b3d5bce5eeef17eeefe8f7f91188210802"},
    {"fig12-therapy-noshield",
     "4c3600aa56cffbcd8ba55fe3277b228ef91c30cefc2a78ef3292e5fe7abea608",
     "83c5484319734efc1cb16d936f41c47f5f214da662e488a8997d647419a82853"},
    {"fig13-high-power-noshield",
     "59ff6d1a1cc9b45532952884de1bca945600fafd7e1059581c98b8c050a0231b",
     "aef3f4eef2807e69cbb39fa83b7bcee4272e5affd9198a49655cc5d652a486a9"},
    {"table1-pthresh",
     "1d27a119aabb37c03c5340887b217cd5344fa25ba51d2e3fe97be7600d089afb",
     "8cf9c41d32a0efa44fc7d529976688fe439f9bb88d58f54c54909688d6831ef6"},
    {"table2-coexistence",
     "fd3aef22976453515a4fc6e33a5e786987d60e7e5c3d1883d64a80f3b9c2505a",
     "d572f15a0401f4e4c5716da056d0830ae2b0e9769877a4ca2d4263dfb5bd65c8"},
    {"ablate-shaping-shaped-opt",
     "1bfa6400d7c0f7cc0f75d26b059f3e48a2ec7764e61acfb043a9ca1f1afddbe7",
     "3b21f1e57a54179b19905035bc8c0ddec7f582322554f83f3ad64be94cf8dc0e"},
    {"ablate-shaping-shaped-bpf",
     "0dc3c1dfec9f416a1208865b385c7c05d6f3c64a89cd3b4a1b3d35304c8f57e6",
     "0e663589aa00c0284e1b931a40babe77bbb9d614ce66a4b1ebf44bb2276155c9"},
    {"ablate-shaping-constant-opt",
     "39f196ce77a25a73c8f08e9d1fcdc1c03a8a98f2222657a068e805470c2f2435",
     "af46a49a77909b92bb5fa8309aef1553133a3aebb28fa9feaeabdcffe4e63a0e"},
    {"ablate-shaping-constant-bpf",
     "33e2eda04e07cd9fd7d70b28651e6ab59c9ab683c85693f38524ff3f1344b383",
     "5c5eb056c9fc5b2d24fd404039f34ed6fac15fd8ee97172bfba6eaaaa007e774"},
    {"ablate-gap",
     "47da890b411a8d8d4eb4228efd9da1064ec787389b1c2f88bd8cd2492ae9fb25",
     "b3c106b5cb04f79c73bc99de1f040b98c019fc9f98cd3c9bcf66dee62dfec4e9"},
    {"ablate-positional",
     "ffc554fcde48f2c472d9532cab01e03f840956e7103cba79b1246938f3296131",
     "980bae8698072f1932b239c343408de37d33492c5f6db1766fb798d7b4bf5a69"},
    {"ext-battery",
     "cee31f8d796d8c44896cd29d2a13c440e1f4d01e7984eaa2043fd1343c0a0df6",
     "5b28a1b178b8f8b2f2c27f13449ceb5816f1fb7651924729baeeb0740139d841"},
    {"ext-battery-noshield",
     "2bb0a44527032de4ea5cdcfd6f586ae3a4c6c8a4ee51553a3c43a31e6b5eddf8",
     "a78fa590f7bbcbb92284bf0f5dee4b685e66e4dadc9b79e3f6443dc0ac16083b"},
    {"ext-multipath",
     "c1a76b4c197c00a57baaec552a3a6ebdb52fd45f72c4da55353787803ca81b87",
     "f942a6c9d352b51293985db9787432f433987f61be82851abff0db59193c056d"},
    {"ext-wideband",
     "79ef9d549a31e76995866dade624b6da3040c65075a9096a831ff6f9058a51d0",
     "0e677938fdf17cb14264772b686ffdca3df5500ff6666e49d532b93fc31aad60"},
    {"multi-adversary-eaves",
     "33f2c67838333fdf4981ade6f2d844acfe2f0453a248c36881439ccea6546f00",
     "ede53c423cf2a0c0f48065ea380794e359ca240dc3ec8b8587c7b60f5cbc487b"},
    {"multi-imd-trigger",
     "6446bc9cd358daf44520e536b14d2de108b676554a59ea72a98ff9771f06f6ab",
     "4dbc366dbf610fec4f66d8cfbe5596490a1258181f1ab3fcac2704ff6596682f"},
    {"multi-imd-trigger-noshield",
     "db8de813cea4fdf2374b5365cc3cdde2414dfd73738444635951d7b34587ec25",
     "506c8a9ffd4208575a2acf5b1a2fb8dead67480134f1a42c6d7c16531d531b2a"},
};

void expect_golden_digests(const std::string& preset, const std::string& csv,
                           const std::string& json) {
  const PresetDigests* golden = nullptr;
  for (const PresetDigests& d : kGoldenDigests) {
    if (preset == d.preset) golden = &d;
  }
  ASSERT_NE(golden, nullptr) << "no recorded digests; csv " << sha256_hex(csv)
                             << " json " << sha256_hex(json);
  EXPECT_EQ(sha256_hex(csv), golden->csv) << "canonical CSV bytes moved";
  EXPECT_EQ(sha256_hex(json), golden->json) << "canonical JSON bytes moved";
}

/// Restores the active kernel backend when the scope ends.
struct BackendGuard {
  BackendGuard() = default;
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;
  ~BackendGuard() { dsp::kernels::set_backend(saved); }

  dsp::kernels::Backend saved = dsp::kernels::active_backend();
};

TEST(CampaignGolden, EveryPresetMatchesRecordedDigestsOnEveryBackend) {
  // Every preset, shrunk, emits canonical CSV and JSON whose digests
  // match the recorded table, on every kernel backend this host
  // supports, so every backend is held to the same bytes.
  using dsp::kernels::Backend;
  std::vector<Backend> backends;
  for (const Backend b : {Backend::kScalar, Backend::kSse2, Backend::kAvx2}) {
    if (dsp::kernels::backend_table(b) != nullptr) backends.push_back(b);
  }
  const BackendGuard restore_backend;
  for (const auto& preset : campaign::scenario_presets()) {
    SCOPED_TRACE(preset.name);
    const campaign::Scenario s = shrink(preset);
    campaign::CampaignOptions options;
    options.seed = 13;
    options.threads = 1;
    for (const Backend b : backends) {
      SCOPED_TRACE(dsp::kernels::backend_name(b));
      ASSERT_TRUE(dsp::kernels::set_backend(b));
      auto result = campaign::run_campaign(s, options);
      campaign::canonicalize(result);
      expect_golden_digests(preset.name, campaign::to_csv(result),
                            campaign::to_json(result));
    }
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
