// Tests of the warm-state snapshot save half: the configuration key a
// warm snapshot is stored under, a trial context that saves once per
// deployment build and moves no result, and a randomized property that
// compares a reset pooled deployment with a fresh one through its saved
// warm state.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/shard.hpp"
#include "dsp/rng.hpp"
#include "imd/profiles.hpp"
#include "shield/deployment.hpp"
#include "shield/trial_context.hpp"
#include "snapshot/snapshot_cache.hpp"

namespace hs::campaign {
namespace {

TEST(TrialContext, CacheSavesOncePerBuildAndMovesNoResult) {
  // The save half of the warm policy: with a cache, a context saves its
  // deployment's warm state after a build (not after a pooled reset),
  // and the chunk's accumulators equal a cacheless run bit for bit.
  Scenario s = *find_scenario("fig8-tradeoff");
  s.units_per_trial = 1;
  const std::uint64_t seed = 29;
  const std::uint64_t warm_seed = campaign_warmup_seed(seed, s.name);
  const ChunkRef chunks[] = {{0, 1, 0, 1}, {1, 1, 1, 2}};

  snapshot::SnapshotCache cache;
  shield::TrialContext saving;
  shield::TrialContext plain;
  for (const ChunkRef& chunk : chunks) {
    SCOPED_TRACE(chunk.chunk_index);
    const ChunkMetrics with_cache =
        run_chunk(s, seed, chunk, &saving, warm_seed, &cache);
    const ChunkMetrics without =
        run_chunk(s, seed, chunk, &plain, warm_seed, nullptr);
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      EXPECT_EQ(with_cache[m].count(), without[m].count());
      EXPECT_EQ(with_cache[m].mean(), without[m].mean());
      EXPECT_EQ(with_cache[m].stddev(), without[m].stddev());
    }
  }
  EXPECT_EQ(saving.deployments_built(), 1u);
  EXPECT_EQ(saving.snapshots_saved(), 1u);
  EXPECT_EQ(plain.snapshots_saved(), 0u);
}

TEST(DeploymentSnapshot, WarmKeyIsConfigurationSensitive) {
  shield::DeploymentOptions base;
  base.seed = 3;
  base.warmup_seed = 11;
  const std::string key = shield::deployment_warm_key(base);

  // The trial seed must NOT key in two-phase mode: one snapshot serves
  // every trial.
  shield::DeploymentOptions other_trial = base;
  other_trial.seed = 4;
  EXPECT_EQ(shield::deployment_warm_key(other_trial), key);

  // Everything else must.
  shield::DeploymentOptions w = base;
  w.warmup_seed = 12;
  EXPECT_NE(shield::deployment_warm_key(w), key);
  shield::DeploymentOptions sigma = base;
  sigma.shield_config.hardware_error_sigma = 0.1;
  EXPECT_NE(shield::deployment_warm_key(sigma), key);
  shield::DeploymentOptions profile = base;
  profile.imd_profile = imd::concerto_profile();
  EXPECT_NE(shield::deployment_warm_key(profile), key);
  shield::DeploymentOptions observer = base;
  observer.with_observer = true;
  EXPECT_NE(shield::deployment_warm_key(observer), key);
  shield::DeploymentOptions no_shield = base;
  no_shield.shield_present = false;
  EXPECT_NE(shield::deployment_warm_key(no_shield), key);

  // In legacy single-phase mode warm-up consumed the trial seed, so the
  // trial seed keys.
  shield::DeploymentOptions legacy = base;
  legacy.warmup_seed = 0;
  shield::DeploymentOptions legacy_other = legacy;
  legacy_other.seed = 4;
  EXPECT_NE(shield::deployment_warm_key(legacy),
            shield::deployment_warm_key(legacy_other));
}

TEST(DeploymentReset, RandomizedResetMatchesFreshProperty) {
  // Property: a pooled deployment that last ran another configuration,
  // reset into a randomized one, is bit-identical (through save_warm())
  // to a fresh Deployment of it, right after the reset and after both
  // run on. This is the path every trial of a campaign takes.
  dsp::Rng rng(4242, "snapshot-property");
  for (int rep = 0; rep < 8; ++rep) {
    SCOPED_TRACE(rep);
    shield::DeploymentOptions opt;
    opt.seed = rng.next_u64() | 1;
    opt.warmup_seed = rng.next_u64() | 1;
    opt.shield_present = rep != 3;  // one no-shield rep
    opt.with_observer = (rep % 3) == 1;
    opt.imd_profile = (rep % 2) == 0 ? imd::virtuoso_profile()
                                     : imd::concerto_profile();
    if ((rep % 4) == 2) opt.shield_config.hardware_error_sigma = 0.05;
    opt.warmup_s = 2e-3 + 1e-3 * static_cast<double>(rep % 3);

    // The same node set; every seed, profile and setting different.
    shield::DeploymentOptions previous = opt;
    previous.seed = rng.next_u64() | 1;
    previous.warmup_seed = rng.next_u64() | 1;
    previous.imd_profile = (rep % 2) == 0 ? imd::concerto_profile()
                                          : imd::virtuoso_profile();
    previous.shield_config.hardware_error_sigma =
        (rep % 4) == 2 ? 0.0 : 0.05;
    previous.shield_config.jam_profile = shield::JamProfile::kConstant;
    previous.warmup_s = 1e-3;
    shield::Deployment pooled(previous);
    const double evolve_s = 1e-3 * static_cast<double>(rng.uniform_u64(4));
    if (evolve_s > 0.0) pooled.run_for(evolve_s);
    ASSERT_TRUE(pooled.can_reset_to(opt));
    pooled.reset(opt);

    shield::Deployment fresh(opt);
    EXPECT_EQ(pooled.save_warm(), fresh.save_warm());

    pooled.run_for(2e-3);
    fresh.run_for(2e-3);
    EXPECT_EQ(pooled.save_warm(), fresh.save_warm());
  }
}

}  // namespace
}  // namespace hs::campaign
