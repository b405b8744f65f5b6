// The paper's numbers as a gate. Every preset carries claims (see
// campaign::Claim); at seed 1 and its default trials each claim either
// holds or is a recorded deviation that still misses. The claim data is
// checked first, so no claim can pass vacuously: each names a metric its
// preset emits and covers at least one sweep point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"

namespace hs {
namespace {

using campaign::Claim;
using campaign::Metric;
using campaign::Scenario;

std::string claim_label(const Scenario& s, const Claim& c) {
  return s.name + " / " + std::string(campaign::metric_name(c.metric)) +
         ": " + std::string(c.paper);
}

TEST(Claims, EveryPresetCarriesCheckableClaims) {
  for (const Scenario& s : campaign::scenario_presets()) {
    SCOPED_TRACE(s.name);
    EXPECT_FALSE(s.claims.empty()) << "preset carries no claim";
    const auto& metrics = campaign::metrics_for(s.kind);
    for (const Claim& c : s.claims) {
      SCOPED_TRACE(claim_label(s, c));
      EXPECT_NE(std::find(metrics.begin(), metrics.end(), c.metric),
                metrics.end())
          << "the preset never emits this metric";
      std::size_t covered = 0;
      for (std::size_t p = 0; p < s.point_count(); ++p) {
        if (c.covers(s.axis_value_at(p))) ++covered;
      }
      EXPECT_GT(covered, 0u) << "the claim selects no sweep point";
      EXPECT_LE(c.lo, c.hi);
      EXPECT_FALSE(c.paper.empty());
    }
  }
}

TEST(Claims, PointWithoutSamplesMissesInsteadOfReadingZero) {
  campaign::CampaignResult result;
  result.scenario.axis = campaign::SweepAxis::kLocation;
  result.points.resize(2);
  result.points[0].axis_value = 1;
  result.points[1].axis_value = 2;
  const auto turnaround = static_cast<std::size_t>(Metric::kTurnaroundUs);
  result.points[0].metrics[turnaround].add(0.0);

  Claim zero;
  zero.metric = Metric::kTurnaroundUs;
  zero.paper = "0";
  const auto both = campaign::check_claim(result, zero);
  EXPECT_FALSE(both.holds);
  EXPECT_EQ(both.points, 2u);
  EXPECT_EQ(both.empty_points, 1u);

  Claim first_only = zero;
  first_only.axis_hi = 1;
  EXPECT_TRUE(campaign::check_claim(result, first_only).holds);

  Claim none = zero;
  none.axis_lo = 5;
  const auto nothing = campaign::check_claim(result, none);
  EXPECT_EQ(nothing.points, 0u);
  EXPECT_FALSE(nothing.holds);
}

class PresetClaims : public ::testing::TestWithParam<std::string> {};

TEST_P(PresetClaims, HoldOrMissAsRecorded) {
  const Scenario* s = campaign::find_scenario(GetParam());
  ASSERT_NE(s, nullptr);
  campaign::CampaignOptions options;
  options.seed = 1;
  options.threads = 0;  // every thread count folds to the same means
  const auto result = campaign::run_campaign(*s, options);
  campaign::print_summary(stdout, result);
  // A claim holds exactly when it records no deviation, so a deviation
  // that starts holding fails too.
  for (const Claim& c : s->claims) {
    const auto v = campaign::check_claim(result, c);
    EXPECT_EQ(v.holds, c.deviation.empty())
        << claim_label(*s, c)
        << (c.deviation.empty() ? " misses"
                                : " holds but is recorded as a deviation")
        << ": means " << v.min_mean << ".." << v.max_mean << " over "
        << v.points << " points (" << v.empty_points
        << " without samples), want [" << c.lo << ", " << c.hi << "]";
  }
}

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  for (const Scenario& s : campaign::scenario_presets()) {
    names.push_back(s.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    Presets, PresetClaims, ::testing::ValuesIn(preset_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace hs
