// Glue for the benches, all of which run on the campaign engine: preset
// lookup wired to the shared CLI args, and the standard throughput
// footer. Kept out of bench_util.hpp so the engine-independent helpers
// (summaries, CDF printing) stay reusable on their own.
#pragma once

#include <cstdio>
#include <cstdlib>

#include "bench_util.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"

namespace hs::bench {

/// Runs a named campaign preset with the CLI's seed/trials/threads;
/// exits with a diagnostic if the preset does not exist.
inline campaign::CampaignResult run_preset(const char* scenario_name,
                                           const Args& args) {
  const campaign::Scenario* scenario =
      campaign::find_scenario(scenario_name);
  if (!scenario) {
    std::fprintf(stderr,
                 "bench: unknown campaign preset '%s' (campaign_runner "
                 "--list shows all)\n",
                 scenario_name);
    std::exit(1);
  }
  campaign::CampaignOptions options;
  options.seed = args.seed;
  options.trials_per_point = args.trials;
  options.threads = args.threads;
  return campaign::run_campaign(*scenario, options);
}

inline void print_campaign_footer(const campaign::CampaignResult& result) {
  std::printf("  campaign: %zu trials on %u thread(s), %.1f trials/s\n",
              result.total_trials, result.options.threads,
              result.trials_per_second());
}

}  // namespace hs::bench
