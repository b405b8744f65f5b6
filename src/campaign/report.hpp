/// @file
/// CSV / JSON report emitters for campaign results, plus the
/// `--metrics-json` document writer. The emitted schemas are documented
/// in docs/REPRODUCING.md.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

#include "campaign/runner.hpp"
#include "wire/lexer.hpp"

namespace hs::campaign {

// The report emitters' JSON string escaping is the wire codec's.
using wire::json_escape;

/// One row per (point, metric): axis value, sample count, mean, stddev,
/// min, max and the Wilson 95% interval for indicator metrics.
std::string to_csv(const CampaignResult& result);

/// The same aggregates as a single JSON document.
std::string to_json(const CampaignResult& result);

/// A claim's outcome on one campaign result (see Claim).
struct ClaimVerdict {
  std::size_t points = 0;        ///< covered sweep points
  std::size_t empty_points = 0;  ///< covered points with no samples
  double min_mean = 0.0;  ///< lowest mean over covered points with samples
  double max_mean = 0.0;  ///< highest mean over covered points with samples
  /// At least one point covered, none empty, every mean in [lo, hi].
  bool holds = false;
};

/// Checks `claim` against the per-point means of `result`.
ClaimVerdict check_claim(const CampaignResult& result, const Claim& claim);

/// Compact human-readable table of the per-point means, followed by one
/// verdict line per claim of the scenario (campaign_runner prints it in
/// every mode).
void print_summary(std::FILE* out, const CampaignResult& result);

/// wire::write_file that also names the path and the error on stderr.
bool write_file(const std::string& path, const std::string& content);

/// Zeroes the runtime-dependent fields (wall time, thread count) so
/// reports from different executions of the same campaign —
/// serial vs sharded-and-merged — compare byte-for-byte. Merged results
/// from campaign::merge_chunk_streams are canonical already; apply this
/// to the serial reference before diffing reports.
void canonicalize(CampaignResult& result);

/// The `--metrics-json` document (schema in docs/REPRODUCING.md):
/// versioned header, run geometry (shards/threads/wall), every
/// obs::Counter, and every obs::Phase with calls, accumulated
/// nanoseconds, and its share of total wall time (phases nest, so
/// shares overlap — they are not a partition). `wall_seconds` <= 0
/// writes every share as 0.
std::string metrics_report_json(const std::string& scenario_name,
                                std::uint64_t seed, std::size_t shards,
                                unsigned threads, double wall_seconds,
                                const obs::Report& report);

}  // namespace hs::campaign
