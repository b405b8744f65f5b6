#include "campaign/report.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

#include "wire/file.hpp"

namespace hs::campaign {

namespace {

/// RFC 4180 field quoting: fields containing a comma, double quote, CR or
/// LF are wrapped in double quotes with embedded quotes doubled. Preset
/// descriptions routinely contain commas; without this they shear the
/// column layout.
std::string csv_field(std::string_view field) {
  if (field.find_first_of(",\"\r\n") == std::string_view::npos) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

// Decimal %.9g formatting is allowlisted in LINT.toml (float-format):
// these reports are terminal — byte-compared by the determinism checks
// but never re-parsed into moments. Values that must round-trip exactly
// travel as %a hex-floats in chunk_stream.cpp instead.
void append_row_metrics(std::string& out, const PointResult& point,
                        Metric metric, const std::string& prefix,
                        const std::string& suffix) {
  const auto& st = point.stats(metric);
  char buf[512];
  if (metric_is_indicator(metric)) {
    const auto w = wilson_interval(st);
    std::snprintf(buf, sizeof buf, "%zu,%.9g,%.9g,%.9g,%.9g,%.9g,%.9g",
                  st.count(), st.mean(), st.stddev(), st.min(), st.max(),
                  w.lo, w.hi);
  } else {
    std::snprintf(buf, sizeof buf, "%zu,%.9g,%.9g,%.9g,%.9g,,",
                  st.count(), st.mean(), st.stddev(), st.min(), st.max());
  }
  out += prefix;
  out += buf;
  out += suffix;
  out += '\n';
}

/// "location 1..5", "jam_margin_db 20", "every location" — the points a
/// claim covers, for its verdict line. Empty for single-point scenarios.
std::string claim_coverage(SweepAxis axis, const Claim& claim) {
  if (axis == SweepAxis::kNone) return "";
  const std::string name(axis_name(axis));
  const bool open_lo = std::isinf(claim.axis_lo);
  const bool open_hi = std::isinf(claim.axis_hi);
  char buf[96];
  if (open_lo && open_hi) {
    std::snprintf(buf, sizeof buf, " @ every %s", name.c_str());
  } else if (open_lo) {
    std::snprintf(buf, sizeof buf, " @ %s <= %g", name.c_str(),
                  claim.axis_hi);
  } else if (open_hi) {
    std::snprintf(buf, sizeof buf, " @ %s >= %g", name.c_str(),
                  claim.axis_lo);
  } else if (claim.axis_lo == claim.axis_hi) {
    std::snprintf(buf, sizeof buf, " @ %s %g", name.c_str(), claim.axis_lo);
  } else {
    std::snprintf(buf, sizeof buf, " @ %s %g..%g", name.c_str(),
                  claim.axis_lo, claim.axis_hi);
  }
  return buf;
}

void print_claim(std::FILE* out, const CampaignResult& result,
                 const Claim& claim) {
  const ClaimVerdict v = check_claim(result, claim);
  const char* label = v.holds ? (claim.deviation.empty() ? "holds" : "STALE")
                              : (claim.deviation.empty() ? "MISSES"
                                                         : "deviates");
  char means[96];
  const std::size_t sampled = v.points - v.empty_points;
  if (sampled == 0) {
    std::snprintf(means, sizeof means, "no samples");
  } else if (v.min_mean == v.max_mean) {
    std::snprintf(means, sizeof means, "mean %.4g", v.min_mean);
  } else {
    std::snprintf(means, sizeof means, "means %.4g..%.4g", v.min_mean,
                  v.max_mean);
  }
  char empty[96] = "";
  if (v.empty_points > 0 && sampled > 0) {
    std::snprintf(empty, sizeof empty, ", %zu of %zu points without samples",
                  v.empty_points, v.points);
  }
  std::fprintf(out, "    %-8s  %s%s: %s%s, want [%g, %g]; paper: %.*s\n",
               label, std::string(metric_name(claim.metric)).c_str(),
               claim_coverage(result.scenario.axis, claim).c_str(), means,
               empty, claim.lo, claim.hi,
               static_cast<int>(claim.paper.size()), claim.paper.data());
  if (!claim.deviation.empty()) {
    std::fprintf(out, "              known deviation: %.*s\n",
                 static_cast<int>(claim.deviation.size()),
                 claim.deviation.data());
  }
}

}  // namespace

std::string to_csv(const CampaignResult& result) {
  std::string out =
      "scenario,axis,axis_value,metric,count,mean,stddev,min,max,"
      "wilson_lo,wilson_hi,description\n";
  const auto& metrics = metrics_for(result.scenario.kind);
  std::string suffix = ",";
  suffix += csv_field(result.scenario.description);
  for (const auto& point : result.points) {
    for (Metric metric : metrics) {
      char axis_value[64];
      std::snprintf(axis_value, sizeof axis_value, "%.9g", point.axis_value);
      std::string prefix = csv_field(result.scenario.name);
      prefix += ',';
      prefix += csv_field(axis_name(result.scenario.axis));
      prefix += ',';
      prefix += axis_value;
      prefix += ',';
      prefix += csv_field(metric_name(metric));
      prefix += ',';
      append_row_metrics(out, point, metric, prefix, suffix);
    }
  }
  return out;
}

std::string to_json(const CampaignResult& result) {
  std::string out;
  char buf[512];
  // The string fields (description in particular) have no length bound,
  // so they are appended as std::strings rather than routed through the
  // fixed snprintf buffer, which would silently truncate to broken JSON.
  out += "{\n  \"scenario\": \"";
  out += json_escape(result.scenario.name);
  out += "\",\n  \"paper_ref\": \"";
  out += json_escape(result.scenario.paper_ref);
  out += "\",\n  \"description\": \"";
  out += json_escape(result.scenario.description);
  out += "\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"seed\": %" PRIu64 ",\n"
                "  \"threads\": %u,\n"
                "  \"trials_per_point\": %zu,\n"
                "  \"total_trials\": %zu,\n"
                "  \"wall_seconds\": %.6f,\n"
                "  \"trials_per_second\": %.3f,\n"
                "  \"axis\": \"%s\",\n"
                "  \"points\": [\n",
                result.options.seed,
                result.options.threads,
                result.options.trials_per_point > 0
                    ? result.options.trials_per_point
                    : result.scenario.default_trials,
                result.total_trials, result.wall_seconds,
                result.trials_per_second(),
                std::string(axis_name(result.scenario.axis)).c_str());
  out += buf;

  const auto& metrics = metrics_for(result.scenario.kind);
  for (std::size_t p = 0; p < result.points.size(); ++p) {
    const auto& point = result.points[p];
    std::snprintf(buf, sizeof buf,
                  "    {\"axis_value\": %.9g, \"metrics\": {",
                  point.axis_value);
    out += buf;
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      const auto& st = point.stats(metrics[m]);
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"count\": %zu, \"mean\": %.9g, "
                    "\"stddev\": %.9g, \"min\": %.9g, \"max\": %.9g",
                    m == 0 ? "" : ", ",
                    std::string(metric_name(metrics[m])).c_str(), st.count(),
                    st.mean(), st.stddev(), st.min(), st.max());
      out += buf;
      if (metric_is_indicator(metrics[m])) {
        const auto w = wilson_interval(st);
        std::snprintf(buf, sizeof buf,
                      ", \"wilson_lo\": %.9g, \"wilson_hi\": %.9g", w.lo,
                      w.hi);
        out += buf;
      }
      out += "}";
    }
    out += p + 1 < result.points.size() ? "}},\n" : "}}\n";
  }
  out += "  ]\n}\n";
  return out;
}

void print_summary(std::FILE* out, const CampaignResult& result) {
  std::fprintf(out, "== campaign: %s ==\n", result.scenario.name.c_str());
  std::fprintf(out, "   reproduces: %s\n",
               result.scenario.paper_ref.c_str());
  std::fprintf(out, "   %zu points x %zu trials, %u thread(s), %.2fs "
                    "(%.1f trials/s)\n\n",
               result.points.size(),
               result.points.empty()
                   ? std::size_t{0}
                   : result.total_trials / result.points.size(),
               result.options.threads, result.wall_seconds,
               result.trials_per_second());
  const auto& metrics = metrics_for(result.scenario.kind);
  std::fprintf(out, "  %-20s", std::string(axis_name(result.scenario.axis))
                                   .c_str());
  for (Metric metric : metrics) {
    std::fprintf(out, "  %-22s", std::string(metric_name(metric)).c_str());
  }
  std::fprintf(out, "\n");
  for (const auto& point : result.points) {
    std::fprintf(out, "  %-20.6g", point.axis_value);
    for (Metric metric : metrics) {
      const auto& st = point.stats(metric);
      char cell[64];
      std::snprintf(cell, sizeof cell, "%.4f +- %.4f", st.mean(),
                    st.stddev());
      std::fprintf(out, "  %-22s", cell);
    }
    std::fprintf(out, "\n");
  }
  if (result.scenario.claims.empty()) return;
  std::fprintf(out, "\n  claims (the paper's numbers vs this run's "
                    "per-point means):\n");
  for (const Claim& claim : result.scenario.claims) {
    print_claim(out, result, claim);
  }
}

ClaimVerdict check_claim(const CampaignResult& result, const Claim& claim) {
  ClaimVerdict v;
  bool in_range = true;
  for (const auto& point : result.points) {
    if (!claim.covers(point.axis_value)) continue;
    ++v.points;
    const auto& st = point.stats(claim.metric);
    // StreamingStats::mean() reads 0 on an empty stream; a point with no
    // samples is a miss, never a mean of 0.
    if (st.count() == 0) {
      ++v.empty_points;
      continue;
    }
    const double mean = st.mean();
    if (v.points - v.empty_points == 1) {
      v.min_mean = mean;
      v.max_mean = mean;
    } else {
      v.min_mean = std::min(v.min_mean, mean);
      v.max_mean = std::max(v.max_mean, mean);
    }
    in_range = in_range && mean >= claim.lo && mean <= claim.hi;
  }
  v.holds = v.points > 0 && v.empty_points == 0 && in_range;
  return v;
}

bool write_file(const std::string& path, const std::string& content) {
  if (wire::write_file(path, content)) return true;
  std::fprintf(stderr, "campaign: cannot write %s: %s\n", path.c_str(),
               std::strerror(errno));
  return false;
}

void canonicalize(CampaignResult& result) {
  result.wall_seconds = 0.0;
  result.options.threads = 0;
}

std::string metrics_report_json(const std::string& scenario_name,
                                std::uint64_t seed, std::size_t shards,
                                unsigned threads, double wall_seconds,
                                const obs::Report& report) {
  std::string out;
  out.reserve(2048);
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"format\": \"hs-metrics\",\n"
                "  \"version\": %d,\n",
                obs::kMetricsVersion);
  out += buf;
  out += "  \"scenario\": \"" + json_escape(scenario_name) + "\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"seed\": %" PRIu64 ",\n"
                "  \"shards\": %zu,\n"
                "  \"threads\": %u,\n"
                "  \"wall_seconds\": %.6f,\n"
                "  \"counters\": {\n",
                seed, shards, threads, wall_seconds);
  out += buf;
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    std::snprintf(buf, sizeof buf, "    \"%.*s\": %" PRIu64 "%s\n",
                  static_cast<int>(
                      obs::counter_name(static_cast<obs::Counter>(i)).size()),
                  obs::counter_name(static_cast<obs::Counter>(i)).data(),
                  report.counters[i],
                  i + 1 < obs::kCounterCount ? "," : "");
    out += buf;
  }
  out += "  },\n  \"phases\": {\n";
  const double wall_ns = wall_seconds > 0.0 ? wall_seconds * 1e9 : 0.0;
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const obs::PhaseTotals& t = report.phases[i];
    const double share =
        wall_ns > 0.0 ? static_cast<double>(t.ns) / wall_ns : 0.0;
    std::snprintf(buf, sizeof buf,
                  "    \"%.*s\": {\"calls\": %" PRIu64 ", \"ns\": %" PRIu64
                  ", \"share\": %.6f}%s\n",
                  static_cast<int>(
                      obs::phase_name(static_cast<obs::Phase>(i)).size()),
                  obs::phase_name(static_cast<obs::Phase>(i)).data(),
                  t.calls, t.ns, share,
                  i + 1 < obs::kPhaseCount ? "," : "");
    out += buf;
  }
  out += "  }\n}\n";
  return out;
}

}  // namespace hs::campaign
