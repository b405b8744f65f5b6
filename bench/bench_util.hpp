// Shared support for the reproduction benches: tiny CLI parsing, table
// printing, and summary statistics. Every bench accepts --seed=N and
// --trials=N and prints deterministic, paper-style rows.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace hs::bench {

struct Args {
  std::uint64_t seed = 1;
  /// 0 => bench default. For campaign-based benches this counts campaign
  /// trials per sweep point (each trial may decode many packets), NOT the
  /// packets-per-location of the pre-campaign loops.
  std::size_t trials = 0;
  unsigned threads = 0;    ///< campaign workers; 0 => hardware concurrency

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], "--seed=", 7) == 0) {
        args.seed = std::strtoull(argv[i] + 7, nullptr, 10);
      } else if (std::strncmp(argv[i], "--trials=", 9) == 0) {
        args.trials = std::strtoull(argv[i] + 9, nullptr, 10);
      } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
        args.threads = static_cast<unsigned>(
            std::strtoul(argv[i] + 10, nullptr, 10));
      } else if (std::strcmp(argv[i], "--help") == 0) {
        std::printf(
            "usage: %s [--seed=N] [--trials=N] [--threads=N]\n"
            "  campaign benches: --trials is campaign trials per sweep "
            "point\n",
            argv[0]);
        std::exit(0);
      }
    }
    return args;
  }

  std::size_t trials_or(std::size_t fallback) const {
    return trials > 0 ? trials : fallback;
  }
};

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("== %s ==\n", title);
  std::printf("   reproduces: %s\n\n", paper_ref);
}

struct Stats {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Stats summarize(const std::vector<double>& xs) {
  Stats s;
  if (xs.empty()) return s;
  double sum = 0.0, sum_sq = 0.0;
  s.min = xs[0];
  s.max = xs[0];
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(xs.size());
  const double var =
      sum_sq / static_cast<double>(xs.size()) - s.mean * s.mean;
  s.stddev = std::sqrt(std::max(var, 0.0));
  return s;
}

/// Prints a CDF of the samples as (value, fraction <= value) rows.
inline void print_cdf(std::vector<double> xs, const char* value_label,
                      std::size_t rows = 12) {
  if (xs.empty()) {
    std::printf("  (no samples)\n");
    return;
  }
  std::sort(xs.begin(), xs.end());
  std::printf("  %-14s  CDF\n", value_label);
  for (std::size_t r = 0; r <= rows; ++r) {
    const double q = static_cast<double>(r) / static_cast<double>(rows);
    const std::size_t idx = std::min(
        xs.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1)));
    std::printf("  %-14.4f  %.3f\n", xs[idx], q);
  }
}

}  // namespace hs::bench
