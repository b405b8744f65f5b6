// Shared support for the reproduction benches: tiny CLI parsing, table
// printing, and summary statistics. Every bench accepts --seed=N and
// --trials=N and prints deterministic, paper-style rows.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "wire/cli.hpp"

namespace hs::bench {

struct Args {
  std::uint64_t seed = 1;
  /// 0 => bench default. For campaign-based benches this counts campaign
  /// trials per sweep point (each trial may decode many packets), NOT the
  /// packets-per-location of the pre-campaign loops.
  std::size_t trials = 0;
  unsigned threads = 0;    ///< campaign workers; 0 => hardware concurrency

  /// Malformed numbers and unknown flags exit 1, like campaign_runner;
  /// --help prints the usage and exits 0.
  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      const char* value = nullptr;
      if ((value = wire::flag_value(arg, "--seed", argc, argv, &i))) {
        args.seed = wire::flag_u64(value, "--seed");
      } else if ((value = wire::flag_value(arg, "--trials", argc, argv, &i))) {
        args.trials = wire::flag_u64(value, "--trials");
      } else if ((value = wire::flag_value(arg, "--threads", argc, argv, &i))) {
        args.threads = wire::flag_u32(value, "--threads");
      } else {
        const bool help = std::strcmp(arg, "--help") == 0;
        std::fprintf(
            help ? stdout : stderr,
            "usage: %s [--seed=N] [--trials=N] [--threads=N]\n"
            "  campaign benches: --trials is campaign trials per sweep "
            "point\n",
            argv[0]);
        std::exit(help ? 0 : 1);
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
