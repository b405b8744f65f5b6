// Internal glue between the kernel dispatch (kernels.cpp) and the
// per-ISA translation units (kernels_sse2.cpp, kernels_avx2.cpp), which
// each build the kernels_vector.hpp bodies. Each ISA TU is compiled with
// exactly its target flag on top of the build's flags and returns nullptr
// when the build could not enable that ISA, so dispatch degrades
// gracefully on non-x86 hosts and conservative toolchains.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "dsp/kernels.hpp"

namespace hs::dsp::kernels {

/// SSE2 table, or nullptr when this build has no SSE2 code paths.
const KernelTable* sse2_kernel_table();

/// AVX2 table, or nullptr when this build has no AVX2 code paths.
const KernelTable* avx2_kernel_table();

// The scalar half of the segmented sync correlation, shared by every
// backend so that all of them lay out the segments, order the energy sums
// and test the early-exit bound the same way, and so return the same bits.
// Internal linkage: each ISA TU compiles its own copy under its own target
// flags, and the linker must not hand the scalar path an AVX2-built copy.
namespace {

/// Independent accumulator lanes per segment (the scalar reference's four
/// chains; a SIMD lane is one of them).
constexpr std::size_t kSyncLanes = 4;

/// Where the segments of a `len`-sample reference lie: segment s covers
/// [from(s), to(s)), len / kSyncSegments samples each and the remainder in
/// the last one. Each runs whole four-lane steps, then folds its leftover
/// samples [tail_from(s), to(s)) into lane 0.
struct SyncSegments {
  explicit SyncSegments(std::size_t n) : len(n), seg(n / kSyncSegments) {}
  std::size_t from(std::size_t s) const { return s * seg; }
  std::size_t to(std::size_t s) const {
    return s + 1 == kSyncSegments ? len : from(s) + seg;
  }
  std::size_t tail_from(std::size_t s) const {
    return from(s) + (to(s) - from(s)) / kSyncLanes * kSyncLanes;
  }
  std::size_t len;
  std::size_t seg;
};

/// Calls step(s, i) for every whole four-lane step [i, i + 4) of every
/// segment s. Segment s's steps come in ascending i, so each lane chain
/// adds its terms in the reference's order, but the six segments advance
/// together: their chains are independent and overlap in the pipeline.
template <class Step>
void for_each_sync_step(const SyncSegments& g, Step&& step) {
  constexpr std::size_t kLast = kSyncSegments - 1;
  const std::size_t common = g.seg / kSyncLanes;
  for (std::size_t j = 0; j < common; ++j) {
    for (std::size_t s = 0; s < kSyncSegments; ++s) {
      step(s, g.from(s) + j * kSyncLanes);
    }
  }
  // The last segment can hold more whole steps than the others.
  for (std::size_t i = g.from(kLast) + common * kSyncLanes;
       i + kSyncLanes <= g.len; i += kSyncLanes) {
    step(kLast, i);
  }
}

/// The energy term of signal sample i: read from the power plane, or
/// computed in place when there is none.
inline double sync_power_term(const double* re, const double* im,
                              const double* pow, std::size_t i) {
  return pow != nullptr ? pow[i] : re[i] * re[i] + im[i] * im[i];
}

/// Four accumulator lanes, tail already in lane 0, reduced pairwise.
inline double sync_lane_sum(const double* lanes) {
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

/// The normalization and early-exit test of sync_correlation_below
/// (kernels.hpp), given the signal's six segment energies.
class SyncExit {
 public:
  /// `ref_tail` may be null when `threshold` <= 0 (no exit is taken).
  SyncExit(const double* seg_energy, double ref_energy,
           const double* ref_tail, double threshold)
      : ref_tail_(ref_tail), threshold_(threshold) {
    // The exact value's sum order: segment 0 first, from 0.0.
    double sig_energy = 0.0;
    for (std::size_t s = 0; s < kSyncSegments; ++s) {
      sig_energy += seg_energy[s];
    }
    norm_ = std::sqrt(std::max(sig_energy * ref_energy, 1e-30));
    double tail = 0.0;
    for (std::size_t s = kSyncSegments - 1; s > 0; --s) {
      tail += seg_energy[s];
      sig_tail_[s - 1] = tail;
    }
  }

  /// After segments 0..s have summed to `acc_mag`: true, with the bound
  /// in *bound, when the bound already lies below the threshold.
  bool below(std::size_t s, double acc_mag, double* bound) const {
    if (!(threshold_ > 0.0) || s + 1 >= kSyncSegments) return false;
    const double b =
        (acc_mag + std::sqrt(sig_tail_[s] * ref_tail_[s])) * (1.0 + 1e-9) /
        norm_;
    if (!(b < threshold_)) return false;
    *bound = b;
    return true;
  }

  /// The exact value, from all six segments' magnitudes.
  double exact(double acc_mag) const { return acc_mag / norm_; }

 private:
  const double* ref_tail_;
  double threshold_;
  double norm_ = 0.0;
  double sig_tail_[kSyncSegments - 1] = {};  ///< E_{>k}
};

/// The exact table slot (segmented_sync_correlation) of a backend whose
/// sync-correlation body is `Body`: no power plane, no tail energies and
/// threshold 0, so no exit is taken.
template <auto Body>
double exact_sync_correlation(const double* sig_re, const double* sig_im,
                              const double* ref_re, const double* ref_im,
                              std::size_t ref_len, double ref_energy) {
  return Body(sig_re, sig_im, nullptr, ref_re, ref_im, ref_len, ref_energy,
              nullptr, 0.0);
}

}  // namespace

}  // namespace hs::dsp::kernels
