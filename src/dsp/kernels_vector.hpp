// The vector backends' kernels, written once over a four-lane type. The
// SSE2 and AVX2 translation units (kernels_sse2.cpp, kernels_avx2.cpp)
// each include this header under their own target flags and return its
// table: V4 is one 4-wide register where the TU has AVX, two 2-wide ones
// otherwise, and the bodies are the same.
//
// Bit-exactness against the scalar reference (kernels.cpp): every lane is
// one of the reference's independent accumulation chains (a sync or demod
// accumulator lane, one FIR output, one MAC element) and performs the
// reference's operations in the reference's order, so every backend
// returns the reference's bits; `test_dsp_kernels` enforces it. Each body
// runs whole four-lane steps and finishes with the reference's scalar
// tail.
//
// Internal linkage, as in kernels_internal.hpp: each ISA TU compiles its
// own copy under its own flags, and the linker must not hand one table
// another TU's body. GCC vector types are allowed in this file only
// (LINT.toml raw-intrinsics allowlist).
#pragma once

#include <cmath>
#include <cstddef>

#include "dsp/kernels_internal.hpp"

namespace hs::dsp::kernels {
namespace {

// load4 and store4 reach plane memory through a vector type aligned as a
// double and free to alias it, as GCC's own unaligned load and store
// intrinsics do. A memcpy compiles to the same instructions, but then GCC
// loads one plane twice per step of the AVX2 sync-correlation loop.
#if defined(__AVX__)
/// Four double lanes in one 256-bit register. GCC's vector operators act
/// lane-wise and broadcast a double operand.
typedef double V4 __attribute__((vector_size(32)));
typedef double V4u __attribute__((vector_size(32), aligned(8), may_alias));

/// Lanes p[0..3], unaligned.
inline V4 load4(const double* p) {
  return *reinterpret_cast<const V4u*>(p);
}

/// Writes the lanes to p[0..3], unaligned.
inline void store4(double* p, V4 v) {
  *reinterpret_cast<V4u*>(p) = v;
}
#else
/// Four double lanes in two 128-bit registers. One 32-byte vector would
/// compile here too, but without AVX GCC lowers it through memory.
struct V4 {
  typedef double Half __attribute__((vector_size(16)));
  Half lo, hi;

  friend V4 operator+(V4 a, V4 b) { return {a.lo + b.lo, a.hi + b.hi}; }
  friend V4 operator-(V4 a, V4 b) { return {a.lo - b.lo, a.hi - b.hi}; }
  friend V4 operator*(V4 a, V4 b) { return {a.lo * b.lo, a.hi * b.hi}; }
  /// The double broadcasts to every lane, as it does for a GCC vector.
  friend V4 operator*(double a, V4 b) { return {a * b.lo, a * b.hi}; }
};
typedef double V2u __attribute__((vector_size(16), aligned(8), may_alias));

inline V4 load4(const double* p) {
  return {*reinterpret_cast<const V2u*>(p),
          *reinterpret_cast<const V2u*>(p + 2)};
}

inline void store4(double* p, V4 v) {
  *reinterpret_cast<V2u*>(p) = v.lo;
  *reinterpret_cast<V2u*>(p + 2) = v.hi;
}
#endif

double segcorr_vec(const double* sig_re, const double* sig_im,
                   const double* sig_pow, const double* ref_re,
                   const double* ref_im, std::size_t ref_len,
                   double ref_energy, const double* ref_tail,
                   double threshold) {
  const SyncSegments g(ref_len);
  // Lane l is the reference's accumulator lane l; one V4 per segment.
  V4 ven[kSyncSegments] = {};
  if (sig_pow != nullptr) {
    for_each_sync_step(g, [&](std::size_t s, std::size_t i) {
      ven[s] = ven[s] + load4(sig_pow + i);
    });
  } else {
    for_each_sync_step(g, [&](std::size_t s, std::size_t i) {
      const V4 br = load4(sig_re + i);
      const V4 bi = load4(sig_im + i);
      ven[s] = ven[s] + (br * br + bi * bi);
    });
  }
  double seg_energy[kSyncSegments];
  for (std::size_t s = 0; s < kSyncSegments; ++s) {
    double energy[kSyncLanes];
    store4(energy, ven[s]);
    for (std::size_t i = g.tail_from(s); i < g.to(s); ++i) {
      energy[0] += sync_power_term(sig_re, sig_im, sig_pow, i);
    }
    seg_energy[s] = sync_lane_sum(energy);
  }
  const SyncExit exit(seg_energy, ref_energy, ref_tail, threshold);

  double acc_mag = 0.0;
  for (std::size_t s = 0; s < kSyncSegments; ++s) {
    const std::size_t to = g.to(s);
    V4 vre = {};
    V4 vim = {};
    std::size_t i = g.from(s);
    for (; i + kSyncLanes <= to; i += kSyncLanes) {
      const V4 br = load4(sig_re + i);
      const V4 bi = load4(sig_im + i);
      const V4 rr = load4(ref_re + i);
      const V4 ri = load4(ref_im + i);
      // b * conj(r)
      vre = vre + (br * rr + bi * ri);
      vim = vim + (bi * rr - br * ri);
    }
    double acc_re[kSyncLanes], acc_im[kSyncLanes];
    store4(acc_re, vre);
    store4(acc_im, vim);
    for (; i < to; ++i) {
      const double br = sig_re[i];
      const double bi = sig_im[i];
      acc_re[0] += br * ref_re[i] + bi * ref_im[i];
      acc_im[0] += bi * ref_re[i] - br * ref_im[i];
    }
    const double re = sync_lane_sum(acc_re);
    const double im = sync_lane_sum(acc_im);
    acc_mag += std::sqrt(re * re + im * im);
    double bound;
    if (exit.below(s, acc_mag, &bound)) return bound;
  }
  return exit.exact(acc_mag);
}

DualToneAccum dual_tone_vec(const double* x_re, const double* x_im,
                            const double* tone_a, const double* tone_b,
                            std::size_t n) {
  // One lane per accumulator (c0r, c0i, c1r, c1i).
  V4 acc = {};
  for (std::size_t i = 0; i < n; ++i) {
    acc = acc + (x_re[i] * load4(tone_a + 4 * i) +
                 x_im[i] * load4(tone_b + 4 * i));
  }
  double lanes[4];
  store4(lanes, acc);
  return {lanes[0], lanes[1], lanes[2], lanes[3]};
}

void cmac_vec(double* out_re, double* out_im, const double* in_re,
              const double* in_im, double gr, double gi, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const V4 ir = load4(in_re + i);
    const V4 ii = load4(in_im + i);
    const V4 orr = load4(out_re + i) + (gr * ir - gi * ii);
    const V4 oii = load4(out_im + i) + (gr * ii + gi * ir);
    store4(out_re + i, orr);
    store4(out_im + i, oii);
  }
  for (; i < n; ++i) {
    out_re[i] += gr * in_re[i] - gi * in_im[i];
    out_im[i] += gr * in_im[i] + gi * in_re[i];
  }
}

void fir_real_vec(const double* taps, std::size_t t, const double* x_re,
                  const double* x_im, double* out_re, double* out_im,
                  std::size_t m) {
  const std::size_t hist = t - 1;
  std::size_t i = 0;
  // Four outputs per step; lane l is output i + l's own sequential
  // accumulation over k.
  for (; i + 4 <= m; i += 4) {
    V4 ar = {};
    V4 ai = {};
    const double* xr0 = x_re + hist + i;
    const double* xi0 = x_im + hist + i;
    for (std::size_t k = 0; k < t; ++k) {
      ar = ar + taps[k] * load4(xr0 - k);
      ai = ai + taps[k] * load4(xi0 - k);
    }
    store4(out_re + i, ar);
    store4(out_im + i, ai);
  }
  for (; i < m; ++i) {
    double ar = 0.0, ai = 0.0;
    for (std::size_t k = 0; k < t; ++k) {
      ar += taps[k] * x_re[hist + i - k];
      ai += taps[k] * x_im[hist + i - k];
    }
    out_re[i] = ar;
    out_im[i] = ai;
  }
}

void fir_cplx_vec(const double* tap_re, const double* tap_im, std::size_t t,
                  const double* x_re, const double* x_im, double* out_re,
                  double* out_im, std::size_t m) {
  const std::size_t hist = t - 1;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    V4 ar = {};
    V4 ai = {};
    const double* xr0 = x_re + hist + i;
    const double* xi0 = x_im + hist + i;
    for (std::size_t k = 0; k < t; ++k) {
      const V4 vr = load4(xr0 - k);
      const V4 vi = load4(xi0 - k);
      ar = ar + (tap_re[k] * vr - tap_im[k] * vi);
      ai = ai + (tap_re[k] * vi + tap_im[k] * vr);
    }
    store4(out_re + i, ar);
    store4(out_im + i, ai);
  }
  for (; i < m; ++i) {
    double ar = 0.0, ai = 0.0;
    for (std::size_t k = 0; k < t; ++k) {
      const double vr = x_re[hist + i - k];
      const double vi = x_im[hist + i - k];
      ar += tap_re[k] * vr - tap_im[k] * vi;
      ai += tap_re[k] * vi + tap_im[k] * vr;
    }
    out_re[i] = ar;
    out_im[i] = ai;
  }
}

const KernelTable kVectorTable = {
    &exact_sync_correlation<segcorr_vec>,
    &segcorr_vec,
    &dual_tone_vec,
    &cmac_vec,
    &fir_real_vec,
    &fir_cplx_vec,
};

}  // namespace

}  // namespace hs::dsp::kernels
