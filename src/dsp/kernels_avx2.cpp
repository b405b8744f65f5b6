// AVX2 kernel backend: 4-wide double vectors.
//
// Compiled with -mavx2 (CMakeLists.txt); every function
// here is reached only through the dispatch table after a runtime
// __builtin_cpu_supports("avx2") check. Each kernel vectorizes a dimension
// that is already an independent accumulation chain in the scalar
// reference (kernels.cpp), so the per-chain operation order is unchanged
// and results are bit-identical — `test_dsp_kernels` enforces it.
//
// Raw intrinsics are allowed in this file only (LINT.toml raw-intrinsics
// allowlist); everything else goes through the dispatch table.

#include "dsp/kernels_internal.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cmath>

namespace hs::dsp::kernels {
namespace {

double segcorr_avx2(const double* sig_re, const double* sig_im,
                    const double* sig_pow, const double* ref_re,
                    const double* ref_im, std::size_t ref_len,
                    double ref_energy, const double* ref_tail,
                    double threshold) {
  const SyncSegments g(ref_len);
  // Vector lane l IS scalar accumulator lane l; one vector per segment.
  __m256d ven[kSyncSegments];
  for (__m256d& v : ven) v = _mm256_setzero_pd();
  if (sig_pow != nullptr) {
    for_each_sync_step(g, [&](std::size_t s, std::size_t i) {
      ven[s] = _mm256_add_pd(ven[s], _mm256_loadu_pd(sig_pow + i));
    });
  } else {
    for_each_sync_step(g, [&](std::size_t s, std::size_t i) {
      const __m256d br = _mm256_loadu_pd(sig_re + i);
      const __m256d bi = _mm256_loadu_pd(sig_im + i);
      ven[s] = _mm256_add_pd(ven[s], _mm256_add_pd(_mm256_mul_pd(br, br),
                                                   _mm256_mul_pd(bi, bi)));
    });
  }
  double seg_energy[kSyncSegments];
  for (std::size_t s = 0; s < kSyncSegments; ++s) {
    double energy[kSyncLanes];
    _mm256_storeu_pd(energy, ven[s]);
    for (std::size_t i = g.tail_from(s); i < g.to(s); ++i) {
      energy[0] += sync_power_term(sig_re, sig_im, sig_pow, i);
    }
    seg_energy[s] = sync_lane_sum(energy);
  }
  const SyncExit exit(seg_energy, ref_energy, ref_tail, threshold);

  double acc_mag = 0.0;
  for (std::size_t s = 0; s < kSyncSegments; ++s) {
    const std::size_t to = g.to(s);
    __m256d vre = _mm256_setzero_pd();
    __m256d vim = _mm256_setzero_pd();
    std::size_t i = g.from(s);
    for (; i + kSyncLanes <= to; i += kSyncLanes) {
      const __m256d br = _mm256_loadu_pd(sig_re + i);
      const __m256d bi = _mm256_loadu_pd(sig_im + i);
      const __m256d rr = _mm256_loadu_pd(ref_re + i);
      const __m256d ri = _mm256_loadu_pd(ref_im + i);
      vre = _mm256_add_pd(vre, _mm256_add_pd(_mm256_mul_pd(br, rr),
                                             _mm256_mul_pd(bi, ri)));
      vim = _mm256_add_pd(vim, _mm256_sub_pd(_mm256_mul_pd(bi, rr),
                                             _mm256_mul_pd(br, ri)));
    }
    double acc_re[kSyncLanes], acc_im[kSyncLanes];
    _mm256_storeu_pd(acc_re, vre);
    _mm256_storeu_pd(acc_im, vim);
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

DualToneAccum dual_tone_avx2(const double* x_re, const double* x_im,
                             const double* tone_a, const double* tone_b,
                             std::size_t n) {
  // One vector holds all four accumulators (c0r, c0i, c1r, c1i).
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n; ++i) {
    const __m256d xr = _mm256_broadcast_sd(x_re + i);
    const __m256d xi = _mm256_broadcast_sd(x_im + i);
    const __m256d a = _mm256_loadu_pd(tone_a + 4 * i);
    const __m256d b = _mm256_loadu_pd(tone_b + 4 * i);
    acc = _mm256_add_pd(
        acc, _mm256_add_pd(_mm256_mul_pd(xr, a), _mm256_mul_pd(xi, b)));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  return {lanes[0], lanes[1], lanes[2], lanes[3]};
}

void cmac_avx2(double* out_re, double* out_im, const double* in_re,
               const double* in_im, double gr, double gi, std::size_t n) {
  const __m256d vgr = _mm256_set1_pd(gr);
  const __m256d vgi = _mm256_set1_pd(gi);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ir = _mm256_loadu_pd(in_re + i);
    const __m256d ii = _mm256_loadu_pd(in_im + i);
    __m256d orr = _mm256_loadu_pd(out_re + i);
    __m256d oii = _mm256_loadu_pd(out_im + i);
    orr = _mm256_add_pd(orr, _mm256_sub_pd(_mm256_mul_pd(vgr, ir),
                                           _mm256_mul_pd(vgi, ii)));
    oii = _mm256_add_pd(oii, _mm256_add_pd(_mm256_mul_pd(vgr, ii),
                                           _mm256_mul_pd(vgi, ir)));
    _mm256_storeu_pd(out_re + i, orr);
    _mm256_storeu_pd(out_im + i, oii);
  }
  for (; i < n; ++i) {
    out_re[i] += gr * in_re[i] - gi * in_im[i];
    out_im[i] += gr * in_im[i] + gi * in_re[i];
  }
}

void fir_real_avx2(const double* taps, std::size_t t, const double* x_re,
                   const double* x_im, double* out_re, double* out_im,
                   std::size_t m) {
  const std::size_t hist = t - 1;
  std::size_t i = 0;
  // Four outputs per iteration; each vector lane is one output's own
  // sequential accumulation over k.
  for (; i + 4 <= m; i += 4) {
    __m256d ar = _mm256_setzero_pd();
    __m256d ai = _mm256_setzero_pd();
    const double* xr0 = x_re + hist + i;
    const double* xi0 = x_im + hist + i;
    for (std::size_t k = 0; k < t; ++k) {
      const __m256d tap = _mm256_broadcast_sd(taps + k);
      ar = _mm256_add_pd(ar, _mm256_mul_pd(tap, _mm256_loadu_pd(xr0 - k)));
      ai = _mm256_add_pd(ai, _mm256_mul_pd(tap, _mm256_loadu_pd(xi0 - k)));
    }
    _mm256_storeu_pd(out_re + i, ar);
    _mm256_storeu_pd(out_im + i, ai);
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

void fir_cplx_avx2(const double* tap_re, const double* tap_im, std::size_t t,
                   const double* x_re, const double* x_im, double* out_re,
                   double* out_im, std::size_t m) {
  const std::size_t hist = t - 1;
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    __m256d ar = _mm256_setzero_pd();
    __m256d ai = _mm256_setzero_pd();
    const double* xr0 = x_re + hist + i;
    const double* xi0 = x_im + hist + i;
    for (std::size_t k = 0; k < t; ++k) {
      const __m256d tr = _mm256_broadcast_sd(tap_re + k);
      const __m256d ti = _mm256_broadcast_sd(tap_im + k);
      const __m256d vr = _mm256_loadu_pd(xr0 - k);
      const __m256d vi = _mm256_loadu_pd(xi0 - k);
      ar = _mm256_add_pd(
          ar, _mm256_sub_pd(_mm256_mul_pd(tr, vr), _mm256_mul_pd(ti, vi)));
      ai = _mm256_add_pd(
          ai, _mm256_add_pd(_mm256_mul_pd(tr, vi), _mm256_mul_pd(ti, vr)));
    }
    _mm256_storeu_pd(out_re + i, ar);
    _mm256_storeu_pd(out_im + i, ai);
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

const KernelTable kAvx2Table = {
    &exact_sync_correlation<segcorr_avx2>,
    &segcorr_avx2,
    &dual_tone_avx2,
    &cmac_avx2,
    &fir_real_avx2,
    &fir_cplx_avx2,
};

}  // namespace

const KernelTable* avx2_kernel_table() { return &kAvx2Table; }

}  // namespace hs::dsp::kernels

#else  // !defined(__AVX2__)

namespace hs::dsp::kernels {

const KernelTable* avx2_kernel_table() { return nullptr; }

}  // namespace hs::dsp::kernels

#endif
