// SSE2 kernel backend: 2-wide double vectors (x86-64 baseline ISA).
//
// Bit-exactness against the scalar reference follows the same rule as the
// AVX2 backend: only dimensions that are already independent accumulation
// chains get a vector lane. The segmented correlation and dual-tone kernels
// therefore still step FOUR lanes per iteration — as two __m128d vectors
// each — so the main-loop/tail boundary and per-lane operation order match
// the reference exactly; `test_dsp_kernels` enforces the match.
//
// Raw intrinsics are allowed in this file only (LINT.toml raw-intrinsics
// allowlist); everything else goes through the dispatch table.

#include "dsp/kernels_internal.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

#include <cmath>

namespace hs::dsp::kernels {
namespace {

double segcorr_sse2(const double* sig_re, const double* sig_im,
                    const double* sig_pow, const double* ref_re,
                    const double* ref_im, std::size_t ref_len,
                    double ref_energy, const double* ref_tail,
                    double threshold) {
  const SyncSegments g(ref_len);
  // Lanes 0-1 and 2-3 of the scalar reference, as two vectors each.
  __m128d ven01[kSyncSegments], ven23[kSyncSegments];
  for (std::size_t s = 0; s < kSyncSegments; ++s) {
    ven01[s] = _mm_setzero_pd();
    ven23[s] = _mm_setzero_pd();
  }
  if (sig_pow != nullptr) {
    for_each_sync_step(g, [&](std::size_t s, std::size_t i) {
      ven01[s] = _mm_add_pd(ven01[s], _mm_loadu_pd(sig_pow + i));
      ven23[s] = _mm_add_pd(ven23[s], _mm_loadu_pd(sig_pow + i + 2));
    });
  } else {
    for_each_sync_step(g, [&](std::size_t s, std::size_t i) {
      const __m128d br0 = _mm_loadu_pd(sig_re + i);
      const __m128d br1 = _mm_loadu_pd(sig_re + i + 2);
      const __m128d bi0 = _mm_loadu_pd(sig_im + i);
      const __m128d bi1 = _mm_loadu_pd(sig_im + i + 2);
      ven01[s] = _mm_add_pd(ven01[s], _mm_add_pd(_mm_mul_pd(br0, br0),
                                                 _mm_mul_pd(bi0, bi0)));
      ven23[s] = _mm_add_pd(ven23[s], _mm_add_pd(_mm_mul_pd(br1, br1),
                                                 _mm_mul_pd(bi1, bi1)));
    });
  }
  double seg_energy[kSyncSegments];
  for (std::size_t s = 0; s < kSyncSegments; ++s) {
    double energy[kSyncLanes];
    _mm_storeu_pd(energy, ven01[s]);
    _mm_storeu_pd(energy + 2, ven23[s]);
    for (std::size_t i = g.tail_from(s); i < g.to(s); ++i) {
      energy[0] += sync_power_term(sig_re, sig_im, sig_pow, i);
    }
    seg_energy[s] = sync_lane_sum(energy);
  }
  const SyncExit exit(seg_energy, ref_energy, ref_tail, threshold);

  double acc_mag = 0.0;
  for (std::size_t s = 0; s < kSyncSegments; ++s) {
    const std::size_t to = g.to(s);
    __m128d vre01 = _mm_setzero_pd(), vre23 = _mm_setzero_pd();
    __m128d vim01 = _mm_setzero_pd(), vim23 = _mm_setzero_pd();
    std::size_t i = g.from(s);
    for (; i + kSyncLanes <= to; i += kSyncLanes) {
      const __m128d br0 = _mm_loadu_pd(sig_re + i);
      const __m128d br1 = _mm_loadu_pd(sig_re + i + 2);
      const __m128d bi0 = _mm_loadu_pd(sig_im + i);
      const __m128d bi1 = _mm_loadu_pd(sig_im + i + 2);
      const __m128d rr0 = _mm_loadu_pd(ref_re + i);
      const __m128d rr1 = _mm_loadu_pd(ref_re + i + 2);
      const __m128d ri0 = _mm_loadu_pd(ref_im + i);
      const __m128d ri1 = _mm_loadu_pd(ref_im + i + 2);
      vre01 = _mm_add_pd(vre01, _mm_add_pd(_mm_mul_pd(br0, rr0),
                                           _mm_mul_pd(bi0, ri0)));
      vre23 = _mm_add_pd(vre23, _mm_add_pd(_mm_mul_pd(br1, rr1),
                                           _mm_mul_pd(bi1, ri1)));
      vim01 = _mm_add_pd(vim01, _mm_sub_pd(_mm_mul_pd(bi0, rr0),
                                           _mm_mul_pd(br0, ri0)));
      vim23 = _mm_add_pd(vim23, _mm_sub_pd(_mm_mul_pd(bi1, rr1),
                                           _mm_mul_pd(br1, ri1)));
    }
    double acc_re[kSyncLanes], acc_im[kSyncLanes];
    _mm_storeu_pd(acc_re, vre01);
    _mm_storeu_pd(acc_re + 2, vre23);
    _mm_storeu_pd(acc_im, vim01);
    _mm_storeu_pd(acc_im + 2, vim23);
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

DualToneAccum dual_tone_sse2(const double* x_re, const double* x_im,
                             const double* tone_a, const double* tone_b,
                             std::size_t n) {
  // Accumulators (c0r, c0i) and (c1r, c1i) as two vectors.
  __m128d acc01 = _mm_setzero_pd();
  __m128d acc23 = _mm_setzero_pd();
  for (std::size_t i = 0; i < n; ++i) {
    const __m128d xr = _mm_load1_pd(x_re + i);
    const __m128d xi = _mm_load1_pd(x_im + i);
    const double* a = tone_a + 4 * i;
    const double* b = tone_b + 4 * i;
    acc01 = _mm_add_pd(acc01,
                       _mm_add_pd(_mm_mul_pd(xr, _mm_loadu_pd(a)),
                                  _mm_mul_pd(xi, _mm_loadu_pd(b))));
    acc23 = _mm_add_pd(acc23,
                       _mm_add_pd(_mm_mul_pd(xr, _mm_loadu_pd(a + 2)),
                                  _mm_mul_pd(xi, _mm_loadu_pd(b + 2))));
  }
  double lanes[4];
  _mm_storeu_pd(lanes, acc01);
  _mm_storeu_pd(lanes + 2, acc23);
  return {lanes[0], lanes[1], lanes[2], lanes[3]};
}

void cmac_sse2(double* out_re, double* out_im, const double* in_re,
               const double* in_im, double gr, double gi, std::size_t n) {
  const __m128d vgr = _mm_set1_pd(gr);
  const __m128d vgi = _mm_set1_pd(gi);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d ir = _mm_loadu_pd(in_re + i);
    const __m128d ii = _mm_loadu_pd(in_im + i);
    __m128d orr = _mm_loadu_pd(out_re + i);
    __m128d oii = _mm_loadu_pd(out_im + i);
    orr = _mm_add_pd(orr, _mm_sub_pd(_mm_mul_pd(vgr, ir),
                                     _mm_mul_pd(vgi, ii)));
    oii = _mm_add_pd(oii, _mm_add_pd(_mm_mul_pd(vgr, ii),
                                     _mm_mul_pd(vgi, ir)));
    _mm_storeu_pd(out_re + i, orr);
    _mm_storeu_pd(out_im + i, oii);
  }
  for (; i < n; ++i) {
    out_re[i] += gr * in_re[i] - gi * in_im[i];
    out_im[i] += gr * in_im[i] + gi * in_re[i];
  }
}

void fir_real_sse2(const double* taps, std::size_t t, const double* x_re,
                   const double* x_im, double* out_re, double* out_im,
                   std::size_t m) {
  const std::size_t hist = t - 1;
  std::size_t i = 0;
  // Two outputs per iteration; each lane is one output's own sequential
  // accumulation over k.
  for (; i + 2 <= m; i += 2) {
    __m128d ar = _mm_setzero_pd();
    __m128d ai = _mm_setzero_pd();
    const double* xr0 = x_re + hist + i;
    const double* xi0 = x_im + hist + i;
    for (std::size_t k = 0; k < t; ++k) {
      const __m128d tap = _mm_load1_pd(taps + k);
      ar = _mm_add_pd(ar, _mm_mul_pd(tap, _mm_loadu_pd(xr0 - k)));
      ai = _mm_add_pd(ai, _mm_mul_pd(tap, _mm_loadu_pd(xi0 - k)));
    }
    _mm_storeu_pd(out_re + i, ar);
    _mm_storeu_pd(out_im + i, ai);
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

void fir_cplx_sse2(const double* tap_re, const double* tap_im, std::size_t t,
                   const double* x_re, const double* x_im, double* out_re,
                   double* out_im, std::size_t m) {
  const std::size_t hist = t - 1;
  std::size_t i = 0;
  for (; i + 2 <= m; i += 2) {
    __m128d ar = _mm_setzero_pd();
    __m128d ai = _mm_setzero_pd();
    const double* xr0 = x_re + hist + i;
    const double* xi0 = x_im + hist + i;
    for (std::size_t k = 0; k < t; ++k) {
      const __m128d tr = _mm_load1_pd(tap_re + k);
      const __m128d ti = _mm_load1_pd(tap_im + k);
      const __m128d vr = _mm_loadu_pd(xr0 - k);
      const __m128d vi = _mm_loadu_pd(xi0 - k);
      ar = _mm_add_pd(ar,
                      _mm_sub_pd(_mm_mul_pd(tr, vr), _mm_mul_pd(ti, vi)));
      ai = _mm_add_pd(ai,
                      _mm_add_pd(_mm_mul_pd(tr, vi), _mm_mul_pd(ti, vr)));
    }
    _mm_storeu_pd(out_re + i, ar);
    _mm_storeu_pd(out_im + i, ai);
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

const KernelTable kSse2Table = {
    &exact_sync_correlation<segcorr_sse2>,
    &segcorr_sse2,
    &dual_tone_sse2,
    &cmac_sse2,
    &fir_real_sse2,
    &fir_cplx_sse2,
};

}  // namespace

const KernelTable* sse2_kernel_table() { return &kSse2Table; }

}  // namespace hs::dsp::kernels

#else  // !defined(__SSE2__)

namespace hs::dsp::kernels {

const KernelTable* sse2_kernel_table() { return nullptr; }

}  // namespace hs::dsp::kernels

#endif
