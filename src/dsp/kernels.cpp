// Kernel dispatch and the pinned scalar reference implementations.
//
// The scalar bodies below are the contract: they reproduce, operation for
// operation, the loops that used to live inline at the call sites, and the
// SIMD backends (kernels_vector.hpp, built for SSE2 and for AVX2) must
// match them bit for bit (see kernels.hpp). The build compiles every TU
// with -ffp-contract=off (CMakeLists.txt), so the compiler cannot fuse
// the multiplies and adds into FMAs and silently change the reference.

#include "dsp/kernels.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "dsp/kernels_internal.hpp"

namespace hs::dsp::kernels {
namespace {

// ---- scalar reference ----------------------------------------------------

// The one body behind both sync-correlation slots (kernels.hpp); the
// exact slot is exact_sync_correlation<segcorr_scalar>.
double segcorr_scalar(const double* sig_re, const double* sig_im,
                      const double* sig_pow, const double* ref_re,
                      const double* ref_im, std::size_t ref_len,
                      double ref_energy, const double* ref_tail,
                      double threshold) {
  // Mirrors the original FskReceiver::correlation_at loop: 6 segments
  // combined by magnitude (rides out carrier-frequency offset), each
  // running 4 independent accumulator lanes with the tail folded into
  // lane 0 and the lanes reduced pairwise. The energy lanes run first,
  // all segments together, so the bound test can follow each segment.
  const SyncSegments g(ref_len);
  double energy[kSyncSegments][kSyncLanes] = {};
  for_each_sync_step(g, [&](std::size_t s, std::size_t i) {
    for (std::size_t l = 0; l < kSyncLanes; ++l) {
      energy[s][l] += sync_power_term(sig_re, sig_im, sig_pow, i + l);
    }
  });
  double seg_energy[kSyncSegments];
  for (std::size_t s = 0; s < kSyncSegments; ++s) {
    for (std::size_t i = g.tail_from(s); i < g.to(s); ++i) {
      energy[s][0] += sync_power_term(sig_re, sig_im, sig_pow, i);
    }
    seg_energy[s] = sync_lane_sum(energy[s]);
  }
  const SyncExit exit(seg_energy, ref_energy, ref_tail, threshold);

  double acc_mag = 0.0;
  for (std::size_t s = 0; s < kSyncSegments; ++s) {
    const std::size_t to = g.to(s);
    double acc_re[kSyncLanes] = {};
    double acc_im[kSyncLanes] = {};
    std::size_t i = g.from(s);
    for (; i + kSyncLanes <= to; i += kSyncLanes) {
      for (std::size_t l = 0; l < kSyncLanes; ++l) {
        const double br = sig_re[i + l];
        const double bi = sig_im[i + l];
        const double rr = ref_re[i + l];
        const double ri = ref_im[i + l];
        // b * conj(r)
        acc_re[l] += br * rr + bi * ri;
        acc_im[l] += bi * rr - br * ri;
      }
    }
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

DualToneAccum dual_tone_scalar(const double* x_re, const double* x_im,
                               const double* tone_a, const double* tone_b,
                               std::size_t n) {
  // Four independent accumulation chains, one per packed lane. With the
  // tone_b plane holding the pre-negated imaginary parts, lane 0 computes
  // xr*t0r + xi*(-t0i), which is bit-equal to the original loop's
  // xr*t0r - xi*t0i (IEEE-754: x*(-y) == -(x*y) and a + (-b) == a - b).
  DualToneAccum acc;
  for (std::size_t i = 0; i < n; ++i) {
    const double xr = x_re[i];
    const double xi = x_im[i];
    const double* a = tone_a + 4 * i;
    const double* b = tone_b + 4 * i;
    acc.c0_re += xr * a[0] + xi * b[0];
    acc.c0_im += xr * a[1] + xi * b[1];
    acc.c1_re += xr * a[2] + xi * b[2];
    acc.c1_im += xr * a[3] + xi * b[3];
  }
  return acc;
}

void cmac_scalar(double* out_re, double* out_im, const double* in_re,
                 const double* in_im, double gr, double gi, std::size_t n) {
  // out[i] += g * in[i], expanded exactly as -fcx-limited-range compiles
  // the complex form (the original Medium::mix plane loop).
  for (std::size_t i = 0; i < n; ++i) {
    out_re[i] += gr * in_re[i] - gi * in_im[i];
    out_im[i] += gr * in_im[i] + gi * in_re[i];
  }
}

void fir_real_scalar(const double* taps, std::size_t t, const double* x_re,
                     const double* x_im, double* out_re, double* out_im,
                     std::size_t m) {
  const std::size_t hist = t - 1;
  for (std::size_t i = 0; i < m; ++i) {
    double ar = 0.0, ai = 0.0;
    for (std::size_t k = 0; k < t; ++k) {
      ar += taps[k] * x_re[hist + i - k];
      ai += taps[k] * x_im[hist + i - k];
    }
    out_re[i] = ar;
    out_im[i] = ai;
  }
}

void fir_cplx_scalar(const double* tap_re, const double* tap_im,
                     std::size_t t, const double* x_re, const double* x_im,
                     double* out_re, double* out_im, std::size_t m) {
  const std::size_t hist = t - 1;
  for (std::size_t i = 0; i < m; ++i) {
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

const KernelTable kScalarTable = {
    &exact_sync_correlation<segcorr_scalar>,
    &segcorr_scalar,
    &dual_tone_scalar,
    &cmac_scalar,
    &fir_real_scalar,
    &fir_cplx_scalar,
};

// ---- runtime dispatch ----------------------------------------------------

bool cpu_can_run(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kSse2:
#if defined(__x86_64__)
      return true;  // SSE2 is the x86-64 baseline
#elif defined(__i386__)
      return __builtin_cpu_supports("sse2");
#else
      return false;
#endif
    case Backend::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

struct Dispatch {
  const KernelTable* table = &kScalarTable;
  Backend backend = Backend::kScalar;
};

bool backend_from_name(const char* name, Backend* out) {
  if (std::strcmp(name, "scalar") == 0) *out = Backend::kScalar;
  else if (std::strcmp(name, "sse2") == 0) *out = Backend::kSse2;
  else if (std::strcmp(name, "avx2") == 0) *out = Backend::kAvx2;
  else return false;
  return true;
}

Dispatch init_dispatch() {
  Dispatch d;
  Backend want = best_supported_backend();
  // Perf A/B escape hatch only: every backend is bit-exact against the
  // scalar reference, so this can change speed but never a result byte.
  if (const char* env = std::getenv("HS_KERNELS")) {
    Backend forced;
    if (backend_from_name(env, &forced) && backend_table(forced) != nullptr) {
      want = forced;
    }
  }
  d.table = backend_table(want);
  d.backend = want;
  return d;
}

Dispatch& dispatch() {
  static Dispatch d = init_dispatch();  // magic static: thread-safe init
  return d;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kSse2:
      return "sse2";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const KernelTable* backend_table(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return &kScalarTable;
    case Backend::kSse2:
      return cpu_can_run(b) ? sse2_kernel_table() : nullptr;
    case Backend::kAvx2:
      return cpu_can_run(b) ? avx2_kernel_table() : nullptr;
  }
  return nullptr;
}

Backend best_supported_backend() {
  if (backend_table(Backend::kAvx2) != nullptr) return Backend::kAvx2;
  if (backend_table(Backend::kSse2) != nullptr) return Backend::kSse2;
  return Backend::kScalar;
}

Backend active_backend() { return dispatch().backend; }

bool set_backend(Backend b) {
  const KernelTable* table = backend_table(b);
  if (table == nullptr) return false;
  dispatch().table = table;
  dispatch().backend = b;
  return true;
}

void pack_dual_tones(const double* t0_re, const double* t0_im,
                     const double* t1_re, const double* t1_im, std::size_t n,
                     double* tone_a, double* tone_b) {
  for (std::size_t i = 0; i < n; ++i) {
    tone_a[4 * i + 0] = t0_re[i];
    tone_a[4 * i + 1] = t0_im[i];
    tone_a[4 * i + 2] = t1_re[i];
    tone_a[4 * i + 3] = t1_im[i];
    tone_b[4 * i + 0] = -t0_im[i];
    tone_b[4 * i + 1] = t0_re[i];
    tone_b[4 * i + 2] = -t1_im[i];
    tone_b[4 * i + 3] = t1_re[i];
  }
}

double segmented_sync_correlation(const double* sig_re, const double* sig_im,
                                  const double* ref_re, const double* ref_im,
                                  std::size_t ref_len, double ref_energy) {
  return dispatch().table->segmented_sync_correlation(
      sig_re, sig_im, ref_re, ref_im, ref_len, ref_energy);
}

SyncTailEnergy sync_tail_energy(const double* ref_re, const double* ref_im,
                                std::size_t ref_len) {
  const SyncSegments g(ref_len);
  SyncTailEnergy tail{};
  double after = 0.0;
  for (std::size_t s = kSyncSegments - 1; s > 0; --s) {
    for (std::size_t i = g.from(s); i < g.to(s); ++i) {
      after += ref_re[i] * ref_re[i] + ref_im[i] * ref_im[i];
    }
    tail[s - 1] = after;
  }
  return tail;
}

double sync_correlation_below(const double* sig_re, const double* sig_im,
                              const double* sig_pow, const double* ref_re,
                              const double* ref_im, std::size_t ref_len,
                              double ref_energy,
                              const SyncTailEnergy& ref_tail,
                              double threshold) {
  return dispatch().table->sync_correlation_below(
      sig_re, sig_im, sig_pow, ref_re, ref_im, ref_len, ref_energy,
      ref_tail.data(), threshold);
}

DualToneAccum dual_tone_mac(const double* x_re, const double* x_im,
                            const double* tone_a, const double* tone_b,
                            std::size_t n) {
  return dispatch().table->dual_tone_mac(x_re, x_im, tone_a, tone_b, n);
}

void cmac(double* out_re, double* out_im, const double* in_re,
          const double* in_im, double gr, double gi, std::size_t n) {
  dispatch().table->cmac(out_re, out_im, in_re, in_im, gr, gi, n);
}

void fir_block_real(const double* taps, std::size_t t, const double* x_re,
                    const double* x_im, double* out_re, double* out_im,
                    std::size_t m) {
  dispatch().table->fir_block_real(taps, t, x_re, x_im, out_re, out_im, m);
}

void fir_block_cplx(const double* tap_re, const double* tap_im,
                    std::size_t t, const double* x_re, const double* x_im,
                    double* out_re, double* out_im, std::size_t m) {
  dispatch().table->fir_block_cplx(tap_re, tap_im, t, x_re, x_im, out_re,
                                   out_im, m);
}

}  // namespace hs::dsp::kernels
