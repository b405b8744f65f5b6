// Hand-vectorized SIMD kernels for the DSP hot paths, behind a runtime
// dispatch table.
//
// A traced fig9-eaves-ber run (the --metrics-json phase breakdown) puts
// ~34% of per-trial wall time in the receiver demod path and ~32% in
// Medium::mix; the SoA plane layout made those loops contiguous-plane
// arithmetic, and this layer is where they become real vector instructions
// on purpose.
//
// Contract — every backend is BIT-EXACT against the scalar reference:
//  * The scalar implementations in kernels.cpp are the pinned reference;
//    they reproduce, operation for operation, the loops the call sites
//    (FskReceiver::correlation_at, NoncoherentFskDemod::demod_symbol,
//    Medium::mix, FirFilter/ComplexFirFilter::process) ran before this
//    layer existed.
//  * SIMD backends only vectorize along dimensions that were already
//    independent accumulation chains in the reference (the receiver's four
//    correlation lanes, the demod's four accumulators, one FIR output per
//    vector lane, elementwise channel MAC), so every floating-point
//    operation happens in the same order with the same operands and the
//    results match bit for bit. `test_dsp_kernels` enforces this over
//    randomized planes for every backend the host can run.
//  * The build compiles every translation unit with -ffp-contract=off
//    (CMakeLists.txt), so no backend can fuse a multiply-add the reference
//    does not.
//
// The SSE2 and AVX2 backends build one set of bodies, kernels_vector.hpp.
// The determinism linter (`raw-intrinsics`) forbids raw intrinsics, and
// GCC vector types outside that header; new vector code goes there.
#pragma once

#include <array>
#include <cstddef>

namespace hs::dsp::kernels {

/// Instruction-set backend of the kernel dispatch table.
enum class Backend {
  kScalar = 0,  ///< pinned reference (always available)
  kSse2 = 1,    ///< 2-wide double vectors (x86-64 baseline)
  kAvx2 = 2,    ///< 4-wide double vectors (runtime-detected)
};

/// Human-readable backend name ("scalar", "sse2", "avx2").
const char* backend_name(Backend b);

/// Best backend this host supports (compile-time availability AND runtime
/// CPU feature detection).
Backend best_supported_backend();

/// The backend hot paths currently dispatch to. Defaults to
/// best_supported_backend(); the HS_KERNELS environment variable
/// ("scalar", "sse2", "avx2") overrides the default at first use.
Backend active_backend();

/// Forces the dispatch table to `b` (for tests and A/B benchmarking).
/// Returns false (and leaves the table unchanged) if this host cannot run
/// `b`. Not thread-safe: call only while no campaign threads are running.
bool set_backend(Backend b);

/// Segments the sync correlation splits its reference into.
inline constexpr std::size_t kSyncSegments = 6;

/// Segmented noncoherent sync correlation. The reference `ref_len` samples
/// are split into kSyncSegments segments of ref_len / 6 samples, the last
/// taking the remainder (each running 4 independent accumulator lanes,
/// tail into lane 0, lanes reduced pairwise); the per-segment complex
/// correlations c_s are combined by magnitude and normalized by
/// sqrt(sig_energy * ref_energy), floored at 1e-30. `sig_*` must have at
/// least `ref_len` readable samples.
///
/// Edge geometry, pinned by KernelsEdge.ShortReferenceFewerThanSegments:
/// when ref_len < 6 the integer segment stride is 0, the first 5 segments
/// are empty, and the entire reference lands in the final segment — the
/// result is still the plain normalized correlation magnitude.
double segmented_sync_correlation(const double* sig_re, const double* sig_im,
                                  const double* ref_re, const double* ref_im,
                                  std::size_t ref_len, double ref_energy);

/// Reference energy still to come after each segment: entry k is R_{>k},
/// the energy of segments k+1 .. kSyncSegments-1 of the reference.
using SyncTailEnergy = std::array<double, kSyncSegments - 1>;

/// R_{>k} of a `ref_len`-sample reference, for sync_correlation_below.
SyncTailEnergy sync_tail_energy(const double* ref_re, const double* ref_im,
                                std::size_t ref_len);

/// Early-exit segmented sync correlation — the FskReceiver::correlation_at
/// hot loop, for a detector that only asks which lags reach `threshold`.
///
/// Whenever segmented_sync_correlation's value is >= threshold, this
/// returns exactly its bits. Otherwise it may stop after segment k < 5 and
/// return a bound: a value >= the exact one and < threshold. With E_s the
/// signal's segment energies, E_{>k} their sum over s > k, and norm the
/// exact value's denominator, Cauchy–Schwarz gives
/// sum_{s>k} c_s <= sqrt(E_{>k} * R_{>k}), so
///   bound_k = (sum_{s<=k} c_s + sqrt(E_{>k} * R_{>k})) * (1 + 1e-9) / norm
/// is at least the exact value; the 1e-9 margin dwarfs the rounding of a
/// 96-term sum (~1e-14). It returns the first bound_k below threshold, and
/// the exact value when none is. A threshold <= 0 always gives the exact
/// value. Every backend returns the same bits.
///
/// `sig_pow[i]` must hold sig_re[i] * sig_re[i] + sig_im[i] * sig_im[i],
/// the term the exact kernel adds to its energy lanes, so that the segment
/// energies, and hence the exact value, are bit-equal; a null `sig_pow`
/// computes the terms in place.
double sync_correlation_below(const double* sig_re, const double* sig_im,
                              const double* sig_pow, const double* ref_re,
                              const double* ref_im, std::size_t ref_len,
                              double ref_energy,
                              const SyncTailEnergy& ref_tail,
                              double threshold);

/// Accumulators of the dual-tone noncoherent FSK symbol MAC.
struct DualToneAccum {
  double c0_re = 0.0;
  double c0_im = 0.0;
  double c1_re = 0.0;
  double c1_im = 0.0;
};

/// Dual-tone multiply-accumulate — the NoncoherentFskDemod::demod_symbol
/// hot loop: c0 += x[i] * tone0[i], c1 += x[i] * tone1[i] over n samples,
/// with the tones pre-packed into two interleaved planes of 4 doubles per
/// sample (see pack_dual_tones):
///   tone_a[4i..4i+3] = { t0r[i],  t0i[i],  t1r[i],  t1i[i] }
///   tone_b[4i..4i+3] = { -t0i[i], t0r[i], -t1i[i], t1r[i] }
/// so each accumulator lane is x_re*a + x_im*b (a + (-b) == a - b exactly
/// in IEEE-754, which is why the packed negation is bit-exact against the
/// reference's explicit subtraction).
DualToneAccum dual_tone_mac(const double* x_re, const double* x_im,
                            const double* tone_a, const double* tone_b,
                            std::size_t n);

/// Packs two split-complex tone references (length n each) into the
/// interleaved tone_a/tone_b planes dual_tone_mac consumes. The output
/// arrays must hold 4*n doubles each.
void pack_dual_tones(const double* t0_re, const double* t0_im,
                     const double* t1_re, const double* t1_im, std::size_t n,
                     double* tone_a, double* tone_b);

/// Elementwise complex multiply-accumulate — the Medium::mix plane loop:
/// out[i] += (gr + j*gi) * in[i] over n samples, expanded exactly as
/// -fcx-limited-range compiles the complex form.
void cmac(double* out_re, double* out_im, const double* in_re,
          const double* in_im, double gr, double gi, std::size_t n);

/// Real-tap FIR over split planes — the FirFilter::process(SoaView) inner
/// loop. `x_*` point at the extended window (t-1 history samples followed
/// by the block); out[i] = sum_k taps[k] * x[(t-1) + i - k], k ascending,
/// for i in [0, m). Each output keeps the reference's sequential
/// accumulation order over k (SIMD lanes are distinct outputs).
void fir_block_real(const double* taps, std::size_t t, const double* x_re,
                    const double* x_im, double* out_re, double* out_im,
                    std::size_t m);

/// Complex-tap FIR over split planes — the ComplexFirFilter::process
/// inner loop; same geometry as fir_block_real with split taps.
void fir_block_cplx(const double* tap_re, const double* tap_im,
                    std::size_t t, const double* x_re, const double* x_im,
                    double* out_re, double* out_im, std::size_t m);

/// Function-pointer dispatch table (one entry per kernel above, minus the
/// layout helpers). Exposed so tests can exercise a specific backend's
/// table directly; hot paths go through the free functions.
struct KernelTable {
  double (*segmented_sync_correlation)(const double*, const double*,
                                       const double*, const double*,
                                       std::size_t, double);
  /// sync_correlation_below, with `ref_tail` pointing at a SyncTailEnergy.
  double (*sync_correlation_below)(const double*, const double*,
                                   const double*, const double*,
                                   const double*, std::size_t, double,
                                   const double*, double);
  DualToneAccum (*dual_tone_mac)(const double*, const double*, const double*,
                                 const double*, std::size_t);
  void (*cmac)(double*, double*, const double*, const double*, double,
               double, std::size_t);
  void (*fir_block_real)(const double*, std::size_t, const double*,
                         const double*, double*, double*, std::size_t);
  void (*fir_block_cplx)(const double*, const double*, std::size_t,
                         const double*, const double*, double*, double*,
                         std::size_t);
};

/// Backend `b`'s table, or nullptr when this build/host cannot run it.
/// (kScalar is never null.)
const KernelTable* backend_table(Backend b);

}  // namespace hs::dsp::kernels
