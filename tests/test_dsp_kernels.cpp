// SIMD kernel backends vs the pinned scalar reference.
//
// Every backend in dsp::kernels promises BIT-EXACT equivalence with the
// scalar reference (kernels.cpp) — the SIMD code only vectorizes along
// dimensions that are already independent accumulation chains, and the
// build compiles every TU with -ffp-contract=off. These tests therefore
// compare backends, and test-local reference loops, with EXPECT_EQ over
// randomized planes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "dsp/kernels.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"

namespace hs::dsp::kernels {
namespace {

std::vector<double> random_plane(std::uint64_t seed, std::size_t n,
                                 double scale = 1.0) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-scale, scale);
  return x;
}

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kScalar, Backend::kSse2, Backend::kAvx2}) {
    if (backend_table(b) != nullptr) out.push_back(b);
  }
  return out;
}

const KernelTable& scalar() { return *backend_table(Backend::kScalar); }

// Sizes chosen to hit empty input, sub-lane tails, exact lane multiples,
// and segment boundaries of the 6-segment correlation.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 6, 7, 11, 24, 37, 96, 241, 1000};

TEST(Kernels, ScalarBackendAlwaysPresent) {
  ASSERT_NE(backend_table(Backend::kScalar), nullptr);
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kSse2), "sse2");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
}

TEST(Kernels, BestSupportedBackendIsAvailable) {
  EXPECT_NE(backend_table(best_supported_backend()), nullptr);
}

TEST(Kernels, SetBackendRoundTrip) {
  const Backend before = active_backend();
  ASSERT_TRUE(set_backend(Backend::kScalar));
  EXPECT_EQ(active_backend(), Backend::kScalar);
  ASSERT_TRUE(set_backend(before));
  EXPECT_EQ(active_backend(), before);
}

TEST(Kernels, SegmentedSyncCorrelationMatchesScalarBitForBit) {
  for (Backend b : available_backends()) {
    const KernelTable& t = *backend_table(b);
    for (std::size_t n : kSizes) {
      const auto sr = random_plane(10 + n, n + 8);
      const auto si = random_plane(20 + n, n + 8);
      const auto rr = random_plane(30 + n, n);
      const auto ri = random_plane(40 + n, n);
      double ref_energy = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        ref_energy += rr[i] * rr[i] + ri[i] * ri[i];
      const double got = t.segmented_sync_correlation(
          sr.data(), si.data(), rr.data(), ri.data(), n, ref_energy);
      const double want = scalar().segmented_sync_correlation(
          sr.data(), si.data(), rr.data(), ri.data(), n, ref_energy);
      EXPECT_EQ(got, want) << backend_name(b) << " n=" << n;
    }
  }
}

TEST(Kernels, DualToneMacMatchesScalarBitForBit) {
  for (Backend b : available_backends()) {
    const KernelTable& t = *backend_table(b);
    for (std::size_t n : kSizes) {
      const auto xr = random_plane(50 + n, n);
      const auto xi = random_plane(60 + n, n);
      const auto t0r = random_plane(70 + n, n);
      const auto t0i = random_plane(80 + n, n);
      const auto t1r = random_plane(90 + n, n);
      const auto t1i = random_plane(100 + n, n);
      std::vector<double> tone_a(4 * n), tone_b(4 * n);
      pack_dual_tones(t0r.data(), t0i.data(), t1r.data(), t1i.data(), n,
                      tone_a.data(), tone_b.data());
      const DualToneAccum got =
          t.dual_tone_mac(xr.data(), xi.data(), tone_a.data(), tone_b.data(), n);
      const DualToneAccum want = scalar().dual_tone_mac(
          xr.data(), xi.data(), tone_a.data(), tone_b.data(), n);
      EXPECT_EQ(got.c0_re, want.c0_re) << backend_name(b) << " n=" << n;
      EXPECT_EQ(got.c0_im, want.c0_im) << backend_name(b) << " n=" << n;
      EXPECT_EQ(got.c1_re, want.c1_re) << backend_name(b) << " n=" << n;
      EXPECT_EQ(got.c1_im, want.c1_im) << backend_name(b) << " n=" << n;
    }
  }
}

TEST(Kernels, CmacMatchesScalarBitForBit) {
  for (Backend b : available_backends()) {
    const KernelTable& t = *backend_table(b);
    for (std::size_t n : kSizes) {
      const auto ir = random_plane(110 + n, n);
      const auto ii = random_plane(120 + n, n);
      auto got_re = random_plane(130 + n, n);
      auto got_im = random_plane(140 + n, n);
      auto want_re = got_re;
      auto want_im = got_im;
      const double gr = 0.37, gi = -1.21;
      t.cmac(got_re.data(), got_im.data(), ir.data(), ii.data(), gr, gi, n);
      scalar().cmac(want_re.data(), want_im.data(), ir.data(), ii.data(), gr,
                    gi, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(got_re[i], want_re[i]) << backend_name(b) << " i=" << i;
        EXPECT_EQ(got_im[i], want_im[i]) << backend_name(b) << " i=" << i;
      }
    }
  }
}

TEST(Kernels, FirBlocksMatchScalarBitForBit) {
  for (Backend b : available_backends()) {
    const KernelTable& t = *backend_table(b);
    for (std::size_t taps : {1u, 2u, 5u, 33u}) {
      for (std::size_t m : kSizes) {
        const std::size_t ext = taps - 1 + m;
        const auto xr = random_plane(150 + m + taps, ext);
        const auto xi = random_plane(160 + m + taps, ext);
        const auto h = random_plane(170 + taps, taps);
        const auto hi = random_plane(180 + taps, taps);
        std::vector<double> gr(m), gi(m), wr(m), wi(m);
        t.fir_block_real(h.data(), taps, xr.data(), xi.data(), gr.data(),
                         gi.data(), m);
        scalar().fir_block_real(h.data(), taps, xr.data(), xi.data(),
                                wr.data(), wi.data(), m);
        for (std::size_t i = 0; i < m; ++i) {
          EXPECT_EQ(gr[i], wr[i]) << backend_name(b) << " real i=" << i;
          EXPECT_EQ(gi[i], wi[i]) << backend_name(b) << " real i=" << i;
        }
        t.fir_block_cplx(h.data(), hi.data(), taps, xr.data(), xi.data(),
                         gr.data(), gi.data(), m);
        scalar().fir_block_cplx(h.data(), hi.data(), taps, xr.data(),
                                xi.data(), wr.data(), wi.data(), m);
        for (std::size_t i = 0; i < m; ++i) {
          EXPECT_EQ(gr[i], wr[i]) << backend_name(b) << " cplx i=" << i;
          EXPECT_EQ(gi[i], wi[i]) << backend_name(b) << " cplx i=" << i;
        }
      }
    }
  }
}

// The packed-plane demod formulation (xr*a + xi*b with b pre-negated) must
// equal the original explicit-subtraction loop bit for bit.
TEST(Kernels, DualToneMacMatchesOriginalLoopFormulation) {
  const std::size_t n = 257;
  const auto xr = random_plane(200, n);
  const auto xi = random_plane(201, n);
  const auto t0r = random_plane(202, n);
  const auto t0i = random_plane(203, n);
  const auto t1r = random_plane(204, n);
  const auto t1i = random_plane(205, n);
  std::vector<double> tone_a(4 * n), tone_b(4 * n);
  pack_dual_tones(t0r.data(), t0i.data(), t1r.data(), t1i.data(), n,
                  tone_a.data(), tone_b.data());
  const DualToneAccum got =
      dual_tone_mac(xr.data(), xi.data(), tone_a.data(), tone_b.data(), n);
  double c0r = 0.0, c0i = 0.0, c1r = 0.0, c1i = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    c0r += xr[i] * t0r[i] - xi[i] * t0i[i];
    c0i += xr[i] * t0i[i] + xi[i] * t0r[i];
    c1r += xr[i] * t1r[i] - xi[i] * t1i[i];
    c1i += xr[i] * t1i[i] + xi[i] * t1r[i];
  }
  EXPECT_EQ(got.c0_re, c0r);
  EXPECT_EQ(got.c0_im, c0i);
  EXPECT_EQ(got.c1_re, c1r);
  EXPECT_EQ(got.c1_im, c1i);
}

// Edge geometry pin: with ref_len < 6 the integer segment stride is zero,
// so the first five segments are empty and the whole reference lands in
// the final segment — the result degrades to the plain normalized
// correlation magnitude. Every backend must preserve this.
TEST(KernelsEdge, ShortReferenceFewerThanSegments) {
  const std::size_t n = 5;  // < kSegments
  const auto sr = random_plane(210, n);
  const auto si = random_plane(211, n);
  const auto rr = random_plane(212, n);
  const auto ri = random_plane(213, n);
  double ref_energy = 0.0;
  std::complex<double> acc{0.0, 0.0};
  double sig_energy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ref_energy += rr[i] * rr[i] + ri[i] * ri[i];
    acc += std::complex<double>(sr[i], si[i]) *
           std::conj(std::complex<double>(rr[i], ri[i]));
    sig_energy += sr[i] * sr[i] + si[i] * si[i];
  }
  const double want =
      std::abs(acc) / std::sqrt(std::max(sig_energy * ref_energy, 1e-30));
  for (Backend b : available_backends()) {
    const double got = backend_table(b)->segmented_sync_correlation(
        sr.data(), si.data(), rr.data(), ri.data(), n, ref_energy);
    EXPECT_EQ(got, want) << "backend " << backend_name(b);
  }
}

TEST(KernelsEdge, EmptyReferenceIsZero) {
  const double sig = 1.0;
  for (Backend b : available_backends()) {
    EXPECT_EQ(backend_table(b)->segmented_sync_correlation(&sig, &sig, &sig,
                                                           &sig, 0, 0.0),
              0.0)
        << backend_name(b);
  }
}

// ---- early-exit sync correlation ------------------------------------------

/// The sync correlation loop as the receiver ran it before the early exit:
/// energy lanes beside the correlation lanes, segment by segment. Pins the
/// exact value independently of the kernels' shared code.
double original_sync_correlation(const double* sig_re, const double* sig_im,
                                 const double* ref_re, const double* ref_im,
                                 std::size_t ref_len, double ref_energy) {
  const std::size_t seg = ref_len / 6;
  double acc_mag = 0.0;
  double sig_energy = 0.0;
  for (std::size_t s = 0; s < 6; ++s) {
    const std::size_t from = s * seg;
    const std::size_t to = (s + 1 == 6) ? ref_len : from + seg;
    double acc_re[4] = {}, acc_im[4] = {}, energy[4] = {};
    std::size_t i = from;
    for (; i + 4 <= to; i += 4) {
      for (std::size_t l = 0; l < 4; ++l) {
        const double br = sig_re[i + l];
        const double bi = sig_im[i + l];
        acc_re[l] += br * ref_re[i + l] + bi * ref_im[i + l];
        acc_im[l] += bi * ref_re[i + l] - br * ref_im[i + l];
        energy[l] += br * br + bi * bi;
      }
    }
    for (; i < to; ++i) {
      const double br = sig_re[i];
      const double bi = sig_im[i];
      acc_re[0] += br * ref_re[i] + bi * ref_im[i];
      acc_im[0] += bi * ref_re[i] - br * ref_im[i];
      energy[0] += br * br + bi * bi;
    }
    const double re = (acc_re[0] + acc_re[1]) + (acc_re[2] + acc_re[3]);
    const double im = (acc_im[0] + acc_im[1]) + (acc_im[2] + acc_im[3]);
    acc_mag += std::sqrt(re * re + im * im);
    sig_energy += (energy[0] + energy[1]) + (energy[2] + energy[3]);
  }
  return acc_mag / std::sqrt(std::max(sig_energy * ref_energy, 1e-30));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A unit-modulus FSK-like reference: the phase steps by +-pi/3 per
/// sample, the sign drawn per 12-sample symbol.
void fsk_like_reference(std::uint64_t seed, std::size_t n,
                        std::vector<double>& re, std::vector<double>& im) {
  Rng rng(seed);
  re.resize(n);
  im.resize(n);
  double phase = 0.0;
  double step = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 12 == 0) step = (rng.uniform_u64(2) == 0 ? -1.0 : 1.0) / 3.0;
    phase += step * std::numbers::pi;
    re[i] = std::cos(phase);
    im[i] = std::sin(phase);
  }
}

constexpr std::size_t kSyncLags = 64;

struct SyncWindow {
  std::string name;
  std::vector<double> re, im;  ///< ref_len + kSyncLags samples
};

/// Seeded signals that the lags 0..kSyncLags-1 slide a reference over:
/// white noise; reference copies at a random offset, SNR and CFO; noise
/// with a 30 dB power step inside the window; and all zeros.
std::vector<SyncWindow> sync_windows(std::size_t ref_len,
                                     const std::vector<double>& rr,
                                     const std::vector<double>& ri) {
  const std::size_t n = ref_len + kSyncLags;
  std::vector<SyncWindow> out;
  {
    Rng rng(300 + ref_len);
    SyncWindow w{"noise", std::vector<double>(n), std::vector<double>(n)};
    for (std::size_t i = 0; i < n; ++i) {
      w.re[i] = rng.gaussian();
      w.im[i] = rng.gaussian();
    }
    out.push_back(std::move(w));
  }
  for (std::uint64_t c = 0; c < 6; ++c) {
    Rng rng(400 + 10 * ref_len + c);
    SyncWindow w{"copy " + std::to_string(c), std::vector<double>(n),
                 std::vector<double>(n)};
    const std::size_t at = rng.uniform_u64(kSyncLags);
    const double amp = std::sqrt(std::pow(10.0, rng.uniform(-5.0, 30.0) / 10));
    const double w_cfo = 2.0 * std::numbers::pi * rng.uniform(-500.0, 500.0) /
                         300e3;
    for (std::size_t i = 0; i < n; ++i) {
      const std::complex<double> noise = rng.cgaussian();
      std::complex<double> x = noise;
      if (i >= at && i - at < ref_len) {
        const double ph = w_cfo * static_cast<double>(i);
        x += amp * std::complex<double>(rr[i - at], ri[i - at]) *
             std::complex<double>(std::cos(ph), std::sin(ph));
      }
      w.re[i] = x.real();
      w.im[i] = x.imag();
    }
    out.push_back(std::move(w));
  }
  {
    Rng rng(500 + ref_len);
    SyncWindow w{"power step", std::vector<double>(n),
                 std::vector<double>(n)};
    const std::size_t step_at = kSyncLags + ref_len / 3;
    for (std::size_t i = 0; i < n; ++i) {
      const double sigma = i < step_at ? 1.0 : std::sqrt(1000.0);
      w.re[i] = sigma * rng.gaussian();
      w.im[i] = sigma * rng.gaussian();
    }
    out.push_back(std::move(w));
  }
  out.push_back({"zeros", std::vector<double>(n, 0.0),
                 std::vector<double>(n, 0.0)});
  return out;
}

// The early exit's contract (kernels.hpp): exact bits at or above the
// threshold, an upper bound that stays below it otherwise, the same bits
// on every backend with or without a power plane, and the exact value for
// a threshold <= 0. On noise at the receiver's threshold most lags stop
// early.
TEST(KernelsEarlyExit, SyncCorrelationBelowKeepsItsContract) {
  const double thresholds[] = {-1.0, 0.0, 0.5, 0.82, 0.95, 1.5};
  for (std::size_t ref_len : {576u, 5u, 250u}) {
    std::vector<double> rr, ri;
    fsk_like_reference(600 + ref_len, ref_len, rr, ri);
    double ref_energy = 0.0;
    for (std::size_t i = 0; i < ref_len; ++i) {
      ref_energy += rr[i] * rr[i] + ri[i] * ri[i];
    }
    const SyncTailEnergy tail =
        sync_tail_energy(rr.data(), ri.data(), ref_len);
    for (const SyncWindow& w : sync_windows(ref_len, rr, ri)) {
      std::vector<double> pow(w.re.size());
      for (std::size_t i = 0; i < pow.size(); ++i) {
        pow[i] = w.re[i] * w.re[i] + w.im[i] * w.im[i];
      }
      for (double thr : thresholds) {
        std::size_t early = 0;
        for (std::size_t lag = 0; lag < kSyncLags; ++lag) {
          SCOPED_TRACE(w.name + " ref_len=" + std::to_string(ref_len) +
                       " thr=" + std::to_string(thr) +
                       " lag=" + std::to_string(lag));
          const double* sr = w.re.data() + lag;
          const double* si = w.im.data() + lag;
          const double exact = original_sync_correlation(
              sr, si, rr.data(), ri.data(), ref_len, ref_energy);
          ASSERT_EQ(bits(scalar().segmented_sync_correlation(
                        sr, si, rr.data(), ri.data(), ref_len, ref_energy)),
                    bits(exact));
          const double got = scalar().sync_correlation_below(
              sr, si, pow.data() + lag, rr.data(), ri.data(), ref_len,
              ref_energy, tail.data(), thr);
          for (Backend b : available_backends()) {
            const KernelTable& t = *backend_table(b);
            const double* planes[] = {pow.data() + lag, nullptr};
            for (const double* p : planes) {
              ASSERT_EQ(bits(t.sync_correlation_below(sr, si, p, rr.data(),
                                                      ri.data(), ref_len,
                                                      ref_energy, tail.data(),
                                                      thr)),
                        bits(got))
                  << backend_name(b) << (p ? " plane" : " in place");
            }
          }
          if (thr <= 0.0 || got >= thr) {
            ASSERT_EQ(bits(got), bits(exact)) << got << " vs " << exact;
          } else {
            ASSERT_GE(got, exact);
            ASSERT_LT(exact, thr);
          }
          if (bits(got) != bits(exact)) ++early;
        }
        if (w.name == "noise" && ref_len == 576 && thr == 0.82) {
          EXPECT_GT(early, kSyncLags / 2) << "lags stopped early on noise";
        }
      }
    }
  }
}

}  // namespace
}  // namespace hs::dsp::kernels
