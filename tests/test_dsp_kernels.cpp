// SIMD kernel backends vs the pinned scalar reference.
//
// Every backend in dsp::kernels promises BIT-EXACT equivalence with the
// scalar reference (kernels.cpp) — the SIMD code only vectorizes along
// dimensions that are already independent accumulation chains, and the
// build compiles every TU with -ffp-contract=off. These tests therefore
// compare backends, and test-local reference loops, with EXPECT_EQ over
// randomized planes.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstddef>
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

}  // namespace
}  // namespace hs::dsp::kernels
