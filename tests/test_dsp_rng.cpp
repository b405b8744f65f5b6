#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/power.hpp"

namespace hs::dsp {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NamedStreamsAreIndependent) {
  Rng a(7, "thermal-noise"), b(7, "jamming");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, NamedStreamIsDeterministic) {
  Rng a(7, "x"), b(7, "x");
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, HashStreamNameStable) {
  EXPECT_EQ(hash_stream_name("abc"), hash_stream_name("abc"));
  EXPECT_NE(hash_stream_name("abc"), hash_stream_name("abd"));
}

TEST(Rng, DeriveSeedMatchesSubstreamMechanism) {
  EXPECT_EQ(derive_seed(7, "x"), Rng(7, "x").next_u64());
  EXPECT_EQ(derive_seed(7, "x"), derive_seed(7, "x"));
  EXPECT_NE(derive_seed(7, "x"), derive_seed(7, "y"));
  EXPECT_NE(derive_seed(7, "x"), derive_seed(8, "x"));
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.5);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.5);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(8);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformU64InRange) {
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.uniform_u64(17), 17u);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(10);
  const int n = 100000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianMeanStddev) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ComplexGaussianPower) {
  Rng rng(12);
  const int n = 50000;
  double p = 0;
  for (int i = 0; i < n; ++i) p += std::norm(rng.cgaussian(3.0));
  EXPECT_NEAR(p / n, 3.0, 0.1);
}

TEST(Rng, RandomPhaseOnUnitCircle) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(std::abs(rng.random_phase()), 1.0, 1e-12);
  }
}

TEST(Rng, FillAwgnMatchesPower) {
  Rng rng(14);
  Samples buf(50000);
  rng.fill_awgn(buf, 0.25);
  EXPECT_NEAR(mean_power(buf), 0.25, 0.01);
}

// ---- Fill contract ---------------------------------------------------------
//
// Every fill must return exactly the values, and leave exactly the stream
// state, of the equivalent one-at-a-time gaussian() calls (re before im,
// sample by sample). Each check runs over 2^20 variates against a twin
// stream, enough to cross the ziggurat's wedge and tail paths hundreds of
// times.

constexpr std::size_t kFillSamples = std::size_t{1} << 19;  // 2^20 variates
constexpr double kZigguratTailStart = 3.442619855899;

// The reference: 2n variates drawn one gaussian() call at a time.
struct ScalarDraws {
  std::vector<double> g;  // re, im, re, im, ...
  std::array<std::uint64_t, 4> end_state{};
  std::size_t tail = 0;          // variates beyond the tail start
  std::size_t stream_draws = 0;  // next_u64() steps the variates consumed
};

ScalarDraws scalar_draws(std::uint64_t seed, std::size_t n) {
  ScalarDraws d;
  Rng twin(seed);
  d.g.resize(2 * n);
  for (double& g : d.g) {
    g = twin.gaussian();
    d.tail += std::abs(g) > kZigguratTailStart;
  }
  d.end_state = twin.state();
  Rng counter(seed);
  while (counter.state() != d.end_state && d.stream_draws < 8 * n) {
    counter.next_u64();
    ++d.stream_draws;
  }
  return d;
}

// The reference itself must have crossed the slow paths, or bit equality
// would only pin the inline rectangle path.
void expect_slow_paths_ran(const ScalarDraws& d) {
  EXPECT_GT(d.tail, 0u) << "no variate came from the ziggurat tail";
  EXPECT_GT(d.stream_draws, d.g.size())
      << "no draw was rejected, so the wedge/tail paths never ran";
  EXPECT_LT(d.stream_draws, 2 * d.g.size());
}

TEST(RngFill, AosFillMatchesScalarGaussians) {
  const std::uint64_t seed = 21;
  const ScalarDraws ref = scalar_draws(seed, kFillSamples);
  expect_slow_paths_ran(ref);
  const double power = 0.37;
  const double s = std::sqrt(power / 2.0);
  Rng rng(seed);
  Samples out(kFillSamples);
  rng.fill_awgn(out, power);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].real(), s * ref.g[2 * i]) << "sample " << i;
    ASSERT_EQ(out[i].imag(), s * ref.g[2 * i + 1]) << "sample " << i;
  }
  EXPECT_EQ(rng.state(), ref.end_state);
}

TEST(RngFill, SoaFillMatchesScalarGaussians) {
  // Filled in Medium-sized blocks plus odd remainders, so the state is
  // handed back and reloaded between fills many times.
  const std::uint64_t seed = 22;
  const ScalarDraws ref = scalar_draws(seed, kFillSamples);
  expect_slow_paths_ran(ref);
  const double power = 3.5e-12;
  const double s = std::sqrt(power / 2.0);
  Rng rng(seed);
  SoaSamples out(kFillSamples);
  for (std::size_t at = 0, block = 0; at < kFillSamples; ++block) {
    const std::size_t n = std::min<std::size_t>(
        kFillSamples - at, block % 7 == 0 ? 1 + block % 5 : 48);
    rng.fill_awgn(out.view().subview(at, n), power);
    at += n;
  }
  for (std::size_t i = 0; i < kFillSamples; ++i) {
    ASSERT_EQ(out.re()[i], s * ref.g[2 * i]) << "sample " << i;
    ASSERT_EQ(out.im()[i], s * ref.g[2 * i + 1]) << "sample " << i;
  }
  EXPECT_EQ(rng.state(), ref.end_state);
}

TEST(RngFill, CgaussianFillMatchesScalarCgaussian) {
  // The jamming generator's per-bin fill: sigma[k] = sqrt(v[k] / 2) must
  // reproduce cgaussian(v[k]), including zero-variance bins.
  const std::uint64_t seed = 23;
  Rng twin(seed);
  Rng weights(99);
  std::vector<double> variance(kFillSamples);
  std::vector<double> sigma(kFillSamples);
  for (std::size_t k = 0; k < kFillSamples; ++k) {
    variance[k] = k % 64 == 0 ? 0.0 : weights.uniform(0.0, 4.0);
    sigma[k] = std::sqrt(variance[k] / 2.0);
  }
  Samples want(kFillSamples);
  for (std::size_t k = 0; k < kFillSamples; ++k) {
    want[k] = twin.cgaussian(variance[k]);
  }
  Rng rng(seed);
  Samples out(kFillSamples);
  rng.fill_cgaussian(out, sigma);
  for (std::size_t k = 0; k < kFillSamples; ++k) {
    ASSERT_EQ(out[k].real(), want[k].real()) << "bin " << k;
    ASSERT_EQ(out[k].imag(), want[k].imag()) << "bin " << k;
  }
  EXPECT_EQ(rng.state(), twin.state());
  // cgaussian() is two gaussian() calls, so the scalar draws of this seed
  // are the same stream: its slow paths ran here too.
  expect_slow_paths_ran(scalar_draws(seed, kFillSamples));
}

TEST(RngFill, CgaussianFillRejectsSizeMismatch) {
  Rng rng(24);
  Samples out(8);
  const std::vector<double> sigma(7, 1.0);
  EXPECT_THROW(rng.fill_cgaussian(out, sigma), std::invalid_argument);
}

TEST(RngFill, EmptyFillLeavesStateUntouched) {
  Rng rng(25);
  const auto before = rng.state();
  rng.fill_awgn(MutSampleView{}, 1.0);
  rng.fill_awgn(MutSoaView{}, 1.0);
  rng.fill_cgaussian(MutSampleView{}, {});
  EXPECT_EQ(rng.state(), before);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformU64Unbiased) {
  Rng rng(GetParam());
  // Chi-square-lite: each of 8 buckets should get roughly n/8.
  const int n = 40000;
  int buckets[8] = {0};
  for (int i = 0; i < n; ++i) ++buckets[rng.uniform_u64(8)];
  for (int b : buckets) {
    EXPECT_NEAR(static_cast<double>(b), n / 8.0, 0.08 * n / 8.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 42, 1234567, 0xdeadbeef));

}  // namespace
}  // namespace hs::dsp
