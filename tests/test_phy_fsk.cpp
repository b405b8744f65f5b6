#include <gtest/gtest.h>

#include <cmath>

#include "dsp/rng.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/units.hpp"
#include "phy/fsk.hpp"

namespace hs::phy {
namespace {

BitVec random_bits(std::size_t n, std::uint64_t seed) {
  dsp::Rng rng(seed);
  BitVec bits(n);
  for (auto& b : bits) b = rng.next_u64() & 1;
  return bits;
}

TEST(FskParams, DefaultsMatchTheVirtuosoProfile) {
  FskParams p;
  EXPECT_DOUBLE_EQ(p.fs, 300e3);
  EXPECT_EQ(p.sps, 12u);
  EXPECT_DOUBLE_EQ(p.bit_rate(), 25e3);
  EXPECT_TRUE(p.tones_orthogonal());
}

TEST(FskParams, NonOrthogonalDetected) {
  FskParams p;
  p.f1 = 37.7e3;  // separation not a multiple of the symbol rate
  EXPECT_FALSE(p.tones_orthogonal());
}

TEST(FskModulator, OutputLengthAndUnitEnvelope) {
  FskParams p;
  FskModulator mod(p);
  const auto bits = random_bits(64, 1);
  const auto wave = mod.modulate(bits);
  ASSERT_EQ(wave.size(), 64 * p.sps);
  for (const auto& x : wave) EXPECT_NEAR(std::abs(x), 1.0, 1e-12);
}

TEST(FskModulator, PhaseContinuityAcrossCalls) {
  FskParams p;
  FskModulator whole(p);
  const auto bits = random_bits(32, 2);
  const auto ref = whole.modulate(bits);

  FskModulator split(p);
  dsp::Samples pieced;
  for (std::size_t i = 0; i < bits.size(); i += 5) {
    const std::size_t n = std::min<std::size_t>(5, bits.size() - i);
    const auto part = split.modulate(BitView(bits.data() + i, n));
    pieced.insert(pieced.end(), part.begin(), part.end());
  }
  ASSERT_EQ(pieced.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(std::abs(pieced[i] - ref[i]), 0.0, 1e-9);
  }
}

TEST(FskModulator, NoPhaseJumpsBetweenSymbols) {
  FskParams p;
  const BitVec bits = {0, 1, 0, 1, 1, 0};
  const auto wave = fsk_modulate(p, bits);
  // Phase steps per sample are bounded by 2*pi*max|f|/fs; a discontinuity
  // would show as a larger jump.
  const double max_step = dsp::kTwoPi * 50e3 / p.fs + 1e-9;
  for (std::size_t i = 1; i < wave.size(); ++i) {
    const double step = std::abs(std::arg(wave[i] * std::conj(wave[i - 1])));
    EXPECT_LE(step, max_step);
  }
}

TEST(FskSpectrum, EnergyAtTones) {
  FskParams p;
  const auto wave = fsk_modulate(p, random_bits(2048, 3));
  const double at_tones = dsp::band_power(wave, p.fs, 35e3, 65e3) +
                          dsp::band_power(wave, p.fs, -65e3, -35e3);
  const double total = dsp::band_power(wave, p.fs, -150e3, 150e3);
  EXPECT_GT(at_tones / total, 0.8);
}

TEST(NoncoherentDemod, CleanRoundTrip) {
  FskParams p;
  const auto bits = random_bits(500, 4);
  const auto wave = fsk_modulate(p, bits);
  NoncoherentFskDemod demod(p);
  EXPECT_EQ(demod.demodulate(wave, 0, bits.size()), bits);
}

TEST(NoncoherentDemod, InvariantToChannelPhaseAndGain) {
  FskParams p;
  const auto bits = random_bits(200, 5);
  auto wave = fsk_modulate(p, bits);
  const dsp::cplx h = 0.003 * dsp::cplx(std::cos(2.2), std::sin(2.2));
  for (auto& x : wave) x *= h;
  NoncoherentFskDemod demod(p);
  EXPECT_EQ(demod.demodulate(wave, 0, bits.size()), bits);
}

TEST(NoncoherentDemod, StopsAtBufferEnd) {
  FskParams p;
  const auto bits = random_bits(10, 6);
  const auto wave = fsk_modulate(p, bits);
  NoncoherentFskDemod demod(p);
  const auto out = demod.demodulate(wave, 0, 100);  // ask for more
  EXPECT_EQ(out.size(), 10u);
}

TEST(NoncoherentDemod, MetricSignMatchesBit) {
  FskParams p;
  NoncoherentFskDemod demod(p);
  const auto one = fsk_modulate(p, BitVec{1});
  const auto zero = fsk_modulate(p, BitVec{0});
  double m1 = 0, m0 = 0;
  EXPECT_EQ(demod.demod_symbol(one, 0, &m1), 1);
  EXPECT_EQ(demod.demod_symbol(zero, 0, &m0), 0);
  EXPECT_GT(m1, 0.0);
  EXPECT_LT(m0, 0.0);
}

struct SnrBerCase {
  double snr_db;
  double max_ber;
};

class NoncoherentBerSweep : public ::testing::TestWithParam<SnrBerCase> {};

TEST_P(NoncoherentBerSweep, BerBelowTheoreticalEnvelope) {
  // Noncoherent orthogonal FSK: Pb = 0.5 exp(-Es/2N0); the 12-sample
  // matched filter gives Es/N0 = 12 * SNR per-sample. We only check an
  // upper envelope with margin.
  const auto [snr_db, max_ber] = GetParam();
  FskParams p;
  const auto bits = random_bits(4000, 8);
  auto wave = fsk_modulate(p, bits);
  dsp::Rng noise(9);
  const double n0 = dsp::db_to_power(-snr_db);
  for (auto& x : wave) x += noise.cgaussian(n0);
  NoncoherentFskDemod demod(p);
  const auto out = demod.demodulate(wave, 0, bits.size());
  EXPECT_LE(bit_error_rate(bits, out), max_ber) << "SNR " << snr_db;
}

INSTANTIATE_TEST_SUITE_P(
    SnrPoints, NoncoherentBerSweep,
    ::testing::Values(SnrBerCase{-10.0, 0.45}, SnrBerCase{-5.0, 0.35},
                      SnrBerCase{0.0, 0.05}, SnrBerCase{3.0, 0.005},
                      SnrBerCase{10.0, 0.0005}));

class SpsSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SpsSweep, RoundTripAcrossSamplesPerSymbol) {
  FskParams p;
  p.sps = GetParam();
  // Keep tones orthogonal (separation = 1 symbol rate) and inside Nyquist
  // even at the smallest sps.
  const double sym_rate = p.fs / static_cast<double>(p.sps);
  p.f0 = -0.5 * sym_rate;
  p.f1 = 0.5 * sym_rate;
  ASSERT_TRUE(p.tones_orthogonal());
  const auto bits = random_bits(300, GetParam());
  const auto wave = fsk_modulate(p, bits);
  NoncoherentFskDemod demod(p);
  EXPECT_EQ(demod.demodulate(wave, 0, bits.size()), bits);
}

INSTANTIATE_TEST_SUITE_P(Sps, SpsSweep, ::testing::Values(4, 8, 12, 16, 24));

}  // namespace
}  // namespace hs::phy
