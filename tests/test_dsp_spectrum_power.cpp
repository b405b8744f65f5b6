#include <gtest/gtest.h>

#include <cmath>

#include "dsp/power.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/units.hpp"

namespace hs::dsp {
namespace {

Samples make_tone(double freq, double fs, std::size_t n, double amp = 1.0) {
  Samples out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = kTwoPi * freq / fs * static_cast<double>(i);
    out[i] = amp * cplx(std::cos(phase), std::sin(phase));
  }
  return out;
}

TEST(Units, DbRoundTrips) {
  EXPECT_NEAR(db_to_power(power_to_db(0.37)), 0.37, 1e-12);
  EXPECT_NEAR(amplitude_to_db(db_to_amplitude(-27.0)), -27.0, 1e-12);
  EXPECT_NEAR(dbm_to_mw(0.0), 1.0, 1e-12);
  EXPECT_NEAR(mw_to_dbm(100.0), 20.0, 1e-12);
  // Amplitude dB and power dB share the same scale: a -6 dB amplitude
  // ratio squares to a -6 dB power ratio.
  EXPECT_NEAR(db_to_amplitude(-6.0) * db_to_amplitude(-6.0),
              db_to_power(-6.0), 1e-12);
}

TEST(Welch, TonePeaksAtItsFrequency) {
  const double fs = 300e3;
  const auto tone = make_tone(50e3, fs, 8192);
  WelchOptions opt;
  opt.segment_size = 256;
  const auto psd = welch_psd(tone, fs, opt);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < psd.power.size(); ++i) {
    if (psd.power[i] > psd.power[peak]) peak = i;
  }
  EXPECT_NEAR(psd.freq_hz[peak], 50e3, fs / 256.0);
}

TEST(Welch, NegativeFrequencyTone) {
  const double fs = 300e3;
  const auto tone = make_tone(-75e3, fs, 8192);
  const auto psd = welch_psd(tone, fs);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < psd.power.size(); ++i) {
    if (psd.power[i] > psd.power[peak]) peak = i;
  }
  EXPECT_NEAR(psd.freq_hz[peak], -75e3, fs / 256.0);
}

TEST(Welch, FrequencyAxisAscending) {
  const auto psd = welch_psd(make_tone(0, 1000.0, 1024), 1000.0);
  for (std::size_t i = 1; i < psd.freq_hz.size(); ++i) {
    EXPECT_GT(psd.freq_hz[i], psd.freq_hz[i - 1]);
  }
}

TEST(Welch, ShortSignalStillProducesEstimate) {
  const auto psd = welch_psd(make_tone(10e3, 300e3, 100), 300e3);
  EXPECT_EQ(psd.power.size(), 256u);
}

TEST(Welch, RejectsBadOptions) {
  WelchOptions opt;
  opt.segment_size = 100;  // not a power of two
  EXPECT_THROW(welch_psd(make_tone(0, 1.0, 256), 1.0, opt),
               std::invalid_argument);
  opt.segment_size = 128;
  opt.overlap = 1.0;
  EXPECT_THROW(welch_psd(make_tone(0, 1.0, 256), 1.0, opt),
               std::invalid_argument);
}

TEST(BandPower, CapturesToneInBand) {
  const double fs = 300e3;
  const auto tone = make_tone(50e3, fs, 4096, std::sqrt(2.0));  // power 2
  const double in = band_power(tone, fs, 40e3, 60e3);
  const double out = band_power(tone, fs, -60e3, -40e3);
  EXPECT_NEAR(in, 2.0, 0.1);
  EXPECT_LT(out, 0.01);
}

TEST(Power, MeanPower) {
  Samples s = {cplx{1, 0}, cplx{0, 2}, cplx{0, 0}};
  EXPECT_NEAR(mean_power(s), (1.0 + 4.0 + 0.0) / 3.0, 1e-12);
  EXPECT_EQ(mean_power(Samples{}), 0.0);
}

TEST(RssiMeter, WindowAverage) {
  RssiMeter meter(4);
  meter.push(cplx{1, 0});   // 1
  meter.push(cplx{1, 0});   // 1
  meter.push(cplx{3, 0});   // 9
  EXPECT_FALSE(meter.warmed_up());
  meter.push(cplx{1, 0});   // 1
  EXPECT_TRUE(meter.warmed_up());
  EXPECT_NEAR(meter.value(), (1 + 1 + 9 + 1) / 4.0, 1e-12);
  // Sliding: the first sample drops out.
  meter.push(cplx{0, 0});
  EXPECT_NEAR(meter.value(), (1 + 9 + 1 + 0) / 4.0, 1e-12);
}

TEST(RssiMeter, BlockPushReturnsFinal) {
  RssiMeter meter(2);
  Samples s = {cplx{1, 0}, cplx{2, 0}, cplx{2, 0}};
  EXPECT_NEAR(meter.push(s), (4.0 + 4.0) / 2.0, 1e-12);
}

TEST(RssiMeter, ResetClears) {
  RssiMeter meter(3);
  meter.push(cplx{5, 0});
  meter.reset();
  EXPECT_EQ(meter.value(), 0.0);
  EXPECT_FALSE(meter.warmed_up());
}

TEST(RssiMeter, ZeroWindowThrows) {
  EXPECT_THROW(RssiMeter(0), std::invalid_argument);
}

}  // namespace
}  // namespace hs::dsp
