#include <gtest/gtest.h>

#include <cmath>

#include "dsp/power.hpp"
#include "dsp/rng.hpp"
#include "dsp/units.hpp"
#include "mics/band.hpp"
#include "mics/channelizer.hpp"
#include "mics/lbt.hpp"

namespace hs::mics {
namespace {

TEST(Band, TenChannelsOf300kHz) {
  EXPECT_EQ(kChannelCount, 10u);
  EXPECT_DOUBLE_EQ(kChannelWidthHz, 300e3);
  EXPECT_DOUBLE_EQ(kBandwidthHz, 3e6);
}

TEST(Band, ChannelCenters) {
  EXPECT_DOUBLE_EQ(channel_center_hz(0), 402.15e6);
  EXPECT_DOUBLE_EQ(channel_center_hz(9), 404.85e6);
  EXPECT_THROW(channel_center_hz(10), std::out_of_range);
}

TEST(Band, BasebandOffsetsSymmetric) {
  EXPECT_DOUBLE_EQ(channel_baseband_offset_hz(0), -1.35e6);
  EXPECT_DOUBLE_EQ(channel_baseband_offset_hz(9), 1.35e6);
  EXPECT_DOUBLE_EQ(channel_baseband_offset_hz(4) +
                       channel_baseband_offset_hz(5),
                   0.0);
}

TEST(Band, FccListenBeforeTalkIs10ms) {
  EXPECT_DOUBLE_EQ(kListenBeforeTalkS, 10e-3);
}

TEST(Channelizer, TonePlacedInChannelAppearsOnlyThere) {
  // Synthesize a tone at channel 7's center in the wideband stream; the
  // channelizer must route its energy to output 7 and almost nowhere else.
  const std::size_t n = 40000;
  dsp::Samples wideband(n);
  const double f = channel_baseband_offset_hz(7);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = dsp::kTwoPi * f / kWidebandFs * static_cast<double>(i);
    wideband[i] = {std::cos(phase), std::sin(phase)};
  }
  Channelizer channelizer;
  std::array<dsp::Samples, kChannelCount> out;
  channelizer.process(wideband, out);
  // Skip the filter transient.
  const std::size_t skip = 500;
  std::array<double, kChannelCount> power{};
  for (std::size_t c = 0; c < kChannelCount; ++c) {
    double p = 0;
    for (std::size_t i = skip; i < out[c].size(); ++i) {
      p += std::norm(out[c][i]);
    }
    power[c] = p / static_cast<double>(out[c].size() - skip);
  }
  EXPECT_GT(power[7], 0.8);
  for (std::size_t c = 0; c < kChannelCount; ++c) {
    if (c != 7) {
      EXPECT_LT(power[c], 0.01) << "channel " << c;
    }
  }
}

TEST(Channelizer, OutputRateIsOneTenth) {
  Channelizer channelizer;
  std::array<dsp::Samples, kChannelCount> out;
  dsp::Samples wideband(1000, dsp::cplx{});
  channelizer.process(wideband, out);
  for (const auto& ch : out) EXPECT_EQ(ch.size(), 100u);
}

TEST(ChannelSynthesizer, RoundTripThroughChannelizer) {
  // Up-convert a narrowband signal into channel 2, then channelize back.
  dsp::Rng rng(1);
  dsp::Samples baseband(3000);
  for (auto& x : baseband) x = rng.random_phase();  // unit-power signal
  // Lowpass it to fit a 300 kHz channel: here white is too wide, so use a
  // tone at +40 kHz inside the channel instead.
  for (std::size_t i = 0; i < baseband.size(); ++i) {
    const double phase =
        dsp::kTwoPi * 40e3 / kChannelFs * static_cast<double>(i);
    baseband[i] = {std::cos(phase), std::sin(phase)};
  }
  ChannelSynthesizer synth;
  dsp::Samples wideband(baseband.size() * kDecimation, dsp::cplx{});
  synth.process(2, baseband, wideband);

  Channelizer channelizer;
  std::array<dsp::Samples, kChannelCount> out;
  channelizer.process(wideband, out);
  const std::size_t skip = 1000;
  double p2 = 0;
  for (std::size_t i = skip; i < out[2].size(); ++i) {
    p2 += std::norm(out[2][i]);
  }
  p2 /= static_cast<double>(out[2].size() - skip);
  EXPECT_GT(p2, 0.5);
  double p5 = 0;
  for (std::size_t i = skip; i < out[5].size(); ++i) {
    p5 += std::norm(out[5][i]);
  }
  p5 /= static_cast<double>(out[5].size() - skip);
  EXPECT_LT(p5, 0.01);
}

TEST(ChannelSynthesizer, RejectsBadArguments) {
  ChannelSynthesizer synth;
  dsp::Samples baseband(10);
  dsp::Samples wideband(100);
  EXPECT_THROW(synth.process(10, baseband, wideband), std::out_of_range);
  dsp::Samples wrong_size(55);
  EXPECT_THROW(synth.process(0, baseband, wrong_size),
               std::invalid_argument);
}

TEST(Cca, ClearAfterTenQuietMilliseconds) {
  const double fs = 300e3;
  ClearChannelAssessment cca(fs);
  dsp::Rng rng(2);
  dsp::Samples quiet(3000);
  EXPECT_FALSE(cca.channel_clear());
  // 9 ms of quiet: not yet.
  for (int i = 0; i < 900; ++i) {
    rng.fill_awgn(quiet, dsp::dbm_to_mw(-110));
    cca.push(dsp::SampleView(quiet.data(), 3));
  }
  EXPECT_FALSE(cca.channel_clear());
  dsp::Samples more(6000);
  rng.fill_awgn(more, dsp::dbm_to_mw(-110));
  cca.push(more);
  EXPECT_TRUE(cca.channel_clear());
}

TEST(Cca, OccupancyResetsTheClock) {
  const double fs = 300e3;
  ClearChannelAssessment cca(fs, 10e-3, -95.0);
  dsp::Rng rng(3);
  dsp::Samples quiet(4000);
  rng.fill_awgn(quiet, dsp::dbm_to_mw(-110));
  cca.push(quiet);
  // A strong burst occupies the channel.
  dsp::Samples burst(600);
  rng.fill_awgn(burst, dsp::dbm_to_mw(-60));
  cca.push(burst);
  EXPECT_FALSE(cca.channel_clear());
  EXPECT_LT(cca.quiet_time_s(), 5e-3);
  // Quiet again for a full period.
  dsp::Samples quiet2(3100);
  for (int i = 0; i < 2; ++i) {
    rng.fill_awgn(quiet2, dsp::dbm_to_mw(-110));
    cca.push(quiet2);
  }
  EXPECT_TRUE(cca.channel_clear());
}

TEST(Cca, ResetClears) {
  ClearChannelAssessment cca(300e3);
  dsp::Rng rng(4);
  dsp::Samples quiet(4000);
  rng.fill_awgn(quiet, 1e-12);
  cca.push(quiet);
  cca.reset();
  EXPECT_EQ(cca.quiet_time_s(), 0.0);
}

}  // namespace
}  // namespace hs::mics
