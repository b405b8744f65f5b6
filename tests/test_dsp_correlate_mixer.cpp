#include <gtest/gtest.h>

#include <cmath>

#include "dsp/correlate.hpp"
#include "dsp/mixer.hpp"
#include "dsp/rng.hpp"
#include "dsp/resample.hpp"
#include "dsp/spectrum.hpp"

namespace hs::dsp {
namespace {

Samples random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Samples s(n);
  rng.fill_awgn(s, 1.0);
  return s;
}

TEST(EstimateFlatChannel, RecoversGain) {
  const auto ref = random_signal(256, 7);
  const cplx h(0.01, -0.02);
  Samples rx(ref.size());
  Rng noise(8);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    rx[i] = h * ref[i] + noise.cgaussian(1e-8);
  }
  const cplx est = estimate_flat_channel(rx, ref);
  EXPECT_NEAR(std::abs(est - h), 0.0, 1e-3 * std::abs(h));
}

TEST(EstimateFlatChannel, ZeroReferenceGivesZero) {
  Samples ref(16, cplx{});
  Samples rx(16, cplx{1.0, 0.0});
  EXPECT_EQ(estimate_flat_channel(rx, ref), cplx{});
}

TEST(Mixer, ShiftsToneFrequency) {
  const double fs = 300e3;
  Mixer mixer(40e3, fs);
  Samples dc(4096, cplx{1.0, 0.0});
  const auto shifted = mixer.process(dc);
  const auto psd = welch_psd(shifted, fs);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < psd.power.size(); ++i) {
    if (psd.power[i] > psd.power[peak]) peak = i;
  }
  EXPECT_NEAR(psd.freq_hz[peak], 40e3, fs / 256.0);
}

TEST(Mixer, PhaseContinuousAcrossBlocks) {
  const double fs = 300e3;
  Mixer one(35e3, fs);
  Samples input(512, cplx{1.0, 0.0});
  const auto batch = one.process(input);
  Mixer two(35e3, fs);
  Samples streamed;
  for (std::size_t i = 0; i < input.size(); i += 37) {
    const std::size_t n = std::min<std::size_t>(37, input.size() - i);
    two.process(SampleView(input.data() + i, n), streamed);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_NEAR(std::abs(batch[i] - streamed[i]), 0.0, 1e-9);
  }
}

TEST(Mixer, PreservesPower) {
  Mixer mixer(12.3e3, 300e3);
  const auto sig = random_signal(2048, 9);
  const auto out = mixer.process(sig);
  double pin = 0, pout = 0;
  for (const auto& x : sig) pin += std::norm(x);
  for (const auto& x : out) pout += std::norm(x);
  EXPECT_NEAR(pout, pin, 1e-6 * pin);
}

TEST(Resample, DecimateInterpolateRoundTripTone) {
  const double fs = 300e3;
  // A tone well inside the decimated band.
  Samples tone(6000);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    const double phase = kTwoPi * 5e3 / fs * static_cast<double>(i);
    tone[i] = {std::cos(phase), std::sin(phase)};
  }
  Decimator dec(10);
  const auto low = dec.process(tone);
  EXPECT_EQ(low.size(), tone.size() / 10);
  Interpolator interp(10);
  const auto back = interp.process(low);
  EXPECT_EQ(back.size(), low.size() * 10);
  // Steady-state power preserved (skip filter transients).
  double p = 0;
  const std::size_t skip = 2000;
  for (std::size_t i = skip; i < back.size(); ++i) p += std::norm(back[i]);
  p /= static_cast<double>(back.size() - skip);
  EXPECT_NEAR(p, 1.0, 0.1);
}

TEST(Resample, DecimatorRejectsOutOfBandTone) {
  const double fs = 300e3;
  // A tone beyond the decimated Nyquist (15 kHz for factor 10): 100 kHz.
  Samples tone(6000);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    const double phase = kTwoPi * 100e3 / fs * static_cast<double>(i);
    tone[i] = {std::cos(phase), std::sin(phase)};
  }
  Decimator dec(10);
  const auto low = dec.process(tone);
  double p = 0;
  for (std::size_t i = 100; i < low.size(); ++i) p += std::norm(low[i]);
  p /= static_cast<double>(low.size() - 100);
  EXPECT_LT(p, 1e-4);
}

TEST(Resample, FactorOnePassesThrough) {
  Decimator dec(1);
  const auto sig = random_signal(100, 11);
  const auto out = dec.process(sig);
  ASSERT_EQ(out.size(), sig.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(std::abs(out[i] - sig[i]), 0.0, 1e-12);
  }
}

TEST(Resample, ZeroFactorThrows) {
  EXPECT_THROW(Decimator(0), std::invalid_argument);
}

}  // namespace
}  // namespace hs::dsp
