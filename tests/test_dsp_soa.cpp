// Split-complex (SoA) fast paths vs their AoS scalar references.
//
// Every SoA path in the dsp layer promises *sample-exact* equivalence:
// the split arithmetic uses the same naive complex-multiply expansion
// -fcx-limited-range compiles the AoS code to, in the same accumulation
// order, so these tests compare with EXPECT_EQ (bit equality), not
// tolerances.
#include <gtest/gtest.h>

#include <cmath>

#include "channel/medium.hpp"
#include "dsp/fir.hpp"
#include "dsp/mixer.hpp"
#include "dsp/power.hpp"
#include "dsp/resample.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "mics/band.hpp"
#include "mics/channelizer.hpp"
#include "phy/frame.hpp"
#include "phy/fsk.hpp"
#include "phy/receiver.hpp"
#include "shield/jamgen.hpp"

namespace hs::dsp {
namespace {

Samples random_samples(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Samples x(n);
  rng.fill_awgn(x, 1.0);
  return x;
}

void expect_bit_equal(SampleView a, SoaView b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].real(), b.re[i]) << "sample " << i;
    EXPECT_EQ(a[i].imag(), b.im[i]) << "sample " << i;
  }
}

TEST(Soa, AosRoundTrip) {
  const Samples x = random_samples(1, 257);
  const SoaSamples soa = to_soa(x);
  expect_bit_equal(x, soa.view());
  const Samples back = to_aos(soa.view());
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(back[i], x[i]);
}

TEST(Soa, AppendAndEraseFront) {
  const Samples x = random_samples(2, 100);
  SoaSamples soa;
  soa.append(SampleView(x.data(), 40));
  soa.append(SampleView(x.data() + 40, 60));
  expect_bit_equal(x, soa.view());
  soa.erase_front(25);
  expect_bit_equal(SampleView(x.data() + 25, 75), soa.view());

  SoaSamples plane_copy;
  plane_copy.append(soa.view());
  expect_bit_equal(SampleView(x.data() + 25, 75), plane_copy.view());
}

TEST(Soa, FillAwgnMatchesAosDrawForDraw) {
  // Same stream state => identical noise in either layout (the SoA fill
  // draws re/im interleaved exactly like the AoS fill).
  Rng a(42, "awgn");
  Rng b(42, "awgn");
  Samples aos(1000);
  a.fill_awgn(aos, 3.7e-12);
  SoaSamples soa(1000);
  b.fill_awgn(soa.view(), 3.7e-12);
  expect_bit_equal(aos, soa.view());
}

TEST(Soa, RealFirBlockMatchesScalar) {
  const auto taps = design_lowpass(0.2, 31);
  FirFilter scalar(taps);
  FirFilter block(taps);
  const Samples x = random_samples(3, 500);
  const SoaSamples xs = to_soa(x);

  Samples want;
  scalar.process(x, want);
  // Uneven block boundaries exercise the history writeback.
  SoaSamples got;
  std::size_t pos = 0;
  for (std::size_t len : {7u, 130u, 1u, 300u, 62u}) {
    block.process(xs.view().subview(pos, len), got);
    pos += len;
  }
  expect_bit_equal(want, got.view());

  // And the streaming state matches: the next scalar sample agrees.
  const cplx probe{0.5, -0.25};
  EXPECT_EQ(scalar.process(probe), block.process(probe));
}

TEST(Soa, ComplexFirBlockMatchesScalar) {
  const Samples taps = design_bandpass(50e3, 20e3, 300e3, 65);
  ComplexFirFilter scalar(taps);
  ComplexFirFilter block(taps);
  const Samples x = random_samples(4, 400);
  const SoaSamples xs = to_soa(x);

  Samples want;
  scalar.process(x, want);
  SoaSamples got;
  block.process(xs.view().subview(0, 33), got);
  block.process(xs.view().subview(33, 367), got);
  expect_bit_equal(want, got.view());

  const cplx probe{-1.5, 2.0};
  EXPECT_EQ(scalar.process(probe), block.process(probe));
}

TEST(Soa, MixerBlockMatchesScalar) {
  Mixer scalar(12.5e3, 300e3);
  Mixer block(12.5e3, 300e3);
  const Samples x = random_samples(5, 300);
  const SoaSamples xs = to_soa(x);

  Samples want;
  scalar.process(x, want);
  SoaSamples got;
  block.process(xs.view().subview(0, 100), got);
  block.process(xs.view().subview(100, 200), got);
  expect_bit_equal(want, got.view());

  const cplx probe{0.25, 0.75};
  EXPECT_EQ(scalar.process(probe), block.process(probe));
}

TEST(Soa, PowerMetersMatchAos) {
  const Samples x = random_samples(8, 222);
  const SoaSamples xs = to_soa(x);
  EXPECT_EQ(mean_power(SampleView(x)), mean_power(xs.view()));

  RssiMeter a(64);
  RssiMeter b(64);
  EXPECT_EQ(a.push(SampleView(x)), b.push(xs.view()));
  EXPECT_EQ(a.value(), b.value());
}

TEST(Soa, NoncoherentDemodMatchesAos) {
  phy::FskParams fsk;
  phy::NoncoherentFskDemod demod(fsk);
  // A noisy two-tone waveform: decisions and metrics must agree exactly.
  Rng rng(9);
  phy::BitVec bits(64);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next_u64() & 1);
  Samples wave = phy::fsk_modulate(fsk, bits);
  Samples noise(wave.size());
  rng.fill_awgn(noise, 0.5);
  for (std::size_t i = 0; i < wave.size(); ++i) wave[i] += noise[i];
  const SoaSamples wave_s = to_soa(wave);

  for (std::size_t s = 0; s < bits.size(); ++s) {
    double m_aos = 0.0, m_soa = 0.0;
    const auto b_aos = demod.demod_symbol(wave, s * fsk.sps, &m_aos);
    const auto b_soa = demod.demod_symbol(wave_s.view(), s * fsk.sps, &m_soa);
    EXPECT_EQ(b_aos, b_soa);
    EXPECT_EQ(m_aos, m_soa);
  }
  const auto d_aos = demod.demodulate(wave, 0, bits.size());
  const auto d_soa = demod.demodulate(wave_s.view(), 0, bits.size());
  EXPECT_EQ(d_aos, d_soa);
}

TEST(Soa, JamgenSoaStreamMatchesAos) {
  phy::FskParams fsk;
  shield::JammingSignalGenerator a(fsk, shield::JamProfile::kShaped, 11);
  shield::JammingSignalGenerator b(fsk, shield::JamProfile::kShaped, 11);
  // Mismatched slice sizes across refills must still agree sample-wise.
  Samples aos = a.next(100);
  {
    const Samples more = a.next(700);
    aos.insert(aos.end(), more.begin(), more.end());
  }
  SoaSamples soa;
  SoaSamples chunk;
  for (std::size_t len : {37u, 263u, 500u}) {
    b.next(len, chunk);
    soa.append(chunk.view());
  }
  expect_bit_equal(aos, soa.view());
}

TEST(Soa, FskReceiverPushPathsAgree) {
  // A real frame in noise, fed once as AoS blocks and once as SoA blocks
  // with different chunking: both receivers must report the identical
  // frame (status, start, rssi, raw bits).
  phy::FskParams fsk;
  phy::Frame f;
  f.device_id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  f.type = 0x01;
  f.seq = 9;
  f.payload.assign(8, 0x5A);
  Rng rng(15);
  Samples air(9000);
  rng.fill_awgn(air, 1e-12);
  const Samples wave = phy::fsk_modulate(fsk, phy::encode_frame(f));
  for (std::size_t i = 0; i < wave.size(); ++i) {
    air[1500 + i] += 0.01 * wave[i];
  }
  const SoaSamples air_s = to_soa(air);

  phy::FskReceiver rx_aos(fsk);
  rx_aos.push(air);
  phy::FskReceiver rx_soa(fsk);
  std::size_t pos = 0;
  for (std::size_t len : {900u, 1u, 4099u, 4000u}) {
    rx_soa.push(air_s.view().subview(pos, len));
    pos += len;
  }
  const auto a = rx_aos.pop();
  const auto b = rx_soa.pop();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->decode.status, b->decode.status);
  EXPECT_EQ(a->start_sample, b->start_sample);
  EXPECT_EQ(a->rssi, b->rssi);
  EXPECT_EQ(a->raw_bits, b->raw_bits);
  EXPECT_EQ(a->decode.frame.seq, 9);
}

TEST(Soa, MediumSoaTxRxMatchesAos) {
  // Two identically seeded mediums, one driven through AoS set_tx, the
  // other through SoA set_tx: every received sample must be
  // bit-identical.
  const std::size_t block = 128;
  channel::Medium m_aos(300e3, block, 77);
  channel::Medium m_soa(300e3, block, 77);
  for (channel::Medium* m : {&m_aos, &m_soa}) {
    channel::AntennaDesc a;
    a.name = "tx";
    a.position = {0.0, 0.0};
    m->add_antenna(a);
    channel::AntennaDesc b;
    b.name = "rx";
    b.position = {1.0, 0.0};
    m->add_antenna(b);
  }
  const Samples wave = random_samples(14, block);
  const SoaSamples wave_s = to_soa(wave);

  m_aos.begin_block();
  m_aos.set_tx(0, wave);
  m_aos.mix();
  m_soa.begin_block();
  m_soa.set_tx(0, wave_s.view());
  m_soa.mix();

  expect_bit_equal(to_aos(m_aos.rx_soa(1)), m_soa.rx_soa(1));
  EXPECT_EQ(m_aos.rx_power(1), m_soa.rx_power(1));
}

TEST(Soa, DecimatorBlockMatchesScalar) {
  Decimator scalar(10, 41);
  Decimator block(10, 41);
  const Samples x = random_samples(11, 700);
  const SoaSamples xs = to_soa(x);

  Samples want;
  scalar.process(x, want);
  // Uneven block boundaries (incl. blocks shorter than the factor)
  // exercise the carried decimation phase and the FIR history writeback.
  SoaSamples got;
  std::size_t pos = 0;
  for (std::size_t len : {3u, 95u, 1u, 6u, 400u, 195u}) {
    block.process(xs.view().subview(pos, len), got);
    pos += len;
  }
  expect_bit_equal(want, got.view());

  // Streaming state agrees: the next scalar-path block matches too.
  const Samples more = random_samples(12, 40);
  Samples want_more;
  scalar.process(more, want_more);
  SoaSamples got_more;
  block.process(to_soa(more).view(), got_more);
  expect_bit_equal(want_more, got_more.view());
}

TEST(Soa, InterpolatorBlockMatchesScalar) {
  Interpolator scalar(10, 41);
  Interpolator block(10, 41);
  const Samples x = random_samples(13, 120);
  const SoaSamples xs = to_soa(x);

  Samples want;
  scalar.process(x, want);
  SoaSamples got;
  std::size_t pos = 0;
  for (std::size_t len : {1u, 50u, 9u, 60u}) {
    block.process(xs.view().subview(pos, len), got);
    pos += len;
  }
  expect_bit_equal(want, got.view());

  // Streaming state agrees: the next block matches too.
  const Samples more = random_samples(16, 17);
  Samples want_more;
  scalar.process(more, want_more);
  SoaSamples got_more;
  block.process(to_soa(more).view(), got_more);
  expect_bit_equal(want_more, got_more.view());
}

TEST(Soa, ChannelizerMatchesScalarReference) {
  // The MICS channelizer's SoA inner loops vs a per-sample scalar
  // reference chain (mixer + anti-alias FIR + keep-every-Mth), fed in
  // blocks to exercise streaming state.
  const std::size_t taps = 41;
  mics::Channelizer channelizer(taps);
  const Samples wide = random_samples(14, 2400);

  std::array<Samples, mics::kChannelCount> got;
  for (std::size_t pos = 0; pos < wide.size(); pos += 480) {
    channelizer.process(SampleView(wide.data() + pos, 480), got);
  }

  for (std::size_t c = 0; c < mics::kChannelCount; ++c) {
    Mixer mixer(-mics::channel_baseband_offset_hz(c), mics::kWidebandFs);
    FirFilter lowpass(design_lowpass(0.4 / 10.0, taps));
    Samples want;
    std::size_t phase = 0;
    for (const cplx xi : wide) {
      const cplx y = lowpass.process(mixer.process(xi));
      if (phase == 0) want.push_back(y);
      phase = (phase + 1) % 10;
    }
    ASSERT_EQ(got[c].size(), want.size()) << "channel " << c;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[c][i], want[i]) << "channel " << c << " sample " << i;
    }
  }
}

TEST(Soa, ChannelSynthesizerMatchesScalarReference) {
  const std::size_t taps = 41;
  mics::ChannelSynthesizer synth(taps);
  const Samples base = random_samples(15, 240);
  const std::size_t channel = 7;

  Samples wide(base.size() * 10, cplx{});
  synth.process(channel, base, wide);

  Interpolator interp(10, taps);
  Mixer mixer(mics::channel_baseband_offset_hz(channel), mics::kWidebandFs);
  Samples up;
  interp.process(base, up);
  ASSERT_EQ(up.size(), wide.size());
  for (std::size_t i = 0; i < up.size(); ++i) {
    EXPECT_EQ(wide[i], mixer.process(up[i])) << "sample " << i;
  }
}

}  // namespace
}  // namespace hs::dsp
