#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "dsp/rng.hpp"
#include "dsp/units.hpp"
#include "phy/receiver.hpp"

namespace hs::phy {
namespace {

Frame test_frame(std::uint8_t seq = 1, std::size_t payload = 8) {
  Frame f;
  f.device_id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  f.type = 0x01;
  f.seq = seq;
  f.payload.assign(payload, 0x5A);
  return f;
}

/// Builds noise + frame(s) at given offsets and amplitudes.
dsp::Samples make_air(const FskParams& fsk, std::size_t total,
                      std::initializer_list<std::pair<std::size_t, Frame>>
                          frames,
                      double amplitude, double noise_power,
                      std::uint64_t seed = 1) {
  dsp::Rng rng(seed);
  dsp::Samples air(total);
  rng.fill_awgn(air, noise_power);
  for (const auto& [offset, frame] : frames) {
    const auto wave = fsk_modulate(fsk, encode_frame(frame));
    for (std::size_t i = 0; i < wave.size() && offset + i < total; ++i) {
      air[offset + i] += amplitude * wave[i];
    }
  }
  return air;
}

TEST(Receiver, DecodesFrameInNoise) {
  FskParams fsk;
  const auto air = make_air(fsk, 10000, {{2000, test_frame()}},
                            dsp::db_to_amplitude(-40), dsp::dbm_to_mw(-112));
  FskReceiver rx(fsk);
  rx.push(air);
  auto frame = rx.pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->decode.status, DecodeStatus::kOk);
  EXPECT_EQ(frame->start_sample, 2000u);
  EXPECT_EQ(frame->decode.frame.seq, 1);
  EXPECT_FALSE(rx.pop().has_value());
}

TEST(Receiver, RssiMatchesSignalPower) {
  FskParams fsk;
  const double amp = dsp::db_to_amplitude(-30);  // power -30 dB
  const auto air = make_air(fsk, 9000, {{1500, test_frame()}}, amp, 1e-12);
  FskReceiver rx(fsk);
  rx.push(air);
  auto frame = rx.pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_NEAR(dsp::power_to_db(frame->rssi), -30.0, 1.0);
}

class ReceiverOffsetSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReceiverOffsetSweep, LocksAtArbitrarySampleOffsets) {
  FskParams fsk;
  const std::size_t offset = 3000 + GetParam();
  const auto air = make_air(fsk, 12000, {{offset, test_frame()}},
                            dsp::db_to_amplitude(-35), dsp::dbm_to_mw(-110),
                            GetParam() + 7);
  FskReceiver rx(fsk);
  rx.push(air);
  auto frame = rx.pop();
  ASSERT_TRUE(frame.has_value()) << "offset " << offset;
  EXPECT_EQ(frame->decode.status, DecodeStatus::kOk);
  EXPECT_EQ(frame->start_sample, offset);
}

INSTANTIATE_TEST_SUITE_P(SubSymbolOffsets, ReceiverOffsetSweep,
                         ::testing::Values(0, 1, 3, 5, 7, 11, 12, 13, 17, 23));

TEST(Receiver, BlockwisePushMatchesOneShot) {
  FskParams fsk;
  const auto air = make_air(fsk, 10000, {{2500, test_frame()}},
                            dsp::db_to_amplitude(-40), dsp::dbm_to_mw(-112));
  FskReceiver one(fsk);
  one.push(air);
  const auto a = one.pop();
  FskReceiver two(fsk);
  for (std::size_t i = 0; i < air.size(); i += 48) {
    const std::size_t n = std::min<std::size_t>(48, air.size() - i);
    two.push(dsp::SampleView(air.data() + i, n));
  }
  const auto b = two.pop();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->start_sample, b->start_sample);
  EXPECT_EQ(a->raw_bits, b->raw_bits);
}

TEST(Receiver, BackToBackFramesBothDecoded) {
  FskParams fsk;
  const std::size_t len = encode_frame(test_frame()).size() * fsk.sps;
  const auto air = make_air(
      fsk, 30000,
      {{2000, test_frame(1)}, {2000 + len + 600, test_frame(2)}},
      dsp::db_to_amplitude(-40), dsp::dbm_to_mw(-112));
  FskReceiver rx(fsk);
  rx.push(air);
  auto f1 = rx.pop();
  auto f2 = rx.pop();
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f1->decode.frame.seq, 1);
  EXPECT_EQ(f2->decode.frame.seq, 2);
}

// output_ is a deque (pop() used to be vector::erase(begin()), O(frames in
// flight)): a burst of frames must still drain strictly FIFO.
TEST(Receiver, BurstOfFramesDrainsFifo) {
  FskParams fsk;
  const std::size_t frame_gap = 6200;
  const std::size_t count = 5;
  std::initializer_list<std::pair<std::size_t, Frame>> placed = {
      {1000, test_frame(1)},          {1000 + frame_gap, test_frame(2)},
      {1000 + 2 * frame_gap, test_frame(3)},
      {1000 + 3 * frame_gap, test_frame(4)},
      {1000 + 4 * frame_gap, test_frame(5)}};
  const auto air = make_air(fsk, 1000 + 5 * frame_gap + 4000, placed,
                            dsp::db_to_amplitude(-40), dsp::dbm_to_mw(-112));
  FskReceiver rx(fsk);
  rx.push(air);

  std::size_t last_start = 0;
  for (std::uint8_t want = 1; want <= count; ++want) {
    auto frame = rx.pop();
    ASSERT_TRUE(frame.has_value()) << "frame " << int(want);
    EXPECT_EQ(frame->decode.frame.seq, want);
    EXPECT_GT(frame->start_sample, last_start);
    last_start = frame->start_sample;
  }
  EXPECT_FALSE(rx.pop().has_value());
}

TEST(Receiver, SignalBelowMinGateIgnored) {
  FskParams fsk;
  ReceiverOptions opt;
  opt.min_gate_power = dsp::dbm_to_mw(-90);  // IMD-style sensitivity
  const auto air = make_air(fsk, 12000, {{2000, test_frame()}},
                            dsp::db_to_amplitude(-100),  // -100 dBm power
                            dsp::dbm_to_mw(-112));
  FskReceiver rx(fsk, opt);
  rx.push(air);
  EXPECT_FALSE(rx.pop().has_value());
}

TEST(Receiver, SignalAboveMinGateAccepted) {
  FskParams fsk;
  ReceiverOptions opt;
  opt.min_gate_power = dsp::dbm_to_mw(-90);
  const auto air = make_air(fsk, 12000, {{2000, test_frame()}},
                            dsp::db_to_amplitude(-85),  // -85 dBm power
                            dsp::dbm_to_mw(-112));
  FskReceiver rx(fsk, opt);
  rx.push(air);
  EXPECT_TRUE(rx.pop().has_value());
}

TEST(Receiver, DetectsFrameOverSustainedInterferenceFloor) {
  // Regression for the shield's jamming-residual scenario: a steady
  // interference floor precedes the frame; the adaptive gate must re-arm
  // and the alias-escape must find the true preamble peak.
  FskParams fsk;
  dsp::Rng rng(21);
  dsp::Samples air(30000);
  rng.fill_awgn(air, dsp::dbm_to_mw(-78));  // jamming-residual-like floor
  const auto wave = fsk_modulate(fsk, encode_frame(test_frame()));
  const double amp = dsp::db_to_amplitude(-36.0 / 2.0 * 2.0 / 2.0);
  (void)amp;
  const double amplitude = dsp::db_to_amplitude(-18.0);  // -36 dBm power
  const std::size_t offset = 17011;  // deliberately not symbol-aligned
  for (std::size_t i = 0; i < wave.size(); ++i) {
    air[offset + i] += amplitude * wave[i];
  }
  FskReceiver rx(fsk);
  for (std::size_t i = 0; i < air.size(); i += 48) {
    const std::size_t n = std::min<std::size_t>(48, air.size() - i);
    rx.push(dsp::SampleView(air.data() + i, n));
  }
  auto frame = rx.pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->decode.status, DecodeStatus::kOk);
  EXPECT_EQ(frame->start_sample, offset);
}

TEST(Receiver, CorruptedPayloadReportsBadCrc) {
  FskParams fsk;
  auto air = make_air(fsk, 12000, {{2000, test_frame(1, 16)}},
                      dsp::db_to_amplitude(-40), dsp::dbm_to_mw(-112));
  // Obliterate a chunk of payload samples with strong noise.
  dsp::Rng rng(5);
  const std::size_t hit = 2000 + 170 * fsk.sps;
  for (std::size_t i = hit; i < hit + 6 * fsk.sps; ++i) {
    air[i] += rng.cgaussian(dsp::dbm_to_mw(-30));  // 10 dB over the signal
  }
  FskReceiver rx(fsk);
  rx.push(air);
  auto frame = rx.pop();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->decode.status, DecodeStatus::kBadCrc);
}

TEST(Receiver, ResetDropsPartialState) {
  FskParams fsk;
  const auto air = make_air(fsk, 8000, {{2000, test_frame()}},
                            dsp::db_to_amplitude(-40), dsp::dbm_to_mw(-112));
  FskReceiver rx(fsk);
  // Push only through the middle of the frame, then reset.
  rx.push(dsp::SampleView(air.data(), 3500));
  EXPECT_TRUE(rx.locked());
  rx.reset(fsk);
  EXPECT_FALSE(rx.locked());
  EXPECT_TRUE(rx.partial_bits().empty());
  // The remaining half-frame alone must not decode.
  rx.push(dsp::SampleView(air.data() + 3500, air.size() - 3500));
  auto frame = rx.pop();
  EXPECT_TRUE(!frame.has_value() ||
              frame->decode.status != DecodeStatus::kOk);
}

void expect_same_frame(const ReceivedFrame& a, const ReceivedFrame& b) {
  EXPECT_EQ(a.decode.status, b.decode.status);
  EXPECT_EQ(a.decode.frame.device_id, b.decode.frame.device_id);
  EXPECT_EQ(a.decode.frame.type, b.decode.frame.type);
  EXPECT_EQ(a.decode.frame.seq, b.decode.frame.seq);
  EXPECT_EQ(a.decode.frame.payload, b.decode.frame.payload);
  EXPECT_EQ(a.decode.consumed_bits, b.decode.consumed_bits);
  EXPECT_EQ(a.decode.sync_errors, b.decode.sync_errors);
  EXPECT_EQ(a.start_sample, b.start_sample);
  EXPECT_EQ(a.rssi, b.rssi);
  EXPECT_EQ(a.raw_bits, b.raw_bits);
}

/// Leaves a receiver built for `first` mid-lock with a decoded frame still
/// queued, resets it to (`second`, `options`), then feeds both it and a
/// fresh receiver one noisy stream block by block: every observable must
/// agree at every block. The stream has three frames:
///  - one that starts with the stream, which a fresh receiver misses (its
///    first window seeds the noise floor), so a reset that kept the old
///    floor would lock onto it;
///  - a weak one at -70 dBm, which `options` may gate out, so a reset that
///    kept the old options would decode it;
///  - a strong one that every receiver decodes.
void expect_reset_matches_fresh(const FskParams& first,
                                const FskParams& second,
                                const ReceiverOptions& options,
                                std::size_t expected_frames) {
  const std::size_t len1 = encode_frame(test_frame()).size() * first.sps;
  const auto air1 = make_air(
      first, 30000, {{2000, test_frame(1)}, {2000 + len1 + 600, test_frame(2)}},
      dsp::db_to_amplitude(-40), dsp::dbm_to_mw(-112), 3);
  FskReceiver reused(first);
  reused.push(dsp::SampleView(air1.data(), 2000 + len1 + 600 + len1 / 2));
  ASSERT_TRUE(reused.locked());
  reused.reset(second, options);

  const std::size_t len2 = encode_frame(test_frame()).size() * second.sps;
  const std::size_t weak_at = 3 + len2 + 1500;
  auto air2 = make_air(second, 3 * len2 + 6000,
                       {{3, test_frame(3)}, {weak_at + len2 + 900,
                                             test_frame(5)}},
                       dsp::db_to_amplitude(-40), dsp::dbm_to_mw(-112), 4);
  const auto weak = fsk_modulate(second, encode_frame(test_frame(4)));
  for (std::size_t i = 0; i < weak.size(); ++i) {
    air2[weak_at + i] += dsp::db_to_amplitude(-70) * weak[i];
  }
  FskReceiver fresh(second, options);
  std::size_t frames = 0;
  for (std::size_t i = 0; i < air2.size(); i += 48) {
    const dsp::SampleView block(air2.data() + i,
                                std::min<std::size_t>(48, air2.size() - i));
    reused.push(block);
    fresh.push(block);
    ASSERT_EQ(reused.sample_position(), fresh.sample_position());
    ASSERT_EQ(reused.locked(), fresh.locked());
    ASSERT_EQ(reused.partial_bits(), fresh.partial_bits());
    for (;;) {
      const auto a = reused.pop();
      const auto b = fresh.pop();
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a.has_value()) break;
      expect_same_frame(*a, *b);
      EXPECT_EQ(b->decode.status, DecodeStatus::kOk);
      ++frames;
    }
  }
  EXPECT_EQ(frames, expected_frames);
}

TEST(Receiver, ResetMatchesFreshConstruction) {
  const FskParams fsk;
  {
    SCOPED_TRACE("same geometry: reset keeps the tables");
    expect_reset_matches_fresh(fsk, fsk, {}, 2);
  }
  {
    SCOPED_TRACE("new geometry and options: reset rebuilds the tables");
    FskParams other;
    other.sps = 10;  // 30 kbaud; +-60 kHz tones stay orthogonal
    other.f0 = -60e3;
    other.f1 = +60e3;
    ReceiverOptions options;
    options.min_gate_power = dsp::dbm_to_mw(-55);  // gates the weak frame
    expect_reset_matches_fresh(fsk, other, options, 1);
  }
}

// The correlation memo is indexed by buffer lag, so it must shift with
// every compaction. Once the first frame is compacted away, the second
// frame starts 5 samples past the lag the first one locked at; a memo
// left unshifted would hand the second sweep the first frame's peak.
TEST(Receiver, MemoStaysAlignedAcrossCompaction) {
  FskParams fsk;
  const std::size_t len = encode_frame(test_frame()).size() * fsk.sps;
  const std::size_t second = 2000 + len + 2005;
  const auto air = make_air(fsk, second + len + 3000,
                            {{2000, test_frame(1)}, {second, test_frame(2)}},
                            dsp::db_to_amplitude(-40), dsp::dbm_to_mw(-112));
  FskReceiver rx(fsk);
  rx.push(air);
  const auto f1 = rx.pop();
  const auto f2 = rx.pop();
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(f1->start_sample, 2000u);
  EXPECT_EQ(f2->start_sample, second);
  EXPECT_EQ(f2->decode.status, DecodeStatus::kOk);
  EXPECT_EQ(f2->decode.frame.seq, 2);
}

TEST(Receiver, SamplePositionTracksPushes) {
  FskParams fsk;
  FskReceiver rx(fsk);
  dsp::Samples block(48, dsp::cplx{});
  for (int i = 0; i < 10; ++i) rx.push(block);
  EXPECT_EQ(rx.sample_position(), 480u);
}

TEST(Receiver, PureNoiseNeverLocksLong) {
  FskParams fsk;
  dsp::Rng rng(6);
  dsp::Samples air(60000);
  rng.fill_awgn(air, dsp::dbm_to_mw(-100));
  FskReceiver rx(fsk);
  rx.push(air);
  EXPECT_FALSE(rx.pop().has_value());
}

/// A seeded stream of thermal noise with frames at random offsets (SNR
/// -5..+30 dB, CFO up to +-500 Hz, random payloads; they may collide) and
/// noise bursts of random power and length.
dsp::Samples transcript_air(const FskParams& fsk, std::uint64_t seed) {
  dsp::Rng rng(seed);
  const double noise = dsp::dbm_to_mw(-112);
  dsp::Samples air(120000);
  rng.fill_awgn(air, noise);
  for (int f = 0; f < 10; ++f) {
    Frame frame = test_frame(static_cast<std::uint8_t>(f),
                             rng.uniform_u64(kMaxPayloadBytes + 1));
    for (auto& b : frame.payload) {
      b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    }
    const auto wave = fsk_modulate(fsk, encode_frame(frame));
    const std::size_t at = rng.uniform_u64(air.size() - wave.size());
    const double amp =
        std::sqrt(noise * dsp::db_to_power(rng.uniform(-5.0, 30.0)));
    const double w = 2.0 * std::numbers::pi * rng.uniform(-500.0, 500.0) /
                     fsk.fs;
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const double ph = w * static_cast<double>(i);
      air[at + i] += amp * wave[i] * dsp::cplx(std::cos(ph), std::sin(ph));
    }
  }
  for (int b = 0; b < 8; ++b) {
    const std::size_t len = 24 + rng.uniform_u64(6000);
    const std::size_t at = rng.uniform_u64(air.size() - len);
    const double power = noise * dsp::db_to_power(rng.uniform(0.0, 40.0));
    for (std::size_t i = at; i < at + len; ++i) air[i] += rng.cgaussian(power);
  }
  return air;
}

/// Feeds `air` in random blocks of 1-300 samples, each through a randomly
/// chosen push overload, and writes down every observable decision: after
/// each push the lock state, and every popped frame's start, status, raw
/// bits and the bit pattern of its RSSI.
std::string receiver_transcript(const FskParams& fsk,
                                const ReceiverOptions& options,
                                const dsp::Samples& air, std::uint64_t seed) {
  dsp::Rng rng(seed);
  FskReceiver rx(fsk, options);
  std::string out;
  char line[96];
  for (std::size_t i = 0; i < air.size();) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.uniform_u64(300), air.size() - i);
    const dsp::SampleView block(air.data() + i, n);
    if (rng.uniform_u64(2) == 0) {
      rx.push(block);
    } else {
      dsp::SoaSamples soa;
      soa.assign(block);
      rx.push(soa.view());
    }
    i += n;
    std::snprintf(line, sizeof line, "p %zu %d %zu %zu\n", i,
                  rx.locked() ? 1 : 0, rx.lock_start_sample(),
                  rx.partial_bits().size());
    out += line;
    while (auto f = rx.pop()) {
      std::snprintf(line, sizeof line, "f %zu %d %016llx ", f->start_sample,
                    static_cast<int>(f->decode.status),
                    static_cast<unsigned long long>(
                        std::bit_cast<std::uint64_t>(f->rssi)));
      out += line;
      for (std::uint8_t bit : f->raw_bits) out += static_cast<char>('0' + bit);
      out += '\n';
    }
  }
  return out;
}

std::string sha256_hex(const std::string& text) {
  const auto digest = crypto::Sha256::hash(crypto::ByteView(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex;
  for (std::uint8_t b : digest) {
    hex += kHex[b >> 4];
    hex += kHex[b & 15];
  }
  return hex;
}

// Pins every decision the receiver makes, so a change to how it computes
// its correlations (or to its buffering) must keep them all. The digests
// were recorded from a build whose sync correlation always ran in full.
TEST(Receiver, DecisionTranscriptMatchesRecordedDigests) {
  struct Case {
    double threshold;
    double gate;
    const char* digest;
  };
  const Case cases[] = {
      {0.75, 2.0,
       "b85cbdf9e9599fffc00752041eb876735bbf9207e1b07cfcb924b40d049a4d78"},
      {0.75, 4.0,
       "e2bd2b813083db780bd6aa0cf0319f9ff4addef3c7d7cb08b0bb34a2b0c5dad4"},
      {0.82, 2.0,
       "9e860fdaf1d7fe5f6340d3fe8c50e98e70d78742e433d390d6d82af2427bf702"},
      {0.82, 4.0,
       "a8f408005012e89c96ab7adaadb764b3280d86f48493911f211f7cfe36f73979"},
      {0.9, 2.0,
       "63e701c93bcb5819c3d3f580375e081e2839027a9606d682e93b784ba9df6faa"},
      {0.9, 4.0,
       "63e701c93bcb5819c3d3f580375e081e2839027a9606d682e93b784ba9df6faa"},
  };
  const FskParams fsk;
  std::vector<dsp::Samples> streams;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    streams.push_back(transcript_air(fsk, 100 + seed));
  }
  for (const Case& c : cases) {
    ReceiverOptions options;
    options.detect_threshold = c.threshold;
    options.gate_factor = c.gate;
    std::string transcript;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      transcript += receiver_transcript(fsk, options, streams[s], 200 + s);
    }
    EXPECT_EQ(sha256_hex(transcript), c.digest)
        << "threshold " << c.threshold << " gate " << c.gate;
  }
}

}  // namespace
}  // namespace hs::phy
