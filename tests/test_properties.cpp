// Cross-cutting property and robustness tests: determinism, fuzz-style
// negative inputs, and the security invariants the whole system rests on.
#include <gtest/gtest.h>

#include "crypto/secure_channel.hpp"
#include "dsp/rng.hpp"
#include "dsp/units.hpp"
#include "imd/profiles.hpp"
#include "phy/frame.hpp"
#include "phy/receiver.hpp"
#include "shield/experiments.hpp"
#include "shield/sid_matcher.hpp"

namespace hs {
namespace {

// ---------------------------------------------------------------------------
// Determinism: every experiment regenerates identically from its seed.
// ---------------------------------------------------------------------------

TEST(Determinism, AttackExperimentReproducible) {
  shield::AttackOptions opt;
  opt.seed = 123;
  opt.location_index = 7;
  opt.trials = 8;
  opt.shield_present = false;
  const auto a = shield::run_attack_experiment(opt);
  const auto b = shield::run_attack_experiment(opt);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_DOUBLE_EQ(a.battery_energy_spent_mj, b.battery_energy_spent_mj);
}

TEST(Determinism, EavesdropExperimentReproducible) {
  shield::EavesdropOptions opt;
  opt.seed = 321;
  opt.packets = 6;
  const auto a = shield::run_eavesdrop_experiment(opt);
  const auto b = shield::run_eavesdrop_experiment(opt);
  ASSERT_EQ(a.eavesdropper_ber.size(), b.eavesdropper_ber.size());
  for (std::size_t i = 0; i < a.eavesdropper_ber.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.eavesdropper_ber[i], b.eavesdropper_ber[i]);
  }
}

TEST(Determinism, DifferentSeedsDifferentMicrostructure) {
  shield::EavesdropOptions opt;
  opt.packets = 4;
  opt.seed = 1;
  const auto a = shield::run_eavesdrop_experiment(opt);
  opt.seed = 2;
  const auto b = shield::run_eavesdrop_experiment(opt);
  ASSERT_FALSE(a.eavesdropper_ber.empty());
  ASSERT_FALSE(b.eavesdropper_ber.empty());
  EXPECT_NE(a.eavesdropper_ber[0], b.eavesdropper_ber[0]);
}

// ---------------------------------------------------------------------------
// Frame decoder robustness: garbage in, no crash / no false accept.
// ---------------------------------------------------------------------------

TEST(Fuzz, RandomBitsNeverDecodeAsValidFrames) {
  dsp::Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = 100 + rng.uniform_u64(600);
    phy::BitVec bits(n);
    for (auto& b : bits) b = rng.next_u64() & 1;
    const auto result = phy::decode_frame(bits);
    // Random bits must fail sync (48-bit pattern, tolerance 4) long before
    // CRC could collide.
    EXPECT_NE(result.status, phy::DecodeStatus::kOk);
  }
}

TEST(Fuzz, ReceiverSurvivesPathologicalInput) {
  phy::FskParams fsk;
  phy::FskReceiver rx(fsk);
  dsp::Rng rng(10);
  // Giant-amplitude spikes, zeros, huge noise bursts.
  dsp::Samples block(48);
  for (int i = 0; i < 200; ++i) {
    switch (i % 4) {
      case 0:
        rng.fill_awgn(block, 1e6);
        break;
      case 1:
        std::fill(block.begin(), block.end(), dsp::cplx{});
        break;
      case 2:
        rng.fill_awgn(block, 1e-30);
        break;
      case 3:
        std::fill(block.begin(), block.end(), dsp::cplx{1e3, -1e3});
        break;
    }
    rx.push(block);
    while (rx.pop()) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, SecureChannelRejectsAllRandomTampering) {
  const std::uint8_t psk_raw[] = "k";
  crypto::ByteView psk(psk_raw, 1);
  crypto::SecureChannel shield(crypto::ChannelRole::kShield, psk, 1);
  crypto::SecureChannel prog(crypto::ChannelRole::kProgrammer, psk, 1);
  const crypto::Bytes msg = {1, 2, 3, 4, 5, 6, 7, 8};
  dsp::Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    auto env = prog.send(crypto::ByteView(msg.data(), msg.size()));
    // Flip a random bit somewhere in the envelope.
    const auto what = rng.uniform_u64(3);
    if (what == 0 && !env.ciphertext.empty()) {
      env.ciphertext[rng.uniform_u64(env.ciphertext.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
    } else if (what == 1) {
      env.tag[rng.uniform_u64(env.tag.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
    } else {
      env.sequence ^= 1ull << rng.uniform_u64(20);
    }
    EXPECT_FALSE(shield.receive(env).has_value()) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// S_id matcher: false positives and embedded matches.
// ---------------------------------------------------------------------------

TEST(SidProperties, RandomStreamsEssentiallyNeverMatch) {
  const auto profile = imd::virtuoso_profile();
  phy::BitVec sid = phy::make_sid(profile.serial);
  shield::SidMatcher matcher(sid, 4);
  dsp::Rng rng(12);
  // 128-bit pattern with tolerance 4 over 200k random bits: the expected
  // false-positive count is astronomically small.
  std::size_t fired = 0;
  for (int i = 0; i < 200000; ++i) {
    if (matcher.push(static_cast<std::uint8_t>(rng.next_u64() & 1))) {
      ++fired;
      matcher.reset();
    }
  }
  EXPECT_EQ(fired, 0u);
}

class SidEmbedSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SidEmbedSweep, EmbeddedSidAlwaysFoundAtAnyOffset) {
  const auto profile = imd::virtuoso_profile();
  const phy::BitVec sid = phy::make_sid(profile.serial);
  shield::SidMatcher matcher(sid, 4);
  dsp::Rng rng(GetParam());
  phy::BitVec stream(GetParam());
  for (auto& b : stream) b = rng.next_u64() & 1;
  stream.insert(stream.end(), sid.begin(), sid.end());
  EXPECT_TRUE(matcher.push(phy::BitView(stream.data(), stream.size())));
}

INSTANTIATE_TEST_SUITE_P(Offsets, SidEmbedSweep,
                         ::testing::Values(0, 1, 7, 31, 64, 129, 500));

// ---------------------------------------------------------------------------
// Security invariants at the system level.
// ---------------------------------------------------------------------------

TEST(Invariant, JammedPacketsNeverExecuteAsCommands) {
  // Whatever the adversary sends from wherever, with the shield present
  // at FCC power the IMD never *executes* anything: either sync dies or
  // the checksum fails. Swept over locations and payload shapes.
  for (int loc : {1, 4, 8}) {
    shield::AttackOptions opt;
    opt.seed = 500 + static_cast<std::uint64_t>(loc);
    opt.location_index = loc;
    opt.trials = 6;
    opt.shield_present = true;
    opt.kind = shield::AttackKind::kChangeTherapy;
    const auto result = shield::run_attack_experiment(opt);
    EXPECT_EQ(result.successes, 0u) << "location " << loc;
  }
}

TEST(Invariant, ConfidentialityHoldsForEveryPayloadPattern) {
  // One-time-pad property of random jamming: BER at the eavesdropper is
  // ~0.5 regardless of what the IMD transmits (all-zeros, all-ones,
  // random) — the jam, not the data, sets the distribution.
  shield::EavesdropOptions opt;
  opt.seed = 77;
  opt.packets = 10;
  const auto result = shield::run_eavesdrop_experiment(opt);
  ASSERT_GE(result.eavesdropper_ber.size(), 8u);
  for (double ber : result.eavesdropper_ber) {
    EXPECT_GT(ber, 0.35);
    EXPECT_LT(ber, 0.65);
  }
}

class DetectionSnrSweep : public ::testing::TestWithParam<double> {};

TEST_P(DetectionSnrSweep, ReceiverAlwaysDetectsAboveThreshold) {
  // Detection-probability property: at >= 15 dB SNR the receiver must
  // acquire every frame, across random payloads and offsets.
  const double snr_db = GetParam();
  phy::FskParams fsk;
  dsp::Rng rng(static_cast<std::uint64_t>(snr_db * 10) + 3);
  int detected = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    phy::Frame f;
    f.device_id = {1, 1, 2, 3, 5, 8, 13, 21, 34, 55};
    f.payload.assign(8 + rng.uniform_u64(20), 0);
    for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto wave = phy::fsk_modulate(fsk, phy::encode_frame(f));
    const double noise = dsp::dbm_to_mw(-110.0);
    const double amp = std::sqrt(noise * dsp::db_to_power(snr_db));
    dsp::Samples air(4000 + wave.size() + 2000);
    rng.fill_awgn(air, noise);
    const std::size_t offset = 3000 + rng.uniform_u64(200);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      air[offset + i] += amp * wave[i];
    }
    phy::FskReceiver receiver(fsk);
    receiver.push(air);
    if (auto frame = receiver.pop();
        frame && frame->decode.status == phy::DecodeStatus::kOk) {
      ++detected;
    }
  }
  EXPECT_EQ(detected, trials) << "SNR " << snr_db;
}

INSTANTIATE_TEST_SUITE_P(HighSnr, DetectionSnrSweep,
                         ::testing::Values(15.0, 20.0, 30.0, 50.0));

}  // namespace
}  // namespace hs
