// Cross-device coverage (the paper tested both the Virtuoso ICD and the
// Concerto CRT and found no significant difference) and carrier-frequency-
// offset robustness (section 6(a): the shield "compensates for any carrier
// frequency offset between its RF chain and that of the IMD").
#include <gtest/gtest.h>

#include "dsp/mixer.hpp"
#include "dsp/rng.hpp"
#include "dsp/units.hpp"
#include "imd/profiles.hpp"
#include "imd/protocol.hpp"
#include "phy/receiver.hpp"
#include "shield/deployment.hpp"
#include "shield/experiments.hpp"

namespace hs {
namespace {

class ProfileSweep
    : public ::testing::TestWithParam<imd::ImdProfile (*)()> {};

TEST_P(ProfileSweep, RelayAndJamWorkIdenticallyForBothDevices) {
  shield::DeploymentOptions opt;
  opt.seed = 2020;
  opt.imd_profile = GetParam()();
  shield::Deployment d(opt);
  ASSERT_TRUE(d.shield().antidote_ready());
  for (int i = 0; i < 3; ++i) {
    d.shield().relay_command(
        imd::make_interrogate(opt.imd_profile.serial,
                              static_cast<std::uint8_t>(i)));
    d.run_for(50e-3);
  }
  EXPECT_EQ(d.imd().stats().replies_sent, 3u);
  EXPECT_EQ(d.shield().stats().replies_decoded, 3u);
  EXPECT_GE(d.shield().stats().passive_jams, 3u);
}

TEST_P(ProfileSweep, ShieldBlocksAttacksOnBothDevices) {
  shield::AttackOptions opt;
  opt.seed = 2021;
  opt.imd_profile = GetParam()();
  opt.location_index = 2;
  opt.trials = 5;
  const auto result = shield::run_attack_experiment(opt);
  EXPECT_EQ(result.successes, 0u);
}

INSTANTIATE_TEST_SUITE_P(BothImds, ProfileSweep,
                         ::testing::Values(&imd::virtuoso_profile,
                                           &imd::concerto_profile));

class CfoSweepRx : public ::testing::TestWithParam<double> {};

TEST_P(CfoSweepRx, ReceiverToleratesRealisticCarrierOffsets) {
  // TCXO-grade MICS radios sit within a few hundred Hz of each other at
  // 403 MHz; the receiver's segmented sync correlation and the 25 kHz-wide
  // tone correlators must ride that out.
  const double cfo_hz = GetParam();
  phy::FskParams fsk;
  phy::Frame f;
  f.device_id = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3};
  f.payload.assign(16, 0xC3);
  const auto bits = phy::encode_frame(f);
  auto wave = phy::fsk_modulate(fsk, bits);
  wave = dsp::apply_cfo(wave, cfo_hz, fsk.fs);

  dsp::Rng rng(static_cast<std::uint64_t>(std::abs(cfo_hz)) + 1);
  dsp::Samples air(6000 + wave.size() + 2000);
  rng.fill_awgn(air, dsp::dbm_to_mw(-112));
  const double amp = dsp::db_to_amplitude(-45);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    air[4000 + i] += amp * wave[i];
  }
  phy::FskReceiver rx(fsk);
  rx.push(air);
  auto frame = rx.pop();
  ASSERT_TRUE(frame.has_value()) << "CFO " << cfo_hz;
  EXPECT_EQ(frame->decode.status, phy::DecodeStatus::kOk);
  EXPECT_EQ(frame->decode.frame.payload, f.payload);
}

INSTANTIATE_TEST_SUITE_P(Offsets, CfoSweepRx,
                         ::testing::Values(-600.0, -300.0, -100.0, 100.0,
                                           300.0, 600.0));

}  // namespace
}  // namespace hs
