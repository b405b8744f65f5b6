#include <gtest/gtest.h>

#include "channel/medium.hpp"
#include "imd/battery.hpp"
#include "imd/device.hpp"
#include "imd/profiles.hpp"
#include "imd/programmer.hpp"
#include "imd/protocol.hpp"
#include "shield/trial_context.hpp"
#include "sim/timeline.hpp"

namespace hs::imd {
namespace {

TEST(Protocol, CommandClassification) {
  EXPECT_TRUE(is_command(MessageType::kInterrogate));
  EXPECT_TRUE(is_command(MessageType::kSetTherapy));
  EXPECT_FALSE(is_command(MessageType::kDataResponse));
  EXPECT_FALSE(is_command(MessageType::kAck));
}

TEST(Protocol, BuildersSetTypesAndPayloads) {
  phy::DeviceId id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(make_interrogate(id, 5).type, 0x01);
  EXPECT_EQ(make_interrogate(id, 5).seq, 5);
  TherapySettings t;
  const auto set = make_set_therapy(id, 6, t);
  EXPECT_EQ(set.type, 0x03);
  EXPECT_EQ(set.payload.size(), 4u);
  const auto parsed = parse_therapy(set);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, t);
  const auto ack = make_ack(id, 6, MessageType::kSetTherapy);
  EXPECT_EQ(ack.type, 0x83);
  EXPECT_EQ(ack.payload[0], 0x03);
  const std::uint8_t data[] = {9, 8, 7};
  const auto resp = make_data_response(id, 7, phy::ByteView(data, 3));
  EXPECT_EQ(resp.type, 0x81);
  EXPECT_EQ(resp.payload.size(), 3u);
}

TEST(Protocol, MalformedTherapyRejected) {
  phy::DeviceId id{};
  phy::Frame f = make_interrogate(id, 1);  // empty payload
  EXPECT_FALSE(parse_therapy(f).has_value());
  f.payload = {60, 70, 9, 180};  // invalid mode byte (> kOff)
  EXPECT_FALSE(parse_therapy(f).has_value());
}

TEST(Protocol, MessageTypeNames) {
  EXPECT_STREQ(message_type_name(MessageType::kInterrogate), "interrogate");
  EXPECT_STREQ(message_type_name(MessageType::kTherapyResponse),
               "therapy-response");
}

TEST(Therapy, EncodeDecodeRoundTrip) {
  TherapySettings t;
  t.pacing_rate_bpm = 72;
  t.shock_energy_half_joules = 60;
  t.mode = PacingMode::kVVI;
  t.tachy_threshold_bpm = 190;
  const auto bytes = t.encode();
  TherapySettings out;
  ASSERT_TRUE(TherapySettings::decode(
      phy::ByteView(bytes.data(), bytes.size()), out));
  EXPECT_EQ(out, t);
}

TEST(Therapy, DecodeRejectsWrongSize) {
  TherapySettings out;
  const phy::ByteVec bad = {1, 2, 3};
  EXPECT_FALSE(
      TherapySettings::decode(phy::ByteView(bad.data(), bad.size()), out));
}

TEST(Therapy, PlausibilityEnvelope) {
  TherapySettings t;
  EXPECT_TRUE(t.plausible());
  t.pacing_rate_bpm = 20;  // dangerously low
  EXPECT_FALSE(t.plausible());
  t.pacing_rate_bpm = 200;  // dangerously high
  EXPECT_FALSE(t.plausible());
  t.pacing_rate_bpm = 60;
  t.tachy_threshold_bpm = 90;
  EXPECT_FALSE(t.plausible());
}

TEST(Battery, DrainAccounting) {
  Battery battery(/*capacity_mj=*/1000.0, /*tx_power_mw=*/30.0,
                  /*idle_power_mw=*/0.01);
  battery.drain_tx(10.0);  // 300 mJ
  EXPECT_NEAR(battery.remaining_mj(), 700.0, 1e-9);
  EXPECT_NEAR(battery.tx_energy_spent_mj(), 300.0, 1e-9);
  battery.drain_idle(100.0);  // 1 mJ
  EXPECT_NEAR(battery.remaining_mj(), 699.0, 1e-9);
  EXPECT_NEAR(battery.fraction_remaining(), 0.699, 1e-6);
  EXPECT_FALSE(battery.depleted());
  battery.drain_tx(1e9);
  EXPECT_TRUE(battery.depleted());
  EXPECT_EQ(battery.remaining_mj(), 0.0);
}

TEST(Profiles, VirtuosoAndConcertoDiffer) {
  const auto v = virtuoso_profile();
  const auto c = concerto_profile();
  EXPECT_NE(v.serial, c.serial);
  EXPECT_NE(v.model_name, c.model_name);
  // Both within the shield's [T1, T2] reply bounds.
  for (const auto& p : {v, c}) {
    EXPECT_GT(p.reply_delay_mean_s - p.reply_delay_jitter_s, 2.8e-3);
    EXPECT_LT(p.reply_delay_mean_s + p.reply_delay_jitter_s, 3.7e-3);
  }
}

// ---------------------------------------------------------------------------
// Device behaviour on a live medium.
// ---------------------------------------------------------------------------

class ImdFixture : public ::testing::Test {
 protected:
  ImdFixture()
      : profile_(virtuoso_profile()),
        medium_(profile_.fsk.fs, 48, /*seed=*/11),
        timeline_(medium_),
        imd_(profile_, medium_, &timeline_.log(), /*seed=*/11) {
    timeline_.add_node(&imd_);
    ProgrammerConfig pcfg;
    pcfg.fsk = profile_.fsk;
    programmer_ =
        std::make_unique<ProgrammerNode>(pcfg, medium_, &timeline_.log());
    timeline_.add_node(programmer_.get());
    timeline_.run_for(2e-3);  // receivers calibrate their noise floors
  }

  ImdProfile profile_;
  channel::Medium medium_;
  sim::Timeline timeline_;
  ImdDevice imd_;
  std::unique_ptr<ProgrammerNode> programmer_;
};

TEST_F(ImdFixture, RepliesToInterrogationWithinT1T2) {
  programmer_->send(make_interrogate(profile_.serial, 1));
  timeline_.run_for(60e-3);
  EXPECT_EQ(imd_.stats().frames_accepted, 1u);
  ASSERT_EQ(imd_.stats().replies_sent, 1u);
  ASSERT_EQ(programmer_->responses().size(), 1u);
  EXPECT_EQ(programmer_->responses()[0].decode.frame.type, 0x81);
  EXPECT_EQ(programmer_->responses()[0].decode.frame.seq, 1);
}

TEST_F(ImdFixture, ReplyDelayWithinProfileBounds) {
  programmer_->send(make_interrogate(profile_.serial, 1));
  timeline_.run_for(60e-3);
  const auto tx_events =
      timeline_.log().filter(sim::EventKind::kTxStart, "programmer");
  ASSERT_FALSE(tx_events.empty());
  const double reply_start =
      static_cast<double>(imd_.last_tx_start_sample()) / profile_.fsk.fs;
  // Command duration: 21 bytes * 8 bits * sps samples.
  const double cmd_end =
      tx_events[0].time_s +
      static_cast<double>(phy::frame_total_bits(0) * profile_.fsk.sps) /
          profile_.fsk.fs;
  const double delay = reply_start - cmd_end;
  EXPECT_GT(delay, profile_.reply_delay_mean_s - profile_.reply_delay_jitter_s
                       - 1e-6);
  EXPECT_LT(delay, profile_.reply_delay_mean_s + profile_.reply_delay_jitter_s
                       + 1e-6);
}

TEST_F(ImdFixture, IgnoresOtherDeviceIds) {
  phy::DeviceId other = profile_.serial;
  other[0] ^= 0xFF;
  programmer_->send(make_interrogate(other, 1));
  timeline_.run_for(60e-3);
  EXPECT_EQ(imd_.stats().replies_sent, 0u);
  EXPECT_EQ(imd_.stats().wrong_device, 1u);
}

TEST_F(ImdFixture, SetTherapyAppliesAndAcks) {
  TherapySettings t;
  t.pacing_rate_bpm = 80;
  t.mode = PacingMode::kVVI;
  programmer_->send(make_set_therapy(profile_.serial, 9, t));
  timeline_.run_for(60e-3);
  EXPECT_EQ(imd_.therapy(), t);
  EXPECT_EQ(imd_.stats().therapy_changes, 1u);
  ASSERT_EQ(programmer_->responses().size(), 1u);
  EXPECT_EQ(programmer_->responses()[0].decode.frame.type, 0x83);
}

TEST_F(ImdFixture, ImplausibleTherapyRejectedSilently) {
  TherapySettings t;
  t.pacing_rate_bpm = 10;  // outside the safety envelope
  const auto before = imd_.therapy();
  programmer_->send(make_set_therapy(profile_.serial, 9, t));
  timeline_.run_for(60e-3);
  EXPECT_EQ(imd_.therapy(), before);
  EXPECT_EQ(imd_.stats().therapy_changes, 0u);
  EXPECT_EQ(imd_.stats().replies_sent, 0u);
}

TEST_F(ImdFixture, ReadTherapyReturnsCurrentSettings) {
  TherapySettings t;
  t.pacing_rate_bpm = 95;
  imd_.set_therapy(t);
  programmer_->send(make_read_therapy(profile_.serial, 2));
  timeline_.run_for(60e-3);
  ASSERT_EQ(programmer_->responses().size(), 1u);
  const auto parsed = parse_therapy(programmer_->responses()[0].decode.frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->pacing_rate_bpm, 95);
}

TEST_F(ImdFixture, BatteryDrainsWhenReplying) {
  const double before = imd_.battery().tx_energy_spent_mj();
  programmer_->send(make_interrogate(profile_.serial, 1));
  timeline_.run_for(60e-3);
  EXPECT_GT(imd_.battery().tx_energy_spent_mj(), before);
}

TEST_F(ImdFixture, MultipleCommandsEachAnswered) {
  for (int i = 0; i < 3; ++i) {
    programmer_->send(make_interrogate(profile_.serial,
                                       static_cast<std::uint8_t>(i)));
    timeline_.run_for(50e-3);
  }
  EXPECT_EQ(imd_.stats().replies_sent, 3u);
  EXPECT_EQ(programmer_->responses().size(), 3u);
}

TEST(ImdSensitivity, FarProgrammerBelowSensitivityIgnored) {
  const auto profile = virtuoso_profile();
  channel::Medium medium(profile.fsk.fs, 48, 13);
  sim::Timeline timeline(medium);
  ImdDevice imd(profile, medium, &timeline.log(), 13);
  timeline.add_node(&imd);
  ProgrammerConfig pcfg;
  pcfg.fsk = profile.fsk;
  pcfg.position = {40.0, 0.0};  // far beyond the link budget
  ProgrammerNode programmer(pcfg, medium, &timeline.log());
  timeline.add_node(&programmer);
  // Extra wall loss to push below the -91.5 dBm sensitivity.
  medium.add_pair_loss(programmer.antenna(), imd.antenna(), 30.0);
  timeline.run_for(2e-3);
  programmer.send(make_interrogate(profile.serial, 1));
  timeline.run_for(60e-3);
  EXPECT_EQ(imd.stats().replies_sent, 0u);
}

TEST(ImdNoCarrierSense, RepliesEvenWhenMediumBusy) {
  // Fig. 3(b): the IMD replies within its fixed interval even though
  // another transmission occupies the medium.
  const auto profile = virtuoso_profile();
  channel::Medium medium(profile.fsk.fs, 48, 17);
  sim::Timeline timeline(medium);
  ImdDevice imd(profile, medium, &timeline.log(), 17);
  timeline.add_node(&imd);
  ProgrammerConfig pcfg;
  pcfg.fsk = profile.fsk;
  ProgrammerNode programmer(pcfg, medium, &timeline.log());
  timeline.add_node(&programmer);
  timeline.run_for(2e-3);

  const std::size_t start = timeline.sample_position() + 480;
  const auto cmd = make_interrogate(profile.serial, 1);
  programmer.send_at(cmd, start);
  // A long foreign transmission 1 ms after the command, spanning the
  // whole reply window.
  phy::Frame busy;
  busy.device_id = {0xEE, 0xEE, 0xEE, 0xEE, 0xEE,
                    0xEE, 0xEE, 0xEE, 0xEE, 0xEE};
  busy.type = 0x7F;
  busy.payload.assign(44, 0xAA);
  const std::size_t cmd_samples =
      phy::frame_total_bits(0) * profile.fsk.sps;
  programmer.send_at(
      busy, start + cmd_samples +
                static_cast<std::size_t>(1e-3 * profile.fsk.fs));
  timeline.run_for(80e-3);
  ASSERT_EQ(imd.stats().replies_sent, 1u);
  // The reply landed inside [T1, T2] after the command despite the busy
  // medium.
  const double delay =
      static_cast<double>(imd.last_tx_start_sample() -
                          (start + cmd_samples)) /
      profile.fsk.fs;
  EXPECT_GT(delay, 2.8e-3);
  EXPECT_LT(delay, 3.7e-3);
}

TEST(Programmer, LbtDefersUntilChannelClear) {
  const auto profile = virtuoso_profile();
  channel::Medium medium(profile.fsk.fs, 48, 19);
  sim::Timeline timeline(medium);
  ImdDevice imd(profile, medium, &timeline.log(), 19);
  timeline.add_node(&imd);
  ProgrammerConfig pcfg;
  pcfg.fsk = profile.fsk;
  pcfg.lbt_enabled = true;
  ProgrammerNode programmer(pcfg, medium, &timeline.log());
  timeline.add_node(&programmer);
  timeline.run_for(2e-3);

  programmer.send(make_interrogate(profile.serial, 1));
  // Before 10 ms of listening have elapsed, nothing may go out.
  timeline.run_for(5e-3);
  EXPECT_TRUE(programmer.waiting_for_clear_channel());
  EXPECT_EQ(imd.stats().frames_detected, 0u);
  timeline.run_for(60e-3);
  EXPECT_FALSE(programmer.waiting_for_clear_channel());
  EXPECT_EQ(imd.stats().replies_sent, 1u);
}

TEST(Programmer, PooledProgrammerDefersLikeAFreshOneOnceLbtIsOn) {
  // A pooled programmer meters its CCA only while LBT is on. Reset from an
  // LBT-off trial (and then from an LBT-on one), it must listen its full
  // 10 ms again, exactly as LbtDefersUntilChannelClear expects of a fresh
  // programmer.
  const auto profile = virtuoso_profile();
  shield::DeploymentOptions opt;
  opt.seed = 19;
  opt.shield_present = false;
  shield::TrialContext pool;
  const ProgrammerNode* first = nullptr;
  for (const bool lbt : {false, true, true}) {
    SCOPED_TRACE(lbt ? "LBT on" : "LBT off");
    shield::Deployment& d = pool.deployment(opt);
    ProgrammerConfig pcfg;
    pcfg.fsk = profile.fsk;
    pcfg.lbt_enabled = lbt;
    ProgrammerNode& programmer = pool.programmer(pcfg);
    if (first == nullptr) first = &programmer;
    EXPECT_EQ(&programmer, first);  // the pool reset it, not a rebuild
    d.run_for(2e-3);

    programmer.send(make_interrogate(profile.serial, 1));
    d.run_for(5e-3);
    EXPECT_EQ(programmer.waiting_for_clear_channel(), lbt);
    if (lbt) {
      EXPECT_EQ(d.imd().stats().frames_detected, 0u);
    }
    d.run_for(60e-3);
    EXPECT_FALSE(programmer.waiting_for_clear_channel());
    EXPECT_EQ(d.imd().stats().replies_sent, 1u);
  }
  EXPECT_EQ(pool.deployments_reused(), 2u);
}

}  // namespace
}  // namespace hs::imd
