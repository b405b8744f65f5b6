#include <gtest/gtest.h>

#include "adversary/active.hpp"
#include "adversary/cross_traffic.hpp"
#include "adversary/eavesdropper.hpp"
#include "adversary/monitor.hpp"
#include "channel/geometry.hpp"
#include "dsp/fir.hpp"
#include "dsp/units.hpp"
#include "imd/device.hpp"
#include "imd/profiles.hpp"
#include "imd/protocol.hpp"
#include "shield/jamgen.hpp"
#include "sim/timeline.hpp"

namespace hs::adversary {
namespace {

using imd::make_interrogate;

TEST(Eavesdropper, PerfectDecodeWithoutJamming) {
  phy::FskParams fsk;
  phy::Frame f;
  f.device_id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  f.payload.assign(16, 0x3C);
  const auto truth = phy::encode_frame(f);
  auto wave = phy::fsk_modulate(fsk, truth);
  dsp::Rng noise(1);
  dsp::Samples capture(1000 + wave.size());
  noise.fill_awgn(capture, dsp::dbm_to_mw(-112));
  const double amp = dsp::db_to_amplitude(-46);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    capture[1000 + i] += amp * wave[i];
  }
  const auto result = eavesdrop_decode(fsk, capture, 1000, truth);
  EXPECT_EQ(result.ber, 0.0);
  EXPECT_EQ(result.bits, truth);
}

TEST(Eavesdropper, NearHalfBerUnderShapedJamming) {
  phy::FskParams fsk;
  phy::Frame f;
  f.device_id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  f.payload.assign(32, 0xA7);
  const auto truth = phy::encode_frame(f);
  auto wave = phy::fsk_modulate(fsk, truth);
  shield::JammingSignalGenerator jam(fsk, shield::JamProfile::kShaped, 5);
  jam.set_power(dsp::db_to_power(20.0));  // 20 dB above the unit signal
  const auto j = jam.next(wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) wave[i] += j[i];
  const auto result = eavesdrop_decode(fsk, wave, 0, truth);
  EXPECT_GT(result.ber, 0.42);
  EXPECT_LT(result.ber, 0.58);
}

TEST(Eavesdropper, BandpassAttackBeatsConstantJamming) {
  // The filtering attack sheds out-of-band jamming energy: against a
  // constant-profile jammer it recovers a meaningfully lower BER than the
  // optimal wideband decoder sees against shaped jamming.
  phy::FskParams fsk;
  phy::Frame f;
  f.device_id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  f.payload.assign(44, 0x55);
  const auto truth = phy::encode_frame(f);
  const auto clean = phy::fsk_modulate(fsk, truth);

  auto run = [&](shield::JamProfile profile, bool bandpass) {
    auto wave = clean;
    shield::JammingSignalGenerator jam(fsk, profile, 7);
    jam.set_power(dsp::db_to_power(8.0));
    const auto j = jam.next(wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) wave[i] += j[i];
    return bandpass ? eavesdrop_decode_bandpass(fsk, wave, 0, truth).ber
                    : eavesdrop_decode(fsk, wave, 0, truth).ber;
  };
  const double shaped = run(shield::JamProfile::kShaped, false);
  const double constant_filtered = run(shield::JamProfile::kConstant, true);
  EXPECT_LT(constant_filtered, shaped - 0.1);
}

// The decoders convert and filter only the reply's samples; their bits
// must be those of decoding the whole capture, as they once did, at any
// start: at the capture's front (the filter's look-back clipped at 0), in
// the middle, and with the reply running past the capture's end.
TEST(Eavesdropper, DecodingTheReplyAloneMatchesTheWholeCapture) {
  phy::FskParams fsk;
  phy::Frame f;
  f.device_id = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  f.payload.assign(20, 0x96);
  const auto truth = phy::encode_frame(f);
  const auto wave = phy::fsk_modulate(fsk, truth);
  constexpr std::size_t kTaps = 65;  // eavesdrop_decode_bandpass's filters
  const double half_bw = 30e3;
  for (std::size_t start :
       {std::size_t{0}, std::size_t{1}, std::size_t{20}, kTaps - 1, kTaps,
        std::size_t{777}, std::size_t{3000}, std::size_t{4000}}) {
    SCOPED_TRACE(start);
    dsp::Samples capture(3000 + wave.size() / 2);
    dsp::Rng rng(start + 1);
    rng.fill_awgn(capture, dsp::db_to_power(-3.0));
    for (std::size_t i = 0; i < wave.size() && start + i < capture.size();
         ++i) {
      capture[start + i] += wave[i];
    }
    const dsp::SoaSamples soa = dsp::to_soa(capture);
    const phy::NoncoherentFskDemod demod(fsk);
    EXPECT_EQ(eavesdrop_decode(fsk, capture, start, truth).bits,
              demod.demodulate(soa.view(), start, truth.size()));

    dsp::ComplexFirFilter filter0(
        dsp::design_bandpass(fsk.f0, half_bw, fsk.fs, kTaps));
    dsp::ComplexFirFilter filter1(
        dsp::design_bandpass(fsk.f1, half_bw, fsk.fs, kTaps));
    dsp::SoaSamples y0, y1;
    filter0.process(soa.view(), y0);
    filter1.process(soa.view(), y1);
    phy::BitVec whole;
    for (std::size_t s = 0; s < truth.size(); ++s) {
      const std::size_t a = start + (kTaps - 1) / 2 + s * fsk.sps;
      if (a + fsk.sps > y0.size()) break;
      double e0 = 0.0, e1 = 0.0;
      for (std::size_t i = a; i < a + fsk.sps; ++i) {
        e0 += y0.re()[i] * y0.re()[i] + y0.im()[i] * y0.im()[i];
        e1 += y1.re()[i] * y1.re()[i] + y1.im()[i] * y1.im()[i];
      }
      whole.push_back(e1 > e0 ? 1 : 0);
    }
    EXPECT_EQ(
        eavesdrop_decode_bandpass(fsk, capture, start, truth, half_bw).bits,
        whole);
  }
}

class AirFixture : public ::testing::Test {
 protected:
  AirFixture()
      : profile_(imd::virtuoso_profile()),
        medium_(profile_.fsk.fs, 48, 31),
        timeline_(medium_),
        imd_(profile_, medium_, &timeline_.log(), 31) {
    timeline_.add_node(&imd_);
  }
  void warmup() { timeline_.run_for(2e-3); }
  imd::ImdProfile profile_;
  channel::Medium medium_;
  sim::Timeline timeline_;
  imd::ImdDevice imd_;
};

TEST_F(AirFixture, MonitorSeesFramesWithRssi) {
  MonitorConfig mcfg;
  mcfg.position = {2.0, 0};
  mcfg.fsk = profile_.fsk;
  MonitorNode monitor(mcfg, medium_);
  timeline_.add_node(&monitor);

  ActiveAdversaryConfig acfg;
  acfg.position = {1.0, 0};
  acfg.fsk = profile_.fsk;
  ActiveAdversaryNode adversary(acfg, medium_, &timeline_.log());
  timeline_.add_node(&adversary);

  warmup();
  adversary.inject(make_interrogate(profile_.serial, 4),
                   timeline_.sample_position() + 480);
  timeline_.run_for(30e-3);
  ASSERT_FALSE(monitor.frames().empty());
  const auto& frame = monitor.frames()[0];
  EXPECT_EQ(frame.decode.status, phy::DecodeStatus::kOk);
  EXPECT_EQ(frame.decode.frame.seq, 4);
  // RSSI consistent with the 1 m -> 2 m link (loss ~ at most tens of dB).
  EXPECT_GT(dsp::mw_to_dbm(frame.rssi), -70.0);
  EXPECT_LT(dsp::mw_to_dbm(frame.rssi), -20.0);
}

TEST_F(AirFixture, MonitorCaptureIsContiguous) {
  MonitorConfig mcfg;
  mcfg.position = {1.0, 0};
  mcfg.fsk = profile_.fsk;
  mcfg.capture_samples = true;
  MonitorNode monitor(mcfg, medium_);
  timeline_.add_node(&monitor);
  timeline_.run_for(2e-3);
  monitor.clear_capture();
  timeline_.run_for(3e-3);
  EXPECT_EQ(monitor.capture().size(),
            timeline_.sample_position() - monitor.capture_start());
}

TEST_F(AirFixture, ForgedCommandTriggersImd) {
  ActiveAdversaryConfig acfg;
  acfg.position = channel::testbed_location(3).position();
  acfg.fsk = profile_.fsk;
  ActiveAdversaryNode adversary(acfg, medium_, &timeline_.log());
  timeline_.add_node(&adversary);
  warmup();
  adversary.inject(make_interrogate(profile_.serial, 1),
                   timeline_.sample_position() + 480);
  timeline_.run_for(40e-3);
  EXPECT_EQ(imd_.stats().replies_sent, 1u);
}

TEST_F(AirFixture, PowerSettingChangesDeliveredPower) {
  ActiveAdversaryConfig acfg;
  acfg.position = {2.0, 0};
  acfg.fsk = profile_.fsk;
  ActiveAdversaryNode adversary(acfg, medium_, &timeline_.log());
  timeline_.add_node(&adversary);
  MonitorConfig mcfg;
  mcfg.position = {2.5, 0};
  mcfg.fsk = profile_.fsk;
  MonitorNode monitor(mcfg, medium_);
  timeline_.add_node(&monitor);
  warmup();

  adversary.inject(make_interrogate(profile_.serial, 1),
                   timeline_.sample_position() + 480);
  timeline_.run_for(40e-3);
  ASSERT_EQ(monitor.frames().size(), 2u);  // command + IMD reply
  const double rssi_low = monitor.frames()[0].rssi;

  adversary.set_tx_power_dbm(4.0);  // 100x
  EXPECT_DOUBLE_EQ(adversary.tx_power_dbm(), 4.0);
  adversary.inject(make_interrogate(profile_.serial, 2),
                   timeline_.sample_position() + 480);
  timeline_.run_for(40e-3);
  ASSERT_GE(monitor.frames().size(), 3u);
  const double rssi_high = monitor.frames()[2].rssi;
  EXPECT_NEAR(dsp::power_to_db(rssi_high / rssi_low), 20.0, 1.5);
}

TEST_F(AirFixture, CrossTrafficDoesNotTriggerImd) {
  CrossTrafficConfig ccfg;
  ccfg.position = {2.0, 0};
  CrossTrafficNode radiosonde(ccfg, medium_, 5);
  timeline_.add_node(&radiosonde);
  warmup();
  const auto [start, end] =
      radiosonde.send_frame(timeline_.sample_position() + 480);
  EXPECT_GT(end, start);
  timeline_.run_for(40e-3);
  EXPECT_EQ(radiosonde.frames_sent(), 1u);
  EXPECT_EQ(imd_.stats().frames_accepted, 0u);
  EXPECT_EQ(imd_.stats().replies_sent, 0u);
}

}  // namespace
}  // namespace hs::adversary
