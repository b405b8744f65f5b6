#include <gtest/gtest.h>

#include <cmath>

#include "channel/geometry.hpp"
#include "channel/medium.hpp"
#include "channel/pathloss.hpp"
#include "dsp/power.hpp"
#include "dsp/units.hpp"

namespace hs::channel {
namespace {

TEST(PathLoss, ReferenceLossAt403MHz) {
  PathLossModel model;
  // Friis at 1 m, 403.5 MHz: about 24.6 dB.
  EXPECT_NEAR(model.reference_loss_db(), 24.6, 0.3);
  EXPECT_NEAR(model.wavelength_m(), 0.743, 0.01);
}

TEST(PathLoss, MonotonicInDistance) {
  PathLossModel model;
  double prev = -1.0;
  for (double d = 0.1; d < 40.0; d *= 1.5) {
    const double loss = model.air_loss_db(d);
    EXPECT_GT(loss, prev);
    prev = loss;
  }
}

TEST(PathLoss, SlopeMatchesExponent) {
  PathLossModel model;
  model.exponent = 2.0;
  EXPECT_NEAR(model.air_loss_db(10.0) - model.air_loss_db(1.0), 20.0, 1e-9);
  model.exponent = 3.0;
  EXPECT_NEAR(model.air_loss_db(10.0) - model.air_loss_db(1.0), 30.0, 1e-9);
}

TEST(PathLoss, WallsAddLinearly) {
  PathLossModel model;
  EXPECT_NEAR(model.air_loss_db(5.0, 3) - model.air_loss_db(5.0, 0),
              3 * model.wall_loss_db, 1e-9);
}

TEST(PathLoss, NearFieldClamped) {
  PathLossModel model;
  EXPECT_DOUBLE_EQ(model.air_loss_db(0.001), model.air_loss_db(0.02));
  EXPECT_GE(model.air_loss_db(0.001), 0.0);
}

TEST(Geometry, EighteenLocations) {
  EXPECT_EQ(testbed_locations().size(), kTestbedLocationCount);
  EXPECT_THROW(testbed_location(0), std::out_of_range);
  EXPECT_THROW(testbed_location(19), std::out_of_range);
  EXPECT_EQ(testbed_location(1).distance_m, 0.2);
}

TEST(Geometry, LocationsOrderedByDescendingShieldRssi) {
  // The paper numbers locations "in descending order of received signal
  // strength at the shield"; our table must satisfy that under the
  // default path-loss model.
  PathLossModel model;
  double prev = 1e9;
  for (const auto& loc : testbed_locations()) {
    const double rssi = -model.air_loss_db(loc.distance_m, loc.walls);
    EXPECT_LE(rssi, prev + 1e-9) << "location " << loc.index;
    prev = rssi;
  }
}

TEST(Geometry, PaperAnchorsPresent) {
  // Location 8 = FCC adversary's outermost success, 14 m (Fig. 11);
  // location 13 = 100x adversary's outermost success, 27 m (Fig. 13);
  // location 1 = nearest eavesdropper, 20 cm.
  EXPECT_DOUBLE_EQ(testbed_location(8).distance_m, 14.0);
  EXPECT_DOUBLE_EQ(testbed_location(13).distance_m, 27.0);
  EXPECT_DOUBLE_EQ(testbed_location(1).distance_m, 0.2);
  EXPECT_TRUE(testbed_location(1).line_of_sight());
  EXPECT_FALSE(testbed_location(13).line_of_sight());
}

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
}

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : medium_(300e3, 64, /*seed=*/9) {}
  channel::Medium medium_;
};

TEST_F(MediumTest, GainFollowsPathLoss) {
  AntennaDesc a, b;
  a.position = {0, 0};
  b.position = {2.0, 0};
  const auto ia = medium_.add_antenna(a);
  const auto ib = medium_.add_antenna(b);
  const double expected_loss =
      medium_.budget().pathloss.air_loss_db(2.0, 0);
  EXPECT_NEAR(-dsp::power_to_db(std::norm(medium_.gain(ia, ib))),
              expected_loss, 2.0 * medium_.budget().shadowing_sigma_db + 1.0);
  EXPECT_NEAR(medium_.nominal_loss_db(ia, ib), expected_loss, 1e-9);
}

TEST_F(MediumTest, BodyAndExtraLossesAdd) {
  AntennaDesc imd, other;
  imd.body_loss_db = 20.0;
  imd.position = {0, 0};
  other.position = {1.0, 0};
  other.extra_loss_db = 5.0;
  const auto ia = medium_.add_antenna(imd);
  const auto ib = medium_.add_antenna(other);
  const double air = medium_.budget().pathloss.air_loss_db(1.0, 0);
  EXPECT_NEAR(medium_.nominal_loss_db(ia, ib), air + 25.0, 1e-9);
}

TEST_F(MediumTest, PairLossOverride) {
  AntennaDesc a, b;
  b.position = {1.0, 0};
  const auto ia = medium_.add_antenna(a);
  const auto ib = medium_.add_antenna(b);
  const double before = medium_.nominal_loss_db(ia, ib);
  medium_.add_pair_loss(ia, ib, 6.0);
  EXPECT_NEAR(medium_.nominal_loss_db(ia, ib), before + 6.0, 1e-9);
  EXPECT_NEAR(medium_.nominal_loss_db(ib, ia), before + 6.0, 1e-9);
}

TEST_F(MediumTest, PairGainOverrideIsExact) {
  AntennaDesc a, b;
  const auto ia = medium_.add_antenna(a);
  const auto ib = medium_.add_antenna(b);
  const dsp::cplx h(0.01, -0.03);
  medium_.set_pair_gain(ia, ib, h);
  EXPECT_EQ(medium_.gain(ia, ib), h);
}

TEST_F(MediumTest, NoImplicitSelfCoupling) {
  AntennaDesc a;
  const auto ia = medium_.add_antenna(a);
  EXPECT_EQ(medium_.gain(ia, ia), dsp::cplx{});
}

TEST_F(MediumTest, ChannelIsReciprocal) {
  AntennaDesc a, b;
  b.position = {3.0, 1.0};
  const auto ia = medium_.add_antenna(a);
  const auto ib = medium_.add_antenna(b);
  EXPECT_EQ(medium_.gain(ia, ib), medium_.gain(ib, ia));
}

TEST_F(MediumTest, MixSuperposesTransmissions) {
  medium_.set_noise_enabled(false);
  AntennaDesc a, b, c;
  a.position = {0, 0};
  b.position = {0, 1.0};
  c.position = {1.0, 0};
  const auto ia = medium_.add_antenna(a);
  const auto ib = medium_.add_antenna(b);
  const auto ic = medium_.add_antenna(c);

  dsp::Samples sa(64, dsp::cplx{1.0, 0.0});
  dsp::Samples sb(64, dsp::cplx{0.0, 1.0});
  medium_.begin_block();
  medium_.set_tx(ia, sa);
  medium_.set_tx(ib, sb);
  medium_.mix();
  const dsp::Samples rx = dsp::to_aos(medium_.rx_soa(ic));
  const dsp::cplx expected =
      medium_.gain(ia, ic) * sa[0] + medium_.gain(ib, ic) * sb[0];
  for (const auto& x : rx) {
    EXPECT_NEAR(std::abs(x - expected), 0.0, 1e-12);
  }
}

TEST_F(MediumTest, SetTxAccumulates) {
  medium_.set_noise_enabled(false);
  AntennaDesc a, b;
  b.position = {1.0, 0};
  const auto ia = medium_.add_antenna(a);
  const auto ib = medium_.add_antenna(b);
  dsp::Samples s(64, dsp::cplx{1.0, 0.0});
  medium_.begin_block();
  medium_.set_tx(ia, s);
  medium_.set_tx(ia, s);  // second waveform on the same antenna
  medium_.mix();
  const dsp::Samples rx = dsp::to_aos(medium_.rx_soa(ib));
  EXPECT_NEAR(std::abs(rx[0]), 2.0 * std::abs(medium_.gain(ia, ib)), 1e-12);
}

TEST_F(MediumTest, BeginBlockClearsPreviousTx) {
  medium_.set_noise_enabled(false);
  AntennaDesc a, b;
  b.position = {1.0, 0};
  const auto ia = medium_.add_antenna(a);
  const auto ib = medium_.add_antenna(b);
  dsp::Samples s(64, dsp::cplx{1.0, 0.0});
  medium_.begin_block();
  medium_.set_tx(ia, s);
  medium_.mix();
  medium_.begin_block();  // nothing transmitted this block
  medium_.mix();
  EXPECT_NEAR(medium_.rx_power(ib), 0.0, 1e-30);
}

TEST_F(MediumTest, NoiseFloorMatchesBudget) {
  AntennaDesc a;
  const auto ia = medium_.add_antenna(a);
  double p = 0;
  const int blocks = 200;
  for (int i = 0; i < blocks; ++i) {
    medium_.begin_block();
    medium_.mix();
    p += medium_.rx_power(ia);
  }
  p /= blocks;
  EXPECT_NEAR(dsp::mw_to_dbm(p), medium_.budget().noise_floor_dbm, 0.5);
}

TEST_F(MediumTest, RerandomizeChangesPhaseNotNominalLoss) {
  AntennaDesc a, b;
  b.position = {5.0, 0};
  const auto ia = medium_.add_antenna(a);
  const auto ib = medium_.add_antenna(b);
  const auto before_gain = medium_.gain(ia, ib);
  const double before_loss = medium_.nominal_loss_db(ia, ib);
  medium_.rerandomize();
  EXPECT_NE(medium_.gain(ia, ib), before_gain);
  EXPECT_DOUBLE_EQ(medium_.nominal_loss_db(ia, ib), before_loss);
}

TEST_F(MediumTest, ShortLinksDoNotShadow) {
  // Co-located cluster links (< 1 m) are rigid: no per-trial shadowing.
  AntennaDesc a, b;
  b.position = {0.02, 0};
  const auto ia = medium_.add_antenna(a);
  const auto ib = medium_.add_antenna(b);
  const double nominal = medium_.nominal_loss_db(ia, ib);
  for (int i = 0; i < 10; ++i) {
    medium_.rerandomize();
    EXPECT_NEAR(-dsp::power_to_db(std::norm(medium_.gain(ia, ib))), nominal,
                1e-9);
  }
}

TEST_F(MediumTest, OversizedBlockRejected) {
  AntennaDesc a;
  const auto ia = medium_.add_antenna(a);
  dsp::Samples too_big(65);
  medium_.begin_block();
  EXPECT_THROW(medium_.set_tx(ia, too_big), std::invalid_argument);
}

}  // namespace
}  // namespace hs::channel
