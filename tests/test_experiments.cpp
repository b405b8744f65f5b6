// Experiment-driver integration tests: small versions of the paper's
// evaluation runs, asserting on qualitative results through experiment
// options no preset covers (test_claims checks the presets themselves).
#include <gtest/gtest.h>

#include "channel/geometry.hpp"
#include "shield/calibrate.hpp"
#include "shield/experiments.hpp"

namespace hs::shield {
namespace {

TEST(EavesdropExperiment, HalfBerAtAdversaryZeroLossAtShield) {
  EavesdropOptions opt;
  opt.seed = 21;
  opt.location_index = 1;
  opt.packets = 15;
  const auto result = run_eavesdrop_experiment(opt);
  EXPECT_EQ(result.imd_packets, 15u);
  EXPECT_GT(result.mean_ber(), 0.42);
  EXPECT_LT(result.mean_ber(), 0.58);
  EXPECT_LE(result.shield_packet_loss(), 0.1);
}

TEST(EavesdropExperiment, BerIndependentOfLocation) {
  // Equation 7: the eavesdropper's SINR (hence BER) does not depend on
  // where it sits.
  double near_ber = 0, far_ber = 0;
  for (int loc : {1, 13}) {
    EavesdropOptions opt;
    opt.seed = 22;
    opt.location_index = loc;
    opt.packets = 12;
    const auto result = run_eavesdrop_experiment(opt);
    (loc == 1 ? near_ber : far_ber) = result.mean_ber();
  }
  EXPECT_NEAR(near_ber, far_ber, 0.08);
  EXPECT_GT(near_ber, 0.4);
}

TEST(EavesdropExperiment, LowJamMarginLeaksBits) {
  // Fig. 8(a): at low jamming margin the adversary recovers bits.
  EavesdropOptions opt;
  opt.seed = 23;
  opt.location_index = 1;
  opt.packets = 12;
  opt.use_margin_override = true;
  opt.jam_margin_db = 0.0;
  const auto result = run_eavesdrop_experiment(opt);
  EXPECT_LT(result.mean_ber(), 0.25);
}

TEST(EavesdropExperiment, WithoutShieldAdversaryDecodesPerfectly) {
  EavesdropOptions opt;
  opt.seed = 24;
  opt.location_index = 1;
  opt.packets = 8;
  opt.shield_present = false;
  const auto result = run_eavesdrop_experiment(opt);
  EXPECT_LT(result.mean_ber(), 0.01);
}

TEST(AttackExperiment, ShieldBlocksFccAdversaryEverywhere) {
  for (int loc : {1, 5, 8}) {
    AttackOptions opt;
    opt.seed = 25;
    opt.location_index = loc;
    opt.trials = 10;
    opt.shield_present = true;
    const auto result = run_attack_experiment(opt);
    EXPECT_EQ(result.successes, 0u) << "location " << loc;
  }
}

TEST(AttackExperiment, WithoutShieldNearbyAttacksSucceed) {
  AttackOptions opt;
  opt.seed = 26;
  opt.location_index = 1;
  opt.trials = 10;
  opt.shield_present = false;
  const auto result = run_attack_experiment(opt);
  EXPECT_EQ(result.successes, 10u);
  EXPECT_GT(result.battery_energy_spent_mj, 0.0);
}

TEST(AttackExperiment, RangeBoundaryMatchesPaperShape) {
  // Fig. 11's shape: success probability decays with location index and
  // dies in the far NLOS field.
  AttackOptions opt;
  opt.seed = 27;
  opt.trials = 12;
  opt.shield_present = false;
  opt.location_index = 8;
  const auto mid = run_attack_experiment(opt);
  opt.location_index = 10;
  const auto far = run_attack_experiment(opt);
  EXPECT_GT(mid.success_probability(), 0.2);
  EXPECT_EQ(far.successes, 0u);
}

TEST(AttackExperiment, HighPowerExtendsRangeWithoutShield) {
  AttackOptions opt;
  opt.seed = 28;
  opt.trials = 10;
  opt.shield_present = false;
  opt.location_index = 11;  // dead for FCC power
  const auto fcc = run_attack_experiment(opt);
  opt.extra_power_db = 20.0;
  const auto high = run_attack_experiment(opt);
  EXPECT_EQ(fcc.successes, 0u);
  // Location 11 sits near the 100x adversary's range boundary (Fig. 13
  // shows ~0.92 at their location 11); anything clearly nonzero shows the
  // range extension.
  EXPECT_GT(high.success_probability(), 0.3);
}

TEST(AttackExperiment, TherapyAttackMirrorsTriggerAttack) {
  AttackOptions opt;
  opt.seed = 29;
  opt.location_index = 3;
  opt.trials = 10;
  opt.shield_present = false;
  opt.kind = AttackKind::kChangeTherapy;
  const auto result = run_attack_experiment(opt);
  EXPECT_EQ(result.successes, 10u);
}

TEST(CoexistenceExperiment, JamsImdTrafficNeverCrossTraffic) {
  CoexistenceOptions opt;
  opt.seed = 30;
  opt.location_indices = {1, 5};
  opt.rounds_per_location = 4;
  const auto result = run_coexistence_experiment(opt);
  EXPECT_EQ(result.imd_commands_sent, 8u);
  EXPECT_EQ(result.imd_commands_jammed, 8u);
  EXPECT_EQ(result.cross_frames_sent, 8u);
  EXPECT_EQ(result.cross_frames_jammed, 0u);
  // Turn-around time: sub-millisecond, as in Table 2.
  ASSERT_FALSE(result.turnaround_us.empty());
  for (double us : result.turnaround_us) {
    EXPECT_GT(us, 0.0);
    EXPECT_LT(us, 1000.0);
  }
}

TEST(CoexistenceExperiment, LongRunsNeverPoisonTheAntidote) {
  // Regression: a channel-estimation probe that collides with radiosonde
  // cross-traffic used to slip a wrong-phase estimate past the sanity
  // gates, breaking the antidote — after which the shield could no longer
  // see through its own jamming and kept jamming forever (missing every
  // subsequent command and squatting on the medium). Long alternating
  // runs across several locations must stay perfect.
  CoexistenceOptions opt;
  opt.seed = 1;
  opt.location_indices = {3, 5, 7};
  opt.rounds_per_location = 10;
  const auto result = run_coexistence_experiment(opt);
  EXPECT_EQ(result.imd_commands_jammed, result.imd_commands_sent);
  EXPECT_EQ(result.cross_frames_jammed, 0u);
  for (double us : result.turnaround_us) {
    EXPECT_LT(us, 1000.0);  // never stuck jamming past the packet end
  }
}

TEST(Calibration, PthreshBoundaryIsReasonable) {
  const auto result = measure_pthresh(/*seed=*/31, /*location_index=*/1,
                                      /*power_lo_dbm=*/-16.0,
                                      /*power_hi_dbm=*/14.0,
                                      /*power_step_db=*/3.0,
                                      /*packets_per_power=*/3);
  ASSERT_GT(result.successes, 0u);
  // Successes only happen once the adversary is strong; at this geometry
  // that means RSSI at the shield well above the FCC-power level (-26.5).
  EXPECT_GT(result.min_dbm, -24.0);
  EXPECT_LT(result.min_dbm, -5.0);
  EXPECT_GE(result.mean_dbm, result.min_dbm);
}

TEST(Calibration, BthreshConservativeDefault) {
  const auto result = estimate_bthresh(/*seed=*/32, /*packets=*/60);
  EXPECT_EQ(result.packets_sent, 60u);
  // Shield SNR dominates the IMD's by the in-body loss, so such packets
  // are vanishingly rare (the paper saw 3 in 5000).
  EXPECT_LE(result.shield_error_imd_ok, 2u);
  EXPECT_GE(result.recommended_bthresh, 4u);
}

}  // namespace
}  // namespace hs::shield
