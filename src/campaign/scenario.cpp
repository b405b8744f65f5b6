#include "campaign/scenario.hpp"

#include <array>
#include <limits>

#include "channel/geometry.hpp"
#include "imd/protocol.hpp"
#include "mics/band.hpp"
#include "phy/frame.hpp"

namespace hs::campaign {

namespace {

std::vector<double> location_range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(static_cast<double>(i));
  return v;
}

std::vector<double> linear_range(double lo, double hi, double step) {
  std::vector<double> v;
  for (double x = lo; x <= hi + 1e-9; x += step) v.push_back(x);
  return v;
}

Scenario eavesdrop_base(std::string name, std::string ref) {
  Scenario s;
  s.name = std::move(name);
  s.paper_ref = std::move(ref);
  s.kind = ExperimentKind::kEavesdrop;
  s.units_per_trial = 4;  // packets per trial
  s.default_trials = 10;
  return s;
}

Scenario attack_base(std::string name, std::string ref,
                     shield::AttackKind kind, bool shield_present) {
  Scenario s;
  s.name = std::move(name);
  s.paper_ref = std::move(ref);
  s.kind = ExperimentKind::kActiveAttack;
  s.attack_kind = kind;
  s.shield_present = shield_present;
  s.units_per_trial = 1;
  s.default_trials = 50;
  return s;
}

// Claims. Every bound is read off the paper's wording, never off a run:
//   - "~X" accepts X +- 10%;
//   - a success probability the paper prints for a location accepts the
//     printed value +- 0.1, clipped to [0, 1];
//   - "0 at every location", "never" and "always" are exact;
//   - "<= X" accepts [0, X], and "succeeds" any mean above 0
//     (kAboveZero).
// A claim the simulator misses keeps its bounds and says why in
// `deviation`.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kAboveZero = 1e-9;

/// A claim over every sweep point.
Claim claim(Metric metric, double lo, double hi, std::string_view paper) {
  Claim c;
  c.metric = metric;
  c.lo = lo;
  c.hi = hi;
  c.paper = paper;
  return c;
}

/// A claim over the points whose axis value lies in [axis_lo, axis_hi].
Claim claim_at(double axis_lo, double axis_hi, Metric metric, double lo,
               double hi, std::string_view paper) {
  Claim c = claim(metric, lo, hi, paper);
  c.axis_lo = axis_lo;
  c.axis_hi = axis_hi;
  return c;
}

/// `c`, recorded as a claim the simulator misses, and why.
Claim deviates(Claim c, std::string_view why) {
  c.deviation = why;
  return c;
}

/// The shield hears its own jamming through the 30 dB jam->rec antenna
/// coupling (ShieldConfig::jam_rec_coupling_db) before the antidote's G,
/// so its SINR at a 20 dB margin is 10 + G dB.
constexpr std::string_view kCouplingBeforeG =
    "30 dB of jam->rec antenna coupling comes before G, so the shield "
    "decodes at 10 + G dB SINR and loses no packet";

/// Figs. 11-12 without the shield: testbed_locations() places where
/// success ends (location 8), not the shape of the fall-off before it.
constexpr std::string_view kSteeperFalloff =
    "the simulated success falls off between 6.5 and 17 m more steeply "
    "than the testbed's; only its end (location 8) is placed";

/// The airtime of the IMD's interrogate command in ms: a wideband
/// monitor that reacts within it leaves the rest of the packet jammable.
double interrogate_airtime_ms() {
  const auto profile = imd::virtuoso_profile();
  const auto bits = phy::encode_frame(imd::make_interrogate(profile.serial, 1));
  return static_cast<double>(bits.size() * profile.fsk.sps) /
         profile.fsk.fs * 1e3;
}

std::vector<Scenario> build_presets() {
  const int all_locations = static_cast<int>(channel::kTestbedLocationCount);
  std::vector<Scenario> presets;

  // --- Fig. 3: IMD reply timing, medium idle vs busy -----------------------
  {
    Scenario s;
    s.name = "fig3-imd-timing";
    s.paper_ref = "Figure 3";
    s.description = "IMD reply delay with the medium idle vs kept busy "
                    "(no carrier sense)";
    s.kind = ExperimentKind::kImdTiming;
    s.default_trials = 20;
    s.claims = {
        claim(Metric::kReplyDelayIdleMs, 3.15, 3.85,
              "reply ~3.5 ms after the command, medium idle"),
        claim(Metric::kReplyDelayBusyMs, 3.15, 3.85,
              "reply ~3.5 ms after the command, medium busy (no carrier "
              "sense)"),
    };
    presets.push_back(std::move(s));
  }

  // --- Figs. 4-5: spectral profiles ----------------------------------------
  {
    Scenario s;
    s.name = "fig4-fsk-profile";
    s.paper_ref = "Figure 4";
    s.description = "fraction of the IMD's FSK power near the +-50 kHz "
                    "tones";
    s.kind = ExperimentKind::kSpectrum;
    s.spectrum_of_jammer = false;
    s.default_trials = 8;
    s.claims = {claim(Metric::kToneBandFraction, 0.5, 1.0,
                      "most of the energy around the +-50 kHz tones")};
    presets.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "fig5-jam-shaped";
    s.paper_ref = "Figure 5";
    s.description = "tone-band power fraction of the shaped jamming "
                    "profile";
    s.kind = ExperimentKind::kSpectrum;
    s.spectrum_of_jammer = true;
    s.jam_profile = shield::JamProfile::kShaped;
    s.default_trials = 8;
    s.claims = {claim(Metric::kToneBandFraction, 0.5, 1.0,
                      "shaped jamming puts most of its power where the FSK "
                      "signal has it")};
    presets.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "fig5-jam-constant";
    s.paper_ref = "Figure 5";
    s.description = "tone-band power fraction of the oblivious constant "
                    "jamming profile";
    s.kind = ExperimentKind::kSpectrum;
    s.spectrum_of_jammer = true;
    s.jam_profile = shield::JamProfile::kConstant;
    s.default_trials = 8;
    s.claims = {claim(Metric::kToneBandFraction, 0.18, 0.22,
                      "constant power over the 300 kHz channel: the two 30 "
                      "kHz tone bands hold ~60/300")};
    presets.push_back(std::move(s));
  }

  // --- Fig. 7: antidote cancellation CDF -----------------------------------
  {
    Scenario s;
    s.name = "fig7-cancellation";
    s.paper_ref = "Figure 7";
    s.description = "antidote cancellation depth at the shield's receive "
                    "antenna (~32 dB)";
    s.kind = ExperimentKind::kCancellation;
    s.default_trials = 200;
    s.claims = {claim(Metric::kCancellationDb, 28.8, 35.2,
                      "~32 dB average cancellation")};
    presets.push_back(std::move(s));
  }

  // --- Fig. 8: BER/PER vs relative jamming power ---------------------------
  {
    auto s = eavesdrop_base("fig8-tradeoff", "Figures 8(a), 8(b)");
    s.description = "adversary BER vs shield packet loss across jamming "
                    "margins";
    s.use_margin_override = true;
    s.axis = SweepAxis::kJamMarginDb;
    s.axis_values = linear_range(0.0, 25.0, 2.5);
    s.default_trials = 15;
    s.claims = {
        claim_at(20, 20, Metric::kAdversaryBer, 0.45, 0.55,
                 "eavesdropper BER ~0.5 when jamming 20 dB above the IMD"),
        claim_at(20, 20, Metric::kShieldPacketLoss, 0.0, 0.002,
                 "shield packet loss <= 0.002 at the same +20 dB"),
    };
    presets.push_back(std::move(s));
  }

  // --- Fig. 9: eavesdropper BER at every testbed location ------------------
  {
    auto s = eavesdrop_base("fig9-eaves-ber", "Figure 9");
    s.description = "eavesdropper BER (~0.5) at all 18 testbed locations";
    s.axis = SweepAxis::kLocation;
    s.axis_values = location_range(1, all_locations);
    s.claims = {claim(Metric::kAdversaryBer, 0.45, 0.55,
                      "BER ~0.5 at all 18 locations")};
    presets.push_back(std::move(s));
  }

  // --- Fig. 10: shield packet loss while jamming ---------------------------
  {
    auto s = eavesdrop_base("fig10-shield-per", "Figure 10");
    s.description = "shield packet loss decoding through its own jamming "
                    "(~0.2%)";
    s.units_per_trial = 200;
    s.default_trials = 12;
    s.claims = {deviates(claim(Metric::kShieldPacketLoss, 0.0018, 0.0022,
                               "average packet loss ~0.2%"),
                         kCouplingBeforeG)};
    presets.push_back(std::move(s));
  }

  // --- Figs. 11-13: active attacks, shield present and absent --------------
  const Claim shield_stops_attack =
      claim(Metric::kAttackSuccess, 0.0, 0.0,
            "0 at every location with the shield");
  for (bool shield_present : {true, false}) {
    const char* suffix = shield_present ? "" : "-noshield";
    const char* with = shield_present ? "with" : "without";
    {
      auto s = attack_base(std::string("fig11-trigger") + suffix,
                           "Figure 11",
                           shield::AttackKind::kTriggerTransmission,
                           shield_present);
      s.description = std::string("battery-depletion trigger attack by "
                                  "location, ") + with + " the shield";
      s.axis = SweepAxis::kLocation;
      s.axis_values = location_range(1, 14);
      if (shield_present) {
        s.claims = {shield_stops_attack};
      } else {
        // The paper's row: 1 1 1 1 1 0.94 0.77 0.59 0.01 0.
        s.claims = {
            claim_at(1, 5, Metric::kAttackSuccess, 0.9, 1.0,
                     "1 at locations 1-5"),
            claim_at(6, 6, Metric::kAttackSuccess, 0.84, 1.0,
                     "0.94 at location 6"),
            deviates(claim_at(7, 7, Metric::kAttackSuccess, 0.67, 0.87,
                              "0.77 at location 7"),
                     kSteeperFalloff),
            claim_at(8, 8, Metric::kAttackSuccess, 0.49, 0.69,
                     "0.59 at location 8 (14 m), the farthest success"),
            claim_at(9, 9, Metric::kAttackSuccess, 0.0, 0.11,
                     "0.01 at location 9"),
            claim_at(10, kInf, Metric::kAttackSuccess, 0.0, 0.1,
                     "0 from location 10 on"),
        };
      }
      presets.push_back(std::move(s));
    }
    {
      auto s = attack_base(std::string("fig12-therapy") + suffix,
                           "Figure 12", shield::AttackKind::kChangeTherapy,
                           shield_present);
      s.description = std::string("therapy-modification attack by "
                                  "location, ") + with + " the shield";
      s.axis = SweepAxis::kLocation;
      s.axis_values = location_range(1, 14);
      if (shield_present) {
        s.claims = {shield_stops_attack};
      } else {
        // The paper's row: 1 1 1 1 0.95 0.84 0.78 0.70 0.02 0.01.
        s.claims = {
            claim_at(1, 4, Metric::kAttackSuccess, 0.9, 1.0,
                     "1 at locations 1-4"),
            claim_at(5, 5, Metric::kAttackSuccess, 0.85, 1.0,
                     "0.95 at location 5"),
            deviates(claim_at(6, 6, Metric::kAttackSuccess, 0.74, 0.94,
                              "0.84 at location 6"),
                     kSteeperFalloff),
            claim_at(7, 7, Metric::kAttackSuccess, 0.68, 0.88,
                     "0.78 at location 7"),
            deviates(claim_at(8, 8, Metric::kAttackSuccess, 0.6, 0.8,
                              "0.70 at location 8"),
                     kSteeperFalloff),
            claim_at(9, 9, Metric::kAttackSuccess, 0.0, 0.12,
                     "0.02 at location 9"),
            claim_at(10, 10, Metric::kAttackSuccess, 0.0, 0.11,
                     "0.01 at location 10"),
        };
      }
      presets.push_back(std::move(s));
    }
    {
      auto s = attack_base(std::string("fig13-high-power") + suffix,
                           "Figure 13", shield::AttackKind::kChangeTherapy,
                           shield_present);
      s.description = std::string("100x-power therapy attack by "
                                  "location, ") + with + " the shield";
      s.extra_power_db = 20.0;  // the 100x adversary
      s.axis = SweepAxis::kLocation;
      s.axis_values = location_range(1, all_locations);
      if (shield_present) {
        // Locations 1-6 are the line-of-sight ones. Per-point means
        // cannot pair an alarm with its success, so the alarm claim asks
        // for one on every attempt where success is possible.
        s.claims = {
            claim_at(7, kInf, Metric::kAttackSuccess, 0.0, 0.0,
                     "succeeds only from nearby line-of-sight locations"),
            deviates(claim_at(-kInf, 6, Metric::kAlarm, 1.0, 1.0,
                              "the shield raises an alarm whenever the "
                              "adversary succeeds"),
                     "stricter than the paper: every attempt alarms at "
                     "locations 1-2, which hold all the successes, but "
                     "few or none do at 3-6, where the attack fails"),
        };
      } else {
        s.claims = {
            claim_at(-kInf, 13, Metric::kAttackSuccess, kAboveZero, 1.0,
                     "succeeds from up to 27 m (location 13), "
                     "non-line-of-sight included"),
            claim_at(14, kInf, Metric::kAttackSuccess, 0.0, 0.0,
                     "no success beyond location 13"),
        };
      }
      presets.push_back(std::move(s));
    }
  }

  // --- Table 1: P_thresh calibration ---------------------------------------
  {
    Scenario s;
    s.name = "table1-pthresh";
    s.paper_ref = "Table 1";
    s.description = "adversarial RSSI at the shield that elicits IMD "
                    "responses despite jamming";
    s.kind = ExperimentKind::kPthresh;
    s.axis = SweepAxis::kAdversaryPowerDbm;
    s.axis_values = linear_range(-16.0, 14.0, 2.0);
    s.units_per_trial = 2;  // packets per power per trial
    s.default_trials = 5;
    // Every packet that elicited a response arrived at or above the
    // minimum, so every point's mean does too.
    s.claims = {deviates(
        claim(Metric::kPthreshRssiDbm, -11.1, kInf,
              "eliciting RSSI min -11.1 dBm (avg -4.5, stddev 3.5)"),
        "the simulator's dBm scale is field-referenced, not the USRP's: "
        "responses start at -16.6 dBm, and below -6 dBm of adversary "
        "power none come, so those points are empty")};
    presets.push_back(std::move(s));
  }

  // --- Table 2: coexistence and turn-around --------------------------------
  {
    Scenario s;
    s.name = "table2-coexistence";
    s.paper_ref = "Table 2";
    s.description = "IMD commands jammed, radiosonde cross-traffic spared, "
                    "turn-around time";
    s.kind = ExperimentKind::kCoexistence;
    s.axis = SweepAxis::kLocation;
    s.axis_values = {1, 3, 5, 7, 9};
    s.units_per_trial = 1;  // one command + one cross frame per trial
    s.default_trials = 10;
    s.claims = {
        claim(Metric::kCrossTrafficJammed, 0.0, 0.0,
              "cross-traffic never jammed"),
        claim(Metric::kImdCommandJammed, 1.0, 1.0,
              "packets that trigger the IMD always jammed"),
        deviates(claim(Metric::kTurnaroundUs, 247.0, 293.0,
                       "turn-around 270 +- 23 us"),
                 "the shield stops one 48-sample block (160 us) after the "
                 "adversary, not at a software radio's latency; at "
                 "location 9 its last jam ends before the frame's nominal "
                 "end, so no sample"),
    };
    presets.push_back(std::move(s));
  }

  // --- Section 6(a) ablation: jamming profile vs decoder -------------------
  {
    struct Cell {
      const char* name;
      shield::JamProfile profile;
      bool bandpass;
      Claim claim;
    };
    // The shaped jammer holds the eavesdropper at ~0.5 at the +20 dB
    // operating point; a flat one wastes power the adversary can filter
    // away, which shows at the sweep's lowest margin.
    const Claim shaped_holds =
        claim_at(20, 20, Metric::kAdversaryBer, 0.45, 0.55,
                 "shaped jamming: BER ~0.5 at +20 dB, filtering or not");
    const Claim constant_loses =
        claim_at(8, 8, Metric::kAdversaryBer, 0.0, 0.45,
                 "a constant-profile jammer lets the adversary beat ~0.5 "
                 "(+8 dB)");
    const std::array<Cell, 4> cells = {{
        {"ablate-shaping-shaped-opt", shield::JamProfile::kShaped, false,
         shaped_holds},
        {"ablate-shaping-shaped-bpf", shield::JamProfile::kShaped, true,
         shaped_holds},
        {"ablate-shaping-constant-opt", shield::JamProfile::kConstant, false,
         constant_loses},
        {"ablate-shaping-constant-bpf", shield::JamProfile::kConstant, true,
         constant_loses},
    }};
    for (const auto& cell : cells) {
      auto s = eavesdrop_base(cell.name, "Section 6(a), Figure 5");
      s.description = "shaping ablation: adversary BER for this jammer/"
                      "decoder pairing";
      s.jam_profile = cell.profile;
      s.bandpass_attack = cell.bandpass;
      s.use_margin_override = true;
      s.axis = SweepAxis::kJamMarginDb;
      s.axis_values = {8.0, 14.0, 20.0};
      s.default_trials = 15;
      s.claims = {cell.claim};
      presets.push_back(std::move(s));
    }
  }

  // The antidote-accuracy sweep shared by the SINR-gap and positional
  // ablations, so their per-sigma rows line up. 0.025 is the shield's
  // default accuracy, the one behind Fig. 7's ~32 dB.
  const std::vector<double> sigma_sweep = {0.003, 0.01, 0.025,
                                           0.05, 0.10, 0.30};

  // --- SINR-gap ablation: antidote accuracy sweep --------------------------
  {
    auto s = eavesdrop_base("ablate-gap", "Section 6(b), equation 9");
    s.description = "SINR-gap ablation: adversary BER and shield loss vs "
                    "antidote accuracy";
    s.use_margin_override = true;
    s.axis = SweepAxis::kHardwareErrorSigma;
    s.axis_values = sigma_sweep;
    // Equation 9: SINR_shield = SINR_adversary + G.
    s.claims = {
        claim(Metric::kAdversaryBer, 0.45, 0.55,
              "G changes only the shield's SINR: the eavesdropper stays at "
              "~0.5"),
        claim_at(0.025, 0.025, Metric::kShieldPacketLoss, 0.0, 0.002,
                 "with the ~32 dB antidote the shield loses <= 0.002"),
        deviates(claim_at(0.30, 0.30, Metric::kShieldPacketLoss, 0.002, 1.0,
                          "with G too small the shield loses its own "
                          "packets"),
                 kCouplingBeforeG),
    };
    presets.push_back(std::move(s));
  }

  // --- Positional ablation: cancellation vs antidote accuracy --------------
  {
    Scenario s;
    s.name = "ablate-positional";
    s.paper_ref = "Sections 1, 5, 12";
    s.description = "antidote cancellation depth vs hardware accuracy (no "
                    "antenna separation)";
    s.kind = ExperimentKind::kCancellation;
    s.axis = SweepAxis::kHardwareErrorSigma;
    s.axis_values = sigma_sweep;
    s.default_trials = 50;
    s.claims = {claim_at(0.025, 0.025, Metric::kCancellationDb, 28.8, 35.2,
                         "~32 dB with the antennas side by side")};
    presets.push_back(std::move(s));
  }

  // --- Extension: battery-depletion economics ------------------------------
  for (bool shield_present : {true, false}) {
    auto s = attack_base(
        std::string("ext-battery") + (shield_present ? "" : "-noshield"),
        "Section 10.3 extension",
        shield::AttackKind::kTriggerTransmission, shield_present);
    s.description = "IMD battery energy an interrogation-flood attack "
                    "drains at location 3";
    s.adversary_locations = {3};
    if (shield_present) {
      s.claims = {claim(Metric::kBatteryMj, 0.0, 0.0,
                        "the shield stops the battery-depletion attack")};
    } else {
      s.claims = {
          claim(Metric::kBatteryMj, kAboveZero, kInf,
                "every forced reply drains the IMD's battery"),
          claim(Metric::kAttackSuccess, 0.9, 1.0,
                "Fig. 11: 1 at location 3 without the shield"),
      };
    }
    presets.push_back(std::move(s));
  }

  // --- Extension: scalar vs FIR antidote under multipath -------------------
  {
    Scenario s;
    s.name = "ext-multipath";
    s.paper_ref = "Section 5 footnote 2";
    s.description = "scalar vs 64-tap FIR antidote as H_jam->rec grows a "
                    "second tap";
    s.kind = ExperimentKind::kMultipathAntidote;
    s.axis = SweepAxis::kMultipathTapDb;
    s.axis_values = {-40.0, -30.0, -20.0, -12.0, -6.0, -3.0};
    s.default_trials = 6;
    s.claims = {
        claim(Metric::kMultitapCancellationDb, 28.8, kInf,
              "an equalizing antidote keeps Fig. 7's ~32 dB under multipath"),
        claim_at(-3, -3, Metric::kScalarCancellationDb, -kInf, 28.8,
                 "a single complex gain cannot cancel a frequency-selective "
                 "coupling"),
    };
    presets.push_back(std::move(s));
  }

  // --- Extension: whole-band monitoring vs a hopping adversary -------------
  {
    Scenario s;
    s.name = "ext-wideband";
    s.paper_ref = "Section 7(c)";
    s.description = "3 MHz monitor detection and reaction point on every "
                    "MICS channel";
    s.kind = ExperimentKind::kWideband;
    s.axis = SweepAxis::kMicsChannel;
    s.axis_values =
        location_range(0, static_cast<int>(mics::kChannelCount) - 1);
    s.default_trials = 3;
    s.claims = {
        claim(Metric::kWidebandDetect, 1.0, 1.0,
              "the 3 MHz monitor catches a command on any MICS channel"),
        claim(Metric::kWidebandReactionMs, 0.0, interrogate_airtime_ms(),
              "it reacts inside the command, leaving the rest jammable"),
    };
    presets.push_back(std::move(s));
  }

  // --- New variant: simultaneous eavesdroppers (best-adversary BER) --------
  {
    auto s = eavesdrop_base("multi-adversary-eaves",
                            "Figure 9 variant: 4 simultaneous eavesdroppers");
    s.description = "per-packet best-of-4 eavesdropper BER across jamming "
                    "margins";
    s.adversary_locations = {1, 4, 7, 10};
    s.axis = SweepAxis::kJamMarginDb;
    s.use_margin_override = true;
    s.axis_values = {10.0, 15.0, 20.0};
    s.claims = {claim_at(20, 20, Metric::kAdversaryBer, 0.45, 0.55,
                         "Fig. 9's ~0.5 for the best of 4 eavesdroppers at "
                         "+20 dB")};
    presets.push_back(std::move(s));
  }

  // --- New variant: one shield, two implanted devices ----------------------
  {
    auto s = attack_base("multi-imd-trigger",
                         "Figure 11 variant: Virtuoso + Concerto patient",
                         shield::AttackKind::kTriggerTransmission, true);
    s.description = "trigger attack against a two-IMD patient, shield "
                    "present";
    s.imd_profiles = {imd::virtuoso_profile(), imd::concerto_profile()};
    s.axis = SweepAxis::kLocation;
    s.axis_values = location_range(1, 8);
    s.claims = {shield_stops_attack};
    presets.push_back(std::move(s));
  }
  {
    auto s = attack_base("multi-imd-trigger-noshield",
                         "Figure 11 variant: Virtuoso + Concerto patient",
                         shield::AttackKind::kTriggerTransmission, false);
    s.description = "trigger attack against a two-IMD patient, shield "
                    "absent";
    s.imd_profiles = {imd::virtuoso_profile(), imd::concerto_profile()};
    s.axis = SweepAxis::kLocation;
    s.axis_values = location_range(1, 8);
    s.claims = {claim_at(1, 5, Metric::kAttackSuccess, 0.9, 1.0,
                         "Fig. 11: 1 at locations 1-5 without the shield")};
    presets.push_back(std::move(s));
  }

  return presets;
}

}  // namespace

std::string_view metric_name(Metric metric) {
  switch (metric) {
    case Metric::kAdversaryBer: return "adversary_ber";
    case Metric::kShieldPacketLoss: return "shield_packet_loss";
    case Metric::kAttackSuccess: return "attack_success";
    case Metric::kAlarm: return "alarm";
    case Metric::kBatteryMj: return "battery_mj";
    case Metric::kCrossTrafficJammed: return "cross_traffic_jammed";
    case Metric::kImdCommandJammed: return "imd_command_jammed";
    case Metric::kTurnaroundUs: return "turnaround_us";
    case Metric::kPthreshSuccess: return "pthresh_success";
    case Metric::kPthreshRssiDbm: return "pthresh_rssi_dbm";
    case Metric::kReplyDelayIdleMs: return "reply_delay_idle_ms";
    case Metric::kReplyDelayBusyMs: return "reply_delay_busy_ms";
    case Metric::kCancellationDb: return "cancellation_db";
    case Metric::kToneBandFraction: return "tone_band_fraction";
    case Metric::kScalarCancellationDb: return "scalar_cancellation_db";
    case Metric::kMultitapCancellationDb: return "multitap_cancellation_db";
    case Metric::kWidebandDetect: return "wideband_detect";
    case Metric::kWidebandReactionMs: return "wideband_reaction_ms";
  }
  return "unknown";
}

bool metric_from_name(std::string_view name, Metric* out) {
  for (std::size_t m = 0; m < kMetricCount; ++m) {
    const Metric metric = static_cast<Metric>(m);
    if (metric_name(metric) == name) {
      *out = metric;
      return true;
    }
  }
  return false;
}

bool metric_is_indicator(Metric metric) {
  switch (metric) {
    case Metric::kAttackSuccess:
    case Metric::kAlarm:
    case Metric::kCrossTrafficJammed:
    case Metric::kImdCommandJammed:
    case Metric::kPthreshSuccess:
    case Metric::kWidebandDetect:
      return true;
    default:
      return false;
  }
}

const std::vector<Metric>& metrics_for(ExperimentKind kind) {
  static const std::vector<Metric> eavesdrop = {
      Metric::kAdversaryBer, Metric::kShieldPacketLoss};
  static const std::vector<Metric> attack = {
      Metric::kAttackSuccess, Metric::kAlarm, Metric::kBatteryMj};
  static const std::vector<Metric> coexistence = {
      Metric::kCrossTrafficJammed, Metric::kImdCommandJammed,
      Metric::kTurnaroundUs};
  static const std::vector<Metric> pthresh = {Metric::kPthreshSuccess,
                                              Metric::kPthreshRssiDbm};
  static const std::vector<Metric> timing = {Metric::kReplyDelayIdleMs,
                                             Metric::kReplyDelayBusyMs};
  static const std::vector<Metric> cancellation = {Metric::kCancellationDb};
  static const std::vector<Metric> spectrum = {Metric::kToneBandFraction};
  static const std::vector<Metric> multipath = {
      Metric::kScalarCancellationDb, Metric::kMultitapCancellationDb};
  static const std::vector<Metric> wideband = {Metric::kWidebandDetect,
                                               Metric::kWidebandReactionMs};
  switch (kind) {
    case ExperimentKind::kEavesdrop: return eavesdrop;
    case ExperimentKind::kActiveAttack: return attack;
    case ExperimentKind::kCoexistence: return coexistence;
    case ExperimentKind::kPthresh: return pthresh;
    case ExperimentKind::kImdTiming: return timing;
    case ExperimentKind::kCancellation: return cancellation;
    case ExperimentKind::kSpectrum: return spectrum;
    case ExperimentKind::kMultipathAntidote: return multipath;
    case ExperimentKind::kWideband: return wideband;
  }
  return eavesdrop;
}

bool experiment_uses_deployments(ExperimentKind kind) {
  switch (kind) {
    case ExperimentKind::kSpectrum:
    case ExperimentKind::kMultipathAntidote:
    case ExperimentKind::kWideband:
      return false;
    default:
      return true;
  }
}

std::string_view experiment_kind_name(ExperimentKind kind) {
  switch (kind) {
    case ExperimentKind::kEavesdrop: return "eavesdrop";
    case ExperimentKind::kActiveAttack: return "active_attack";
    case ExperimentKind::kCoexistence: return "coexistence";
    case ExperimentKind::kPthresh: return "pthresh";
    case ExperimentKind::kImdTiming: return "imd_timing";
    case ExperimentKind::kCancellation: return "cancellation";
    case ExperimentKind::kSpectrum: return "spectrum";
    case ExperimentKind::kMultipathAntidote: return "multipath_antidote";
    case ExperimentKind::kWideband: return "wideband";
  }
  return "eavesdrop";
}

std::string_view axis_name(SweepAxis axis) {
  switch (axis) {
    case SweepAxis::kNone: return "point";
    case SweepAxis::kLocation: return "location";
    case SweepAxis::kJamMarginDb: return "jam_margin_db";
    case SweepAxis::kExtraPowerDb: return "extra_power_db";
    case SweepAxis::kHardwareErrorSigma: return "hardware_error_sigma";
    case SweepAxis::kAdversaryPowerDbm: return "adversary_power_dbm";
    case SweepAxis::kMultipathTapDb: return "multipath_tap_db";
    case SweepAxis::kMicsChannel: return "mics_channel";
  }
  return "point";
}

const std::vector<Scenario>& scenario_presets() {
  static const std::vector<Scenario> presets = build_presets();
  return presets;
}

const Scenario* find_scenario(std::string_view name) {
  for (const auto& s : scenario_presets()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace hs::campaign
