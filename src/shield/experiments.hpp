/// @file
/// Reusable experiment drivers for the paper's evaluation section.
/// Each function stands up a full Fig. 6-style deployment, runs the
/// scripted scenario, and returns raw measurements; the campaign runner
/// aggregates them into the paper's tables and figures, and the
/// integration tests assert on them.
///
/// Every driver accepts an optional TrialContext. With one, the
/// deployment and experiment nodes are drawn from the pool (reset and
/// reseeded rather than reconstructed) — bit-identical results, a
/// fraction of the setup cost. Without one, a private context is used
/// and discarded, which is plain fresh construction.
///
/// Each packet or attempt gets a 45 ms window. In the eavesdrop and
/// attack drivers the last one ends early, once every node is quiet
/// (sim::Timeline::quiet): nothing they score can change after that.
#pragma once

#include <cstdint>
#include <vector>

#include "imd/profiles.hpp"
#include "shield/deployment.hpp"
#include "shield/jamgen.hpp"
#include "shield/trial_context.hpp"

namespace hs::shield {

// ---------------------------------------------------------------------------
// Passive-adversary experiment (sections 10.2, Figs. 8-10): the shield
// repeatedly triggers the IMD to transmit while jamming; an eavesdropper at
// a testbed location records and decodes with the optimal FSK decoder.
// ---------------------------------------------------------------------------

struct EavesdropOptions {
  std::uint64_t seed = 1;
  int location_index = 1;
  std::size_t packets = 100;
  /// If set, overrides the jamming power to measured-IMD-RSSI + this
  /// margin (Fig. 8's x-axis). Negative margins allowed. NaN => default.
  double jam_margin_db = 20.0;
  bool use_margin_override = false;
  JamProfile jam_profile = JamProfile::kShaped;
  /// Decode with the two-tone band-pass-filter attack instead of the
  /// plain optimal decoder (shaping ablation).
  bool bandpass_attack = false;
  bool shield_present = true;
  /// Antidote analog accuracy (the SINR-gap ablation sweeps this);
  /// <= 0 keeps the shield default.
  double hardware_error_sigma = 0.0;
};

struct EavesdropResult {
  std::vector<double> eavesdropper_ber;  ///< per decoded packet
  std::size_t imd_packets = 0;           ///< packets the IMD transmitted
  std::size_t shield_decoded = 0;        ///< decoded through jamming
  double shield_packet_loss() const {
    return imd_packets == 0
               ? 0.0
               : 1.0 - static_cast<double>(shield_decoded) /
                           static_cast<double>(imd_packets);
  }
  double mean_ber() const;
};

EavesdropResult run_eavesdrop_experiment(const EavesdropOptions& options,
                                         TrialContext* context = nullptr);

// ---------------------------------------------------------------------------
// Active-adversary experiment (section 10.3, Figs. 11-13): an adversary at
// a testbed location sends unauthorized commands, with and without the
// shield; an in-body observer checks whether the IMD responded.
// ---------------------------------------------------------------------------

enum class AttackKind {
  kTriggerTransmission,  ///< battery-depletion interrogation (Fig. 11)
  kChangeTherapy,        ///< therapy modification (Fig. 12)
};

struct AttackOptions {
  std::uint64_t seed = 1;
  /// Which IMD model is under attack (Virtuoso or Concerto).
  imd::ImdProfile imd_profile = imd::virtuoso_profile();
  int location_index = 1;
  std::size_t trials = 100;
  bool shield_present = true;
  /// dB above the FCC limit (the 100x adversary of Fig. 13 uses +20).
  double extra_power_db = 0.0;
  AttackKind kind = AttackKind::kTriggerTransmission;
};

struct AttackResult {
  std::size_t trials = 0;
  std::size_t successes = 0;
  std::size_t alarms = 0;
  double success_probability() const {
    return trials ? static_cast<double>(successes) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  /// Battery energy the IMD spent transmitting during the attack (mJ).
  double battery_energy_spent_mj = 0.0;
};

AttackResult run_attack_experiment(const AttackOptions& options,
                                   TrialContext* context = nullptr);

// ---------------------------------------------------------------------------
// Coexistence experiment (section 11, Table 2): a USRP alternates between
// unauthorized IMD commands and radiosonde GMSK cross-traffic; the shield
// must jam all of the former and none of the latter. Also measures the
// shield's turn-around time after the adversary stops transmitting.
// ---------------------------------------------------------------------------

struct CoexistenceOptions {
  std::uint64_t seed = 1;
  std::vector<int> location_indices = {1, 3, 5, 7, 9};
  std::size_t rounds_per_location = 10;  ///< one command + one cross frame
};

struct CoexistenceResult {
  std::size_t imd_commands_sent = 0;
  std::size_t imd_commands_jammed = 0;
  std::size_t cross_frames_sent = 0;
  std::size_t cross_frames_jammed = 0;
  std::vector<double> turnaround_us;  ///< jam-stop latency per jam
};

CoexistenceResult run_coexistence_experiment(const CoexistenceOptions& options,
                                             TrialContext* context = nullptr);

}  // namespace hs::shield
