// The shield: a wearable jammer-cum-receiver that protects an unmodified
// IMD (the paper's core contribution, sections 4-7).
//
// Two antennas, three signal paths:
//   jam antenna ---- shaped random jamming j(t)
//   rx antenna tx chain ---- antidote x(t) = -(H_jam->rec/H_self) j(t),
//       cancelling j(t) at the receive front end only
//   rx antenna rx chain ---- everything on the medium, with the shield's
//       own jamming cancelled, feeding a streaming FSK receiver
//
// Behaviours per block:
//  * PROBING: every probe interval (and before transmitting or jamming if
//    stale) send a two-block probe pair to re-estimate H_jam->rec and
//    H_self (section 5, "channel estimation").
//  * RELAY TX: transmit an authorized command to the IMD from the rx
//    antenna's transmit chain; monitor concurrently with digital
//    self-cancellation and switch to jamming if anything transmits over
//    us (anti-capture, section 7). After our command ends, schedule the
//    passive jam window [end+T1, end+T2+P] for the IMD's reply.
//  * PASSIVE JAM: during a reply window, jam + antidote + decode the
//    IMD's packet from the cancelled stream (section 6).
//  * ACTIVE JAM: when the monitor's partially decoded bits match S_id
//    within b_thresh, jam until the medium goes idle; raise an alarm if
//    the packet's RSSI exceeds P_thresh; if it did, also jam the reply
//    window afterwards in case the command got through (section 7(d)).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "channel/medium.hpp"
#include "dsp/power.hpp"
#include "dsp/rng.hpp"
#include "phy/receiver.hpp"
#include "shield/antidote.hpp"
#include "shield/config.hpp"
#include "shield/jamgen.hpp"
#include "shield/sid_matcher.hpp"
#include "sim/node.hpp"
#include "sim/trace.hpp"
#include "sim/transmit_scheduler.hpp"

namespace hs::snapshot {
class StateWriter;
}  // namespace hs::snapshot

namespace hs::shield {

class ShieldNode : public sim::RadioNode {
 public:
  ShieldNode(const ShieldConfig& config, channel::Medium& medium,
             sim::EventLog* log, std::uint64_t seed);

  /// Returns the node to the state a fresh `ShieldNode(config, medium,
  /// log, seed)` would have, re-registering its antennas and pair gains
  /// with `medium` (which the caller has just reset). Reuses the jamming
  /// generator's cached spectral profile when the FSK parameters are
  /// unchanged — the expensive part of construction — so a reset shield
  /// behaves bit-identically to a newly built one at a fraction of the
  /// cost. Part of the campaign engine's trial-context pool.
  void reset(const ShieldConfig& config, channel::Medium& medium,
             sim::EventLog* log, std::uint64_t seed);

  // sim::RadioNode
  void produce(const sim::StepContext& ctx, channel::Medium& medium) override;
  void consume(const sim::StepContext& ctx, channel::Medium& medium) override;
  std::string_view name() const override { return name_; }

  // ---- Relay-facing API -------------------------------------------------
  /// Queues an authorized command for transmission to the IMD.
  void relay_command(const phy::Frame& frame);

  /// CRC-valid IMD frames decoded (through the shield's own jamming).
  std::vector<phy::ReceivedFrame> take_decoded_replies();

  // ---- Introspection ------------------------------------------------------
  channel::AntennaId rx_antenna() const { return rx_ant_; }
  channel::AntennaId jam_antenna() const { return jam_ant_; }
  const ShieldConfig& config() const { return config_; }
  const ShieldStats& stats() const { return stats_; }
  bool jamming() const { return active_jam_ || manual_jam_; }
  bool antidote_ready() const { return antidote_.ready(); }
  double measured_imd_rssi_dbm() const;
  /// Current jamming transmit power (dBm), after margin & FCC clamping.
  double jam_power_dbm() const;

  // ---- Calibration / test hooks (used by section-10.1 calibrations) ------
  void set_manual_jam(bool on) { manual_jam_ = on; }
  void set_antidote_enabled(bool on) { antidote_enabled_ = on; }
  void set_jam_power_override(std::optional<double> dbm);
  void force_probe() { probe_due_ = true; }
  const AntidoteController& antidote() const { return antidote_; }
  /// Read-only view of the monitor receiver (tests/diagnostics).
  const phy::FskReceiver& monitor() const { return monitor_; }

  /// When enabled, every non-own frame the monitor completes (any decode
  /// status) is retained for offline analysis — the "shield logs all of
  /// the packets" mode of the b_thresh calibration (section 10.1(c)).
  void set_frame_capture(bool on) { capture_frames_ = on; }
  std::vector<phy::ReceivedFrame> take_monitor_frames();

  /// Two-phase seeding, trial half: the shield's own draws (self-cancel
  /// errors), the jamming one-time pad and future antidote epochs move to
  /// per-trial streams. Channel estimates, noise floor, probe schedule —
  /// the post-calibration operating point — are untouched.
  void reseed(std::uint64_t trial_seed);

  /// Writes the complete node into a warm-state snapshot: RNG positions,
  /// jamming generator (incl. its cached spectral profile), antidote
  /// estimates, S_id matcher, monitor receiver stream, modulator phase,
  /// transmit scheduler, probe waveform/schedule, jamming and windowing
  /// state, power estimates, retained frames and stats.
  void save_state(snapshot::StateWriter& w) const;

 private:
  enum class ProbePhase { kNone, kJamAntenna, kSelfLoop };

  /// Adds the two antennas and their hardware-coupling pair gains to the
  /// medium (shared by the constructor and reset()).
  void register_with_medium(channel::Medium& medium);

  void start_active_jam(const sim::StepContext& ctx, double trigger_rssi,
                        bool from_own_tx);
  void stop_active_jam(const sim::StepContext& ctx);
  void schedule_reply_window(std::size_t signal_end_sample);
  bool in_passive_window(std::size_t block_start,
                         std::size_t block_end) const;
  void prune_windows(std::size_t before_sample);
  double idle_threshold() const;
  double self_residual_threshold() const;
  void emit_jam(const sim::StepContext& ctx, channel::Medium& medium);
  void handle_monitor_frames(const sim::StepContext& ctx);
  void check_sid_mid_packet(const sim::StepContext& ctx, double block_power);
  static bool f_is_reply_window_failure(const phy::ReceivedFrame& frame);

  ShieldConfig config_;
  std::string name_ = "shield";
  channel::AntennaId jam_ant_;
  channel::AntennaId rx_ant_;
  sim::EventLog* log_;
  dsp::Rng rng_;

  JammingSignalGenerator jamgen_;
  AntidoteController antidote_;
  SidMatcher sid_;
  phy::FskReceiver monitor_;
  phy::FskModulator modulator_;
  sim::TransmitScheduler tx_;

  // Probing.
  ProbePhase probe_phase_ = ProbePhase::kNone;
  dsp::Samples probe_waveform_;
  double probe_amplitude_;
  bool probe_due_ = true;
  double last_probe_s_ = -1.0;

  // Jamming state.
  bool active_jam_ = false;
  bool manual_jam_ = false;
  bool antidote_enabled_ = true;
  bool jammed_this_block_ = false;
  dsp::SoaSamples jam_block_;      ///< split-complex jam stream slice
  dsp::SoaSamples antidote_block_; ///< scratch: coeff * jam_block_
  dsp::SoaSamples work_;           ///< scratch: rx minus own-tx cancellation
  std::size_t active_jam_started_block_ = 0;
  std::size_t quiet_blocks_ = 0;
  bool high_power_suspect_ = false;
  std::vector<std::pair<std::size_t, std::size_t>> passive_windows_;

  // Own transmissions.
  std::vector<phy::Frame> pending_;  ///< relay commands awaiting release
  std::deque<std::pair<std::size_t, std::size_t>> own_tx_ranges_;
  dsp::Samples own_tx_block_;
  bool transmitted_this_block_ = false;
  dsp::cplx self_cancel_error_{0.0, 0.0};

  // Monitoring state.
  double noise_floor_mw_;
  double last_block_power_ = 0.0;  ///< most recent un-jammed block power
  double imd_rssi_mw_ = 0.0;  ///< EWMA of decoded IMD frame power
  std::optional<double> jam_power_override_dbm_;
  std::size_t sid_checked_bits_ = 0;
  std::size_t current_lock_start_ = 0;
  double current_lock_peak_power_ = 0.0;

  std::vector<phy::ReceivedFrame> decoded_replies_;
  bool capture_frames_ = false;
  std::vector<phy::ReceivedFrame> captured_frames_;
  ShieldStats stats_;
};

}  // namespace hs::shield
