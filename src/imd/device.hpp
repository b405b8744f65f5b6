// The implantable medical device as a simulation node.
//
// Externally visible behaviour (all of which the shield's design leans on):
//  * transmits only in response to a decoded, checksum-valid command
//    addressed to its serial number (FCC rule; paper section 2),
//  * replies a fixed ~3.5 ms after the command ends, WITHOUT sensing the
//    medium (Fig. 3) — this is what lets the shield predict and jam the
//    reply window,
//  * discards any frame whose CRC fails (section 3.1's checksum
//    assumption) — this is why reactive jamming defeats active
//    adversaries,
//  * has limited receive sensitivity, and an in-body path loss applies to
//    everything it sends or receives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "imd/battery.hpp"
#include "imd/profiles.hpp"
#include "imd/protocol.hpp"
#include "imd/therapy.hpp"
#include "phy/receiver.hpp"
#include "sim/node.hpp"
#include "sim/transmit_scheduler.hpp"
#include "sim/trace.hpp"

namespace hs::snapshot {
class StateWriter;
}  // namespace hs::snapshot

namespace hs::imd {

struct ImdStats {
  std::size_t frames_detected = 0;   ///< sync acquired
  std::size_t frames_accepted = 0;   ///< CRC valid and addressed to us
  std::size_t crc_failures = 0;      ///< detected but checksum failed
  std::size_t wrong_device = 0;      ///< CRC valid but not our serial
  std::size_t replies_sent = 0;
  std::size_t therapy_changes = 0;
};

class ImdDevice : public sim::RadioNode {
 public:
  ImdDevice(const ImdProfile& profile, channel::Medium& medium,
            sim::EventLog* log, std::uint64_t seed);

  /// Sets the device's trial-start state and registers its antenna with
  /// `medium` (fresh or just reset). The constructor builds only the
  /// receiver's sync and tone tables, which survive while the FSK
  /// parameters hold, and then runs this: construction is a reset, so a
  /// pooled device behaves bit-identically to a new one.
  void reset(const ImdProfile& profile, channel::Medium& medium,
             sim::EventLog* log, std::uint64_t seed);

  // sim::RadioNode
  void produce(const sim::StepContext& ctx, channel::Medium& medium) override;
  void consume(const sim::StepContext& ctx, channel::Medium& medium) override;
  /// No reply queued or on the air, and the receiver not locked.
  bool quiet() const override { return tx_.empty() && !receiver_.locked(); }
  std::string_view name() const override { return name_; }

  channel::AntennaId antenna() const { return antenna_; }
  const ImdProfile& profile() const { return profile_; }

  const TherapySettings& therapy() const { return therapy_; }
  void set_therapy(const TherapySettings& t) { therapy_ = t; }

  Battery& battery() { return battery_; }
  const Battery& battery() const { return battery_; }

  const ImdStats& stats() const { return stats_; }

  /// Over-the-air bits of the most recent reply (ground truth for
  /// eavesdropper BER measurements) and its scheduled start sample.
  const phy::BitVec& last_tx_bits() const { return last_tx_bits_; }
  std::size_t last_tx_start_sample() const { return last_tx_start_; }

  /// Two-phase seeding, trial half: reply-jitter draws (the device's only
  /// per-trial randomness) move to the per-trial stream. Patient data,
  /// battery and protocol state stay at their post-warm-up values.
  void reseed(std::uint64_t trial_seed);

  /// Writes everything the device accumulates into a warm-state snapshot:
  /// receiver stream, scheduled replies, RNG position, modulator phase,
  /// therapy, battery, stats, patient-data cursor and ground-truth bits.
  void save_state(snapshot::StateWriter& w) const;

 private:
  void handle_frame(const phy::ReceivedFrame& rx, const sim::StepContext& ctx);
  void schedule_reply(const phy::Frame& reply, std::size_t at_sample);

  // Every member is set by reset().
  ImdProfile profile_;
  std::string name_;
  channel::AntennaId antenna_;
  sim::EventLog* log_;
  dsp::Rng rng_;

  phy::FskReceiver receiver_;
  phy::FskModulator modulator_;
  sim::TransmitScheduler tx_;
  double tx_amplitude_;

  TherapySettings therapy_;
  Battery battery_;
  ImdStats stats_;
  std::vector<std::uint8_t> patient_data_;
  std::size_t data_cursor_;
  phy::BitVec last_tx_bits_;
  std::size_t last_tx_start_;
};

}  // namespace hs::imd
