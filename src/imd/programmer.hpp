// The IMD programmer as a simulation node: sends commands, collects
// responses, optionally performing the FCC 10 ms listen-before-talk.
// Also the signal source the paper's replay adversary records (section 9).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "channel/medium.hpp"
#include "imd/protocol.hpp"
#include "mics/lbt.hpp"
#include "phy/receiver.hpp"
#include "sim/node.hpp"
#include "sim/trace.hpp"
#include "sim/transmit_scheduler.hpp"

namespace hs::imd {

struct ProgrammerConfig {
  channel::Vec2 position{1.5, 0.0};
  double tx_power_dbm = -16.0;  ///< FCC MICS limit
  phy::FskParams fsk{};
  bool lbt_enabled = false;     ///< perform 10 ms CCA before transmitting
};

class ProgrammerNode : public sim::RadioNode {
 public:
  ProgrammerNode(const ProgrammerConfig& config, channel::Medium& medium,
                 sim::EventLog* log);

  /// Sets the node's trial-start state and registers its antenna with
  /// `medium` (fresh or just reset); campaign trial-pool hook. The
  /// constructor builds only the receiver's tables and the CCA meter,
  /// which survive while the FSK parameters (the meter: the sample rate)
  /// hold, and then runs this: construction is a reset.
  void reset(const ProgrammerConfig& config, channel::Medium& medium,
             sim::EventLog* log);

  // sim::RadioNode
  void produce(const sim::StepContext& ctx, channel::Medium& medium) override;
  void consume(const sim::StepContext& ctx, channel::Medium& medium) override;
  /// No command pending or on the air, and the receiver not locked.
  bool quiet() const override {
    return pending_.empty() && tx_.empty() && !receiver_.locked();
  }
  std::string_view name() const override { return name_; }

  channel::AntennaId antenna() const { return antenna_; }

  /// Queues a command for transmission as soon as allowed (immediately, or
  /// after LBT declares the channel clear when enabled).
  void send(const phy::Frame& frame);

  /// Schedules a frame at an absolute sample index (used by the Fig. 3
  /// experiment to transmit while the medium is known to be busy).
  void send_at(const phy::Frame& frame, std::size_t start_sample);

  /// Responses decoded so far (CRC-valid frames from the IMD).
  const std::vector<phy::ReceivedFrame>& responses() const {
    return responses_;
  }

  /// True while a queued command is waiting for LBT clearance.
  bool waiting_for_clear_channel() const { return !pending_.empty(); }

 private:
  // Every member but name_ is set by reset().
  ProgrammerConfig config_;
  std::string name_ = "programmer";
  channel::AntennaId antenna_;
  sim::EventLog* log_;

  phy::FskModulator modulator_;
  phy::FskReceiver receiver_;
  mics::ClearChannelAssessment cca_;
  sim::TransmitScheduler tx_;
  double tx_amplitude_;

  std::vector<phy::Frame> pending_;
  std::vector<phy::ReceivedFrame> responses_;
};

}  // namespace hs::imd
