// Active adversary node (paper section 3.2(b) and 10.3).
//
// Capabilities, from the threat model:
//  * forge its own unauthorized command frames (a sophisticated adversary
//    that reverse-engineered the protocol),
//  * transmit at the FCC limit (commercial programmer hardware) or at
//    100x the shield's power (custom hardware, Fig. 13).
// Replay of a recorded programmer command (section 9) is not modelled:
// no experiment uses it, and a replayed frame reaches the IMD exactly as
// a forged one does.
#pragma once

#include <cstdint>
#include <string>

#include "channel/medium.hpp"
#include "dsp/rng.hpp"
#include "imd/protocol.hpp"
#include "phy/fsk.hpp"
#include "sim/node.hpp"
#include "sim/trace.hpp"
#include "sim/transmit_scheduler.hpp"

namespace hs::adversary {

struct ActiveAdversaryConfig {
  std::string name = "adversary";
  channel::Vec2 position{5.0, 0.0};
  int walls = 0;
  double tx_power_dbm = -16.0;  ///< FCC limit; +20 dB for the 100x attacker
  phy::FskParams fsk{};
};

class ActiveAdversaryNode : public sim::RadioNode {
 public:
  ActiveAdversaryNode(const ActiveAdversaryConfig& config,
                      channel::Medium& medium, sim::EventLog* log);

  /// Sets the node's trial-start state and registers its antenna with
  /// `medium` (fresh or just reset). The constructor runs this:
  /// construction is a reset. The new config may move the adversary;
  /// campaign trial-pool hook.
  void reset(const ActiveAdversaryConfig& config, channel::Medium& medium,
             sim::EventLog* log);

  void produce(const sim::StepContext& ctx, channel::Medium& medium) override;
  void consume(const sim::StepContext& ctx, channel::Medium& medium) override;
  /// Nothing injected is still queued or on the air.
  bool quiet() const override { return tx_.empty(); }
  std::string_view name() const override { return config_.name; }

  channel::AntennaId antenna() const { return antenna_; }
  const ActiveAdversaryConfig& config() const { return config_; }

  /// Forges and schedules an unauthorized command at an absolute sample;
  /// anything in the past (including the default 0) is clamped to the
  /// next block boundary.
  void inject(const phy::Frame& frame, std::size_t at_sample = 0);

  /// Retunes the transmit power (e.g., the P_thresh calibration sweep or
  /// switching to the 100x high-power mode).
  void set_tx_power_dbm(double dbm);
  double tx_power_dbm() const { return config_.tx_power_dbm; }

 private:
  // Every member is set by reset().
  ActiveAdversaryConfig config_;
  channel::AntennaId antenna_;
  sim::EventLog* log_;
  phy::FskModulator modulator_;
  sim::TransmitScheduler tx_;
  double tx_amplitude_;
  std::size_t next_allowed_sample_;
  std::size_t next_block_start_;  ///< tracked from produce()
};

}  // namespace hs::adversary
