// Passive monitor node: an antenna at an arbitrary location feeding a
// frame receiver and (optionally) a raw sample capture.
//
// Plays three roles from the paper's testbed:
//  * the eavesdropping adversary's front end (section 10.2),
//  * the in-body "USRP observer" sandwiched next to the IMD that checks
//    whether the IMD replied (section 10.3), and
//  * the shield log's ground-truth check in the coexistence experiment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "channel/medium.hpp"
#include "phy/receiver.hpp"
#include "sim/node.hpp"

namespace hs::snapshot {
class StateWriter;
}  // namespace hs::snapshot

namespace hs::adversary {

struct MonitorConfig {
  std::string name = "monitor";
  channel::Vec2 position{};
  int walls = 0;
  double body_loss_db = 0.0;   ///< >0 for the in-body observer
  phy::FskParams fsk{};
  bool capture_samples = false;
  std::size_t capture_limit = 1 << 22;  ///< max samples retained
  /// Run the streaming frame receiver on every block. Capture-only
  /// monitors (the eavesdropper front end, which is decoded offline with
  /// genie timing) disable this: it never affects the medium or any other
  /// node, only this monitor's frames() output.
  bool decode_enabled = true;
};

class MonitorNode : public sim::RadioNode {
 public:
  MonitorNode(const MonitorConfig& config, channel::Medium& medium);

  /// Sets the node's trial-start state and registers its antenna with
  /// `medium` (fresh or just reset). The constructor builds only the
  /// receiver's sync and tone tables, which survive while the FSK
  /// parameters hold, and then runs this: construction is a reset. The
  /// new config may move the monitor — the campaign trial pool reuses
  /// one eavesdropper across sweep points.
  void reset(const MonitorConfig& config, channel::Medium& medium);

  void produce(const sim::StepContext& ctx, channel::Medium& medium) override;
  void consume(const sim::StepContext& ctx, channel::Medium& medium) override;
  /// The receiver is not locked on a frame. A capture-only monitor never
  /// feeds its receiver, so it is always quiet.
  bool quiet() const override { return !receiver_.locked(); }
  std::string_view name() const override { return config_.name; }

  channel::AntennaId antenna() const { return antenna_; }

  /// All frames whose sync was acquired (decode status may be any).
  const std::vector<phy::ReceivedFrame>& frames() const { return frames_; }

  /// Raw captured samples (empty unless capture_samples).
  const dsp::Samples& capture() const { return capture_; }
  void clear_capture() { capture_.clear(); }

  /// Absolute sample index corresponding to capture()[0].
  std::size_t capture_start() const { return capture_start_; }

  /// Writes the receiver stream, retained frames and raw capture into a
  /// warm-state snapshot. Only the deployment's in-body observer is ever
  /// snapshotted; per-trial eavesdroppers are reset fresh each trial.
  void save_state(snapshot::StateWriter& w) const;

 private:
  // Every member is set by reset().
  MonitorConfig config_;
  channel::AntennaId antenna_;
  phy::FskReceiver receiver_;
  std::vector<phy::ReceivedFrame> frames_;
  dsp::Samples capture_;
  std::size_t capture_start_;
};

}  // namespace hs::adversary
