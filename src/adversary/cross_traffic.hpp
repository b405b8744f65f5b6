// Legitimate GMSK cross-traffic source modelling the Vaisala RS92-AGP
// radiosonde of the coexistence experiment (section 11): meteorological
// aids are primary users of the band and may transmit on occupied
// channels; the shield must leave them alone.
#pragma once

#include <cstdint>
#include <string>

#include "channel/medium.hpp"
#include "dsp/rng.hpp"
#include "phy/gmsk.hpp"
#include "sim/node.hpp"
#include "sim/transmit_scheduler.hpp"

namespace hs::adversary {

struct CrossTrafficConfig {
  std::string name = "radiosonde";
  channel::Vec2 position{8.0, 3.0};
  int walls = 0;
  double tx_power_dbm = -16.0;
  phy::GmskParams gmsk{};
  std::size_t frame_bits = 256;
};

class CrossTrafficNode : public sim::RadioNode {
 public:
  CrossTrafficNode(const CrossTrafficConfig& config, channel::Medium& medium,
                   std::uint64_t seed);

  /// Sets the node's trial-start state and registers its antenna with
  /// `medium` (fresh or just reset); campaign trial-pool hook. The
  /// constructor runs this: construction is a reset.
  void reset(const CrossTrafficConfig& config, channel::Medium& medium,
             std::uint64_t seed);

  void produce(const sim::StepContext& ctx, channel::Medium& medium) override;
  void consume(const sim::StepContext& ctx, channel::Medium& medium) override;
  /// No frame queued or on the air.
  bool quiet() const override { return tx_.empty(); }
  std::string_view name() const override { return config_.name; }

  channel::AntennaId antenna() const { return antenna_; }

  /// Schedules one telemetry frame of random payload at `at_sample`.
  /// Returns the [start, end) sample range it will occupy.
  std::pair<std::size_t, std::size_t> send_frame(std::size_t at_sample);

  std::size_t frames_sent() const { return frames_sent_; }

 private:
  // Every member is set by reset().
  CrossTrafficConfig config_;
  channel::AntennaId antenna_;
  dsp::Rng rng_;
  phy::GmskModulator modulator_;
  sim::TransmitScheduler tx_;
  double tx_amplitude_;
  std::size_t frames_sent_;
};

}  // namespace hs::adversary
