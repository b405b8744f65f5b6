// RadioNode: the interface every over-the-air participant implements
// (IMD, programmer, shield, adversaries, observers).
//
// The timeline advances in fixed blocks. Each block every node first
// *produces* its transmit samples, then the medium mixes, then every node
// *consumes* what its antennas received. A node therefore reacts to block
// k's air at the earliest in block k+1 — one block of genuine processing
// latency, which is what gives the shield a realistic, measurable
// turn-around time (Table 2 of the paper).
#pragma once

#include <cstddef>
#include <string_view>

#include "channel/medium.hpp"

namespace hs::sim {

struct StepContext {
  std::size_t block_index = 0;
  std::size_t block_size = 0;
  double fs = 0.0;

  /// Absolute sample index of the first sample in this block.
  std::size_t block_start_sample() const { return block_index * block_size; }
  /// Wall-clock time of the block start, in seconds.
  double block_start_s() const {
    return static_cast<double>(block_start_sample()) / fs;
  }
  double sample_duration_s() const { return 1.0 / fs; }
};

class RadioNode {
 public:
  virtual ~RadioNode() = default;

  /// Writes this block's transmissions into the medium (Medium::set_tx).
  virtual void produce(const StepContext& ctx, channel::Medium& medium) = 0;

  /// Reads this block's received samples (Medium::rx_soa) and updates
  /// state.
  virtual void consume(const StepContext& ctx, channel::Medium& medium) = 0;

  /// True when this node has nothing on the air or scheduled, no
  /// receiver locked on a frame, and no jam on or pending. Once every
  /// node is quiet (Timeline::quiet), only thermal noise and shield
  /// probes reach the air; neither locks a receiver, so no stat a trial
  /// scores can change, and the attack and eavesdrop drivers end their
  /// last window there. A node reads quiet one block after its last
  /// sample: TransmitScheduler drops a finished waveform on the next fill.
  virtual bool quiet() const = 0;

  virtual std::string_view name() const = 0;
};

}  // namespace hs::sim
