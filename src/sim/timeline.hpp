// Block-stepped simulation timeline: produce -> mix -> consume per block.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/medium.hpp"
#include "sim/node.hpp"
#include "sim/trace.hpp"

namespace hs::snapshot {
class StateWriter;
}  // namespace hs::snapshot

namespace hs::sim {

class Timeline {
 public:
  explicit Timeline(channel::Medium& medium);

  /// Registers a node. Nodes step in registration order. Not owned.
  void add_node(RadioNode* node);

  /// Drops all registered nodes, clears the event log and rewinds the
  /// block counter to zero. Callers re-register their (reset) nodes in
  /// construction order afterwards; used by Deployment::reset.
  void reset() {
    nodes_.clear();
    block_index_ = 0;
    log_.clear();
  }

  /// Advances one block.
  void step();

  /// Whole blocks covering `seconds`: ceil(seconds * fs / block_size).
  std::size_t blocks_for(double seconds) const;

  /// Advances by (at least) the given duration: blocks_for(seconds)
  /// blocks.
  void run_for(double seconds);

  /// Advances until the predicate returns true, checking it before each
  /// block, or for at most the blocks run_for(max_seconds) would run.
  /// Returns true if the predicate fired.
  template <typename Pred>
  bool run_until(Pred&& pred, double max_seconds) {
    const std::size_t blocks = blocks_for(max_seconds);
    for (std::size_t i = 0; i < blocks; ++i) {
      if (pred()) return true;
      step();
    }
    return pred();
  }

  /// True when every registered node is quiet() (RadioNode). The
  /// experiments' last window runs until this holds.
  bool quiet() const;

  std::size_t block_index() const { return block_index_; }
  std::size_t sample_position() const {
    return block_index_ * medium_.block_size();
  }
  double now_s() const {
    return static_cast<double>(sample_position()) / medium_.fs();
  }

  EventLog& log() { return log_; }
  const EventLog& log() const { return log_; }
  channel::Medium& medium() { return medium_; }

  /// Writes the block counter and the event log into a warm-state
  /// snapshot.
  void save_state(snapshot::StateWriter& w) const;

 private:
  channel::Medium& medium_;
  std::vector<RadioNode*> nodes_;
  std::size_t block_index_ = 0;
  EventLog log_;
};

}  // namespace hs::sim
