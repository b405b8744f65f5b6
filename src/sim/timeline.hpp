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

  /// Advances by (at least) the given duration.
  void run_for(double seconds);

  /// Advances until the predicate returns true or `max_seconds` elapse.
  /// Returns true if the predicate fired.
  template <typename Pred>
  bool run_until(Pred&& pred, double max_seconds) {
    const double deadline = now_s() + max_seconds;
    while (now_s() < deadline) {
      if (pred()) return true;
      step();
    }
    return pred();
  }

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
