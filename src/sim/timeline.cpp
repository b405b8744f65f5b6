#include "sim/timeline.hpp"

#include <cmath>

#include "snapshot/state_io.hpp"

namespace hs::sim {

Timeline::Timeline(channel::Medium& medium) : medium_(medium) {}

void Timeline::add_node(RadioNode* node) { nodes_.push_back(node); }

void Timeline::step() {
  StepContext ctx;
  ctx.block_index = block_index_;
  ctx.block_size = medium_.block_size();
  ctx.fs = medium_.fs();

  medium_.begin_block();
  for (RadioNode* node : nodes_) node->produce(ctx, medium_);
  medium_.mix();
  for (RadioNode* node : nodes_) node->consume(ctx, medium_);
  ++block_index_;
}

void Timeline::run_for(double seconds) {
  const auto blocks = static_cast<std::size_t>(std::ceil(
      seconds * medium_.fs() / static_cast<double>(medium_.block_size())));
  for (std::size_t i = 0; i < blocks; ++i) step();
}

void Timeline::save_state(snapshot::StateWriter& w) const {
  w.begin("timeline");
  w.u64("block_index", block_index_);
  log_.save_state(w);
  w.end("timeline");
}

}  // namespace hs::sim
