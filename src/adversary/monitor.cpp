#include "adversary/monitor.hpp"

#include "snapshot/state_io.hpp"

namespace hs::adversary {

MonitorNode::MonitorNode(const MonitorConfig& config, channel::Medium& medium)
    : config_(config), receiver_(config.fsk) {
  register_with_medium(medium);
}

void MonitorNode::register_with_medium(channel::Medium& medium) {
  channel::AntennaDesc desc;
  desc.name = config_.name + "/antenna";
  desc.position = config_.position;
  desc.walls = config_.walls;
  desc.body_loss_db = config_.body_loss_db;
  antenna_ = medium.add_antenna(desc);
}

void MonitorNode::reset(const MonitorConfig& config,
                        channel::Medium& medium) {
  config_ = config;
  receiver_.reset(config.fsk);
  frames_.clear();
  capture_.clear();
  capture_start_ = 0;
  register_with_medium(medium);
}

void MonitorNode::save_state(snapshot::StateWriter& w) const {
  w.begin("monitor");
  w.str("name", config_.name);
  w.u64("antenna", antenna_);
  receiver_.save_state(w);
  w.u64("frames", frames_.size());
  for (const phy::ReceivedFrame& f : frames_) phy::save_received_frame(w, f);
  w.samples("capture", capture_);
  w.u64("capture_start", capture_start_);
  w.end("monitor");
}

void MonitorNode::produce(const sim::StepContext&, channel::Medium&) {
  // Purely passive.
}

void MonitorNode::consume(const sim::StepContext& ctx,
                          channel::Medium& medium) {
  if (config_.capture_samples && capture_.size() < config_.capture_limit) {
    const auto rx = medium.rx(antenna_);
    if (capture_.empty()) capture_start_ = ctx.block_start_sample();
    capture_.insert(capture_.end(), rx.begin(), rx.end());
  }
  if (!config_.decode_enabled) return;
  receiver_.push(medium.rx_soa(antenna_));
  while (auto frame = receiver_.pop()) {
    frames_.push_back(std::move(*frame));
  }
}

}  // namespace hs::adversary
