#include "adversary/active.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/units.hpp"

namespace hs::adversary {

ActiveAdversaryNode::ActiveAdversaryNode(const ActiveAdversaryConfig& config,
                                         channel::Medium& medium,
                                         sim::EventLog* log)
    : modulator_(config.fsk) {
  // modulator_ has no default constructor; reset() replaces it.
  reset(config, medium, log);
}

void ActiveAdversaryNode::reset(const ActiveAdversaryConfig& config,
                                channel::Medium& medium,
                                sim::EventLog* log) {
  config_ = config;
  log_ = log;
  modulator_ = phy::FskModulator(config.fsk);
  tx_ = sim::TransmitScheduler();
  tx_amplitude_ = std::sqrt(dsp::dbm_to_mw(config.tx_power_dbm));
  next_allowed_sample_ = 0;
  next_block_start_ = 0;

  channel::AntennaDesc desc;
  desc.name = config.name + "/antenna";
  desc.position = config.position;
  desc.walls = config.walls;
  antenna_ = medium.add_antenna(desc);
}

void ActiveAdversaryNode::set_tx_power_dbm(double dbm) {
  config_.tx_power_dbm = dbm;
  tx_amplitude_ = std::sqrt(dsp::dbm_to_mw(dbm));
}

void ActiveAdversaryNode::inject(const phy::Frame& frame,
                                 std::size_t at_sample) {
  const std::size_t at =
      std::max({at_sample, next_allowed_sample_, next_block_start_});
  dsp::Samples wave = modulator_.modulate(phy::encode_frame(frame));
  next_allowed_sample_ = at + wave.size();
  tx_.schedule(at, std::move(wave));
  if (log_ != nullptr) {
    log_->record(static_cast<double>(at) / config_.fsk.fs, config_.name,
                 sim::EventKind::kTxStart, "unauthorized command");
  }
}

void ActiveAdversaryNode::produce(const sim::StepContext& ctx,
                                  channel::Medium& medium) {
  next_block_start_ = ctx.block_start_sample() + ctx.block_size;
  dsp::Samples block;
  if (tx_.fill(ctx.block_start_sample(), ctx.block_size, block)) {
    for (auto& x : block) x *= tx_amplitude_;
    medium.set_tx(antenna_, block);
  }
}

// The adversary only transmits; what its antenna hears is never decoded.
void ActiveAdversaryNode::consume(const sim::StepContext&, channel::Medium&) {}

}  // namespace hs::adversary
